package ipc

import "io"

// readFrame reads one frame through the production decoder with a reader of
// its own. The stub servers call it once per request: a client never sends
// a second frame before the first is answered, so the bytes a fresh reader
// may buffer past the frame do not exist.
func readFrame(r io.Reader) (opcode byte, trace uint64, payload []byte, err error) {
	return newConnReader(r, serverReadBuf).readFrame()
}
