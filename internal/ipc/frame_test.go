package ipc

import (
	"bytes"
	"io"
	"testing"
)

// frameReader reads the frames a test's peer sends on one connection
// through the production decoder. A test keeps one per connection: a read
// may take in bytes past the frame it returns — a client sends OpRelease
// without waiting for a reply, so the request behind it can arrive in the
// same read — and the next frame is decoded from those.
func frameReader(conn io.Reader) *connReader { return newConnReader(conn, serverReadBuf) }

// TestFrameReaderKeepsPipelinedFrames: two frames that arrive in one read —
// an OpRelease, which is never answered, and the request behind it — both
// come out of one connection's reader, in order.
func TestFrameReaderKeepsPipelinedFrames(t *testing.T) {
	var wire bytes.Buffer
	if err := writeFrame(&wire, OpRelease, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&wire, OpRead, 7, appendString(nil, "a.bin")); err != nil {
		t.Fatal(err)
	}
	rd := frameReader(&wire)
	for _, want := range []struct {
		op      byte
		trace   uint64
		payload string
	}{{OpRelease, 0, ""}, {OpRead, 7, string(appendString(nil, "a.bin"))}} {
		op, trace, payload, err := rd.readFrame()
		if err != nil || op != want.op || trace != want.trace || string(payload) != want.payload {
			t.Fatalf("frame: opcode %d trace %d %q %v; want opcode %d trace %d %q", op, trace, payload, err, want.op, want.trace, want.payload)
		}
	}
	if wire.Len() != 0 {
		t.Fatalf("%d bytes left unread", wire.Len())
	}
}
