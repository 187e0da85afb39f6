//go:build !(linux && (amd64 || arm64))

package ipc

import (
	"errors"
	"net"
)

// ArenaSupported is false here: servers make no arena and clients never
// ask for one, so every payload rides the socket inline.
const ArenaSupported = false

var errNoSharedMemory = errors.New("shared memory unsupported on this platform")

func newArena(int) (*arena, error)              { return nil, errNoSharedMemory }
func dupFD(int) (int, error)                    { return -1, errNoSharedMemory }
func mapGrant(int, int) ([]byte, *arena, error) { return nil, nil, errNoSharedMemory }
func sendFD(net.Conn, []byte, int) error        { return errNoSharedMemory }
func closeFDs([]int)                            {}
func unmapShared([]byte)                        {}
func recvFDs(*net.UnixConn, []byte) (int, []int, bool, error) {
	return 0, nil, false, errNoSharedMemory
}
