//go:build !(linux && (amd64 || arm64))

package ipc

import (
	"errors"
	"net"
)

// RegionSupported is false here: clients never ask for a payload region
// and servers refuse one, so every payload rides the socket inline.
const RegionSupported = false

var errNoRegion = errors.New("payload region unsupported on this platform")

func newRegion(int) (int, []byte, error) { return -1, nil, errNoRegion }
func mapRegion(int, int) ([]byte, error) { return nil, errNoRegion }
func sendFD(net.Conn, []byte, int) error { return errNoRegion }
func closeFDs([]int)                     {}
func unmapRegion([]byte)                 {}
func recvFDs(*net.UnixConn, []byte) (int, []int, bool, error) {
	return 0, nil, false, errNoRegion
}
