// Package ipc implements the UNIX-domain-socket client/server PRISMA uses
// to serve multi-process consumers (paper §IV: "because PyTorch uses
// processes instead of threads, we implemented an inter-process
// communication client-server through UNIX Domain Sockets. For each
// spawned process, a PRISMA client instance is created to intercept all
// read invocations and submit them to the server").
//
// Wire format: every message is a frame of
//
//	uint32 length (big endian) | uint8 opcode | uint64 trace (big endian) | payload
//
// where length covers opcode+trace+payload. The trace field propagates the
// sample's span context across the process boundary (zero = unsampled);
// responses echo the request's trace id, doubling as a desync guard.
// Strings and counts inside payloads are uvarint-prefixed. Responses carry
// a status byte (0 = ok, 1 = error-with-message).
//
// The control plane has two opcodes (DESIGN.md §27): OpGet returns the
// snapshot document GET /debug/bundle serves, and OpControl hands key=value
// settings to the stage's control table. The server decodes neither a view
// nor a knob itself.
//
// Socket read-ahead (DESIGN.md §19) rides OpRead without a new opcode. The
// request is the name followed by an optional tail
//
//	uvarint window | uvarint byte budget | uvarint wasted-since-last
//
// and the OK reply to a request that carried the tail is the requested
// sample followed — only when it was a planned read — by
//
//	uvarint count | count x ( string name | uvarint size | bytes payload )
//
// the next plan entries the server predicts this connection will ask for.
// Servers that predate the tail ignore trailing request bytes and clients
// that predate it never send it, so both mixed pairings keep working.
//
// Shared arena (DESIGN.md §29): before a connection's first read a client
// that can read one sends OpArena with the payload uvarint 1. A server
// whose buffer pool is carved from an arena answers OK | uvarint size |
// uvarint 1 and passes a write-sealed duplicate of the arena's descriptor
// with SCM_RIGHTS. From then on every sample head in a read reply on that
// connection carries a third field,
//
//	uvarint size | uvarint length | uvarint location
//
// where location 0 means the payload follows inline, as above, and k > 0
// that it sits at arena offset k-1, where the producer put it. The payload
// stays leased to the connection until its next frame, and the client
// copies it out while decoding. A planned reply whose pushed count has bit
// 0x40 set left the connection's stride at the end of the plan: the client
// answers it with a header-only OpRelease, which gets no reply, so an idle
// connection holds no lease. Every other pairing stays inline: a server
// without an arena, or one that predates OpArena, answers with an error,
// as it does an old client's empty payload, and the connection stays
// healthy. A server that predates the arena ignores the payload and grants
// a payload region, OK | uvarint size; the client refuses that grant, which
// costs the connection, and its redial reads inline. Non-Linux builds and
// connections that are not UNIX-domain sockets never ask.
package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// Opcodes. Numbers 3, 4, 5, 7, 8, 9, 11, 13 and 14 once carried one view
// or one knob each; they are retired, and a server answers them as unknown
// opcodes. OpGet and OpControl carry every view and every knob.
const (
	OpRead        = 1  // request a file read through the stage
	OpPlan        = 2  // submit an epoch filename list
	OpPing        = 6  // liveness probe
	OpCancelEpoch = 10 // control: cancel a plan epoch by id
	OpHello       = 12 // establish the connection's tenant identity

	// OpGet fetches the stage's snapshot document (JSON). The optional
	// payload is a uvarint bound on the spans it carries; empty means the
	// default bound.
	OpGet = 15

	// OpPeerRead is a node-to-node forwarded read in the cluster fabric:
	// the requester does not own the sample and asks the owner to serve it
	// from its buffer. Same response shape and non-resendable discipline as
	// OpRead (the owner's evict-on-read buffer consumes the sample), but
	// dispatched through the server's peer router so owner-side accounting
	// (peer-serve spans, cluster counters) stays separate from local reads.
	OpPeerRead = 16

	// OpControl sets knobs through the stage's control table:
	//
	//	uvarint count | count x ( string key | string value )
	//
	// applied all or none. Resendable: every value is absolute.
	OpControl = 17

	// OpArena with the payload uvarint 1 asks for the server's arena. The
	// OK reply is the size (uvarint) followed by uvarint 1, and carries the
	// descriptor; a connection gets one grant, so asking again is an error,
	// as is asking a server without an arena, or with any other payload.
	OpArena = 18

	// OpRelease ends the leases an arena connection holds for its last
	// reply. Header only, and never answered.
	OpRelease = 19
)

// Response status bytes.
const (
	statusOK  = 0
	statusErr = 1
	// statusOverloaded is the typed load-shed rejection: the request was
	// refused at admission (before executing, so resending is safe) and the
	// payload carries a retry-after hint plus the throttled tenant.
	statusOverloaded = 2
)

// MaxFrame bounds a frame payload; larger frames indicate a corrupt or
// hostile peer.
const MaxFrame = 64 << 20

// ErrFrameTooLarge reports an oversized frame.
var ErrFrameTooLarge = errors.New("ipc: frame exceeds maximum size")

// Read-ahead bounds. Constants, not knobs: both ends clamp to them.
const (
	// maxAheadWindow is the most samples one reply carries behind the
	// requested one. With payloads crossing in shared memory (DESIGN.md
	// §29) an exchange moves no sample bytes through the kernel, so what it
	// costs is the round trip itself — two syscalls and a wakeup on each
	// side — and every sample pushed is one exchange saved. Two clients
	// striding a plan of 4 KiB samples got 8.5 samples per reply at 8, 88 %
	// of reads pushed, and 28.5 at 32, 96.5 %. Larger samples stay bound by
	// maxAheadBytes, so the window only grows where samples are small, and
	// what a misprediction wastes stays within the same byte budget.
	maxAheadWindow = 32
	// maxAheadBytes bounds the pushed payload bytes per reply, and with it
	// a client's stash: 128 KiB holds a full window of small samples and
	// one or two large ones, which kept the large-file workload's peak RSS
	// within +5 %.
	maxAheadBytes = 128 << 10
)

// maxArenaSize is the largest arena a server makes (arenaBytes) and a
// client maps.
const maxArenaSize = 1 << 30

// arenaVersion is OpArena's payload from a client that reads an arena,
// and the field behind the size in a reply that grants one.
const arenaVersion = 1

// endOfPlan is the bit of a planned reply's pushed count that asks an arena
// client for OpRelease: the reply left the connection's confirmed stride
// with no next planned entry, so no request may come to end its leases.
// Counts never reach it (maxAheadWindow < endOfPlan), so on a connection
// without an arena it reads as a count past the window.
const endOfPlan = 0x40

// frameHeaderLen is the fixed prefix of every frame: length, opcode, trace.
const frameHeaderLen = 13

// connReader is the per-connection read buffer both ends parse frames
// through: header, head and small payloads of a frame come out of one or
// two reads, while a large payload's remainder is read straight into its
// destination (readFull). It exists instead of bufio.Reader for that last
// rule — bufio bypasses its buffer only for reads larger than the whole
// buffer — and for the bounded first read (minFill).
type connReader struct {
	src  io.Reader
	buf  []byte
	r, w int // buf[r:w] is buffered, unread
}

const (
	// minFill is how much a read asks the kernel for when less is needed: a
	// frame's header is read without knowing what follows, and whatever
	// arrives with it that turns out to be the front of a large payload is
	// copied twice. 8 KiB holds a whole small-sample reply.
	minFill = 8 << 10
	// directReadMin is the payload remainder from which readFull bypasses
	// the buffer: below it, one more buffered read also brings the bytes
	// that follow (the next pushed sample's head).
	directReadMin = 4 << 10
)

func newConnReader(src io.Reader, size int) *connReader {
	return &connReader{src: src, buf: make([]byte, size)}
}

// reset points the reader at a fresh connection, dropping buffered bytes.
func (cr *connReader) reset(src io.Reader) { cr.src, cr.r, cr.w = src, 0, 0 }

// peek returns the next n bytes without consuming them, reading until they
// are buffered. n must not exceed the buffer size. The slice is valid until
// the next peek or readFull.
func (cr *connReader) peek(n int) ([]byte, error) {
	if n > len(cr.buf) {
		return nil, fmt.Errorf("ipc: %d-byte field exceeds the %d-byte read buffer", n, len(cr.buf))
	}
	if cr.r+n > len(cr.buf) {
		cr.w = copy(cr.buf, cr.buf[cr.r:cr.w])
		cr.r = 0
	}
	for cr.w-cr.r < n {
		end := cr.w + max(n-(cr.w-cr.r), minFill)
		m, err := cr.src.Read(cr.buf[cr.w:min(end, len(cr.buf))])
		cr.w += m
		if err != nil && cr.w-cr.r < n {
			if err == io.EOF && cr.w > cr.r {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return cr.buf[cr.r : cr.r+n], nil
}

// discard consumes n peeked bytes.
func (cr *connReader) discard(n int) {
	if cr.r += n; cr.r == cr.w {
		cr.r, cr.w = 0, 0
	}
}

// readFull fills dst: buffered bytes first, then the rest from the
// connection — directly when it is large, through the buffer when small.
func (cr *connReader) readFull(dst []byte) error {
	n := copy(dst, cr.buf[cr.r:cr.w])
	cr.discard(n)
	rest := dst[n:]
	if len(rest) >= directReadMin {
		_, err := io.ReadFull(cr.src, rest)
		return err
	}
	if len(rest) > 0 {
		b, err := cr.peek(len(rest))
		if err != nil {
			return err
		}
		copy(rest, b)
		cr.discard(len(rest))
	}
	return nil
}

// readFrame receives one whole frame — the server's request loop. A payload
// that fits the read buffer aliases it (valid until the next read from cr),
// so steady-state request decoding allocates nothing; a larger one (an
// epoch plan) is a fresh allocation.
func (cr *connReader) readFrame() (opcode byte, trace uint64, payload []byte, err error) {
	hdr, err := cr.peek(frameHeaderLen)
	if err != nil {
		return 0, 0, nil, err
	}
	n, err := frameLen(hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	opcode, trace = hdr[4], binary.BigEndian.Uint64(hdr[5:frameHeaderLen])
	cr.discard(frameHeaderLen)
	if n <= len(cr.buf) {
		if payload, err = cr.peek(n); err != nil {
			return 0, 0, nil, err
		}
		cr.discard(n)
		return opcode, trace, payload, nil
	}
	payload = make([]byte, n)
	if err := cr.readFull(payload); err != nil {
		return 0, 0, nil, err
	}
	return opcode, trace, payload, nil
}

// frameLen validates a frame header's length prefix and returns the payload
// length (the bytes after opcode and trace) — the bound every later length
// in the frame is checked against before anything is allocated.
func frameLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 9 {
		return 0, fmt.Errorf("ipc: short frame (%d bytes)", n)
	}
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return int(n) - 9, nil
}

// writeFrame sends opcode+trace+payload as one frame.
func writeFrame(w io.Writer, opcode byte, trace uint64, payload []byte) error {
	if len(payload)+9 > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [frameHeaderLen]byte
	if _, err := w.Write(appendFrameHeader(hdr[:0], opcode, trace, len(payload))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// appendString encodes a uvarint-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readString decodes a uvarint-prefixed string, returning the remainder.
func readString(src []byte) (string, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return "", nil, fmt.Errorf("ipc: malformed string length")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return "", nil, fmt.Errorf("ipc: truncated string (want %d bytes, have %d)", n, len(src))
	}
	return string(src[:n]), src[n:], nil
}

// readStringBytes decodes a uvarint-prefixed string as a sub-slice of src
// (no string allocation — callers intern or copy as needed).
func readStringBytes(src []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("ipc: malformed string length")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return nil, nil, fmt.Errorf("ipc: truncated string (want %d bytes, have %d)", n, len(src))
	}
	return src[:n], src[n:], nil
}

// appendSettings encodes key=value settings as OpControl's pairs.
func appendSettings(dst []byte, settings []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(settings)))
	for _, s := range settings {
		key, value, _ := strings.Cut(s, "=")
		dst = appendString(dst, key)
		dst = appendString(dst, value)
	}
	return dst
}

// readStrings decodes a uvarint count followed by count groups of per
// strings: an epoch plan's names (per 1), OpControl's pairs (per 2).
func readStrings(src []byte, per int) ([]string, error) {
	raw, err := readByteStrings(src, per)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(raw))
	for i, b := range raw {
		out[i] = string(b)
	}
	return out, nil
}

// readByteStrings is readStrings leaving each string in src: a plan
// decodes with one allocation, however many names it has.
func readByteStrings(src []byte, per int) ([][]byte, error) {
	count, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, errors.New("ipc: malformed count")
	}
	src = src[k:]
	// Every string takes at least its length byte: a larger count is a lie
	// told to make the server allocate.
	if count > uint64(len(src)/per) {
		return nil, fmt.Errorf("ipc: count %d exceeds the %d-byte payload", count, len(src))
	}
	out := make([][]byte, int(count)*per)
	for i := range out {
		var err error
		if out[i], src, err = readStringBytes(src); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// aheadTail is the optional read-ahead field behind an OpRead request's
// name: how many samples and payload bytes the client will accept behind
// the one it asks for, and how many pushed samples it dropped unread since
// it last said so.
type aheadTail struct {
	window int
	budget int64
	wasted uint64
}

func appendAheadTail(dst []byte, t aheadTail) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.window))
	dst = binary.AppendUvarint(dst, uint64(t.budget))
	return binary.AppendUvarint(dst, t.wasted)
}

// parseAheadTail decodes the bytes behind the name, clamped to this build's
// bounds. Absent or malformed reads as the zero tail — no read-ahead, which
// is how every request was treated before the field existed.
func parseAheadTail(src []byte) aheadTail {
	var v [3]uint64
	for i := range v {
		n, k := binary.Uvarint(src)
		if k <= 0 {
			return aheadTail{}
		}
		v[i], src = n, src[k:]
	}
	return aheadTail{
		window: int(min(v[0], maxAheadWindow)),
		budget: int64(min(v[1], maxAheadBytes)),
		wasted: min(v[2], maxAheadWindow), // all a client can have dropped since its last request
	}
}

// appendFrameHeader appends the 13-byte frame header for a frame whose body
// (opcode+trace+payload) totals 9+payloadLen bytes.
func appendFrameHeader(dst []byte, opcode byte, trace uint64, payloadLen int) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(payloadLen+9))
	hdr[4] = opcode
	binary.BigEndian.PutUint64(hdr[5:], trace)
	return append(dst, hdr[:]...)
}

// okResponse prefixes a payload with the OK status byte.
func okResponse(payload []byte) []byte {
	return append([]byte{statusOK}, payload...)
}

// errResponse encodes an error message response.
func errResponse(err error) []byte {
	return appendString([]byte{statusErr}, err.Error())
}

// overloadResponse encodes a typed load-shed rejection: retry-after in
// nanoseconds, then the throttled tenant's name.
func overloadResponse(oe *tenancy.OverloadError) []byte {
	out := binary.AppendUvarint([]byte{statusOverloaded}, uint64(oe.RetryAfter))
	return appendString(out, oe.Tenant)
}

// parseOverload decodes a statusOverloaded payload (sans status byte).
func parseOverload(payload []byte) (*tenancy.OverloadError, error) {
	retry, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("ipc: malformed overload response")
	}
	tenant, _, err := readString(payload[k:])
	if err != nil {
		return nil, fmt.Errorf("ipc: malformed overload response: %v", err)
	}
	return &tenancy.OverloadError{Tenant: tenant, RetryAfter: time.Duration(retry)}, nil
}

// parseResponse splits status from payload, converting remote errors.
func parseResponse(payload []byte) ([]byte, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("ipc: empty response")
	}
	switch payload[0] {
	case statusOK:
		return payload[1:], nil
	case statusErr:
		msg, _, err := readString(payload[1:])
		if err != nil {
			return nil, fmt.Errorf("ipc: malformed error response: %v", err)
		}
		return nil, &RemoteError{Msg: msg}
	case statusOverloaded:
		oe, err := parseOverload(payload[1:])
		if err != nil {
			return nil, err
		}
		return nil, oe
	default:
		return nil, fmt.Errorf("ipc: unknown response status %d", payload[0])
	}
}

// RemoteError is an error reported by the PRISMA server.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "ipc: remote: " + e.Msg }
