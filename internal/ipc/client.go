package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// ErrConnBroken reports a round trip that failed at the transport layer:
// after a partial read or write the request/response stream may be
// desynchronized, so the connection is poisoned and redialed rather than
// reused. Callers can match it with errors.Is.
var ErrConnBroken = errors.New("ipc: connection broken")

// DialConfig tunes client-side resilience. The zero value preserves the
// historical behaviour — no deadlines, no in-call retries — except that a
// poisoned connection is always redialed on the next call instead of
// deadlocking on a desynced stream.
type DialConfig struct {
	// DialTimeout bounds the initial dial and every redial (0 = none).
	DialTimeout time.Duration
	// WriteTimeout bounds sending one request frame (0 = none).
	WriteTimeout time.Duration
	// ReadTimeout bounds waiting for one response frame (0 = none). A
	// timeout poisons the connection: the late response would otherwise be
	// mistaken for the answer to the next request.
	ReadTimeout time.Duration
	// MaxReconnects is the number of automatic redial-and-retry rounds a
	// resendable round trip may use after a transport failure (0 = fail
	// immediately). Non-resendable requests — Read (evict-on-read consumes
	// the sample, so a duplicate send could consume it twice) and
	// SubmitPlan (appends plan state) — never retry in-call; they only
	// redial before the first send.
	MaxReconnects int
	// ReconnectBackoff is the sleep before the first redial, doubled each
	// further redial within one call (default 10ms when redialing).
	ReconnectBackoff time.Duration
	// OverloadRetries is how many times one Read waits out a server-issued
	// retry-after hint and resends after a typed overload rejection
	// (0 = surface the OverloadError to the caller immediately). Sheds
	// happen at admission, before the read executes, so the resend is safe
	// even though reads are otherwise non-resendable.
	OverloadRetries int
	// InlineOnly never asks for the server's arena, so every payload rides
	// the socket, as it does with a server that has none. The public API
	// never sets it; the inline path's tests and allocation gate do, and a
	// client sets it on itself when it refuses a grant.
	InlineOnly bool
}

// Client is one consumer process's connection to the PRISMA server. A
// client issues one request at a time (guarded by a mutex); spawn one
// client per worker process, as the prototype does. After a transport
// error the connection is poisoned and transparently re-established on the
// next call (with bounded in-call retries for idempotent requests).
type Client struct {
	path string
	cfg  DialConfig

	mu         sync.Mutex
	conn       net.Conn
	broken     bool
	closed     bool
	reconnects int64
	tracer     *obs.Tracer   // nil-safe; client-side spans of intercepted reads
	pool       *mempool.Pool // non-nil: Read returns pooled Data (caller releases)
	rd         *connReader   // every byte from the server is parsed through this buffer
	wire       []byte        // outgoing read-request scratch (header + payload, one Write)

	// Read-ahead stash (DESIGN.md §19): samples the server pushed behind a
	// reply, stash[next:filled], served strictly in push order. Slots and
	// their name storage are reused, and a served sample takes the caller's
	// string as its Name, so the stash keeps no per-name state.
	stash        [maxAheadWindow]stashed
	next, filled int
	wasted       uint64 // pushed samples dropped unread, not yet reported to the server
	stashHits    int64
	stashDrops   int64

	// Hello credentials, replayed after every redial so the connection's
	// tenant identity (and cluster role) survives reconnects.
	helloName   string
	helloSecret string
	helloRole   string
	helloSent   bool

	// The server's arena (DESIGN.md §29), which read payloads may arrive
	// in, nil while the connection reads inline. asked records that this
	// connection already asked. arena holds the reference that shares the
	// mapping of an arena this process made (nil for a private one).
	mapping []byte
	asked   bool
	arena   *arena
}

// stashed is one pushed sample awaiting the read that asks for it.
type stashed struct {
	name []byte // as it came off the wire; storage reused by the slot's next occupant
	data storage.Data
}

// clientReadBuf sizes the client's read buffer: a full window of small
// samples (the case read-ahead exists for) is parsed out of one buffer
// fill; larger payloads bypass it (connReader.readFull).
const clientReadBuf = 64 << 10

// Dial connects to the PRISMA server socket with the zero DialConfig.
func Dial(socketPath string) (*Client, error) {
	return DialWithConfig(socketPath, DialConfig{})
}

// DialWithConfig connects with explicit resilience settings.
func DialWithConfig(socketPath string, cfg DialConfig) (*Client, error) {
	conn, err := dialConn(socketPath, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("ipc: dial %s: %w", socketPath, err)
	}
	return &Client{path: socketPath, cfg: cfg, conn: conn, rd: newConnReader(conn, clientReadBuf)}, nil
}

func dialConn(path string, timeout time.Duration) (net.Conn, error) {
	if timeout > 0 {
		return net.DialTimeout("unix", path, timeout)
	}
	return net.Dial("unix", path)
}

// SetTracer attaches a tracer so the client head-samples its reads and
// records the client-observed round-trip span; the sampled trace id rides
// the frame header to the server, which continues the same trace.
func (c *Client) SetTracer(t *obs.Tracer) {
	c.mu.Lock()
	c.tracer = t
	c.mu.Unlock()
}

// SetBufferPool switches Read to pooled responses: the payload is read off
// the socket directly into a pool buffer and returned with Data.Ref set —
// the caller owns that reference and must Release it when done with the
// bytes. Pass nil to revert to plain allocated responses.
func (c *Client) SetBufferPool(p *mempool.Pool) {
	c.mu.Lock()
	c.pool = p
	c.mu.Unlock()
}

// Reconnects reports how many times the client redialed the server.
func (c *Client) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// StashHits reports how many reads were served from the read-ahead stash
// without touching the socket.
func (c *Client) StashHits() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stashHits
}

// StashDrops reports how many pushed samples were dropped unread — skipped
// by an out-of-order read, outlived by a planned reply, or discarded with
// the connection.
func (c *Client) StashDrops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stashDrops
}

// Broken reports whether the connection is currently poisoned (it will be
// redialed on the next call).
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// roundTrip sends one request frame and awaits the matching response.
// Resendable requests may be resent on a fresh connection after transport
// failures, up to MaxReconnects times. Non-resendable requests are sent at
// most once per call: after a transport failure mid-exchange the server may
// or may not have executed them, so a silent resend could execute the
// operation twice (for OpRead that means consuming — and discarding — a
// second sample from the evict-on-read buffer). A poisoned connection is
// still redialed before the single send, which is always safe.
func (c *Client) roundTrip(opcode byte, payload []byte, resendable bool) ([]byte, error) {
	return c.roundTripTrace(opcode, 0, payload, resendable)
}

// roundTripTrace is roundTrip carrying an explicit span context in the
// frame header (zero = unsampled).
func (c *Client) roundTripTrace(opcode byte, trace uint64, payload []byte, resendable bool) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := 1
	if resendable {
		attempts += c.cfg.MaxReconnects
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if c.closed {
			return nil, net.ErrClosed
		}
		if c.broken {
			if err := c.redialLocked(attempt); err != nil {
				lastErr = err
				continue
			}
		}
		resp, err := c.exchangeLocked(opcode, trace, payload)
		if err == nil {
			return resp, nil
		}
		if isCleanError(err) {
			// A server-reported error (including a typed load shed): the
			// stream is intact.
			return nil, err
		}
		// Transport or framing failure: the stream state is unknown.
		c.poisonLocked()
		lastErr = err
	}
	return nil, fmt.Errorf("%w: %v", ErrConnBroken, lastErr)
}

// isCleanError reports an error the server sent as a well-framed response:
// the stream is synchronized and the connection stays usable. Overload
// rejections are clean by design — shedding must not cost the client its
// connection.
func isCleanError(err error) bool {
	var remote *RemoteError
	if errors.As(err, &remote) {
		return true
	}
	var oe *tenancy.OverloadError
	return errors.As(err, &oe)
}

// exchangeLocked performs one framed request/response on the live
// connection, applying the configured deadlines. Caller holds c.mu. Every
// exchange that is not a read may move the plan under the stash (a new
// epoch, a cancel) or change who the connection is (hello), so it starts by
// dropping whatever was pushed ahead.
func (c *Client) exchangeLocked(opcode byte, trace uint64, payload []byte) ([]byte, error) {
	c.dropStashLocked(c.filled)
	if c.cfg.WriteTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	if err := writeFrame(c.conn, opcode, trace, payload); err != nil {
		return nil, err
	}
	if c.cfg.ReadTimeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	left, err := c.replyHeader(opcode, trace)
	if err != nil {
		return nil, err
	}
	return c.replyBody(left)
}

// replyHeader consumes the frame header of the reply to (opcode, trace) and
// returns the payload length behind it; a header answering anything else
// means the stream is out of step.
func (c *Client) replyHeader(opcode byte, trace uint64) (int, error) {
	hdr, err := c.rd.peek(frameHeaderLen)
	if err != nil {
		return 0, err
	}
	left, err := frameLen(hdr)
	if err != nil {
		return 0, err
	}
	if op := hdr[4]; op != opcode {
		return 0, fmt.Errorf("ipc: response opcode %d for request %d", op, opcode)
	}
	if got := binary.BigEndian.Uint64(hdr[5:frameHeaderLen]); got != trace {
		return 0, fmt.Errorf("ipc: response trace %#x for request %#x", got, trace)
	}
	c.rd.discard(frameHeaderLen)
	return left, nil
}

// replyBody takes the left bytes of a head-only reply (control replies,
// errors) as a fresh allocation the caller may keep, and decodes its status.
func (c *Client) replyBody(left int) ([]byte, error) {
	full := make([]byte, left)
	if err := c.rd.readFull(full); err != nil {
		return nil, err
	}
	return parseResponse(full)
}

// poisonLocked marks the connection unusable and severs it, with its
// shared mapping. Caller holds c.mu.
func (c *Client) poisonLocked() {
	c.broken = true
	c.dropStashLocked(c.filled)
	c.dropMappingLocked()
	if c.conn != nil {
		c.conn.Close()
	}
}

// dropMappingLocked unmaps the connection's shared mapping, or lets go of
// its share of this process's arena; the next connection asks again.
// Caller holds c.mu.
func (c *Client) dropMappingLocked() {
	if c.arena != nil {
		c.arena.release()
	} else {
		unmapShared(c.mapping)
	}
	c.mapping, c.asked, c.arena = nil, false, nil
}

// askArenaLocked asks the server for its arena (OpArena) and maps what it
// grants; the reply carries the descriptor. A server that cannot or does
// not know how to grant it answers with an error and the connection reads
// inline. A grant that fails the checks below is refused, which costs the
// connection — its server believes it engaged — and keeps every later
// connection inline. Caller holds c.mu.
func (c *Client) askArenaLocked() error {
	c.asked = true
	uc, ok := c.conn.(*net.UnixConn)
	if !ok || !ArenaSupported || c.cfg.InlineOnly {
		return nil
	}
	catch := &fdCatcher{conn: uc}
	c.rd.src = catch
	resp, err := c.exchangeLocked(OpArena, 0, arenaAsk)
	c.rd.src = c.conn
	defer closeFDs(catch.fds) // the mapping outlives the descriptor
	if isCleanError(err) {
		return nil // no grant here: read inline
	}
	if err != nil {
		return err
	}
	size, err := parseGrant(resp)
	switch {
	case err != nil:
	case catch.truncated || len(catch.fds) != 1:
		err = fmt.Errorf("grant carried %d descriptors (truncated: %v), want 1", len(catch.fds), catch.truncated)
	default:
		c.mapping, c.arena, err = mapGrant(catch.fds[0], size)
	}
	if err != nil {
		c.cfg.InlineOnly = true
		return fmt.Errorf("ipc: shared memory grant refused: %w", err)
	}
	return nil
}

// parseGrant decodes the OK reply to OpArena, uvarint size | uvarint
// arenaVersion: the size of the arena the descriptor maps, at most
// maxArenaSize. A grant without the version, as a server that predates the
// arena sends for its payload region, is malformed.
func parseGrant(resp []byte) (size int, err error) {
	n, k := binary.Uvarint(resp)
	if k <= 0 {
		return 0, fmt.Errorf("malformed arena size in %d-byte reply", len(resp))
	}
	if v, k2 := binary.Uvarint(resp[k:]); v != arenaVersion || k2 != len(resp)-k {
		return 0, fmt.Errorf("malformed arena grant in %d-byte reply", len(resp))
	}
	if n == 0 || n > maxArenaSize {
		return 0, fmt.Errorf("arena size %d outside (0, %d]", n, maxArenaSize)
	}
	return int(n), nil
}

// arenaAsk is OpArena's payload from a client that reads an arena.
var arenaAsk = binary.AppendUvarint(nil, arenaVersion)

// fdCatcher reads a UNIX socket as conn.Read does, keeping every descriptor
// that rides the bytes read.
type fdCatcher struct {
	conn      *net.UnixConn
	fds       []int
	truncated bool
}

func (f *fdCatcher) Read(p []byte) (int, error) {
	n, fds, truncated, err := recvFDs(f.conn, p)
	f.fds = append(f.fds, fds...)
	f.truncated = f.truncated || truncated
	return n, err
}

// redialLocked re-establishes the connection, backing off before every
// retry round after the first. Caller holds c.mu.
func (c *Client) redialLocked(attempt int) error {
	if attempt > 0 {
		backoff := c.cfg.ReconnectBackoff
		if backoff <= 0 {
			backoff = 10 * time.Millisecond
		}
		time.Sleep(backoff << (attempt - 1))
	}
	conn, err := dialConn(c.path, c.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("ipc: reconnect %s: %w", c.path, err)
	}
	c.conn = conn
	c.rd.reset(conn)
	c.wasted = 0 // the server's predictor for this connection starts clean, too
	c.broken = false
	c.reconnects++
	// A fresh connection is anonymous: replay the hello so the tenant
	// identity — and the budgets attached to it — survive the reconnect.
	if c.helloSent {
		if _, err := c.exchangeLocked(OpHello, 0, helloPayload(c.helloName, c.helloSecret, c.helloRole)); err != nil {
			c.poisonLocked()
			return fmt.Errorf("ipc: hello replay on reconnect: %w", err)
		}
	}
	return nil
}

// helloPayload encodes an OpHello request. The role rides as an optional
// third string: pre-cluster servers decode the first two and ignore the
// rest, so sending it is always safe.
func helloPayload(name, secret, role string) []byte {
	out := appendString(appendString(nil, name), secret)
	if role != "" {
		out = appendString(out, role)
	}
	return out
}

// Hello establishes the connection's tenant identity and returns the
// server-resolved tenant name (the default tenant for an empty name). The
// credentials are remembered and replayed after every redial. Resendable:
// hello is idempotent.
func (c *Client) Hello(name, secret string) (string, error) {
	return c.HelloRole(name, secret, "")
}

// HelloRole is Hello additionally declaring the connection's role
// ("worker" for ordinary consumers, "peer" for a cluster node's
// forwarding connection). The role is replayed with the credentials on
// every redial.
func (c *Client) HelloRole(name, secret, role string) (string, error) {
	resp, err := c.roundTrip(OpHello, helloPayload(name, secret, role), true)
	if err != nil {
		return "", err
	}
	resolved, _, err := readString(resp)
	if err != nil {
		return "", fmt.Errorf("ipc: malformed hello response: %v", err)
	}
	c.mu.Lock()
	c.helloName, c.helloSecret, c.helloRole, c.helloSent = name, secret, role, true
	c.mu.Unlock()
	return resolved, nil
}

// Read requests a file through the server's stage — the intercepted read
// path for multi-process consumers. A read consumes its sample from the
// evict-on-read buffer, so it is not resendable: after ErrConnBroken the
// caller must decide whether to reissue (the sample may or may not have
// been consumed server-side).
func (c *Client) Read(name string) (storage.Data, error) {
	c.mu.Lock()
	tracer := c.tracer
	c.mu.Unlock()
	ctx := tracer.StartTrace()
	start := tracer.Now()
	var (
		data storage.Data
		err  error
	)
	for attempt := 0; ; attempt++ {
		data, err = c.read(OpRead, name, ctx.Trace)
		// A typed load shed happened before the read executed, so waiting
		// out the server's retry-after hint and resending is safe — the one
		// exception to the read path's never-resend rule. The shed check
		// lives behind the error branch so the success path never pays the
		// errors.As target's heap escape.
		if err == nil {
			break
		}
		var oe *tenancy.OverloadError
		if !errors.As(err, &oe) || attempt >= c.cfg.OverloadRetries {
			break
		}
		time.Sleep(clampRetryAfter(oe.RetryAfter))
	}
	if ctx.Sampled {
		sp := obs.Span{
			Trace:   ctx.Trace,
			Stage:   obs.StageIPC,
			Name:    name,
			At:      start,
			Latency: tracer.Now() - start,
		}
		if err != nil {
			sp.Error = err.Error()
		}
		tracer.Record(sp)
	}
	return data, err
}

// PeerRead requests a sample from this server's buffer on behalf of
// another cluster node (OpPeerRead): the requester does not own the sample
// and the owner serves it — ideally a buffer hit, thanks to clairvoyant
// placement. Like Read it consumes the sample from the owner's
// evict-on-read buffer, so it is not resendable; the caller (the fabric)
// fails over to the slow store on ErrConnBroken rather than resending. The
// sampled trace id (if any) rides the frame so owner-side peer-serve spans
// join the requester's trace.
func (c *Client) PeerRead(name string) (storage.Data, error) {
	c.mu.Lock()
	tracer := c.tracer
	c.mu.Unlock()
	return c.read(OpPeerRead, name, tracer.StartTrace().Trace)
}

// read serves one OpRead or OpPeerRead: from the stash when the server
// already pushed the sample, otherwise with one wire exchange under the
// non-resendable discipline — redial a poisoned connection before the send,
// never resend after it, and poison on any transport or framing failure.
func (c *Client) read(opcode byte, name string, trace uint64) (storage.Data, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return storage.Data{}, net.ErrClosed
	}
	if opcode == OpRead {
		if data, ok := c.takeStashedLocked(name); ok {
			return data, nil
		}
	}
	if c.broken {
		if err := c.redialLocked(0); err != nil {
			return storage.Data{}, fmt.Errorf("%w: %v", ErrConnBroken, err)
		}
	}
	if !c.asked {
		if err := c.askArenaLocked(); err != nil {
			c.poisonLocked()
			return storage.Data{}, fmt.Errorf("%w: %v", ErrConnBroken, err)
		}
	}
	data, err := c.exchangeReadLocked(opcode, name, trace)
	if err != nil {
		if isCleanError(err) {
			return storage.Data{}, err // well-framed server response: stream intact
		}
		c.poisonLocked()
		return storage.Data{}, fmt.Errorf("%w: %v", ErrConnBroken, err)
	}
	return data, nil
}

// takeStashedLocked serves name from the stash. The stash is consumed in
// push order: a hit behind unread entries means the reader skipped them,
// and they are dropped. A miss leaves the stash alone — the read may be an
// unplanned one interleaved with the stride (its reply says which).
func (c *Client) takeStashedLocked(name string) (storage.Data, bool) {
	for i := c.next; i < c.filled; i++ {
		if string(c.stash[i].name) != name {
			continue
		}
		c.dropStashLocked(i)
		data := c.stash[i].data
		data.Name = name
		c.stash[i].data = storage.Data{}
		c.next = i + 1
		c.stashHits++
		return data, true
	}
	return storage.Data{}, false
}

// dropStashLocked discards the unread pushed samples before slot end,
// releasing their leases and counting them as waste to report with the
// next read request.
func (c *Client) dropStashLocked(end int) {
	for ; c.next < end; c.next++ {
		c.stash[c.next].data.Release()
		c.stash[c.next].data = storage.Data{}
		c.wasted++
		c.stashDrops++
	}
	if c.next == c.filled {
		c.next, c.filled = 0, 0
	}
}

// clampRetryAfter bounds a server-issued retry hint to something sane even
// against a buggy or hostile server.
func clampRetryAfter(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Millisecond
	}
	if d > 10*time.Second {
		return 10 * time.Second
	}
	return d
}

// exchangeReadLocked is the read wire exchange. Caller holds c.mu.
func (c *Client) exchangeReadLocked(opcode byte, name string, trace uint64) (storage.Data, error) {
	// The request is tiny (one name), so header + payload are assembled in
	// one reused scratch and sent with a single Write — no per-call frame
	// buffer (writeFrame's stack header escapes through conn.Write).
	var tail aheadTail
	c.wire = appendString(append(c.wire[:0], make([]byte, frameHeaderLen)...), name)
	if opcode == OpRead {
		tail = aheadTail{window: maxAheadWindow, budget: maxAheadBytes, wasted: c.wasted}
		c.wire = appendAheadTail(c.wire, tail)
	}
	if len(c.wire)-4 > MaxFrame {
		return storage.Data{}, ErrFrameTooLarge
	}
	appendFrameHeader(c.wire[:0], opcode, trace, len(c.wire)-frameHeaderLen)
	if c.cfg.WriteTimeout > 0 {
		_ = c.conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	if _, err := c.conn.Write(c.wire); err != nil {
		return storage.Data{}, err
	}
	c.wasted = 0 // reported (a failed exchange poisons the connection, and the server's count with it)
	if c.cfg.ReadTimeout > 0 {
		_ = c.conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	left, err := c.replyHeader(opcode, trace)
	if err != nil {
		return storage.Data{}, err
	}
	if left < 1 {
		return storage.Data{}, fmt.Errorf("ipc: empty response")
	}
	if left <= clientReadBuf {
		// The whole reply fits the buffer: bring in what the first read did
		// not, and every field below parses from memory.
		if _, err := c.rd.peek(left); err != nil {
			return storage.Data{}, err
		}
	}
	status, err := c.rd.peek(1)
	if err != nil {
		return storage.Data{}, err
	}
	if status[0] != statusOK {
		// Error paths (cold): take the rest of the frame and decode; the
		// stream stays synchronized either way.
		_, err := c.replyBody(left)
		return storage.Data{}, err
	}
	c.rd.discard(1)
	left--
	data, err := c.readSample(&left)
	if err != nil {
		return storage.Data{}, err
	}
	data.Name = name
	if left > 0 {
		// Behind the sample: the server's note that this was a planned read,
		// and the plan entries it pushed ahead.
		release, err := c.readPushed(&left, tail.window)
		if err != nil {
			data.Release()
			return storage.Data{}, err
		}
		if release {
			c.releaseLeasesLocked()
		}
	}
	return data, nil
}

// releaseLeasesLocked sends OpRelease, which has no reply: the reply just
// decoded was the last of the connection's stride, and what it lent from
// the arena is copied out. A failed send severs the connection — the
// server then ends the leases itself — while the samples already decoded
// stay in the stash. Caller holds c.mu.
func (c *Client) releaseLeasesLocked() {
	c.wire = appendFrameHeader(c.wire[:0], OpRelease, 0, 0)
	if _, err := c.conn.Write(c.wire); err != nil {
		c.broken = true
		c.dropMappingLocked()
		c.conn.Close()
	}
}

// readUvarint decodes one uvarint field of a frame with *left bytes to go.
func (c *Client) readUvarint(left *int, what string) (uint64, error) {
	b, err := c.rd.peek(min(*left, binary.MaxVarintLen64))
	if err != nil {
		return 0, err
	}
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, fmt.Errorf("ipc: malformed %s", what)
	}
	c.rd.discard(k)
	*left -= k
	return v, nil
}

// readSample decodes one sample (size, payload length, location on a
// connection granted the arena, payload) of a frame with *left bytes to
// go, landing the payload in a pool buffer when the client has a pool and
// in a fresh allocation otherwise — the only difference between pooled and
// unpooled reads. A payload in the arena is copied out here, before the
// client can send its next frame, which ends the server's lease on it. The
// payload length is checked against the frame's remainder, or the mapping,
// before anything is allocated.
func (c *Client) readSample(left *int) (storage.Data, error) {
	size, err := c.readUvarint(left, "read response")
	if err != nil {
		return storage.Data{}, err
	}
	blen, err := c.readUvarint(left, "bytes length")
	if err != nil {
		return storage.Data{}, err
	}
	var src []byte // the payload in the mapping; nil when it is inline
	if c.mapping != nil {
		loc, err := c.readUvarint(left, "payload location")
		if err != nil {
			return storage.Data{}, err
		}
		if loc > 0 {
			off, room := loc-1, uint64(len(c.mapping))
			if off > room || blen > room-off {
				return storage.Data{}, fmt.Errorf("ipc: %d-byte payload at offset %d outside the %d-byte mapping", blen, off, room)
			}
			src = c.mapping[off : off+blen]
		}
	}
	if src == nil && blen > uint64(*left) {
		return storage.Data{}, fmt.Errorf("ipc: truncated bytes (want %d, have %d)", blen, *left)
	}
	data := storage.Data{Size: int64(size)}
	if blen == 0 {
		return data, nil
	}
	if c.pool != nil {
		data.Ref = c.pool.Get(int(blen))
		data.Bytes = data.Ref.Bytes()
	} else {
		data.Bytes = make([]byte, blen)
	}
	if src != nil {
		copy(data.Bytes, src)
		return data, nil
	}
	if err := c.rd.readFull(data.Bytes); err != nil {
		data.Release()
		return storage.Data{}, err
	}
	*left -= int(blen)
	return data, nil
}

// readPushed decodes the tail of a planned read's reply — a count and that
// many named samples — into the stash. A planned reply means the reader is
// past whatever the stash still holds, so that is dropped first; the new
// samples then fill the stash from its start. On an arena connection the
// count's endOfPlan bit asks for OpRelease once the reply is decoded, which
// release reports. On error the caller poisons the connection, which drops
// what was stashed so far.
func (c *Client) readPushed(left *int, window int) (release bool, err error) {
	if window == 0 {
		return false, fmt.Errorf("ipc: read response length mismatch (%d bytes behind the payload)", *left)
	}
	c.dropStashLocked(c.filled)
	count, err := c.readUvarint(left, "pushed-sample count")
	if err != nil {
		return false, err
	}
	if c.mapping != nil && count&endOfPlan != 0 {
		release, count = true, count&^endOfPlan
	}
	if count > uint64(window) {
		return false, fmt.Errorf("ipc: %d pushed samples exceed the window of %d asked for", count, window)
	}
	for ; count > 0; count-- {
		nlen, err := c.readUvarint(left, "pushed-sample name length")
		if err != nil {
			return false, err
		}
		if nlen == 0 || nlen > uint64(*left) {
			return false, fmt.Errorf("ipc: pushed-sample name of %d bytes in a frame with %d to go", nlen, *left)
		}
		slot := &c.stash[c.filled]
		if slot.name = slot.name[:0]; cap(slot.name) < int(nlen) {
			slot.name = make([]byte, 0, nlen)
		}
		slot.name = slot.name[:nlen]
		if err := c.rd.readFull(slot.name); err != nil {
			return false, err
		}
		*left -= int(nlen)
		if slot.data, err = c.readSample(left); err != nil {
			return false, err
		}
		c.filled++
	}
	if *left != 0 {
		return false, fmt.Errorf("ipc: read response length mismatch (%d bytes behind the last sample)", *left)
	}
	return release, nil
}

// SubmitPlan forwards an epoch's shuffled filename list. A plan mutates
// stage state, so it is never retried in-call: on a transport failure the
// caller decides whether resubmitting is safe.
func (c *Client) SubmitPlan(names []string) error {
	_, err := c.SubmitEpoch(names)
	return err
}

// SubmitEpoch is SubmitPlan returning the issued epoch id and how many
// entries the server enqueued. Non-resendable like SubmitPlan: a resend
// would register a second epoch.
func (c *Client) SubmitEpoch(names []string) (core.PlanResult, error) {
	payload := binary.AppendUvarint(nil, uint64(len(names)))
	for _, n := range names {
		payload = appendString(payload, n)
	}
	resp, err := c.roundTrip(OpPlan, payload, false)
	if err != nil {
		return core.PlanResult{}, err
	}
	id, k1 := binary.Uvarint(resp)
	if k1 <= 0 {
		return core.PlanResult{}, fmt.Errorf("ipc: malformed plan response")
	}
	enq, k2 := binary.Uvarint(resp[k1:])
	if k2 <= 0 {
		return core.PlanResult{}, fmt.Errorf("ipc: malformed plan response")
	}
	return core.PlanResult{Epoch: core.EpochID(id), Enqueued: int(enq)}, nil
}

// CancelEpoch cancels a plan epoch remotely, reporting how many plan
// entries the server removed. Resendable: cancellation is idempotent.
func (c *Client) CancelEpoch(id core.EpochID) (int, error) {
	resp, err := c.roundTrip(OpCancelEpoch, binary.AppendUvarint(nil, uint64(id)), true)
	if err != nil {
		return 0, err
	}
	removed, k := binary.Uvarint(resp)
	if k <= 0 {
		return 0, fmt.Errorf("ipc: malformed cancel response")
	}
	return int(removed), nil
}

// Get fetches the server's snapshot document as raw JSON (an
// httpadmin.Bundle) carrying at most spans recent spans; spans < 0 asks
// for the server's default bound.
func (c *Client) Get(spans int) ([]byte, error) {
	var payload []byte
	if spans >= 0 {
		payload = binary.AppendUvarint(nil, uint64(spans))
	}
	return c.roundTrip(OpGet, payload, true)
}

// Control hands key=value settings, unparsed, to the server's control
// table, which applies all of them or none. Resendable: every value is
// absolute.
func (c *Client) Control(settings ...string) error {
	_, err := c.roundTrip(OpControl, appendSettings(nil, settings), true)
	return err
}

// Ping checks server liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(OpPing, nil, true)
	return err
}

// Close severs the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.dropStashLocked(c.filled)
	if c.mapping != nil {
		// The last reply's leases end here, not with the connection: the
		// server retires the arena buffers of a connection that ends
		// holding them, since it cannot tell that from a client cut off
		// while still copying. If the send fails, that is what happens.
		c.wire = appendFrameHeader(c.wire[:0], OpRelease, 0, 0)
		_, _ = c.conn.Write(c.wire)
	}
	c.dropMappingLocked()
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}
