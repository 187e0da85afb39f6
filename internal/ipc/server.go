package ipc

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsrhaslab/prisma-go/internal/core"
	"github.com/dsrhaslab/prisma-go/internal/mempool"
	"github.com/dsrhaslab/prisma-go/internal/obs"
	"github.com/dsrhaslab/prisma-go/internal/storage"
	"github.com/dsrhaslab/prisma-go/internal/tenancy"
)

// ServeConfig tunes server-side resilience and tenancy. The zero value
// preserves the historical behaviour (no per-connection deadlines, one
// tenant).
type ServeConfig struct {
	// IdleTimeout bounds how long a connection may sit idle between
	// requests, and how long one request frame and its response may take
	// to cross the wire (0 = none). An expired connection is dropped; the
	// client redials.
	IdleTimeout time.Duration
	// Tenants wires multi-tenant QoS: hello frames authenticate against
	// the manager, and admission decisions (made by the stage's tenant
	// gate) see the tenant each connection established. Nil is a
	// single-tenant server. Either way the server carves the stage's
	// buffer pool, if it has one and the platform a memfd, from a shared
	// arena and grants that to every client that asks (DESIGN.md §29).
	Tenants *tenancy.Manager

	// arenaSize overrides the arena's size (0 = arenaBytes); tests set it
	// to fill an arena quickly.
	arenaSize int
}

// Server exposes one PRISMA stage over a UNIX domain socket. Each consumer
// process holds its own connection; requests on a connection are handled
// sequentially (matching the prototype's one-client-per-worker design),
// while different connections proceed concurrently. A panic in one request
// handler is isolated to an error response on that connection, not a
// server crash.
type Server struct {
	stage    *core.Stage
	reader   core.Reader // what OpRead/OpPeerRead are served by; immutable
	listener net.Listener
	cfg      ServeConfig
	panics   atomic.Int64
	// arena is the shared arena the stage's pool carves from (§29): nil
	// on a server without a pool or without a memfd. The server holds a
	// reference to it until every handler is done.
	arena *arena

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	get     func(spans int) ([]byte, error) // OpGet source (pre-marshaled JSON)
	control func(settings ...string) error  // OpControl: the stage's control table
	wg      sync.WaitGroup
}

// Serve starts a server for stage on the given socket path with the zero
// ServeConfig. Reads are served by reader — the cluster fabric in front of
// the stage, when there is one — and nil means the stage itself; every
// other opcode (plans, tuning, stats, read-ahead) addresses the stage. It
// returns once the listener is active.
func Serve(socketPath string, stage *core.Stage, reader core.Reader) (*Server, error) {
	return ServeWithConfig(socketPath, stage, reader, ServeConfig{})
}

// ServeWithConfig starts a server with explicit settings.
func ServeWithConfig(socketPath string, stage *core.Stage, reader core.Reader, cfg ServeConfig) (*Server, error) {
	l, err := net.Listen("unix", socketPath)
	if err != nil {
		return nil, fmt.Errorf("ipc: listen %s: %w", socketPath, err)
	}
	if reader == nil {
		reader = stage
	}
	s := &Server{stage: stage, reader: reader, listener: l, cfg: cfg, conns: make(map[net.Conn]struct{})}
	if stage != nil && stage.BufferPool() != nil {
		pool := stage.BufferPool()
		s.arena = attachArena(pool, cmp.Or(cfg.arenaSize, arenaBytes(stage, pool)))
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// attachArena makes an arena of size bytes and gives it to pool to carve
// its buffers from. The pool and the server each hold a reference: the
// pool's goes once it is detached (Server.Close) with every carved buffer
// home, the server's once its handlers are done. Nil when no arena could
// be made: the server then sends every payload inline.
func attachArena(pool *mempool.Pool, size int) *arena {
	a, err := newArena(size)
	if err != nil {
		return nil
	}
	if err := pool.AttachArena(a.mem, a.release); err != nil {
		a.release()
		return nil
	}
	a.retain() // the server's
	return a
}

// arenaBytes sizes the arena of a server over stage from what the stage
// holds at most at once (Stage.ParkBound). Its samples each take the
// pool's class for the largest the manifest lists. A class carves only
// when every buffer it carved is out, so no class carves more buffers than
// that; classes are powers of two, so the smaller ones together carve less
// than the largest again, and twice the product bounds the carving. The
// storage chain's memory hierarchy keeps its raw residents in the carved
// buffers they were read into, charged at their class, so its byte budget
// (tiering.Config.FastCapacity, in the stage's snapshot) comes on top.
// Leases to clients and in-process readers come on top as well: past the
// end, the pool allocates from the heap and those payloads go inline.
// Capped at maxArenaSize, and a whole number of pages; the memfd is
// sparse, so only pages a carved buffer was written to cost memory.
func arenaBytes(stage *core.Stage, pool *mempool.Pool) int {
	samples, largest := stage.ParkBound()
	size := 2 * int64(samples) * int64(pool.ClassSize(int(min(largest, maxArenaSize))))
	if st := stage.Stats(); st.TieringEnabled {
		size += min(st.Tiering.Capacity, maxArenaSize)
	}
	const page = 4 << 10
	return int(min(maxArenaSize, (size+page-1)&^(page-1)))
}

// SetControlSurface wires the control plane's two opcodes: OpGet answers
// with get's snapshot document (spans bounds the spans it carries, < 0
// meaning the default), and OpControl hands its settings to control, the
// stage's control table. The indirection keeps ipc decoupled from both.
func (s *Server) SetControlSurface(get func(spans int) ([]byte, error), control func(settings ...string) error) {
	s.mu.Lock()
	s.get, s.control = get, control
	s.mu.Unlock()
}

// Panics reports how many request handlers panicked and were isolated.
func (s *Server) Panics() int64 { return s.panics.Load() }

// Addr reports the socket address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serverReadBuf sizes a connection's request buffer: read requests are a
// name and a few varints; anything larger (an epoch plan) takes the
// allocate-per-frame path.
const serverReadBuf = minFill

// connState is one connection's reusable scratch: the request read buffer
// and the reply under construction. A read's name resolves to the stage's
// own string for it (Stage.Name), so the request loop's steady-state
// allocation count is zero.
type connState struct {
	rd   *connReader
	unix bool // a UNIX-domain socket: the only kind the arena is granted over

	// The server's arena, once granted (DESIGN.md §29), and the samples
	// the last read reply lent the client from it: their leases end when
	// the connection's next frame arrives, or when it closes. fd is the
	// duplicate of the arena's descriptor granted, until its reply carries
	// it away (-1 otherwise).
	arena *arena
	fd    int
	lent  [1 + maxAheadWindow]storage.Data
	nlent int
	// Payloads the reply under construction placed in the arena and
	// inline, for the stage's counters.
	inArena, inline int64

	// startProducers is set by a plan submission, which holds the stage's
	// parked producers until its reply is written (Stage.SubmitEpochHeld).
	startProducers bool

	// The read reply under construction. wbuf holds every byte of the frame
	// that is not sample payload — frame header, the requested sample's
	// head, each pushed sample's head — and held the inline samples, whose
	// payloads are spliced in at cuts (offsets into wbuf) by one vectored
	// write, straight from their pooled buffers. Samples are placed the
	// moment they are taken, so every exit — write error, handler panic —
	// finds and releases exactly the leases the connection owns.
	wbuf  []byte
	held  [1 + maxAheadWindow]storage.Data
	cuts  [1 + maxAheadWindow]int
	nheld int
	segs  [2*(1+maxAheadWindow) + 1][]byte // backing array for the vectored-write segment list
	bufs  net.Buffers                      // rebuilt from segs per write: WriteTo consumes the slice

	ahead predictor

	// tenant is the connection's identity, set by the hello frame; empty
	// resolves to the default tenant at the gate. It lives on the
	// connection, not the request: one consumer process = one identity.
	tenant string
	// role is the hello frame's optional third field: "peer" marks a
	// fabric node's forwarding connection, "worker" (or absent, for
	// pre-cluster clients) an ordinary consumer.
	role string
}

func newConnState(conn net.Conn) *connState {
	_, unix := conn.(*net.UnixConn)
	return &connState{
		rd:    newConnReader(conn, serverReadBuf),
		unix:  unix,
		fd:    -1,
		wbuf:  make([]byte, 0, 512),
		ahead: predictor{need: minConfirm},
	}
}

// place appends a sample's head to the reply under construction and routes
// its payload: on an arena connection, by its offset when the producer read
// it into the arena — lent to the connection until its next frame; or
// inline, held for the vectored write behind the head.
func (cs *connState) place(d storage.Data) {
	cs.wbuf = appendSampleHead(cs.wbuf, d)
	if cs.arena != nil {
		if off, ok := cs.arena.offset(d.Bytes); ok && d.Ref != nil {
			cs.wbuf = binary.AppendUvarint(cs.wbuf, uint64(off)+1)
			cs.lent[cs.nlent] = d
			cs.nlent++
			cs.inArena++
			return
		}
		cs.wbuf = append(cs.wbuf, 0) // location 0: inline
	}
	if len(d.Bytes) > 0 {
		cs.inline++
	}
	cs.held[cs.nheld], cs.cuts[cs.nheld] = d, len(cs.wbuf)
	cs.nheld++
}

// releaseLent ends the leases of the samples the connection's last reply
// lent from the arena. At the connection's next frame the client has
// copied them out, and they recycle. A connection that ends holding them
// was dropped under a client that may still be copying — by an idle
// timeout, a broken frame or Close; a client that closes sends OpRelease
// first — so they are retired instead: never written again, and their
// spans of the arena out of use for good.
func (cs *connState) releaseLent(retire bool) {
	for i := range cs.lent[:cs.nlent] {
		if retire {
			cs.lent[i].Ref.Retire()
		}
		cs.lent[i].Release()
		cs.lent[i] = storage.Data{}
	}
	cs.nlent = 0
}

// releaseHeld ends the connection's reference on every held sample —
// inherited from the evicting Take — once the frame crossed the socket, or
// failed to, or will never be written.
func (cs *connState) releaseHeld() {
	for i := range cs.held[:cs.nheld] {
		cs.held[i].Release()
		cs.held[i] = storage.Data{}
	}
	cs.nheld = 0
}

// Predictor thresholds (DESIGN.md §19).
const (
	// minConfirm is how many consecutive equal forward steps between a
	// connection's planned reads confirm its stride.
	minConfirm = 2
	// maxConfirm caps the doubling each reported waste applies: past it a
	// reader that keeps breaking its pattern is effectively on plain
	// request/reply, yet a long steady run still earns read-ahead back.
	maxConfirm = 64
)

// predictor is one connection's position in the epoch order and the stride
// it advances by — what decides which plan entries ride behind a reply.
type predictor struct {
	at     core.PlanPos // the last planned read, or the last entry pushed behind it
	stride int          // forward step that led to at
	run    int          // consecutive steps equal to stride
	need   int          // run length that confirms the stride
	window int          // size of the next push: 1, 2, 4 ... while pushes go out whole
}

// observe moves the predictor to a planned read's position and reports how
// many entries to try pushing behind it (0 until the stride is confirmed).
func (p *predictor) observe(at core.PlanPos) int {
	step := at.Index - p.at.Index
	switch {
	case at.Epoch != p.at.Epoch || step <= 0:
		p.stride, p.run, p.window = 0, 0, 1
	case step == p.stride:
		p.run++
	default:
		p.stride, p.run, p.window = step, 1, 1
	}
	p.at = at
	if p.run < p.need {
		return 0
	}
	return p.window
}

// next is the position one stride past the last read or push.
func (p *predictor) next() core.PlanPos {
	return core.PlanPos{Epoch: p.at.Epoch, Index: p.at.Index + p.stride}
}

// pushed advances past an entry sent ahead, so the request that follows
// the pushed run still reads as one more stride.
func (p *predictor) pushed(at core.PlanPos) { p.at = at }

// penalize reacts to a client reporting dropped pushes: the pattern broke,
// so the stride must be re-confirmed, over twice as long a run as before.
func (p *predictor) penalize() {
	p.need = min(2*p.need, maxConfirm)
	p.run, p.window = 0, 1
}

// response is one reply: head is the whole payload of a head-only frame
// (control replies, errors); a read reply (samples set) instead lives in
// the connection's wbuf/held scratch, see connState.
type response struct {
	head    []byte
	samples bool
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	cs := newConnState(conn)
	defer func() {
		cs.releaseHeld()
		cs.releaseLent(true)
		s.startProducers(cs)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		opcode, trace, payload, err := cs.rd.readFrame()
		if err != nil {
			return // EOF, idle timeout, or broken peer: drop the connection
		}
		resp, reply := s.serveFrame(cs, opcode, trace, payload)
		if !reply {
			continue
		}
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		err = s.writeResponse(conn, cs, opcode, trace, resp)
		cs.releaseHeld()
		s.startProducers(cs)
		if err != nil {
			return
		}
	}
}

// serveFrame handles one request frame and reports whether it is answered.
// Whatever it is, it ends the leases of the reply before it (the client
// decoded that reply before it could send this); OpRelease does nothing
// else and gets no reply.
func (s *Server) serveFrame(cs *connState, opcode byte, trace uint64, payload []byte) (response, bool) {
	cs.releaseLent(false)
	if opcode == OpRelease {
		return response{}, false
	}
	return s.safeHandle(cs, opcode, trace, payload), true
}

// startProducers wakes the producers a plan submission held, once its reply
// has been written or has failed to be.
func (s *Server) startProducers(cs *connState) {
	if cs.startProducers {
		cs.startProducers = false
		s.stage.StartProducers()
	}
}

// writeResponse sends one reply frame. A read reply goes out as a single
// vectored write that interleaves the head bytes in wbuf with the held
// samples' payloads, so pooled payloads go from the buffer pool to the
// socket without an intermediate copy; the reply that grants the arena
// carries its descriptor. Caller releases the held samples.
func (s *Server) writeResponse(conn net.Conn, cs *connState, opcode byte, trace uint64, r response) error {
	if !r.samples {
		fd := cs.fd
		cs.fd = -1
		if len(r.head)+9 > MaxFrame {
			return ErrFrameTooLarge
		}
		cs.wbuf = appendFrameHeader(cs.wbuf[:0], opcode, trace, len(r.head))
		cs.wbuf = append(cs.wbuf, r.head...)
		if fd >= 0 {
			// The arena's duplicate descriptor rides its reply; the
			// connection keeps none.
			return sendFD(conn, cs.wbuf, fd)
		}
		_, err := conn.Write(cs.wbuf)
		return err
	}
	payloadLen := len(cs.wbuf) - frameHeaderLen
	for i := range cs.held[:cs.nheld] {
		payloadLen += len(cs.held[i].Bytes)
	}
	if payloadLen+9 > MaxFrame {
		return ErrFrameTooLarge
	}
	// The header's room was reserved when the reply was started; the length
	// is only known now.
	appendFrameHeader(cs.wbuf[:0], opcode, trace, payloadLen)
	cs.layout()
	_, err := cs.bufs.WriteTo(conn)
	return err
}

// layout sets bufs to the read reply under construction as the vectored
// write's segment list: the head bytes in wbuf interleaved with the inline
// payloads. net.Buffers.WriteTo consumes the slice it is called on
// (advancing it and dropping capacity), so the list is rebuilt from the
// fixed backing array each time rather than re-appended in place.
func (cs *connState) layout() {
	segs, prev := cs.segs[:0], 0
	for i := range cs.held[:cs.nheld] {
		segs = append(segs, cs.wbuf[prev:cs.cuts[i]])
		if body := cs.held[i].Bytes; len(body) > 0 {
			segs = append(segs, body)
		}
		prev = cs.cuts[i]
	}
	if prev < len(cs.wbuf) {
		segs = append(segs, cs.wbuf[prev:])
	}
	cs.bufs = net.Buffers(segs)
}

// safeHandle isolates a panicking handler to an error response: one bad
// request (or a bug in one opcode path) must not take down the stage every
// other consumer is reading through. Samples the handler had already taken
// for the reply are released — the reply they rode is gone.
func (s *Server) safeHandle(cs *connState, opcode byte, trace uint64, payload []byte) (resp response) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			cs.releaseHeld()
			cs.releaseLent(false)
			resp = response{head: errResponse(fmt.Errorf("handler panic on opcode %d: %v", opcode, r))}
		}
	}()
	return s.handle(cs, opcode, trace, payload)
}

// handle dispatches one request and builds the response.
func (s *Server) handle(cs *connState, opcode byte, trace uint64, payload []byte) response {
	switch opcode {
	case OpRead, OpPeerRead:
		return s.handleRead(cs, opcode, trace, payload)

	case OpArena:
		return response{head: s.handleArena(cs, payload)}

	case OpPlan:
		// The names stay in the payload: the stage resolves them straight
		// to slots.
		names, err := readByteStrings(payload, 1)
		if err != nil {
			return response{head: errResponse(err)}
		}
		// The producers start once the reply is on the wire; a refused
		// plan registered nothing.
		res, err := s.stage.SubmitEpochHeld(names)
		if err != nil {
			return response{head: errResponse(err)}
		}
		cs.startProducers = true
		// Epoch id + enqueued count; pre-epoch clients ignore the payload.
		blob := binary.AppendUvarint(nil, uint64(res.Epoch))
		blob = binary.AppendUvarint(blob, uint64(res.Enqueued))
		return response{head: okResponse(blob)}

	case OpHello:
		name, rest, err := readString(payload)
		if err != nil {
			return response{head: errResponse(err)}
		}
		secret, rest, err := readString(rest)
		if err != nil {
			return response{head: errResponse(err)}
		}
		// Optional third field (cluster fabric: the connection's role).
		// Pre-cluster clients send two strings; the server has always
		// ignored trailing bytes here, so both directions stay compatible.
		if len(rest) > 0 {
			role, _, err := readString(rest)
			if err != nil {
				return response{head: errResponse(err)}
			}
			cs.role = role
		}
		resolved := name
		if m := s.cfg.Tenants; m != nil {
			resolved, err = m.Authenticate(name, secret)
			if err != nil {
				return response{head: errResponse(err)}
			}
		} else if resolved == "" {
			// Single-tenant server: accept the hello so clients can be
			// written tenancy-first; identity is recorded but unenforced.
			resolved = tenancy.DefaultTenant
		}
		cs.tenant = resolved
		return response{head: okResponse(appendString(nil, resolved))}

	default:
		return response{head: s.handleControl(opcode, payload)}
	}
}

// handleRead serves OpRead and OpPeerRead: one sample by name, through the
// server's reader — the request says who is asking, how the read is traced
// and whether a peer forwarded it — and, for a planned OpRead from a client
// that asked for it, the plan entries the connection will read next, as far
// as they can be had without waiting (DESIGN.md §19).
func (s *Server) handleRead(cs *connState, opcode byte, trace uint64, payload []byte) response {
	nameBytes, rest, err := readStringBytes(payload)
	if err != nil {
		return response{head: errResponse(err)}
	}
	name, known := s.stage.Name(nameBytes)
	if !known {
		name = string(nameBytes)
	}
	var tail aheadTail
	if opcode == OpRead {
		if tail = parseAheadTail(rest); tail.wasted > 0 {
			s.stage.NoteReadAheadWasted(int64(tail.wasted))
			cs.ahead.penalize()
		}
	}
	// A non-zero trace continues the client's sampled span; the
	// server-side handling span shares its id so client and server
	// views of one read join into a single trace.
	ctx := obs.Ctx{Trace: trace, Sampled: trace != 0}
	tracer := s.stage.Tracer()
	start := tracer.Now()
	// at stays zero for every read a fabric routed: no position, no
	// read-ahead.
	data, at, err := s.reader.Read(core.ReadRequest{Name: name, Tenant: cs.tenant, Ctx: ctx, Peer: opcode == OpPeerRead})
	if opcode == OpRead && ctx.Sampled {
		sp := obs.Span{
			Trace:   ctx.Trace,
			Stage:   obs.StageIPCServe,
			Name:    name,
			At:      start,
			Latency: tracer.Now() - start,
			Size:    data.Size,
		}
		if err != nil {
			sp.Error = err.Error()
		}
		tracer.Record(sp)
	}
	if err != nil {
		// A load shed is typed end to end: the client's backoff reads
		// the retry-after hint instead of treating it as a read failure.
		var oe *tenancy.OverloadError
		if errors.As(err, &oe) {
			return response{head: overloadResponse(oe)}
		}
		return response{head: errResponse(err)}
	}
	// Head: status + size + payload length (+ location); an inline payload
	// is written vectored, straight from the (pooled) read buffer. The frame
	// header's bytes are reserved here and filled in by writeResponse.
	cs.wbuf = append(cs.wbuf[:frameHeaderLen], statusOK)
	cs.inArena, cs.inline = 0, 0
	requested := len(data.Bytes)
	cs.place(data)
	if tail.window > 0 && at != (core.PlanPos{}) {
		s.pushAhead(cs, at, tail, requested)
	}
	s.stage.NoteReadPayloads(cs.inArena, cs.inline)
	return response{samples: true}
}

// handleArena grants the server's arena to a client that asks for it
// (DESIGN.md §29): one grant per connection, over a UNIX-domain socket
// only. A duplicate of the arena's descriptor rides the reply
// (writeResponse) and is closed once sent. Any other ask — an old client's
// empty one for a payload region, or one of a server without an arena —
// is refused, and the client reads inline.
func (s *Server) handleArena(cs *connState, payload []byte) []byte {
	switch v, k := binary.Uvarint(payload); {
	case cs.arena != nil:
		return errResponse(errors.New("arena already granted"))
	case !cs.unix:
		return errResponse(errors.New("arena needs a UNIX-domain socket"))
	case k <= 0 || v < arenaVersion:
		return errResponse(errors.New("payload regions are retired: ask for the arena"))
	case s.arena == nil:
		return errResponse(errors.New("no arena"))
	}
	fd, err := dupFD(s.arena.fd)
	if err != nil {
		return errResponse(fmt.Errorf("arena: %w", err))
	}
	cs.arena, cs.fd = s.arena, fd
	out := binary.AppendUvarint(nil, uint64(len(s.arena.mem)))
	return okResponse(binary.AppendUvarint(out, arenaVersion))
}

// appendSampleHead encodes a sample's size and payload length; the payload
// follows on the wire.
func appendSampleHead(dst []byte, d storage.Data) []byte {
	dst = binary.AppendUvarint(dst, uint64(d.Size))
	return binary.AppendUvarint(dst, uint64(len(d.Bytes)))
}

// pushAhead appends to the reply under construction the plan entries this
// connection is predicted to read next. The count byte alone tells the
// client the read was planned (whatever it still holds from an earlier push
// was mispredicted). Nothing here waits: an entry that is not parked, not
// admitted or over the byte budget ends the batch. requested is the length
// of the payload the reply answers.
func (s *Server) pushAhead(cs *connState, at core.PlanPos, tail aheadTail, requested int) {
	countAt := len(cs.wbuf)
	cs.wbuf = append(cs.wbuf, 0)
	want := min(cs.ahead.observe(at), tail.window)
	// A requested payload this large leaves MaxFrame no certain room for
	// company; it goes alone.
	if requested > MaxFrame/2 {
		return
	}
	pushed := 0
	for budget := tail.budget; pushed < want && budget > 0; pushed++ {
		next := cs.ahead.next()
		d, ok := s.stage.TakeAhead(cs.tenant, next, budget)
		if !ok {
			break
		}
		cs.wbuf = appendString(cs.wbuf, d.Name)
		budget -= d.Size
		cs.place(d)
		cs.ahead.pushed(next)
	}
	cs.wbuf[countAt] = byte(pushed)
	if pushed == want && pushed > 0 {
		cs.ahead.window = min(2*cs.ahead.window, maxAheadWindow)
	}
	// A reply that lends arena payloads and leaves the stride at the end of
	// the plan may be the connection's last for a while: the client is
	// asked to end the leases at once instead of at its next request.
	if cs.nlent > 0 && cs.ahead.run >= cs.ahead.need && !s.stage.Planned(cs.ahead.next()) {
		cs.wbuf[countAt] |= endOfPlan
	}
}

// handleControl dispatches the non-read opcodes, whose responses are small
// head-only frames.
func (s *Server) handleControl(opcode byte, payload []byte) []byte {
	switch opcode {
	case OpCancelEpoch:
		id, k := binary.Uvarint(payload)
		if k <= 0 {
			return errResponse(errors.New("malformed epoch id"))
		}
		dropped, err := s.stage.CancelEpoch(core.EpochID(id))
		if err != nil {
			return errResponse(err)
		}
		return okResponse(binary.AppendUvarint(nil, uint64(dropped)))

	case OpGet:
		spans := -1
		if len(payload) > 0 {
			n, k := binary.Uvarint(payload)
			if k <= 0 {
				return errResponse(errors.New("malformed span limit"))
			}
			spans = int(min(n, math.MaxInt32))
		}
		s.mu.Lock()
		get := s.get
		s.mu.Unlock()
		if get == nil {
			return errResponse(errors.New("snapshot unavailable: no control surface attached"))
		}
		blob, err := get(spans)
		if err != nil {
			return errResponse(err)
		}
		return okResponse(blob)

	case OpControl:
		pairs, err := readStrings(payload, 2)
		if err != nil {
			return errResponse(err)
		}
		settings := make([]string, len(pairs)/2)
		for i := range settings {
			settings[i] = pairs[2*i] + "=" + pairs[2*i+1]
		}
		s.mu.Lock()
		control := s.control
		s.mu.Unlock()
		if control == nil {
			return errResponse(errors.New("control unavailable: no control surface attached"))
		}
		if err := control(settings...); err != nil {
			return errResponse(err)
		}
		return okResponse(nil)

	case OpPing:
		return okResponse(nil)

	default:
		return errResponse(fmt.Errorf("unknown opcode %d", opcode))
	}
}

// Close stops accepting, detaches the arena, if any, from the stage's
// pool, severs live connections and waits for handler goroutines to drain.
// It does not close the stage.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.listener.Close()
	if s.arena != nil {
		// Recycling stops before any connection is severed: a buffer that
		// comes home from here on is dropped, so none a client may still
		// be copying out is handed to a producer. The pool's reference
		// goes once the last carved buffer is home, the server's once its
		// handlers, which may still be granting the arena, are done;
		// clients of this process hold their own.
		s.stage.BufferPool().DetachArena()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	if s.arena != nil {
		s.arena.release()
	}
	return err
}
