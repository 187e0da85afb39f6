package main

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"time"
)

// The benchmark's own span recorder. It wraps every call the benchmark
// makes into the prisma facade, so the per-layer numbers of the traced
// window come from outside the program under test and keep compiling when
// its internals are refactored. Spans inside the program are a later issue.

type spanName uint8

const (
	spanOpen spanName = iota
	spanServeUnix
	spanDial
	spanEpoch       // SubmitEpoch call to last delivered sample
	spanSubmitEpoch // child of epoch
	spanClient      // child of epoch: one client's share of the epoch
	spanRead        // children of client
	spanVerify
	spanRelease
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"open", "serve_unix", "dial", "epoch", "submit_epoch", "client", "read", "verify", "release",
}

// span is one timed call. Start and End are nanoseconds since the trace's
// origin; Parent is the ID of the span that caused it (0 = root).
type span struct {
	ID, Parent uint32
	Name       spanName
	Epoch      uint32
	Start, End int64
}

// laneIDBits splits the ID space between lanes so each lane issues IDs
// without coordinating with the others.
const laneIDBits = 27

// lane is one goroutine's append-only span log. Lanes share no memory, so
// recording takes no lock and cannot serialize the clients it observes.
// All methods are no-ops on a nil lane: the untraced windows pass nil.
type lane struct {
	origin time.Time
	base   uint32
	spans  []span
}

// trace is a set of lanes with a common time origin.
type trace struct {
	origin time.Time
	lanes  []*lane
}

// newTrace preallocates every lane so the traced window itself does not
// allocate for spans until a lane outgrows its estimate.
func newTrace(lanes, capPerLane int) *trace {
	t := &trace{origin: time.Now()}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &lane{
			origin: t.origin,
			base:   uint32(i) << laneIDBits,
			spans:  make([]span, 0, capPerLane),
		})
	}
	return t
}

// lane returns lane i, or nil (record nothing) for a nil trace.
func (t *trace) lane(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// add records a finished span and returns its ID.
func (l *lane) add(name spanName, parent, epoch uint32, start, end time.Time) uint32 {
	if l == nil {
		return 0
	}
	id := l.base + uint32(len(l.spans)) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Epoch: epoch,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin)),
	})
	return id
}

// begin opens a span that will enclose others; finish closes it.
func (l *lane) begin(name spanName, parent, epoch uint32, start time.Time) uint32 {
	return l.add(name, parent, epoch, start, start)
}

func (l *lane) finish(id uint32, end time.Time) {
	if l == nil {
		return
	}
	l.spans[id-l.base-1].End = int64(end.Sub(l.origin))
}

// all concatenates the lanes' spans.
func (t *trace) all() []span {
	var n int
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	out := make([]span, 0, n)
	for _, l := range t.lanes {
		out = append(out, l.spans...)
	}
	return out
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other and
// are clipped to the parent). The result is parallel to spans.
func selfTimes(spans []span) []int64 {
	children := make(map[uint32][]int32)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[s.ID]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanTotals is the per-name roll-up of a trace.
type spanTotals struct {
	Count int64
	Total time.Duration // sum of span durations
	Self  time.Duration // sum of self times
}

func totalsByName(spans []span) [numSpanNames]spanTotals {
	var out [numSpanNames]spanTotals
	self := selfTimes(spans)
	for i, s := range spans {
		t := &out[s.Name]
		t.Count++
		t.Total += time.Duration(s.End - s.Start)
		t.Self += time.Duration(self[i])
	}
	return out
}

// writeSpans writes one CSV line per span: id,parent,name,epoch,start_ns,end_ns.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.WriteString("id,parent,name,epoch,start_ns,end_ns\n")
	var buf []byte
	for _, s := range spans {
		buf = strconv.AppendUint(buf[:0], uint64(s.ID), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, uint64(s.Parent), 10)
		buf = append(buf, ',')
		buf = append(buf, spanNames[s.Name]...)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, uint64(s.Epoch), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, '\n')
		bw.Write(buf)
	}
	return bw.Flush()
}
