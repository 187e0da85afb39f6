package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanEpoch, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanRead, Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: spanRead, Start: 20, End: 50},  // overlaps span 2: counted once
		{ID: 4, Parent: 1, Name: spanRead, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 3, Name: spanVerify, Start: 25, End: 35},
		{ID: 6, Name: spanOpen, Start: 200, End: 260}, // a leaf root
	}
	want := []int64{
		100 - (40 + 10), // [10,50) and [90,100)
		20,
		30 - 10,
		30,
		10,
		60,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
	totals := totalsByName(spans)
	if r := totals[spanRead]; r.Count != 3 || r.Total != 80 || r.Self != 70 {
		t.Errorf("read totals = %+v, want count 3, total 80, self 70", r)
	}
	if e := totals[spanEpoch]; e.Self != 50 {
		t.Errorf("epoch self = %v, want 50", e.Self)
	}
}

// Children handed over out of start order must not change the answer.
func TestSelfTimeSortsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 60, End: 80},
		{ID: 3, Parent: 1, Start: 10, End: 70},
	}
	if got := selfTimes(spans)[0]; got != 30 {
		t.Errorf("self = %d, want 30", got)
	}
}

func TestLanesIssueDistinctIDsAndNilIsNoop(t *testing.T) {
	tr := newTrace(2, 4)
	t0 := tr.origin
	parent := tr.lanes[0].begin(spanEpoch, 0, 7, t0)
	child := tr.lanes[1].add(spanRead, parent, 7, t0.Add(time.Microsecond), t0.Add(3*time.Microsecond))
	tr.lanes[0].finish(parent, t0.Add(10*time.Microsecond))
	if parent == child || parent == 0 || child == 0 {
		t.Fatalf("ids: parent %d child %d", parent, child)
	}
	all := tr.all()
	if len(all) != 2 || all[0].End != 10000 || all[1].Parent != parent || all[1].Epoch != 7 {
		t.Fatalf("spans = %+v", all)
	}
	if got := selfTimes(all)[0]; got != 8000 {
		t.Errorf("parent self = %d ns, want 8000", got)
	}

	var none *lane
	if id := none.begin(spanEpoch, 0, 1, t0); id != 0 {
		t.Errorf("nil lane issued id %d", id)
	}
	none.finish(0, t0) // must not panic

	var buf bytes.Buffer
	if err := writeSpans(&buf, all); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "id,parent,name,epoch,start_ns,end_ns" || !strings.Contains(lines[2], ",read,7,1000,3000") {
		t.Errorf("span file:\n%s", buf.String())
	}
}
