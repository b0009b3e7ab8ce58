package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusMergedClippedChildren(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msOff int) time.Time { return t0.Add(time.Duration(msOff) * time.Millisecond) }
	spans := []span{
		{ID: 1, Start: at(0), End: at(100)},
		// Two overlapping children cover 10..50 once, not 20 + 30.
		{ID: 2, Parent: 1, Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Start: at(20), End: at(50)},
		// A child running past its parent is clipped to 90..100.
		{ID: 4, Parent: 1, Start: at(90), End: at(120)},
		// A grandchild shortens its own parent only.
		{ID: 5, Parent: 3, Start: at(25), End: at(35)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 50 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 20 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 10 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerSharesOneOpAcrossASpanTree(t *testing.T) {
	tr := newTracer()
	root := tr.begin(spanRef{}, "harness", "op")
	child := tr.begin(root, "ctl", "GET /v1/jobs/{name}")
	tr.end(child)
	tr.end(root)
	other := tr.begin(spanRef{}, "harness", "op")
	tr.end(other)
	spans, counts := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[1].Parent != spans[0].ID || spans[1].Op != spans[0].Op {
		t.Errorf("child %+v does not hang under root %+v", spans[1], spans[0])
	}
	if spans[2].Op == spans[0].Op {
		t.Errorf("a new root reused operation id %d", spans[2].Op)
	}
	if counts["harness.op"] != 2 || counts["ctl.GET /v1/jobs/{name}"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestNilTracerIsTracingOff(t *testing.T) {
	var tr *tracer
	ref := tr.begin(spanRef{}, "ctl", "x")
	tr.end(ref)
	if spans, counts := tr.snapshot(); spans != nil || counts != nil {
		t.Errorf("nil tracer recorded %v %v", spans, counts)
	}
}
