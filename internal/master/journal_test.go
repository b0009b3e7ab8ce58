package master

import (
	"fmt"
	"testing"

	"harmony/internal/core"
)

// TestJournalBoundedRetention pins the journal's ring contract: over
// capacity the oldest decisions are evicted, sequence numbers stay
// monotone, retained events keep their payload, and Counters reports the
// evictions.
func TestJournalBoundedRetention(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	l := newJournal(4)
	m.do(func() { m.journal = l })
	for i := 0; i < 10; i++ {
		if got := m.Counters().JournalEvicted; got != int64(max(0, i-4)) {
			t.Fatalf("after %d appends JournalEvicted = %d", i, got)
		}
		m.do(func() { l.append(Event{Kind: EventHold, Job: fmt.Sprintf("j%d", i)}) })
	}
	if got := m.Counters().JournalEvicted; got != 6 {
		t.Errorf("JournalEvicted = %d after 10 appends to a 4-event ring, want 6", got)
	}
	evs := m.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq {
			t.Errorf("event %d Seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Job != fmt.Sprintf("j%d", 6+i) {
			t.Errorf("event %d Job = %q", i, e.Job)
		}
		if e.Time.IsZero() {
			t.Errorf("event %d missing timestamp", i)
		}
		if i > 0 && e.Seq <= evs[i-1].Seq {
			t.Errorf("sequence not monotone at %d", i)
		}
	}
}

func TestJournalPredictedFrom(t *testing.T) {
	g := core.Group{
		Jobs: []core.JobInfo{
			{ID: "a", Comp: 4, Net: 1},
			{ID: "b", Comp: 2, Net: 2},
		},
		Machines: 2,
	}
	m := &Master{}
	e := m.predictedEvent(Event{Kind: EventAdmitArrival, Job: "b"}, core.PredictGroup(g, false))
	if e.PredictedIterSeconds != g.IterSeconds() {
		t.Errorf("predicted T_itr = %v, want %v", e.PredictedIterSeconds, g.IterSeconds())
	}
	ucpu, unet := g.Util()
	if e.PredictedCPUUtil != ucpu || e.PredictedNetUtil != unet {
		t.Errorf("predicted util = (%v, %v), want (%v, %v)",
			e.PredictedCPUUtil, e.PredictedNetUtil, ucpu, unet)
	}
	if e.PredictedIterSeconds <= 0 {
		t.Error("prediction should be positive for a non-empty group")
	}
	if e.PredictedCompatibility != 0 {
		t.Errorf("NetModel off: compatibility stamp = %v, want 0", e.PredictedCompatibility)
	}
	mn := &Master{opts: core.Options{NetModel: true}}
	e = mn.predictedEvent(Event{Kind: EventAdmitArrival, Job: "b"}, core.PredictGroup(g, true))
	if want := core.GroupCompatibility(g); e.PredictedCompatibility != want {
		t.Errorf("NetModel on: compatibility stamp = %v, want %v", e.PredictedCompatibility, want)
	}
}

func TestJournalEmptySnapshot(t *testing.T) {
	l := newJournal(8)
	if evs := l.snapshotSince(0, ""); len(evs) != 0 {
		t.Errorf("empty journal snapshot = %+v", evs)
	}
}

// TestJournalSnapshotSince pins the incremental-read contract of the
// ?since= / ?kind= filters: Seq > since, kind match, and graceful
// handling of a since that has already been evicted from the ring.
func TestJournalSnapshotSince(t *testing.T) {
	l := newJournal(8)
	for i := 0; i < 6; i++ {
		kind := EventHold
		if i%2 == 1 {
			kind = EventAdmitArrival
		}
		l.append(Event{Kind: kind, Job: fmt.Sprintf("j%d", i)})
	}

	if evs := l.snapshotSince(4, ""); len(evs) != 2 || evs[0].Seq != 5 || evs[1].Seq != 6 {
		t.Fatalf("since=4: got %+v, want seqs 5,6", evs)
	}
	if evs := l.snapshotSince(6, ""); evs != nil {
		t.Fatalf("since=latest: got %+v, want nil", evs)
	}
	if evs := l.snapshotSince(100, ""); evs != nil {
		t.Fatalf("since beyond head: got %+v, want nil", evs)
	}

	evs := l.snapshotSince(0, EventAdmitArrival)
	if len(evs) != 3 {
		t.Fatalf("kind filter: got %d events, want 3", len(evs))
	}
	for _, e := range evs {
		if e.Kind != EventAdmitArrival {
			t.Errorf("kind filter leaked %q", e.Kind)
		}
	}
	if evs := l.snapshotSince(3, EventHold); len(evs) != 1 || evs[0].Seq != 5 {
		t.Fatalf("since+kind: got %+v, want one hold at seq 5", evs)
	}

	// Push past capacity: since below the eviction horizon returns only
	// retained events, never stale slots.
	for i := 6; i < 20; i++ {
		l.append(Event{Kind: EventHold, Job: fmt.Sprintf("j%d", i)})
	}
	evs = l.snapshotSince(2, "")
	if len(evs) != 8 {
		t.Fatalf("post-wrap since=2: got %d events, want the 8 retained", len(evs))
	}
	if evs[0].Seq != 13 || evs[len(evs)-1].Seq != 20 {
		t.Fatalf("post-wrap range = [%d, %d], want [13, 20]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
}
