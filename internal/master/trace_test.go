package master

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/obs"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// TestCollectSpansCountsLoss: a traced worker whose 4-span ring recorded
// 10 spans before the first collection lost 6 of them, and a collection
// with nothing new adds no loss.
func TestCollectSpansCountsLoss(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.EnableTracing(0)
	rec := obs.NewRecorder(4)
	stub := rpc.NewServer()
	stub.Handle(worker.MethodStats, rpc.Typed(func(a worker.StatsArgs) (worker.StatsReply, error) {
		return worker.StatsReply{Spans: rec.SpansAfter(a.SpanAfter, nil)}, nil
	}))
	addr, err := stub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stub.Close() })
	if _, err := m.handleRegister(registerArgs{Name: "w0", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < 10; i++ {
		rec.Record(obs.PhaseComp, "j", i, now, now)
	}
	for pass := 1; pass <= 2; pass++ {
		if spans := m.CollectSpans(); len(spans) != 4 {
			t.Fatalf("collection %d retained %d spans, want 4", pass, len(spans))
		}
		if got := m.Counters().SpansLost; got != 6 {
			t.Fatalf("collection %d: SpansLost = %d, want 6", pass, got)
		}
	}
}

// TestConcurrentCollectionsKeepEachSpanOnce: two collections that both ask
// a worker from cursor 0 get the same 10 spans back; the one that ingests
// second must skip what the first already kept, and neither counts a loss.
func TestConcurrentCollectionsKeepEachSpanOnce(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.EnableTracing(0)
	rec := obs.NewRecorder(16)
	now := time.Now()
	for i := 0; i < 10; i++ {
		rec.Record(obs.PhaseComp, "j", i, now, now)
	}
	// Both calls are in flight, each from cursor 0, before either answers.
	var calls atomic.Int32
	both := make(chan struct{})
	stub := rpc.NewServer()
	stub.Handle(worker.MethodStats, rpc.Typed(func(a worker.StatsArgs) (worker.StatsReply, error) {
		if calls.Add(1) == 2 {
			close(both)
		}
		<-both
		return worker.StatsReply{Spans: rec.SpansAfter(a.SpanAfter, nil)}, nil
	}))
	addr, err := stub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stub.Close() })
	if _, err := m.handleRegister(registerArgs{Name: "w0", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.CollectSpans()
		}()
	}
	wg.Wait()
	spans := m.trace.retained()
	seqs := make(map[uint64]bool)
	for _, s := range spans {
		seqs[s.Seq] = true
	}
	if len(spans) != 10 || len(seqs) != 10 {
		t.Errorf("retained %d spans with %d distinct seqs, want 10 of each", len(spans), len(seqs))
	}
	if got := m.Counters().SpansLost; got != 0 {
		t.Errorf("SpansLost = %d, want 0", got)
	}
}
