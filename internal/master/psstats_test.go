package master

import (
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/mlapp"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// TestPSStatsLive scrapes a running job's stripes off a live cluster:
// every worker answers, and the job's stripes are spread over all of
// their co-located servers with their pull/push counters running.
func TestPSStatsLive(t *testing.T) {
	m := cluster(t, 3)
	if err := m.Submit(spec("nmf", mlapp.NMF, 5000), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if v, _ := m.Job("nmf"); v.Iteration >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cs, err := m.PSStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Servers) != 3 {
		t.Fatalf("scraped %d servers, want 3", len(cs.Servers))
	}
	for _, srv := range cs.Servers {
		var stripes int
		var ops int64
		for _, js := range srv.Jobs {
			if js.Job != "nmf" {
				continue
			}
			stripes += len(js.Stripes)
			for _, st := range js.Stripes {
				ops += st.Ops()
			}
		}
		if stripes == 0 || ops == 0 {
			t.Errorf("server %s: %d nmf stripes, %d ops; want both > 0", srv.Name, stripes, ops)
		}
	}
	if err := m.Cancel("nmf"); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryTimesOutOnAHungWorker: a worker whose stats handler never
// answers costs a scrape collectTimeout, not a control call's minute, and
// two concurrent reads (a /metrics scrape and a /v1/ps read) run side by
// side instead of queueing on the master's lock.
func TestTelemetryTimesOutOnAHungWorker(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	hang := make(chan struct{})
	stub := rpc.NewServer()
	stub.Handle(worker.MethodStats, rpc.Typed(func(worker.StatsArgs) (worker.StatsReply, error) {
		<-hang
		return worker.StatsReply{}, nil
	}))
	addr, err := stub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(hang)
		stub.Close()
	})
	if _, err := m.handleRegister(registerArgs{Name: "hung", Addr: addr}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var wg sync.WaitGroup
	var totals WorkerTotals
	var psErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		totals = m.WorkerTotals()
	}()
	go func() {
		defer wg.Done()
		_, psErr = m.PSStats()
	}()
	wg.Wait()
	if took := time.Since(start); took > collectTimeout+2*time.Second {
		t.Fatalf("the scrapes took %v with one hung worker, want at most collectTimeout (%v) + 2s", took, collectTimeout)
	}
	if totals.UtilErr == nil || psErr == nil {
		t.Fatalf("a hung worker went unreported: WorkerTotals %v, PSStats %v", totals.UtilErr, psErr)
	}
}
