package master

import (
	"testing"
	"time"

	"harmony/internal/mlapp"
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
		if _, iter, _, _ := m.Status("nmf"); iter >= 2 {
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
