package master

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/mlapp"
)

// TestAdmitZeroFullScoreRecomputations pins the fast path's core
// invariant (DESIGN.md §15): an admission decision — admitted or held,
// including its journal stamp — performs zero full-plan Options.Score
// evaluations. Everything reads the Scorer's cached aggregates.
func TestAdmitZeroFullScoreRecomputations(t *testing.T) {
	m := cluster(t, 2)

	before := core.FullScoreCalls()
	adm, err := m.Enqueue(spec("a", mlapp.MLR, 100000), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Admitted {
		t.Fatalf("idle-cluster admission = %+v, want admitted", adm)
	}
	if d := core.FullScoreCalls() - before; d != 0 {
		t.Fatalf("initial admission performed %d full Score calls, want 0", d)
	}

	// A held decision walks the arrival rule over the live plan — the hot
	// path at scale — and must also stay incremental.
	before = core.FullScoreCalls()
	adm, err = m.Enqueue(spec("b", mlapp.Lasso, 5), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if adm.Admitted {
		t.Fatal("unprofiled job admitted into a busy cluster")
	}
	if d := core.FullScoreCalls() - before; d != 0 {
		t.Fatalf("held admission performed %d full Score calls, want 0", d)
	}
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
}

// TestWakeDrainerCoalesces pins the one-pending-wakeup latch: any burst
// of wakeups within one cycle starts one drain pass, which decides once
// for a queue that holds.
func TestWakeDrainerCoalesces(t *testing.T) {
	m := cluster(t, 1)
	mustEnqueue(t, m, spec("a", mlapp.MLR, 100000), Profile{}, true)
	mustEnqueue(t, m, spec("b", mlapp.MLR, 100000), Profile{}, false)
	before := m.Counters().DrainPasses
	m.do(func() {
		for i := 0; i < 1000; i++ {
			m.wakeDrainer()
		}
	})
	if n := m.Counters().DrainPasses - before; n != 1 {
		t.Fatalf("1000 wakeups in one cycle ran %d kernel decisions, want 1", n)
	}
}

// TestWorkerSetOrder pins that groups sort in numeric registration order
// (a decimal-string key would put "10" before "9"), a prefix first.
func TestWorkerSetOrder(t *testing.T) {
	set := func(seqs ...int) []*workerRef {
		ws := make([]*workerRef, len(seqs))
		for i, s := range seqs {
			ws[i] = &workerRef{seq: s}
		}
		return ws
	}
	want := [][]*workerRef{set(0, 1), set(0, 1, 2), set(1, 9), set(1, 10), set(2, 3), set(9), set(10), set(129), set(256)}
	got := slices.Clone(want)
	rand.New(rand.NewSource(1)).Shuffle(len(got), func(i, k int) { got[i], got[k] = got[k], got[i] })
	slices.SortFunc(got, compareWorkerSets)
	for i := range want {
		if compareWorkerSets(got[i], want[i]) != 0 {
			t.Fatalf("sorted set %d is out of order", i)
		}
	}
	if compareWorkerSets(set(1, 2), set(1, 3)) == 0 {
		t.Fatal("distinct sets compare equal")
	}
}

// TestAdmitSmokeConcurrentChurn hammers the admission path while the
// status surfaces poll concurrently; run under -race it checks that
// everything they share stays on the loop.
func TestAdmitSmokeConcurrentChurn(t *testing.T) {
	m := cluster(t, 2)
	const jobs = 12
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = m.ListJobs()
				_ = m.Cluster()
				_ = m.Counters()
				_ = m.Queues()
				_ = m.Events()
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("churn%d", i)
			_, err := m.Enqueue(spec(name, mlapp.MLR, 100000),
				Profile{CompSeconds: 2, NetSeconds: 1})
			if err != nil {
				t.Error(err)
				return
			}
			_ = m.Cancel(name)
		}(i)
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	// Writers finish, then readers are told to stop.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-waitDone:
	case <-time.After(60 * time.Second):
		t.Fatal("churn deadlocked")
	}
	for i := 0; i < jobs; i++ {
		_ = m.Cancel(fmt.Sprintf("churn%d", i))
	}
}
