package master

import (
	"fmt"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/worker"
)

// The tests in this file cover held jobs on a master whose drain is
// parked (parkedMaster), so each drain pass is the test's own: hold
// reasons, the registration that drains them, and the status read and
// hold-plus-drain cost at the ctl_churn workload's shape.

// park keeps a master's drain passes to the ones the test runs itself
// (drainQueue): an op's wake does not start one.
func park(m *Master) { m.do(func() { m.parked = true }) }

// drainQueue runs one drain pass and returns once it has ended: its
// deployments applied, its reclaims settled.
func (m *Master) drainQueue() {
	m.do(func() { m.wake = true })
	for on := true; on; {
		m.read(func() { on = m.wake || m.waiting })
		if on {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// parkedMaster is a parked master (park) with n stub workers that ack
// every deployment call.
func parkedMaster(t testing.TB, n, maxJobsPerGroup int) *Master {
	t.Helper()
	m, err := New("127.0.0.1:0", core.Options{MaxJobsPerGroup: maxJobsPerGroup})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	park(m)
	stubWorkers(t, m, n, nil, nil)
	return m
}

// mustEnqueue submits a job and checks whether it was admitted or held.
func mustEnqueue(t testing.TB, m *Master, s JobSpec, prof Profile, wantAdmitted bool) {
	t.Helper()
	adm, err := m.Enqueue(s, prof)
	if err != nil || adm.Admitted != wantAdmitted {
		t.Fatalf("enqueue %s: %+v, %v; want admitted=%v", s.Name, adm, err, wantAdmitted)
	}
}

func holdReason(t *testing.T, m *Master, name string) string {
	t.Helper()
	v, ok := m.Job(name)
	if !ok || v.State != StatusPending.String() {
		t.Fatalf("%s: %+v, %v; want a held job", name, v, ok)
	}
	return v.HoldReason
}

// TestHoldReasonFollowsBorrowCap drives the one way the held queue
// reaches a job's hold reason: the borrow cap. A hold in an under-quota
// queue gates the others, so their jobs' limit changes; a job whose gated
// limit still admits its gang is refused on the merits, and a job gated
// below its gang reports quota_exhausted while gated and, once the gate
// lifts, the reason its own placement finds again.
func TestHoldReasonFollowsBorrowCap(t *testing.T) {
	// 8 workers: qa is guaranteed 2, qb 4, the default queue the other 2.
	m := parkedMaster(t, 8, 1)
	if err := m.ConfigureQueues(
		fair.QueueConfig{Name: "qa", Quota: 0.25},
		fair.QueueConfig{Name: "qb", Quota: 0.5}); err != nil {
		t.Fatal(err)
	}
	// A 5-worker gang puts the default queue over its quota but is no
	// reclaim victim (suspending it would dig the queue below quota); three
	// single-worker qb jobs leave qb one short of its guarantee. Every
	// worker is busy and every group full.
	mustEnqueue(t, m, fairSpec("gang", 1000, "", 5, 5), Profile{}, true)
	for i := 0; i < 3; i++ {
		mustEnqueue(t, m, fairSpec(fmt.Sprintf("b%d", i), 1000, "qb", 1, 1), Profile{}, true)
	}
	m.drainQueue()

	// y borrows ungated (nothing else is held): refused on the merits.
	mustEnqueue(t, m, fairSpec("y", 1000, "", 1, 1), Profile{}, false)
	m.drainQueue()
	if r := holdReason(t, m, "y"); r != fair.HoldSlowdown {
		t.Fatalf("y reason %q, want %q", r, fair.HoldSlowdown)
	}
	// x waits in under-quota qb, which gates the default queue below y's
	// gang: y reports the gate.
	mustEnqueue(t, m, fairSpec("x", 1000, "qb", 1, 1), Profile{}, false)
	m.drainQueue()
	if x, y := holdReason(t, m, "x"), holdReason(t, m, "y"); x != fair.HoldSlowdown || y != fair.HoldQuota {
		t.Errorf("reasons x=%q y=%q, want %q and %q", x, y, fair.HoldSlowdown, fair.HoldQuota)
	}
	// a waits in under-quota qa (its gang exceeds qa's quota, so it is gated
	// itself and never reclaims). Now qb is gated too: x's limit drops from
	// unbounded to qb's headroom of 1, which still admits its gang, and x is
	// refused on the merits again.
	mustEnqueue(t, m, fairSpec("a", 1000, "qa", 3, 3), Profile{}, false)
	m.drainQueue()
	if a, x := holdReason(t, m, "a"), holdReason(t, m, "x"); a != fair.HoldQuota || x != fair.HoldSlowdown {
		t.Errorf("reasons a=%q x=%q, want %q and %q", a, x, fair.HoldQuota, fair.HoldSlowdown)
	}
	// The gates lift one by one: y's limit moves back, and it reports what
	// its placement finds, not the quota_exhausted it was left with.
	for _, name := range []string{"a", "x"} {
		if err := m.Cancel(name); err != nil {
			t.Fatal(err)
		}
		m.drainQueue()
	}
	if r := holdReason(t, m, "y"); r != fair.HoldSlowdown {
		t.Errorf("lifting y's gate: reason %q, want %q", r, fair.HoldSlowdown)
	}
}

// TestRegisterDrainsHeldJobs: a job submitted before any worker is up holds
// on gang capacity; the registration that makes room for it must also wake
// the drainer, or it stays pending on an idle cluster until some unrelated
// submit or completion happens to drain the queue.
func TestRegisterDrainsHeldJobs(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	mustEnqueue(t, m, fairSpec("early", 1000, "", 2, 2), Profile{}, false)
	if r := holdReason(t, m, "early"); r != fair.HoldNoGang {
		t.Fatalf("early reason = %q, want %q", r, fair.HoldNoGang)
	}
	stubWorkers(t, m, 2, nil, nil)
	pollUntil(t, "the held job to be deployed onto the workers that registered", func() bool {
		v, _ := m.Job("early")
		return v.State == StatusRunning.String() && len(v.Workers) == 2
	})
	if c, d := m.Counters(), len(m.Cluster().Pending); c.QueueDrained != 1 || d != 0 {
		t.Errorf("counters = %+v, depth %d; want one drained admission and an empty queue", c, d)
	}
}

// TestHeldJobIgnoresWorkerCalls: a held job is known to the master but
// placed nowhere, so a barrier or a completion naming it, at any epoch,
// changes nothing.
func TestHeldJobIgnoresWorkerCalls(t *testing.T) {
	m := parkedMaster(t, 1, 1)
	mustEnqueue(t, m, fairSpec("gang", 1000, "", 2, 2), Profile{}, false)
	for epoch := 0; epoch < 3; epoch++ {
		if r, err := m.handleBarrier(worker.BarrierArgs{Job: "gang", Worker: "w0", Epoch: epoch}); err != nil || r.Directive != worker.Stop {
			t.Errorf("barrier at epoch %d: %v, %v; want Stop", epoch, r.Directive, err)
		}
		for _, e := range []string{"", "failed"} {
			if _, err := m.handleJobDone(worker.JobDoneArgs{Job: "gang", Worker: "w0", Epoch: epoch, Err: e}); err != nil {
				t.Error(err)
			}
		}
	}
	if v, ok := m.Job("gang"); !ok || v.State != StatusPending.String() || v.Iteration != 0 {
		t.Errorf("held job reads %+v, %v after worker calls", v, ok)
	}
	if n := len(m.Events()); n != 1 {
		t.Errorf("%d journal rows, want the hold alone", n)
	}
}

// churnMaster is a master at the ctl_churn workload's shape: 256 workers
// in 32 full groups, two tenants, and depth jobs held ("pre000", ...).
func churnMaster(tb testing.TB, depth int) *Master {
	const workers, groups = 256, 32
	const gang = workers / groups
	m := parkedMaster(tb, workers, 2)
	if err := m.ConfigureQueues(
		fair.QueueConfig{Name: "tenantA", Quota: 0.6},
		fair.QueueConfig{Name: "tenantB", Quota: 0.4}); err != nil {
		tb.Fatal(err)
	}
	// Comp-heavy gangs carve the fleet into groups, net-heavy ones join
	// them by the arrival rule; light jobs then find every group full.
	for i := 0; i < 2*groups; i++ {
		prof := Profile{CompSeconds: gang * 0.45, NetSeconds: 0.08}
		if i >= groups {
			prof = Profile{CompSeconds: gang * 0.05, NetSeconds: 0.30}
		}
		mustEnqueue(tb, m, fairSpec(fmt.Sprintf("seed%03d", i), 1000, churnTenant(i), gang, gang), prof, true)
	}
	for i := 0; i < depth; i++ {
		mustEnqueue(tb, m, churnHeld(fmt.Sprintf("pre%03d", i), i), churnLight, false)
	}
	m.drainQueue()
	return m
}

func churnTenant(i int) string { return []string{"tenantA", "tenantB"}[i%2] }

// churnHeld is a light job of churnMaster's shape, and churnLight its
// profile.
func churnHeld(name string, i int) JobSpec { return fairSpec(name, 1000, churnTenant(i), 1, 8) }

var churnLight = Profile{CompSeconds: 8 * 0.04, NetSeconds: 0.25}

// BenchmarkHoldAtDepth256 is one submission that holds plus the drain pass
// it wakes, at the ctl_churn workload's shape (churnMaster).
func BenchmarkHoldAtDepth256(b *testing.B) {
	m := churnMaster(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("op%d", i)
		mustEnqueue(b, m, churnHeld(name, i), churnLight, false)
		m.drainQueue()
		b.StopTimer()
		if err := m.Cancel(name); err != nil {
			b.Fatal(err)
		}
		m.drainQueue()
		b.StartTimer()
	}
}

// BenchmarkJobStatusHeld is the status read of the last held job at the
// ctl_churn workload's shape (churnMaster).
func BenchmarkJobStatusHeld(b *testing.B) {
	m := churnMaster(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Job("pre255"); !ok {
			b.Fatal("pre255 unknown")
		}
	}
}

// TestJobStatusAllocsFlatInDepth: a held job's status read counts its
// queue position instead of sorting the queue, so it allocates the same at
// depth 16 as at depth 256.
func TestJobStatusAllocsFlatInDepth(t *testing.T) {
	var allocs [2]float64
	for i, depth := range []int{16, 256} {
		m := churnMaster(t, depth)
		name := fmt.Sprintf("pre%03d", depth-1)
		allocs[i] = testing.AllocsPerRun(50, func() { m.Job(name) })
	}
	if allocs[0] != allocs[1] {
		t.Errorf("Job of a held job allocates %v at depth 16 and %v at depth 256", allocs[0], allocs[1])
	}
}
