package master

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/fair"
	"harmony/internal/mlapp"
	"harmony/internal/worker"
)

// fairSpec is spec() plus fair-scheduler coordinates.
func fairSpec(name string, iters int, queue string, min, max int) JobSpec {
	s := spec(name, mlapp.MLR, iters)
	s.Queue = queue
	s.MinWorkers = min
	s.MaxWorkers = max
	return s
}

func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFairGangAtomicOrHold pins the KAI-style gang rule: a job whose
// MinWorkers cannot be satisfied holds in full — it is never started on
// a partial worker set — and places atomically once capacity frees.
func TestFairGangAtomicOrHold(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("a", mlapp.MLR, 100000), []string{"w0"}); err != nil {
		t.Fatal(err)
	}
	adm, err := m.Enqueue(fairSpec("gang", 6, "", 2, 2), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if adm.Admitted {
		t.Fatal("gang of 2 admitted with only 1 free worker")
	}
	v, ok := m.Job("gang")
	if !ok || v.State != "pending" {
		t.Fatalf("Job(gang) = %+v, %v", v, ok)
	}
	if v.HoldReason != fair.HoldNoGang {
		t.Errorf("hold reason = %q, want %q", v.HoldReason, fair.HoldNoGang)
	}
	if v.QueuePosition != 1 {
		t.Errorf("queue position = %d, want 1", v.QueuePosition)
	}
	// The default queue owns the whole cluster, so reclaim never fires
	// for it (admitting the gang would leave the queue over its own
	// quota); the hold persists until capacity genuinely frees.
	if c := m.Counters(); c.Preempted != 0 {
		t.Fatalf("reclaim preempted %d jobs inside a single queue", c.Preempted)
	}
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "gang admission", func() bool {
		v, ok := m.Job("gang")
		return ok && v.State != "pending"
	})
	v, _ = m.Job("gang")
	if len(v.Workers) != 2 {
		t.Fatalf("gang placed on %v, want both workers atomically", v.Workers)
	}
	if err := m.WaitJob("gang", 60*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestFairPreemptionBitIdenticalResume is the end-to-end multi-tenant
// story on a live cluster: tenantB's flood borrows the whole cluster,
// tenantA's gang reclaims it back to the 70/30 split through the
// pause/checkpoint path, every surface reflects the transitions, and
// the preempted jobs resume bit-identically — their final losses equal
// the never-preempted control job with the same spec and shard count.
func TestFairPreemptionBitIdenticalResume(t *testing.T) {
	m := cluster(t, 3)
	if err := m.ConfigureQueues(
		fair.QueueConfig{Name: "tenantA", Quota: 0.7},
		fair.QueueConfig{Name: "tenantB", Quota: 0.3},
	); err != nil {
		t.Fatal(err)
	}

	// tenantB floods: three identical single-worker jobs take the whole
	// cluster (borrowing is work-conserving while nothing else waits).
	for _, name := range []string{"b1", "b2", "b3"} {
		adm, err := m.Enqueue(fairSpec(name, 2000, "tenantB", 1, 1), Profile{})
		if err != nil {
			t.Fatal(err)
		}
		if !adm.Admitted || len(adm.Workers) != 1 {
			t.Fatalf("%s admission = %+v, want 1 worker", name, adm)
		}
	}
	// Let the victims make some progress so the preempt journal entries
	// carry measured values and the resume genuinely mid-flight.
	for _, name := range []string{"b1", "b2", "b3"} {
		pollUntil(t, name+" progress", func() bool {
			v, _ := m.Job(name)
			return v.State == StatusRunning.String() && v.Iteration >= 3
		})
	}

	// tenantA's gang of 2 arrives: it is under quota (2 <= 70% of 3)
	// and nothing is free, so the fair scheduler must reclaim the two
	// most recently started tenantB jobs and place the gang atomically.
	if _, err := m.Enqueue(fairSpec("gang", 100000, "tenantA", 2, 2), Profile{}); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "gang admission via reclaim", func() bool {
		v, ok := m.Job("gang")
		return ok && v.State == "running"
	})
	v, _ := m.Job("gang")
	if len(v.Workers) != 2 {
		t.Fatalf("gang running on %v, want exactly 2 workers", v.Workers)
	}
	if c := m.Counters(); c.Preempted != 2 {
		t.Fatalf("Preempted = %d, want 2", c.Preempted)
	}
	for _, name := range []string{"b2", "b3"} {
		v, ok := m.Job(name)
		if !ok || v.State != "pending" {
			t.Fatalf("victim %s = %+v, want pending", name, v)
		}
		if v.HoldReason != fair.HoldPreempted || !v.Resumable || v.ResumeIter < 1 {
			t.Errorf("victim %s view = %+v, want preempted+resumable", name, v)
		}
		if v.QueuePosition == 0 {
			t.Errorf("victim %s has no queue position", name)
		}
	}
	checkPositions(t, m)
	if bv, _ := m.Job("b1"); bv.State != "running" {
		t.Errorf("oldest victim candidate b1 = %s, want untouched (priority-then-recency)", bv.State)
	}

	// The per-queue surface reflects the reclaim.
	byName := make(map[string]QueueView)
	for _, q := range m.Queues() {
		byName[q.Name] = q
	}
	qa, qb := byName["tenantA"], byName["tenantB"]
	if qa.QuotaWorkers != 2 || qb.QuotaWorkers != 1 {
		t.Errorf("quota workers = %d/%d, want 2/1", qa.QuotaWorkers, qb.QuotaWorkers)
	}
	if qa.UsageWorkers != 2 || qa.Running != 1 || qa.Depth != 0 {
		t.Errorf("tenantA view = %+v", qa)
	}
	if qb.UsageWorkers != 1 || qb.Running != 1 || qb.Depth != 2 || qb.Preempted != 2 {
		t.Errorf("tenantB view = %+v", qb)
	}

	// Journal: a hold for the gang, two preempts with measured stamps,
	// and the gang's eventual drain admission.
	kinds := make(map[string]int)
	for _, e := range m.Events() {
		kinds[e.Kind]++
		if e.Kind == EventPreempt && e.MeasuredIterSeconds <= 0 {
			t.Errorf("preempt of %s lacks a measured T_itr: %+v", e.Job, e)
		}
	}
	if kinds[EventPreempt] != 2 || kinds[EventHold] < 1 || kinds[EventQueueDrain] < 1 {
		t.Errorf("journal kinds = %v, want 2 preempts, a hold, a drain", kinds)
	}

	// Cancel the gang: capacity frees and the victims resume from their
	// checkpoints. All three tenantB jobs then run to completion.
	if err := m.Cancel("gang"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b1", "b2", "b3"} {
		if err := m.WaitJob(name, 120*time.Second); err != nil {
			t.Fatalf("wait %s: %v", name, err)
		}
	}
	resumes := 0
	for _, e := range m.Events() {
		if e.Kind == EventResume {
			resumes++
			if !strings.Contains(e.Note, "resume from checkpoint iteration") {
				t.Errorf("resume note = %q", e.Note)
			}
		}
	}
	if resumes != 2 {
		t.Errorf("resume events = %d, want 2", resumes)
	}

	// Bit-identical resume: all three jobs share spec, seed and shard
	// count (1 worker), so the preempted-and-resumed b2/b3 must land on
	// exactly the loss of the never-preempted b1 — float-equal, no
	// tolerance. A different shard count would reorder FP reductions;
	// the single-worker gang keeps the sum order fixed.
	var losses [3]float64
	for i, name := range []string{"b1", "b2", "b3"} {
		v, _ := m.Job(name)
		if v.State != StatusFinished.String() || v.Iteration != 1999 {
			t.Fatalf("%s = %s at iteration %d, want finished at 1999", name, v.State, v.Iteration)
		}
		losses[i] = v.Loss
	}
	if losses[1] != losses[0] || losses[2] != losses[0] {
		t.Errorf("final losses diverged after preempt/resume: %v", losses)
	}
}

// checkPositions requires that every held job's counted position (Job)
// is the one ListJobs reads off its single sort of the queue.
func checkPositions(t *testing.T, m *Master) {
	t.Helper()
	for _, lv := range m.ListJobs() {
		if lv.State != StatusPending.String() {
			continue
		}
		if v, ok := m.Job(lv.Name); !ok || v.QueuePosition != lv.QueuePosition {
			t.Errorf("%s: Job position %d, ListJobs position %d", lv.Name, v.QueuePosition, lv.QueuePosition)
		}
	}
}

// TestQueuePositionMatchesListJobs drives holds of two tenants at mixed
// priorities and gang sizes, cancels of held jobs, and completions with
// and without the drain pass after them, checking positions after each.
func TestQueuePositionMatchesListJobs(t *testing.T) {
	m := parkedMaster(t, 4, 1)
	if err := m.ConfigureQueues(
		fair.QueueConfig{Name: "qa", Quota: 0.5},
		fair.QueueConfig{Name: "qb", Quota: 0.5}); err != nil {
		t.Fatal(err)
	}
	queues := []string{"qa", "qb", ""}
	for i := 0; i < 4; i++ {
		mustEnqueue(t, m, fairSpec(fmt.Sprintf("run%d", i), 1000, queues[i%2], 1, 1), Profile{}, true)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		s := fairSpec(fmt.Sprintf("h%02d", i), 1000, queues[rng.Intn(3)], 1+rng.Intn(2), 2)
		s.Priority = rng.Intn(3)
		mustEnqueue(t, m, s, Profile{}, false)
		checkPositions(t, m)
	}
	for _, name := range []string{"h03", "h07"} {
		if err := m.Cancel(name); err != nil {
			t.Fatal(err)
		}
		checkPositions(t, m)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("run%d", i)
		v, _ := m.Job(name)
		var epoch int
		m.read(func() { epoch = m.jobs[name].epoch })
		if _, err := m.handleJobDone(worker.JobDoneArgs{Job: name, Worker: v.Workers[0], Epoch: epoch}); err != nil {
			t.Fatal(err)
		}
		checkPositions(t, m) // usage moved; no drain pass has seen it yet
		m.drainQueue()
		checkPositions(t, m)
	}
}

// TestFairHoldReasonsAndCancelHeld pins the hold-reason classification
// and the cancel_held journal event: a gang with no feasible worker set
// holds as no_gang_capacity, an over-quota submission gated by an
// under-quota waiter holds as quota_exhausted, and canceling a held job
// records a distinct journal kind carrying the reason.
func TestFairHoldReasonsAndCancelHeld(t *testing.T) {
	m := cluster(t, 2)
	if err := m.ConfigureQueues(
		fair.QueueConfig{Name: "qa", Quota: 0.5},
		fair.QueueConfig{Name: "qb", Quota: 0.5},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enqueue(fairSpec("zz", 5, "ghost", 0, 0), Profile{}); !errors.Is(err, ErrUnknownQueue) {
		t.Fatalf("enqueue into unknown queue = %v, want ErrUnknownQueue", err)
	}

	// qb borrows the whole cluster while nothing else waits.
	for _, name := range []string{"b1", "b2"} {
		if adm, err := m.Enqueue(fairSpec(name, 100000, "qb", 1, 1), Profile{}); err != nil || !adm.Admitted {
			t.Fatalf("%s: %+v, %v", name, adm, err)
		}
	}
	// qa's gang of 2 exceeds qa's quota of 1, so reclaim refuses to
	// serve it (it would end over quota) and it holds on gang capacity.
	if _, err := m.Enqueue(fairSpec("a1", 5, "qa", 2, 2), Profile{}); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Job("a1"); v.HoldReason != fair.HoldNoGang {
		t.Errorf("a1 hold reason = %q, want %q", v.HoldReason, fair.HoldNoGang)
	}
	// A further qb submission is gated: qb is over quota and qa has a
	// held job, so borrowing more is quota_exhausted.
	if _, err := m.Enqueue(fairSpec("b3", 5, "qb", 1, 1), Profile{}); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Job("b3"); v.HoldReason != fair.HoldQuota {
		t.Errorf("b3 hold reason = %q, want %q", v.HoldReason, fair.HoldQuota)
	}
	// The under-quota queue's job outranks the borrower in line.
	a, _ := m.Job("a1")
	b, _ := m.Job("b3")
	if a.QueuePosition != 1 || b.QueuePosition != 2 {
		t.Errorf("queue positions a1=%d b3=%d, want 1 and 2", a.QueuePosition, b.QueuePosition)
	}

	if err := m.Cancel("a1"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range m.Events() {
		if e.Kind == EventCancelHeld && e.Job == "a1" {
			found = true
			if !strings.Contains(e.Note, fair.HoldNoGang) {
				t.Errorf("cancel_held note = %q, want the hold reason", e.Note)
			}
		}
	}
	if !found {
		t.Error("no cancel_held journal event for a1")
	}
	for _, q := range m.Queues() {
		if q.Name == "qa" && q.Canceled != 1 {
			t.Errorf("qa canceled_total = %d, want 1", q.Canceled)
		}
	}
}

// TestFairChurnRace is the concurrency property test (run under
// -race by `make race`): concurrent Enqueue/Cancel across two
// queues with gangs, natural drains and preemptions must never
// deadlock and never partially place a gang. Policy-order determinism
// is pinned separately by the tick-driven internal/fair experiment
// tests, where timing is simulated; here real scheduling interleaves.
func TestFairChurnRace(t *testing.T) {
	m := cluster(t, 3)
	if err := m.ConfigureQueues(
		fair.QueueConfig{Name: "qa", Quota: 0.6},
		fair.QueueConfig{Name: "qb", Quota: 0.4},
	); err != nil {
		t.Fatal(err)
	}
	const (
		producers = 3
		perWorker = 6
	)
	// minBy records each job's gang size for the atomicity checks; it is
	// fully populated before any read (producers write before sending the
	// name, checks run after wg.Wait).
	var minMu sync.Mutex
	minBy := make(map[string]int)
	var wg sync.WaitGroup
	names := make(chan string, producers*perWorker)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("j%d-%d", p, i)
				queue := "qa"
				if rng.Intn(2) == 0 {
					queue = "qb"
				}
				min := 1
				if rng.Intn(3) == 0 {
					min = 2
				}
				s := fairSpec(name, 10+rng.Intn(20), queue, min, min)
				s.Priority = rng.Intn(3)
				minMu.Lock()
				minBy[name] = min
				minMu.Unlock()
				if _, err := m.Enqueue(s, Profile{}); err != nil {
					t.Errorf("enqueue %s: %v", name, err)
					continue
				}
				names <- name
				if rng.Intn(4) == 0 {
					// Cancel a recently submitted job: held, running,
					// preempted, or already finished are all legal here.
					if err := m.Cancel(name); err != nil &&
						!errors.Is(err, ErrJobFinished) && !errors.Is(err, ErrUnknownJob) {
						t.Errorf("cancel %s: %v", name, err)
					}
				}
			}
		}(p)
	}

	// Observer: while the churn runs, no deployed gang job may ever be
	// seen on fewer workers than its MinWorkers.
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, v := range m.ListJobs() {
				if v.State != "running" || !strings.HasPrefix(v.Name, "j") {
					continue
				}
				minMu.Lock()
				min := minBy[v.Name]
				minMu.Unlock()
				if min > 0 && len(v.Workers) < min {
					t.Errorf("job %s running on %d workers, min %d", v.Name, len(v.Workers), min)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(names)
	// Every non-canceled job must eventually finish: completions free
	// capacity, drains admit the rest, preempted jobs resume. A hang
	// here is the deadlock this test exists to catch. A name canceled
	// while held leaves no record — ErrUnknownJob is a legal outcome.
	for name := range names {
		if err := m.WaitJob(name, 120*time.Second); err != nil && !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("wait %s: %v", name, err)
		}
	}
	close(stop)
	obs.Wait()

	// Gang atomicity, re-checked against the journal: every placement
	// event for a gang job recorded a full-width group.
	for _, e := range m.Events() {
		switch e.Kind {
		case EventAdmitInitial, EventAdmitArrival, EventQueueDrain, EventResume:
			if min := minBy[e.Job]; min > 0 && len(e.Group) < min {
				t.Errorf("%s of %s placed %d workers, min %d", e.Kind, e.Job, len(e.Group), min)
			}
		}
	}
	// The master is still serviceable after the churn.
	if adm, err := m.Enqueue(fairSpec("after", 5, "qa", 1, 0), Profile{}); err != nil || !adm.Admitted {
		t.Fatalf("post-churn enqueue = %+v, %v", adm, err)
	}
	if err := m.WaitJob("after", 60*time.Second); err != nil {
		t.Fatal(err)
	}
}
