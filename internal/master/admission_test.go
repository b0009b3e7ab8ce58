package master

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/mlapp"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

func TestEnqueueIdleClusterAdmits(t *testing.T) {
	m := cluster(t, 2)
	adm, err := m.Enqueue(spec("a", mlapp.MLR, 5), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Admitted || len(adm.Workers) != 2 {
		t.Fatalf("idle-cluster admission = %+v, want admitted on both workers", adm)
	}
	if err := m.WaitJob("a", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.AdmittedInitial != 1 {
		t.Errorf("AdmittedInitial = %d, want 1", c.AdmittedInitial)
	}
}

func TestEnqueueUnprofiledHeldWhileBusy(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("a", mlapp.MLR, 100000), nil); err != nil {
		t.Fatal(err)
	}
	// An unprofiled job cannot improve the score of a busy plan, so the
	// arrival rule holds it (§IV-B4).
	adm, err := m.Enqueue(spec("b", mlapp.Lasso, 5), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if adm.Admitted {
		t.Fatal("unprofiled job admitted into a busy cluster")
	}
	if d := len(m.Cluster().Pending); d != 1 {
		t.Fatalf("queue depth = %d, want 1", d)
	}
	if v, ok := m.Job("b"); !ok || v.State != "pending" {
		t.Fatalf("Job(b) = %+v, %v; want pending", v, ok)
	}
	// Names are reserved while pending.
	if _, err := m.Enqueue(spec("b", mlapp.Lasso, 5), Profile{}); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("duplicate enqueue = %v, want ErrDuplicateJob", err)
	}
	if err := m.Submit(spec("b", mlapp.Lasso, 5), nil); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("duplicate submit of pending name = %v, want ErrDuplicateJob", err)
	}
	// Canceling a pending job removes it from the queue.
	if err := m.Cancel("b"); err != nil {
		t.Fatal(err)
	}
	if d := len(m.Cluster().Pending); d != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", d)
	}
	if err := m.Cancel("b"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel of removed job = %v, want ErrUnknownJob", err)
	}
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDrainOnCompletion(t *testing.T) {
	m := cluster(t, 2)
	// a must still be running when b is enqueued two statements later, or
	// b is rightly admitted at once and the assertion below is void. An
	// iteration of this job takes about half a millisecond, so 6 of them
	// (what this test used to ask for) lost that race whenever the test
	// goroutine was descheduled for a few milliseconds; 400 leave it a
	// fifth of a second.
	if err := m.Submit(spec("a", mlapp.MLR, 400), nil); err != nil {
		t.Fatal(err)
	}
	adm, err := m.Enqueue(spec("b", mlapp.Lasso, 4), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if adm.Admitted {
		t.Fatal("job b admitted while a was running")
	}
	if err := m.WaitJob("a", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// a's completion triggers a drain that admits b on the idle cluster.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if v, ok := m.Job("b"); ok && v.State != "pending" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job b was not drained from the queue after a finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := m.WaitJob("b", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	c := m.Counters()
	if c.QueueDrained != 1 {
		t.Errorf("QueueDrained = %d, want 1", c.QueueDrained)
	}
	if c.HeldPending != 1 {
		t.Errorf("HeldPending = %d, want 1", c.HeldPending)
	}
}

func TestCancelRunningJobFreesCluster(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("a", mlapp.MLR, 100000), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Job("a"); v.State != "canceled" {
		t.Fatalf("state after cancel = %q, want canceled", v.State)
	}
	// Cancel is idempotent on an already-canceled job.
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
	// WaitJob unblocks on cancellation.
	if err := m.WaitJob("a", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The cluster is idle again: a new job is admitted immediately.
	adm, err := m.Enqueue(spec("c", mlapp.Lasso, 4), Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if !adm.Admitted {
		t.Fatal("cluster not reusable after cancel")
	}
	if err := m.WaitJob("c", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", c.Canceled)
	}
}

func TestCancelFinishedJobErrors(t *testing.T) {
	m := cluster(t, 1)
	if err := m.Submit(spec("a", mlapp.MLR, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("a", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel("a"); !errors.Is(err, ErrJobFinished) {
		t.Errorf("cancel of finished job = %v, want ErrJobFinished", err)
	}
}

func TestShutdownCheckpointsRunningJobs(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("a", mlapp.NMF, 100000), nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, ok := m.Job("a")
		if !ok {
			t.Fatal("job a unknown")
		}
		if v.Iteration >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job a made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	saved := m.Shutdown(20 * time.Second)
	found := false
	for _, name := range saved {
		if name == "a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Shutdown checkpointed %v, want [a]", saved)
	}
	snap, iter := checkpointOf(t, m, "a")
	if len(snap) == 0 || iter < 2 {
		t.Errorf("final checkpoint: %d values at iteration %d", len(snap), iter)
	}
	// The drained master rejects new work.
	if _, err := m.Enqueue(spec("z", mlapp.MLR, 3), Profile{}); !errors.Is(err, ErrDraining) {
		t.Errorf("enqueue after shutdown = %v, want ErrDraining", err)
	}
}

func TestListJobsIncludesPending(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("a", mlapp.MLR, 100000), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enqueue(spec("b", mlapp.Lasso, 4), Profile{}); err != nil {
		t.Fatal(err)
	}
	views := m.ListJobs()
	if len(views) != 2 {
		t.Fatalf("ListJobs = %d entries, want 2", len(views))
	}
	if views[0].Name != "a" || views[1].Name != "b" {
		t.Fatalf("ListJobs order = [%s %s], want [a b]", views[0].Name, views[1].Name)
	}
	if views[1].State != "pending" {
		t.Errorf("pending view = %+v", views[1])
	}
	cv := m.Cluster()
	if len(cv.Workers) != 2 || len(cv.Groups) != 1 || len(cv.Pending) != 1 {
		t.Errorf("cluster view = %+v", cv)
	}
	if err := m.Cancel("a"); err != nil {
		t.Fatal(err)
	}
}

// stubServer starts an RPC server that acks every deployment and teardown
// call a worker gets, after asking load and start whether the call should
// fail, and tells note each call as its reply leaves ("load", "start",
// "dropJob"). Any of the three may be nil. Like a worker it hosts a
// parameter server, which the master seeds when a job resumes.
func stubServer(t testing.TB, load func(worker.LoadJobArgs) error, start func(worker.StartJobArgs) error,
	note func(call, job string)) string {
	t.Helper()
	if note == nil {
		note = func(string, string) {}
	}
	stub, store := rpc.NewServer(), ps.NewServer()
	store.Register(stub)
	stub.Handle(worker.MethodLoadJob, rpc.Typed(func(a worker.LoadJobArgs) (worker.Ack, error) {
		if load != nil {
			if err := load(a); err != nil {
				return worker.Ack{}, err
			}
		}
		note("load", a.Job)
		return worker.Ack{}, nil
	}))
	stub.Handle(worker.MethodStartJob, rpc.Typed(func(a worker.StartJobArgs) (worker.Ack, error) {
		if start != nil {
			if err := start(a); err != nil {
				return worker.Ack{}, err
			}
		}
		note("start", a.Job)
		return worker.Ack{}, nil
	}))
	stub.Handle(worker.MethodDropJob, rpc.Typed(func(a worker.DropJobArgs) (worker.Ack, error) {
		note("dropJob", a.Job)
		return worker.Ack{}, nil
	}))
	addr, err := stub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stub.Close(); store.Close() })
	return addr
}

// stubWorkers registers n workers ("w0", "w1", ...) served by one
// stubServer.
func stubWorkers(t testing.TB, m *Master, n int,
	load func(worker.LoadJobArgs) error, start func(worker.StartJobArgs) error) {
	t.Helper()
	addr := stubServer(t, load, start, nil)
	for i := 0; i < n; i++ {
		if _, err := m.handleRegister(registerArgs{Name: fmt.Sprintf("w%d", i), Addr: addr}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCancelDuringDrainDeployStaysCanceled pins the cancel-vs-deploy
// race: a drain pass is loading a held job onto its gang when the
// operator cancels it, and the late load then fails. The job must stay
// canceled — not erased, not requeued, not deployed again.
func TestCancelDuringDrainDeployStaysCanceled(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{MaxJobsPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	// Park the drain so the test runs each pass itself and
	// knows when it has ended.
	park(m)

	// The first load of "victim" blocks until released and then fails.
	entered, release := make(chan struct{}), make(chan struct{})
	var victimLoads atomic.Int32
	stubWorkers(t, m, 1, func(a worker.LoadJobArgs) error {
		if a.Job == "victim" && victimLoads.Add(1) == 1 {
			close(entered)
			<-release
			return errors.New("stub: job was dropped")
		}
		return nil
	}, nil)

	if adm, err := m.Enqueue(spec("blocker", mlapp.MLR, 1000), Profile{}); err != nil || !adm.Admitted {
		t.Fatalf("blocker: %+v, %v", adm, err)
	}
	if adm, err := m.Enqueue(spec("victim", mlapp.MLR, 1000), Profile{}); err != nil || adm.Admitted {
		t.Fatalf("victim: %+v, %v, want held", adm, err)
	}
	if err := m.Cancel("blocker"); err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		m.drainQueue()
		close(drained)
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("drain pass never deployed the held job")
	}
	if err := m.Cancel("victim"); err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain pass did not end")
	}
	// Whatever wakeups the cancels queued must find nothing to do.
	m.drainQueue()

	if v, _ := m.Job("victim"); v.State != StatusCanceled.String() {
		t.Errorf("victim = %+v, want canceled", v)
	}
	if d := len(m.Cluster().Pending); d != 0 {
		t.Errorf("queue depth = %d, want 0", d)
	}
	if n := victimLoads.Load(); n != 1 {
		t.Errorf("victim loaded %d times, want 1", n)
	}
	states := map[string]int{}
	for _, v := range m.ListJobs() {
		states[v.State]++
	}
	if states[StatusCanceled.String()] != 2 || len(states) != 1 {
		t.Errorf("job states = %v, want both submitted jobs canceled", states)
	}
	if c := m.Counters(); c.Canceled != 2 {
		t.Errorf("Canceled counter = %d, want 2", c.Canceled)
	}
}

// TestDrainedJobStaysKnown: a drain pass takes a held job off the queue and
// deploys it while other goroutines read its status and submit its name
// again. At every instant the name is known, held or deployed, and every
// resubmission is a duplicate; the job ends deployed once, the queue empty.
func TestDrainedJobStaysKnown(t *testing.T) {
	m := parkedMaster(t, 1, 1)
	for round := 0; round < 20; round++ {
		blocker, name := fmt.Sprintf("blocker%d", round), fmt.Sprintf("held%d", round)
		mustEnqueue(t, m, spec(blocker, mlapp.MLR, 1000), Profile{}, true)
		mustEnqueue(t, m, spec(name, mlapp.MLR, 1000), Profile{}, false)
		if err := m.Cancel(blocker); err != nil {
			t.Fatal(err)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, ok := m.Job(name); !ok {
					t.Errorf("round %d: %s unknown to a status read", round, name)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := m.Enqueue(spec(name, mlapp.MLR, 1000), Profile{}); !errors.Is(err, ErrDuplicateJob) {
					t.Errorf("round %d: resubmission of %s = %v, want a duplicate", round, name, err)
					return
				}
			}
		}()
		m.drainQueue()
		stop.Store(true)
		wg.Wait()
		if v, ok := m.Job(name); !ok || v.State != StatusRunning.String() || len(m.Cluster().Pending) != 0 {
			t.Fatalf("round %d: %s = %+v, %v, queue depth %d; want it running and the queue empty",
				round, name, v, ok, len(m.Cluster().Pending))
		}
		if err := m.Cancel(name); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFailedDeployReleasesParkedBarrier: a gang member that started
// before a later member's start failed may already be parked at the first
// barrier. Erasing the job must release it, or its barrier call — and
// Master.Close behind it — waits out the barrier timeout.
func TestFailedDeployReleasesParkedBarrier(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	secondStart, release := make(chan struct{}), make(chan struct{})
	var starts atomic.Int32
	stubWorkers(t, m, 2, nil, func(worker.StartJobArgs) error {
		if starts.Add(1) == 2 {
			close(secondStart)
			<-release
			return errors.New("stub: worker is shutting down")
		}
		return nil
	})

	submitted := make(chan error, 1)
	go func() { submitted <- m.Submit(spec("j", mlapp.MLR, 10), nil) }()
	select {
	case <-secondStart:
	case <-time.After(10 * time.Second):
		t.Fatal("second member never started")
	}
	// The first member reaches the barrier while the second is starting.
	reply := make(chan worker.BarrierReply, 1)
	go func() {
		r, _ := m.handleBarrier(worker.BarrierArgs{Job: "j", Worker: "w0", Iteration: 0, Epoch: 1})
		reply <- r
	}()
	waitParked(m, "j", 0)
	close(release)
	if err := <-submitted; err == nil {
		t.Fatal("Submit succeeded although a member failed to start")
	}
	select {
	case r := <-reply:
		if r.Directive != worker.Stop {
			t.Errorf("parked member got directive %v, want Stop", r.Directive)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked member was not released when the deployment failed")
	}
}

// TestLostWorkerReleasesParkedSurvivor: a survivor that is parked at the
// barrier when its group-mate's worker is lost waits for a member that
// will never arrive. The loss step must release it with Stop and requeue
// the job through a recover row. The stub workers share one server, so
// the test runs the step for one name instead of closing a connection.
func TestLostWorkerReleasesParkedSurvivor(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	stubWorkers(t, m, 3, nil, nil)
	if err := m.Submit(spec("j", mlapp.MLR, 10), nil); err != nil {
		t.Fatal(err)
	}
	reply := make(chan worker.BarrierReply, 1)
	go func() {
		r, _ := m.handleBarrier(worker.BarrierArgs{Job: "j", Worker: "w0", Iteration: 0, Epoch: 1})
		reply <- r
	}()
	waitParked(m, "j", 0)
	m.workerLost("w2")
	select {
	case r := <-reply:
		if r.Directive != worker.Stop {
			t.Errorf("parked survivor got directive %v, want Stop", r.Directive)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked survivor was not released by the loss")
	}
	if got := m.Workers(); slices.Contains(got, "w2") {
		t.Errorf("workers after the loss = %v, want w2 gone", got)
	}
	var recovered bool
	for _, e := range m.Events() {
		recovered = recovered || (e.Kind == EventRecover && e.Job == "j" && strings.Contains(e.Note, "worker w2 lost"))
	}
	if !recovered || m.Counters().Recoveries != 1 {
		t.Errorf("no single recover row naming w2: %d recoveries, journal %+v", m.Counters().Recoveries, m.Events())
	}
}

// TestFailedReplacementLeavesJobPaused: a Resume whose deploy fails must
// not leave a running record no worker runs, holding its workers in the
// live plan. The job is left stopped on no workers but not stranded: it
// takes the one restart path, so a recover row names the deploy error, the
// job is held, resumable from the checkpoint Resume was given, and a drain
// pass places it. (The name predates the requeue, when the job stayed
// paused and only a retried Resume could place it.)
func TestFailedReplacementLeavesJobPaused(t *testing.T) {
	t.Run("Resume", func(t *testing.T) {
		m, err := New("127.0.0.1:0", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		park(m)
		var failNext atomic.Bool
		stubWorkers(t, m, 3, func(worker.LoadJobArgs) error {
			if failNext.CompareAndSwap(true, false) {
				return errors.New("stub: load failed")
			}
			return nil
		}, nil)
		s := spec("j", mlapp.MLR, 10)
		if err := m.Submit(s, []string{"w0", "w1"}); err != nil {
			t.Fatal(err)
		}
		m.do(func() { m.jobs["j"].status = StatusPaused }) // as the barrier that answers a Pause leaves it
		placed := func() bool {
			for _, g := range m.Cluster().Groups {
				if slices.Contains(g.Jobs, "j") {
					return true
				}
			}
			return false
		}

		failNext.Store(true)
		if err := m.Resume("j", []string{"w0"}, make([]float64, s.Config.ModelSize())); err == nil {
			t.Fatal("re-placement succeeded although its load failed")
		}
		if v, _ := m.Job("j"); v.State != StatusPending.String() || !v.Resumable || len(v.Workers) != 0 {
			t.Errorf("after a failed re-placement: %+v, want held and resumable on no workers", v)
		}
		if placed() {
			t.Errorf("live plan %+v still places j after its deploy failed", m.Cluster().Groups)
		}
		var recovered bool
		for _, e := range m.Events() {
			recovered = recovered || (e.Kind == EventRecover && e.Job == "j" && strings.Contains(e.Note, "stub: load failed"))
		}
		if !recovered || m.Counters().Recoveries != 1 {
			t.Errorf("no recover row naming the deploy error: %d recoveries, journal %+v", m.Counters().Recoveries, m.Events())
		}
		m.drainQueue()
		if v, _ := m.Job("j"); v.State != StatusRunning.String() || !placed() {
			t.Errorf("after a drain pass: %+v, live plan %+v; want j running and placed", v, m.Cluster().Groups)
		}
	})
}

// TestSubmitIsJournaledAndCounted: a job Submit pins to a group takes the
// admission path, so the journal shows its placement, under a kind replay
// folds and with a note naming the override, and its queue counts it.
func TestSubmitIsJournaledAndCounted(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	stubWorkers(t, m, 2, nil, nil)
	if err := m.Submit(spec("j", mlapp.MLR, 1000), []string{"w0"}); err != nil {
		t.Fatal(err)
	}
	var rows []Event
	for _, e := range m.Events() {
		if e.Job == "j" {
			rows = append(rows, e)
		}
	}
	if len(rows) != 1 || rows[0].Kind != EventAdmitInitial || !slices.Equal(rows[0].Group, []string{"w0"}) ||
		rows[0].Note != notePinned {
		t.Errorf("journal rows of j = %+v, want one admit_initial on [w0] noting the pinned group", rows)
	}
	for _, q := range m.Queues() {
		if q.Name == fair.DefaultQueue && q.Admitted != 1 {
			t.Errorf("default queue admitted_total = %d, want 1", q.Admitted)
		}
	}
	if c := m.Counters(); c.AdmittedInitial != 1 {
		t.Errorf("AdmittedInitial = %d, want 1", c.AdmittedInitial)
	}
}

// TestSubmitRefusesRepeatedWorker: a pinned group that names a worker
// twice is refused before any load is sent, and leaves no journal row and
// no record.
func TestSubmitRefusesRepeatedWorker(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	var loads atomic.Int32
	stubWorkers(t, m, 2, func(worker.LoadJobArgs) error { loads.Add(1); return nil }, nil)
	if err := m.Submit(spec("j", mlapp.MLR, 1000), []string{"w0", "w0"}); err == nil {
		t.Fatal("a group naming w0 twice was accepted")
	}
	if n := loads.Load(); n != 0 {
		t.Errorf("%d loads sent for a refused group", n)
	}
	if evs := m.Events(); len(evs) != 0 {
		t.Errorf("journal rows for a refused group: %+v", evs)
	}
	if v, ok := m.Job("j"); ok {
		t.Errorf("refused job reads %+v", v)
	}
}

// TestTimedOutPauseIsWithdrawn: a Pause that times out withdraws its
// request, so the job's next barrier lets it go on instead of parking it
// paused for good, and the job completes.
func TestTimedOutPauseIsWithdrawn(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	stubWorkers(t, m, 2, nil, nil)
	if err := m.Submit(spec("j", mlapp.MLR, 400), nil); err != nil {
		t.Fatal(err)
	}
	// The stub members never reach a barrier by themselves, so the pause
	// cannot land before the timeout.
	if _, err := m.Pause("j", time.Nanosecond); err == nil {
		t.Fatal("Pause landed without a barrier")
	}
	var epoch int
	m.read(func() { epoch = m.jobs["j"].epoch })
	directives := make(chan worker.Directive, 2)
	for _, w := range []string{"w0", "w1"} {
		go func() {
			r, err := m.handleBarrier(worker.BarrierArgs{Job: "j", Worker: w, Iteration: 1, Epoch: epoch})
			if err != nil {
				t.Error(err)
			}
			directives <- r.Directive
		}()
	}
	for range 2 {
		if d := <-directives; d != worker.Continue {
			t.Fatalf("barrier after a timed-out Pause answers %v, want Continue", d)
		}
	}
	for _, w := range []string{"w0", "w1"} {
		if _, err := m.handleJobDone(worker.JobDoneArgs{Job: "j", Worker: w, Epoch: epoch}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WaitJob("j", 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// waitParked returns once one worker is parked at the job's barrier for
// the iteration.
func waitParked(m *Master, job string, iter int) {
	for {
		parked := false
		m.read(func() {
			bs := m.jobs[job].barriers[iter]
			parked = bs != nil && len(bs.waiters) == 1
		})
		if parked {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailedDeployIsNotCounted pins the undo of an admission whose
// deployment fails. The counters and the queue ledger move when the
// kernel admits, before the gang is loaded; a failed load must move them
// back and journal a compensating hold, or the drain pass's retry counts
// the job twice and a replay folds a placement that never ran.
func TestFailedDeployIsNotCounted(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{MaxJobsPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	// Park the drain; the test runs each pass itself.
	park(m)

	// The first load of "held" and every load of "doomed" fail.
	var heldLoads atomic.Int32
	stubWorkers(t, m, 1, func(a worker.LoadJobArgs) error {
		if a.Job == "doomed" || (a.Job == "held" && heldLoads.Add(1) == 1) {
			return errors.New("stub: worker is shutting down")
		}
		return nil
	}, nil)

	// Arrival path: the error reaches the submitter and nothing is counted.
	if _, err := m.Enqueue(spec("doomed", mlapp.MLR, 1000), Profile{}); err == nil {
		t.Fatal("Enqueue succeeded although the deployment failed")
	}
	if c := m.Counters(); c.AdmittedInitial != 0 || c.AdmittedArrival != 0 {
		t.Errorf("after a failed arrival: counters = %+v, want no admission", c)
	}

	if adm, err := m.Enqueue(spec("blocker", mlapp.MLR, 1000), Profile{}); err != nil || !adm.Admitted {
		t.Fatalf("blocker: %+v, %v", adm, err)
	}
	if adm, err := m.Enqueue(spec("held", mlapp.MLR, 1000), Profile{}); err != nil || adm.Admitted {
		t.Fatalf("held: %+v, %v, want held", adm, err)
	}
	if err := m.Cancel("blocker"); err != nil {
		t.Fatal(err)
	}

	// Drain path: the first pass admits "held", fails to load it and
	// requeues it; the second deploys it.
	m.drainQueue()
	if c := m.Counters(); c.QueueDrained != 0 || c.AdmittedInitial != 1 || len(m.Cluster().Pending) != 1 {
		t.Errorf("after the failed drain: counters = %+v, depth %d; want only blocker counted and held requeued",
			c, len(m.Cluster().Pending))
	}
	m.drainQueue()
	c := m.Counters()
	if c.QueueDrained != 1 || c.AdmittedInitial+c.AdmittedArrival != 2 || len(m.Cluster().Pending) != 0 {
		t.Errorf("after the retry: counters = %+v, depth %d; want blocker and held counted once each",
			c, len(m.Cluster().Pending))
	}
	for _, q := range m.Queues() {
		if q.Name == "default" && (q.Admitted != 2 || q.Drained != 1) {
			t.Errorf("default queue ledger: admitted %d drained %d, want 2 and 1", q.Admitted, q.Drained)
		}
	}

	// The journal shows each failed placement followed by its undo.
	var got []string
	for _, e := range m.Events() {
		if e.Job == "blocker" {
			continue
		}
		row := e.Kind + " " + e.Job
		if strings.HasPrefix(e.Note, "deploy failed: ") {
			row += " (deploy failed)"
		}
		got = append(got, row)
	}
	want := []string{"admit_initial doomed", "hold doomed (deploy failed)", "hold held",
		"queue_drain held", "hold held (deploy failed)", "queue_drain held"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("journal = %v, want %v", got, want)
	}
}

// memberStub registers one worker served by its own stubServer, so a test
// can tell the gang's members apart.
func memberStub(t *testing.T, m *Master, name string, load func(worker.LoadJobArgs) error, note func(call, job string)) {
	t.Helper()
	if _, err := m.handleRegister(registerArgs{Name: name, Addr: stubServer(t, load, nil, note)}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedGangLoadDropsLoadedMembers drives a drained job onto a gang of
// three whose second member refuses the first load. The failure must name
// that member; every member — the first, which did load and seeded every
// member's parameter server, above all, and the third, which was never sent
// a load but holds a seeded partition — must be told to drop the job after
// the loads returned; nobody may be started; and the job goes back to the
// queue once, to deploy cleanly on the next pass.
func TestFailedGangLoadDropsLoadedMembers(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{MaxJobsPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	// Park the drain; the test runs each pass itself.
	park(m)

	const gang = 3
	var mu sync.Mutex
	calls := make([][]string, gang) // what each member was sent about "held", in reply order
	var refused atomic.Bool
	for i := 0; i < gang; i++ {
		memberStub(t, m, fmt.Sprintf("w%d", i), func(a worker.LoadJobArgs) error {
			if a.Job == "held" && a.ShardIndex == 1 && refused.CompareAndSwap(false, true) {
				return errors.New("stub: member 1 refuses the load")
			}
			return nil
		}, func(call, job string) {
			if job == "held" {
				mu.Lock()
				calls[i] = append(calls[i], call)
				mu.Unlock()
			}
		})
	}

	if adm, err := m.Enqueue(fairSpec("blocker", 1000, "", gang, gang), Profile{}); err != nil || !adm.Admitted {
		t.Fatalf("blocker: %+v, %v", adm, err)
	}
	if adm, err := m.Enqueue(fairSpec("held", 1000, "", gang, gang), Profile{}); err != nil || adm.Admitted {
		t.Fatalf("held: %+v, %v, want held", adm, err)
	}
	if err := m.Cancel("blocker"); err != nil {
		t.Fatal(err)
	}

	m.drainQueue()
	if c := m.Counters(); c.QueueDrained != 0 || len(m.Cluster().Pending) != 1 {
		t.Errorf("after the failed deployment: QueueDrained %d, depth %d; want the job requeued once and not counted",
			c.QueueDrained, len(m.Cluster().Pending))
	}
	var failure string
	for _, e := range m.Events() {
		if e.Job == "held" && strings.HasPrefix(e.Note, NoteDeployFailed) {
			failure = e.Note
		}
	}
	if !strings.Contains(failure, "load held on w1") || !strings.Contains(failure, "member 1 refuses") {
		t.Errorf("journaled failure %q, want the load on w1", failure)
	}
	sent := func() string {
		mu.Lock()
		defer mu.Unlock()
		return fmt.Sprint(calls)
	}
	if got, want := sent(), "[[load dropJob] [dropJob] [dropJob]]"; got != want {
		t.Errorf("members were sent %s, want %s", got, want)
	}

	m.drainQueue()
	if c := m.Counters(); c.QueueDrained != 1 || len(m.Cluster().Pending) != 0 {
		t.Errorf("after the retry: QueueDrained %d, depth %d; want the job deployed", c.QueueDrained, len(m.Cluster().Pending))
	}
	if got, want := sent(), "[[load dropJob load start] [dropJob load start] [dropJob load start]]"; got != want {
		t.Errorf("after the retry members were sent %s, want %s", got, want)
	}
}

// TestCancelDuringLoadDropsAfterTheLoad: a cancel that lands while a member
// is still loading sends its drop past the load, which then succeeds and
// would keep the job's state on the worker for good. The deployment must
// notice the cancel once its loads are in, start nobody and drop again.
func TestCancelDuringLoadDropsAfterTheLoad(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	entered, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var calls []string
	memberStub(t, m, "w0", func(worker.LoadJobArgs) error {
		close(entered)
		<-release
		return nil
	}, func(call, _ string) {
		mu.Lock()
		calls = append(calls, call)
		mu.Unlock()
	})

	submitted := make(chan error, 1)
	go func() { submitted <- m.Submit(spec("j", mlapp.MLR, 10), nil) }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the job was never loaded")
	}
	if err := m.Cancel("j"); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-submitted; err != nil {
		t.Errorf("Submit = %v, want nil: the job was canceled, not failed", err)
	}
	if v, _ := m.Job("j"); v.State != StatusCanceled.String() {
		t.Errorf("j = %+v, want canceled", v)
	}
	mu.Lock()
	defer mu.Unlock()
	if got, want := fmt.Sprint(calls), "[dropJob load dropJob]"; got != want {
		t.Errorf("the member was sent %s, want %s", got, want)
	}
}

// TestReclaimSkipsPausedVictim: reclaim chooses its victims from job
// status as it is at the decision, never from the kept view. x2 is paused
// (mid-migration, still claiming its worker) by a flip that leaves the view
// current; a victim list kept from before the flip would name x2 — the
// most recently started over-quota job — whose preemption is a no-op, and
// the drain would decide the same round again forever instead of reaching
// x1. The second half pins the stop rule: a round that suspends no victim
// ends the pass rather than re-deciding on an unchanged view.
func TestReclaimSkipsPausedVictim(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{MaxJobsPerGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	// Park the drain; the test runs each pass itself.
	park(m)
	stubWorkers(t, m, 2, nil, nil)
	if err := m.ConfigureQueues(
		fair.QueueConfig{Name: "a", Quota: 0.5},
		fair.QueueConfig{Name: "b", Quota: 0.5},
	); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x1", "x2"} {
		if adm, err := m.Enqueue(fairSpec(name, 1000, "b", 1, 1), Profile{}); err != nil || !adm.Admitted {
			t.Fatalf("%s: %+v, %v", name, adm, err)
		}
	}
	m.do(func() {
		m.currentView() // the view predates the flip
		m.jobs["x2"].status = StatusPaused
	})
	if adm, err := m.Enqueue(fairSpec("y", 1000, "a", 1, 1), Profile{}); err != nil || adm.Admitted {
		t.Fatalf("y: %+v, %v, want held", adm, err)
	}

	drained := make(chan struct{})
	go func() {
		m.drainQueue()
		close(drained)
	}()
	// The preempt event is journaled before the victim's pause is awaited
	// (the stub workers never reach a barrier, so the pause stays pending).
	var victim string
	pollUntil(t, "a preempt decision", func() bool {
		for _, e := range m.Events() {
			if e.Kind == EventPreempt {
				victim = e.Job
			}
		}
		return victim != ""
	})
	if victim != "x1" {
		t.Fatalf("reclaim chose %q, want the running job x1", victim)
	}

	// x1 goes away under the pending pause: nothing was suspended, so the
	// pass ends; the next one finds the freed worker.
	if err := m.Cancel("x1"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain pass kept deciding after a round that suspended nothing")
	}
	m.drainQueue()
	if v, _ := m.Job("y"); v.State != StatusRunning.String() || !reflect.DeepEqual(v.Workers, []string{"w0"}) {
		t.Errorf("y = %+v, want running on x1's freed worker", v)
	}
	if c := m.Counters(); c.Preempted != 0 {
		t.Errorf("Preempted = %d, want 0 (x1 was canceled, not suspended)", c.Preempted)
	}
}
