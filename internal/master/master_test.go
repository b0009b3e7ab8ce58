package master

import (
	"math"
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/mlapp"
	"harmony/internal/worker"
)

// cluster spins up a master and n live workers over loopback TCP.
func cluster(t *testing.T, n int) *Master {
	t.Helper()
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	for i := 0; i < n; i++ {
		w, _, err := worker.New(
			"w"+string(rune('0'+i)), "127.0.0.1:0", m.Addr(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	if err := m.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return m
}

func spec(name string, kind mlapp.Kind, iters int) JobSpec {
	return JobSpec{
		Name:       name,
		Config:     mlapp.Config{Kind: kind, Features: 12, Classes: 3, Rows: 96, LearningRate: 0.2},
		Iterations: iters,
		Seed:       7,
	}
}

func TestSingleJobTrainsToCompletion(t *testing.T) {
	m := cluster(t, 3)
	if err := m.Submit(spec("mlr-1", mlapp.MLR, 8), nil); err != nil {
		t.Fatal(err)
	}
	// Capture an early loss, then wait for completion. Poll tightly and
	// only accept a genuinely early iteration: the binary data plane can
	// finish all 8 iterations in a few milliseconds, and sampling a late
	// loss here would compare the final loss against itself.
	var earlyLoss float64
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.Job("mlr-1")
		if !ok {
			t.Fatal("mlr-1 unknown")
		}
		if v.Iteration >= 1 && v.Iteration <= 3 && v.Loss > 0 {
			earlyLoss = v.Loss
			break
		}
		if v.Iteration > 3 || v.State == StatusFinished.String() {
			break // job outran the poller; skip the improvement check
		}
	}
	if err := m.WaitJob("mlr-1", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Job("mlr-1")
	if v.State != StatusFinished.String() {
		t.Errorf("status = %s, want finished", v.State)
	}
	if v.Iteration != 7 {
		t.Errorf("last iteration = %d, want 7", v.Iteration)
	}
	if earlyLoss > 0 && v.Loss >= earlyLoss {
		t.Errorf("loss did not improve: %.4f -> %.4f", earlyLoss, v.Loss)
	}
}

func TestTwoJobsCoLocated(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("mlr", mlapp.MLR, 6), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(spec("lasso", mlapp.Lasso, 6), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("mlr", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("lasso", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// Both jobs produced profiling metrics through the barrier.
	for _, name := range []string{"mlr", "lasso"} {
		met, ok := m.Metrics(name)
		if !ok || !met.Profiled() {
			t.Errorf("job %s not profiled (ok=%v, samples=%d)", name, ok, met.Samples)
		}
		if met.CompMachineSeconds <= 0 || met.NetSeconds < 0 {
			t.Errorf("job %s metrics implausible: %+v", name, met)
		}
	}
}

func TestPauseCheckpointResumeMigration(t *testing.T) {
	m := cluster(t, 3)
	if err := m.Submit(spec("nmf", mlapp.NMF, 50), nil); err != nil {
		t.Fatal(err)
	}
	// Let a few iterations pass, then pause.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if v, _ := m.Job("nmf"); v.Iteration >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkpoint, err := m.Pause("nmf", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(checkpoint) != spec("nmf", mlapp.NMF, 1).Config.ModelSize() {
		t.Fatalf("checkpoint size %d", len(checkpoint))
	}
	paused, _ := m.Job("nmf")
	if paused.State != StatusPaused.String() {
		t.Fatalf("status after pause = %s", paused.State)
	}

	// Migrate to a smaller group (§IV-B4) and cut the run short so the
	// test finishes quickly.
	m.do(func() { m.jobs["nmf"].spec.Iterations = paused.Iteration + 3 })
	if err := m.Resume("nmf", []string{"w0", "w1"}, checkpoint); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("nmf", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if final, _ := m.Job("nmf"); final.Iteration <= paused.Iteration {
		t.Errorf("no progress after migration: %d -> %d", paused.Iteration, final.Iteration)
	}
}

// TestLDAResumeBitIdentical: a one-worker LDA job paused mid-run and
// resumed from its checkpoint ends on the final loss of an uninterrupted
// run of the same spec, bit for bit. Its Gibbs sweeps draw at iteration k
// what the uninterrupted run drew at k, not what iteration 0 drew.
func TestLDAResumeBitIdentical(t *testing.T) {
	m := cluster(t, 1)
	const iters = 300
	if err := m.Submit(spec("control", mlapp.LDA, iters), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("control", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(spec("resumed", mlapp.LDA, iters), nil); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "progress", func() bool { v, _ := m.Job("resumed"); return v.Iteration >= 3 })
	ckpt, err := m.Pause("resumed", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Job("resumed"); v.Iteration >= iters-1 {
		t.Fatalf("paused at iteration %d of %d: nothing left to resume", v.Iteration, iters)
	}
	if err := m.Resume("resumed", []string{"w0"}, ckpt); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("resumed", time.Minute); err != nil {
		t.Fatal(err)
	}
	control, _ := m.Job("control")
	resumed, _ := m.Job("resumed")
	if resumed.Iteration != iters-1 || math.Float64bits(resumed.Loss) != math.Float64bits(control.Loss) {
		t.Errorf("resumed run ends at iteration %d with loss %v, the uninterrupted one at %d with %v",
			resumed.Iteration, resumed.Loss, control.Iteration, control.Loss)
	}
}

// TestPlanGroups: Algorithm 1 plans the jobs that hold machines. A finished
// job keeps its record and its profile for status queries and must be
// given none.
func TestPlanGroups(t *testing.T) {
	m := cluster(t, 4)
	if err := m.Submit(spec("a", mlapp.MLR, 8), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(spec("b", mlapp.Lasso, 1<<20), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("a", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if met, ok := m.Metrics("a"); !ok || !met.Profiled() {
		t.Fatalf("finished job a is not profiled (%+v): the test would not see it planned", met)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if met, ok := m.Metrics("b"); ok && met.Profiled() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job b was not profiled in time")
		}
	}
	groups, err := m.PlanGroups()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups["b"]) != 4 {
		t.Errorf("plan = %v, want only the running job b, on all 4 workers", groups)
	}
	if err := m.Cancel("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PlanGroups(); err == nil {
		t.Error("PlanGroups planned a cluster whose jobs are all finished or canceled")
	}
}

func TestWorkerStats(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("mlr", mlapp.MLR, 5), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("mlr", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	cpu, net, err := m.WorkerStats()
	if err != nil {
		t.Fatal(err)
	}
	if cpu <= 0 || net <= 0 {
		t.Errorf("worker utilization = (%v, %v), want positive", cpu, net)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := cluster(t, 1)
	if err := m.Submit(JobSpec{}, nil); err == nil {
		t.Error("empty spec accepted")
	}
	if err := m.Submit(spec("dup", mlapp.MLR, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(spec("dup", mlapp.MLR, 3), nil); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate submit = %v", err)
	}
	if err := m.Submit(spec("ghost", mlapp.MLR, 3), []string{"nope"}); err == nil {
		t.Error("unknown worker group accepted")
	}
	if err := m.WaitJob("dup", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("missing", time.Second); err == nil {
		t.Error("WaitJob on unknown job succeeded")
	}
}

func TestDuplicateWorkerName(t *testing.T) {
	m := cluster(t, 1)
	if _, _, err := worker.New("w0", "127.0.0.1:0", m.Addr(), t.TempDir()); err == nil {
		t.Error("duplicate worker name accepted")
	}
}
