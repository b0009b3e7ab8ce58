package harmony

import (
	"errors"
	"testing"
	"time"

	"harmony/internal/master"
)

func TestScheduleFacade(t *testing.T) {
	jobs := []Job{
		{ID: "cpu-heavy", CompSeconds: 3200, NetSeconds: 20},
		{ID: "net-heavy", CompSeconds: 200, NetSeconds: 180},
	}
	plan := Schedule(jobs, 16)
	if len(plan.Groups) != 1 {
		t.Fatalf("plan has %d groups, want 1 co-located group", len(plan.Groups))
	}
	g := plan.Groups[0]
	if len(g.Jobs) != 2 || g.Machines != 16 {
		t.Errorf("group = %d jobs on %d machines", len(g.Jobs), g.Machines)
	}
	if g.PredictedIterSeconds <= 0 {
		t.Error("missing iteration prediction")
	}
	if plan.CPUUtil < 0.8 {
		t.Errorf("cluster CPU util %.2f, want >= 0.8 for complementary pair", plan.CPUUtil)
	}
}

func TestSimulateFacadeSmall(t *testing.T) {
	jobs := SmallWorkload(6)
	for i := range jobs {
		jobs[i].Iterations = 8
		jobs[i].CompSeconds /= 20
		jobs[i].NetSeconds /= 20
		jobs[i].InputGB /= 10
		jobs[i].ModelGB /= 10
		jobs[i].WorkGB /= 10
	}
	iso, err := Simulate(SimConfig{Machines: 16, Scheduler: IsolatedScheduler, Seed: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	har, err := Simulate(SimConfig{Machines: 16, Scheduler: HarmonyScheduler, Seed: 1}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if har.Finished != 6 || iso.Finished != 6 {
		t.Fatalf("finished %d/%d, want 6/6 (failed %d/%d)",
			har.Finished, iso.Finished, har.Failed, iso.Failed)
	}
	if har.Makespan >= iso.Makespan {
		t.Errorf("harmony makespan %v >= isolated %v", har.Makespan, iso.Makespan)
	}
	if len(har.CPUSeries) == 0 {
		t.Error("missing utilization series")
	}
	if _, err := Simulate(SimConfig{Machines: 4, Scheduler: Scheduler(9)}, jobs); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestPaperWorkloadShape(t *testing.T) {
	jobs := PaperWorkload()
	if len(jobs) != 80 {
		t.Fatalf("paper workload has %d jobs, want 80", len(jobs))
	}
	for _, j := range jobs {
		if j.CompSeconds <= 0 || j.NetSeconds <= 0 || j.Iterations <= 0 {
			t.Fatalf("job %s has invalid profile", j.ID)
		}
	}
}

func TestLiveRuntimeEndToEnd(t *testing.T) {
	m, err := StartMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 2; i++ {
		w, err := StartWorker("w"+string(rune('0'+i)), "127.0.0.1:0", m.Addr(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}
	if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Workers()); got != 2 {
		t.Fatalf("workers = %d", got)
	}
	err = m.Submit(Training{
		Name:       "quick-mlr",
		Config:     TrainingConfig{Algorithm: "mlr", Features: 10, Classes: 3, Rows: 64},
		Iterations: 5,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait("quick-mlr", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	iter, loss, finished, err := m.Progress("quick-mlr")
	if err != nil {
		t.Fatal(err)
	}
	if !finished || iter != 4 {
		t.Errorf("progress = iter %d finished %v", iter, finished)
	}
	if loss <= 0 {
		t.Errorf("loss = %v, want positive objective", loss)
	}
	if job, ok := m.ProfiledJob("quick-mlr"); !ok || job.CompSeconds <= 0 {
		t.Errorf("profiled job = %+v ok=%v", job, ok)
	}
	cpu, net, err := m.Utilization()
	if err != nil || cpu <= 0 || net <= 0 {
		t.Errorf("utilization = (%v, %v), err %v", cpu, net, err)
	}
}

// TestProgressOfHeldJob: a job waiting in the admission queue is known
// work, so Progress reports it instead of an error; an unknown name's
// error wraps the master's ErrUnknownJob.
func TestProgressOfHeldJob(t *testing.T) {
	m, err := StartMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	adm, err := m.Enqueue(Training{
		Name:       "held",
		Config:     TrainingConfig{Algorithm: "mlr", Features: 10, Classes: 3, Rows: 64},
		Iterations: 5,
	}, Job{})
	if err != nil || adm.Admitted {
		t.Fatalf("enqueue with no workers = %+v, %v; want held", adm, err)
	}
	if iter, _, finished, err := m.Progress("held"); err != nil || iter != 0 || finished {
		t.Errorf("Progress(held) = %d, finished %v, %v; want iteration 0, not finished", iter, finished, err)
	}
	if _, _, _, err := m.Progress("nope"); !errors.Is(err, master.ErrUnknownJob) {
		t.Errorf("Progress(nope) = %v, want ErrUnknownJob", err)
	}
}

func TestTrainingConfigValidation(t *testing.T) {
	if _, err := (TrainingConfig{Algorithm: "svm"}).internal(); err == nil {
		t.Error("unknown algorithm accepted")
	}
	for _, algo := range []string{"mlr", "lasso", "nmf", "lda", "MLR", "LDA"} {
		if _, err := (TrainingConfig{Algorithm: algo}).internal(); err != nil {
			t.Errorf("algorithm %q rejected: %v", algo, err)
		}
	}
}
