package sim

import (
	"strings"
	"testing"

	"harmony/internal/simtime"
	"harmony/internal/workload"
)

// tinyJobs builds n fast-converging jobs derived from the base workload
// so end-to-end runs stay quick.
func tinyJobs(n, iters int) []Job {
	specs := workload.Small(n)
	for i := range specs {
		specs[i].Iterations = iters
		// Scale work down ~20x so a full run takes little virtual time
		// (and little test wall time), and shrink the datasets so small
		// test clusters are not memory-bound.
		specs[i].CompMachineSeconds /= 20
		specs[i].NetSeconds /= 20
		specs[i].Data.InputGB /= 10
		specs[i].Data.ModelGB /= 10
		specs[i].WorkGB /= 10
	}
	return Jobs(specs, nil)
}

func mustRun(t *testing.T, cfg Config, jobs []Job) *Result {
	t.Helper()
	res, err := Run(cfg, jobs)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Mode, err)
	}
	return res
}

func TestIsolatedSingleJob(t *testing.T) {
	jobs := tinyJobs(1, 10)
	res := mustRun(t, Config{Machines: 32, Mode: ModeIsolated, Seed: 1}, jobs)
	if len(res.Records) != 1 {
		t.Fatalf("finished %d jobs, want 1 (failed: %v)", len(res.Records), res.Failed)
	}
	spec := jobs[0].Spec
	// JCT should be near iters * IterSecondsAt(dop) for the chosen DoP.
	jct := res.Records[0].JCT().Seconds()
	if jct <= 0 {
		t.Fatal("non-positive JCT")
	}
	lower := float64(spec.Iterations) * spec.IterSecondsAt(32) * 0.8
	upper := float64(spec.Iterations) * spec.IterSecondsAt(1) * 1.2
	if jct < lower || jct > upper {
		t.Errorf("JCT %.0fs outside plausible [%.0f, %.0f]", jct, lower, upper)
	}
}

func TestIsolatedQueueing(t *testing.T) {
	// More demand than machines: later jobs must queue, so some job's
	// start is after its submit.
	jobs := tinyJobs(8, 6)
	res := mustRun(t, Config{Machines: 8, Mode: ModeIsolated, Seed: 1, IsolatedMaxDoP: 8}, jobs)
	if len(res.Records) != 8 {
		t.Fatalf("finished %d jobs, want 8 (failed: %v)", len(res.Records), res.Failed)
	}
	queued := 0
	for _, r := range res.Records {
		if r.Start > r.Submit {
			queued++
		}
	}
	if queued == 0 {
		t.Error("no job queued despite oversubscribed cluster")
	}
}

func TestIsolatedUtilizationUnderOne(t *testing.T) {
	jobs := tinyJobs(4, 8)
	res := mustRun(t, Config{Machines: 32, Mode: ModeIsolated, Seed: 2}, jobs)
	if res.Summary.CPUUtil <= 0 || res.Summary.CPUUtil > 1.001 {
		t.Errorf("CPU util %.3f out of range", res.Summary.CPUUtil)
	}
	if res.Summary.NetUtil <= 0 || res.Summary.NetUtil > 1.001 {
		t.Errorf("net util %.3f out of range", res.Summary.NetUtil)
	}
}

func TestNaiveBatchCompletes(t *testing.T) {
	jobs := tinyJobs(6, 6)
	res := mustRun(t, Config{Machines: 24, Mode: ModeNaive, Seed: 3}, jobs)
	if len(res.Records)+len(res.Failed) != 6 {
		t.Fatalf("accounted %d jobs, want 6", len(res.Records)+len(res.Failed))
	}
	if len(res.Records) == 0 {
		t.Fatalf("all jobs failed: %v", res.Failed)
	}
}

func TestNaiveOOMWithHeavyJobs(t *testing.T) {
	// Three memory-heavy jobs forced into one group must OOM (Fig. 4).
	nmf, lasso, mlr := workload.Fig4Jobs()
	for _, s := range []*workload.Spec{&nmf, &lasso, &mlr} {
		s.Iterations = 5
		s.CompMachineSeconds /= 20
		s.NetSeconds /= 20
	}
	res := mustRun(t, Config{
		Machines: 16, Mode: ModeNaive, Seed: 1, NaiveGroupSize: 3,
	}, Jobs([]workload.Spec{nmf, lasso, mlr}, nil))
	if len(res.Failed) != 3 {
		t.Errorf("failed %d jobs, want all 3 OOM (records %d)", len(res.Failed), len(res.Records))
	}
	for id, msg := range res.Failed {
		if !strings.Contains(msg, "out of memory") {
			t.Errorf("job %s failed with %q, want OOM", id, msg)
		}
	}
}

func TestHarmonySmallBatchCompletes(t *testing.T) {
	jobs := tinyJobs(6, 8)
	res := mustRun(t, Config{Machines: 24, Mode: ModeHarmony, Seed: 4}, jobs)
	if len(res.Failed) != 0 {
		t.Fatalf("failures under Harmony: %v", res.Failed)
	}
	if len(res.Records) != 6 {
		t.Fatalf("finished %d jobs, want 6", len(res.Records))
	}
	if res.Summary.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if len(res.Decisions) == 0 {
		t.Error("no scheduling decisions recorded")
	}
}

func TestHarmonyBeatsIsolatedOnComplementaryMix(t *testing.T) {
	jobs := tinyJobs(8, 10)
	iso := mustRun(t, Config{Machines: 16, Mode: ModeIsolated, Seed: 5}, jobs)
	har := mustRun(t, Config{Machines: 16, Mode: ModeHarmony, Seed: 5}, jobs)
	if len(har.Records) != 8 || len(iso.Records) != 8 {
		t.Fatalf("incomplete runs: harmony %d, isolated %d (failed %v / %v)",
			len(har.Records), len(iso.Records), har.Failed, iso.Failed)
	}
	if har.Summary.Makespan >= iso.Summary.Makespan {
		t.Errorf("harmony makespan %v >= isolated %v, want speedup",
			har.Summary.Makespan, iso.Summary.Makespan)
	}
	if har.Summary.CPUUtil <= iso.Summary.CPUUtil {
		t.Errorf("harmony CPU util %.2f <= isolated %.2f, want higher",
			har.Summary.CPUUtil, iso.Summary.CPUUtil)
	}
}

func TestHarmonyWithArrivals(t *testing.T) {
	jobs := tinyJobs(6, 6)
	for i := range jobs {
		jobs[i].Arrival = simtime.Time(simtime.Duration(i) * 2 * simtime.Minute)
	}
	res := mustRun(t, Config{Machines: 16, Mode: ModeHarmony, Seed: 6}, jobs)
	if len(res.Records) != 6 {
		t.Fatalf("finished %d jobs, want 6 (failed %v)", len(res.Records), res.Failed)
	}
	// JCTs are measured from submission.
	for _, r := range res.Records {
		if r.Finish <= r.Submit {
			t.Errorf("job %s finished before submission", r.ID)
		}
	}
}

func TestHarmonyDeterministicForSeed(t *testing.T) {
	jobs := tinyJobs(5, 5)
	a := mustRun(t, Config{Machines: 12, Mode: ModeHarmony, Seed: 7}, jobs)
	b := mustRun(t, Config{Machines: 12, Mode: ModeHarmony, Seed: 7}, tinyJobs(5, 5))
	if a.Summary.Makespan != b.Summary.Makespan {
		t.Errorf("same seed diverged: %v vs %v", a.Summary.Makespan, b.Summary.Makespan)
	}
}

func TestRunValidation(t *testing.T) {
	jobs := tinyJobs(2, 3)
	if _, err := Run(Config{Machines: 0, Mode: ModeHarmony}, jobs); err == nil {
		t.Error("Run with 0 machines succeeded")
	}
	if _, err := Run(Config{Machines: 4, Mode: Mode(9)}, jobs); err == nil {
		t.Error("Run with bad mode succeeded")
	}
	if _, err := Run(Config{Machines: 4, Mode: ModeHarmony}, nil); err == nil {
		t.Error("Run with no jobs succeeded")
	}
	dup := []Job{jobs[0], jobs[0]}
	if _, err := Run(Config{Machines: 4, Mode: ModeHarmony}, dup); err == nil {
		t.Error("Run with duplicate IDs succeeded")
	}
}

func TestModeString(t *testing.T) {
	if ModeHarmony.String() != "harmony" || ModeIsolated.String() != "isolated" ||
		ModeNaive.String() != "naive" || Mode(0).String() != "Mode(0)" {
		t.Error("mode names wrong")
	}
}
