package sim

import (
	"testing"

	"harmony/internal/simtime"
	"harmony/internal/workload"
)

// midJobs builds a moderately sized workload with realistic (unscaled)
// costs; the simulator handles hours of virtual time in milliseconds.
func midJobs(n, iters int) []Job {
	specs := workload.Small(n)
	for i := range specs {
		specs[i].Iterations = iters
	}
	return Jobs(specs, nil)
}

func TestHarmonyPipeliningAblation(t *testing.T) {
	// A resource-bound complementary mix (Fig. 5's setting): pipelining
	// overlaps computation and communication, uncoordinated sharing
	// collides. (On job-bound mixes the two tie — Eq. 1's third term.)
	mk := func(id string, comp, net float64) workload.Spec {
		return workload.Spec{
			ID: id, App: workload.MLR,
			Data:  workload.Dataset{Name: id, InputGB: 4, ModelGB: 1},
			Hyper: "t", PullFrac: 0.5,
			CompMachineSeconds: comp, NetSeconds: net,
			Iterations: 20, WorkGB: 0.5,
		}
	}
	specs := []workload.Spec{
		mk("comp1", 1920, 30), mk("comm1", 240, 130), mk("bal1", 960, 60),
	}
	jobs := Jobs(specs, nil)
	full := mustRun(t, Config{Machines: 16, Mode: ModeHarmony, Seed: 1}, jobs)
	noPipe := mustRun(t, Config{Machines: 16, Mode: ModeHarmony, Seed: 1,
		DisablePipelining: true}, jobs)
	if full.Summary.Makespan >= noPipe.Summary.Makespan {
		t.Errorf("pipelining off should hurt: %v vs %v",
			full.Summary.Makespan, noPipe.Summary.Makespan)
	}
}

func TestHarmonySmartGroupingAblation(t *testing.T) {
	jobs := midJobs(12, 10)
	full := mustRun(t, Config{Machines: 48, Mode: ModeHarmony, Seed: 2}, jobs)
	half := 0.5
	naiveGroups := mustRun(t, Config{Machines: 48, Mode: ModeHarmony, Seed: 2,
		DisableSmartGrouping: true, FixedAlpha: &half}, jobs)
	if len(naiveGroups.Records) != 12 {
		t.Fatalf("grouping ablation failed jobs: %v", naiveGroups.Failed)
	}
	// Model-driven grouping should not lose to arbitrary chunking.
	if full.Summary.Makespan > naiveGroups.Summary.Makespan*105/100 {
		t.Errorf("smart grouping (%v) markedly worse than naive grouping (%v)",
			full.Summary.Makespan, naiveGroups.Summary.Makespan)
	}
}

func TestSecondaryCommAblation(t *testing.T) {
	jobs := midJobs(8, 10)
	full := mustRun(t, Config{Machines: 24, Mode: ModeHarmony, Seed: 3}, jobs)
	noSec := mustRun(t, Config{Machines: 24, Mode: ModeHarmony, Seed: 3,
		DisableSecondaryComm: true}, jobs)
	// Without the secondary COMM lane, network work serializes strictly;
	// makespan cannot improve.
	if noSec.Summary.Makespan < full.Summary.Makespan*98/100 {
		t.Errorf("disabling the secondary COMM lane improved makespan: %v vs %v",
			noSec.Summary.Makespan, full.Summary.Makespan)
	}
}

func TestMetricErrorInjectionDegrades(t *testing.T) {
	jobs := midJobs(10, 10)
	clean := mustRun(t, Config{Machines: 32, Mode: ModeHarmony, Seed: 4}, jobs)
	noisy := mustRun(t, Config{Machines: 32, Mode: ModeHarmony, Seed: 4,
		MetricErrorFrac: 0.3}, jobs)
	// Heavy model error should not make things better (Fig. 13a trend);
	// allow slack for noise.
	if noisy.Summary.Makespan*100 < clean.Summary.Makespan*95 {
		t.Errorf("30%% metric error improved makespan: %v vs %v",
			noisy.Summary.Makespan, clean.Summary.Makespan)
	}
}

func TestAdaptiveAlphaStaysUnderMemoryCeiling(t *testing.T) {
	specs := workload.ReloadJobs()
	for i := range specs {
		specs[i].Iterations = 12
		specs[i].Data.InputGB *= 0.6
	}
	res := mustRun(t, Config{Machines: 32, Mode: ModeHarmony, Seed: 6}, Jobs(specs, nil))
	if len(res.Failed) != 0 {
		t.Fatalf("adaptive alpha runs must not OOM: %v", res.Failed)
	}
	if res.AlphaMax > 1 || res.AlphaMin < 0 {
		t.Errorf("alpha out of range: [%v, %v]", res.AlphaMin, res.AlphaMax)
	}
}

func TestFixedAlphaExplicitZero(t *testing.T) {
	jobs := midJobs(4, 6)
	zero := 0.0
	res := mustRun(t, Config{Machines: 16, Mode: ModeHarmony, Seed: 7, FixedAlpha: &zero}, jobs)
	// With small test jobs everything fits: alpha must stay pinned at 0.
	if res.AlphaMax != 0 {
		t.Errorf("explicit zero alpha drifted to %v", res.AlphaMax)
	}
}

func TestPredictionSamplesCollected(t *testing.T) {
	jobs := midJobs(10, 12)
	res := mustRun(t, Config{Machines: 32, Mode: ModeHarmony, Seed: 8}, jobs)
	if len(res.IterPred) == 0 {
		t.Error("no iteration-time prediction samples (Fig. 13b needs them)")
	}
	for _, p := range res.IterPred {
		if p.Predicted <= 0 || p.Actual <= 0 {
			t.Errorf("degenerate prediction sample %+v", p)
		}
	}
}

func TestDecisionsRecordGroupShapes(t *testing.T) {
	jobs := midJobs(10, 10)
	res := mustRun(t, Config{Machines: 40, Mode: ModeHarmony, Seed: 9}, jobs)
	if len(res.Decisions) == 0 {
		t.Fatal("no decisions recorded")
	}
	for _, d := range res.Decisions {
		if d.Machines < 1 || d.Jobs < 1 {
			t.Errorf("degenerate decision %+v", d)
		}
		if d.Jobs > 3 {
			t.Errorf("decision with %d jobs exceeds the default group cap", d.Jobs)
		}
	}
}

func TestRegroupOverheadSmall(t *testing.T) {
	jobs := midJobs(10, 12)
	res := mustRun(t, Config{Machines: 32, Mode: ModeHarmony, Seed: 10}, jobs)
	// §V-C: regrouping overhead below 2% of the overall makespan; allow
	// slack for the small scale.
	frac := res.PausedSeconds / (res.Summary.Makespan.Seconds() * 32)
	if frac > 0.05 {
		t.Errorf("migration overhead %.1f%% of cluster time, want < 5%%", frac*100)
	}
}

func TestStaggeredArrivalsKeepWorking(t *testing.T) {
	specs := workload.Small(8)
	for i := range specs {
		specs[i].Iterations = 8
	}
	jobs := Jobs(specs, nil)
	for i := range jobs {
		jobs[i].Arrival = simtime.Time(simtime.Duration(i) * 10 * simtime.Minute)
	}
	res := mustRun(t, Config{Machines: 24, Mode: ModeHarmony, Seed: 11}, jobs)
	if len(res.Records) != 8 {
		t.Fatalf("finished %d of 8 (failed %v)", len(res.Records), res.Failed)
	}
	// Later arrivals must not start before submission.
	for _, r := range res.Records {
		if r.Start < r.Submit {
			t.Errorf("job %s started before submission", r.ID)
		}
	}
}

func TestIsolatedDoPRespectsTargets(t *testing.T) {
	s, err := New(Config{Machines: 64, Mode: ModeIsolated, Seed: 1}, midJobs(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, sj := range s.jobs {
		m := s.isolatedDoP(sj.run)
		if m < 1 || m > 64 {
			t.Fatalf("isolated DoP %d out of range", m)
		}
		if m < s.memFloor(sj.run) {
			t.Errorf("DoP %d below memory floor %d", m, s.memFloor(sj.run))
		}
		// CPU utilization target: at the chosen DoP the predicted CPU
		// share is at least the target (or the floor forced it higher).
		spec := sj.run.spec
		util := spec.TcpuAt(m) / (spec.TcpuAt(m) + spec.NetSeconds)
		if m > s.memFloor(sj.run) && m < 32 && util < 0.55 {
			t.Errorf("%s: DoP %d gives CPU share %.2f, target 0.7", spec.ID, m, util)
		}
	}
}

func TestGCOverheadReportedUnderPressure(t *testing.T) {
	// Two jobs whose combined footprint sits in the GC zone.
	specs := workload.Small(2)
	for i := range specs {
		specs[i].Iterations = 6
		specs[i].Data.InputGB = 150
		specs[i].Data.ModelGB = 4
	}
	res := mustRun(t, Config{Machines: 16, Mode: ModeNaive, Seed: 1, NaiveGroupSize: 2}, Jobs(specs, nil))
	if len(res.Failed) == 0 && res.GCSeconds <= 0 {
		t.Error("high occupancy produced no GC time and no OOM")
	}
}
