package sim

import (
	"math"
	"testing"

	"harmony/internal/core"
	"harmony/internal/workload"
)

// TestLinkContentionPolicyRates pins the contention physics: a lone comm
// task gets the full link, k colliding tasks split (1-loss) evenly —
// the symmetric split that keeps colliding jobs phase-locked.
func TestLinkContentionPolicyRates(t *testing.T) {
	p := linkContentionPolicy{loss: collisionLoss}
	if p.maxActive() != 0 {
		t.Errorf("maxActive = %d, want 0 (unlimited)", p.maxActive())
	}
	one := make([]float64, 1)
	p.rates(one)
	if one[0] != 1 {
		t.Errorf("solo rate = %v, want full link", one[0])
	}
	four := make([]float64, 4)
	p.rates(four)
	want := (1 - collisionLoss) / 4
	var agg float64
	for i, r := range four {
		if math.Abs(r-want) > 1e-12 {
			t.Errorf("rate[%d] = %v, want %v", i, r, want)
		}
		agg += r
	}
	if math.Abs(agg-(1-collisionLoss)) > 1e-12 {
		t.Errorf("aggregate goodput %v, want %v", agg, 1-collisionLoss)
	}
}

// commHeavyJobs builds the contention scenario at test scale: the most
// communication-intensive base jobs, shrunk so runs stay fast.
func commHeavyJobs(n, iters int) []Job {
	specs := workload.CommIntensive()[:n]
	for i := range specs {
		specs[i].Iterations = iters
		specs[i].CompMachineSeconds /= 20
		specs[i].NetSeconds /= 20
		specs[i].Data.InputGB /= 10
		specs[i].Data.ModelGB /= 10
		specs[i].WorkGB /= 10
	}
	return Jobs(specs, nil)
}

// TestLinkContentionRunAtScale is the 100-machine end-to-end gate: with
// the contention physics and the net-aware scheduler both on, a
// comm-heavy batch completes, and the run is deterministic for a seed.
func TestLinkContentionRunAtScale(t *testing.T) {
	cfg := Config{
		Machines:       100,
		Mode:           ModeHarmony,
		Seed:           11,
		LinkContention: true,
		SchedOpts:      core.Options{NetModel: true, MaxJobsPerGroup: 2},
	}
	a := mustRun(t, cfg, commHeavyJobs(12, 8))
	if len(a.Failed) != 0 {
		t.Fatalf("failures under contention: %v", a.Failed)
	}
	if len(a.Records) != 12 {
		t.Fatalf("finished %d jobs, want 12", len(a.Records))
	}
	if a.Summary.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	b := mustRun(t, cfg, commHeavyJobs(12, 8))
	if a.Summary.Makespan != b.Summary.Makespan || a.Summary.MeanJCT != b.Summary.MeanJCT {
		t.Errorf("same seed diverged: makespan %v vs %v, mean JCT %v vs %v",
			a.Summary.Makespan, b.Summary.Makespan, a.Summary.MeanJCT, b.Summary.MeanJCT)
	}
}

// TestLinkContentionDefaultOff: the zero-value config does not take the
// contention branch, so it collides nothing, while the same run with the
// physics on does. The sim_*@seed goldens pin that default runs stay
// bit-identical (determinism contract of DESIGN.md §14).
func TestLinkContentionDefaultOff(t *testing.T) {
	cfg := Config{Machines: 24, Mode: ModeHarmony, Seed: 4}
	if off := mustRun(t, cfg, commHeavyJobs(6, 8)); off.LinkCollisionSeconds != 0 {
		t.Errorf("contention off collided %v link-seconds", off.LinkCollisionSeconds)
	}
	cfg.LinkContention = true
	if on := mustRun(t, cfg, commHeavyJobs(6, 8)); on.LinkCollisionSeconds == 0 {
		t.Error("contention on collided nothing: the comparison no longer exercises the branch")
	}
}
