package main

import (
	"fmt"
	"strings"

	"harmony/internal/core"
	"harmony/internal/sim"
	"harmony/internal/workload"
)

// The placement experiment (-run placement) is the contention comparison
// of DESIGN.md §14 at the paper's 100-machine scale. Both arms run the
// non-work-conserving shared-link physics (sim.Config.LinkContention):
// comm bursts from different jobs that drive the link concurrently burn
// 45% of aggregate goodput and stay phase-locked. The baseline
// arm schedules with the paper's aggregate-bandwidth model, so co-located
// comm-heavy jobs collide every iteration; the net-aware arm adds
// core.Options.NetModel — compatibility-aware grouping plus the
// CASSINI-style phase offsets the simulator enforces by staggering
// cycle starts. Headline metric: aggregate iteration throughput,
// net-aware over baseline.
const (
	placeSeeds    = 5
	placeMachines = 100
	placeJobs     = 24
	placeIters    = 30
)

// placeArmResult aggregates one scheduler arm over the seeds.
type placeArmResult struct {
	mode string
	// meanThroughput is iterations completed per 1000 simulated seconds,
	// averaged over seeds.
	meanThroughput float64
	// meanIterSeconds is the mean per-job iteration time (run time over
	// iterations), averaged over jobs then seeds.
	meanIterSeconds float64
	meanMakespan    float64
	meanJCT         float64
	// meanCollisionSeconds is link-time per run during which comm bursts
	// from different jobs collided (Result.LinkCollisionSeconds).
	meanCollisionSeconds float64
	completed            int
}

type placementResult struct {
	baseline, netAware placeArmResult
}

// placeScenario builds the comm-heavy contention workload: 24 jobs whose
// computation-to-communication ratio balances at DoP ~8, so Algorithm 1
// packs them two per group across the 100 machines. PULL/PUSH splits are
// deliberately heterogeneous — long asymmetric comm windows are what
// collide when cycles dispatch in phase and what the interleaving
// solver's offsets separate.
func placeScenario() []sim.Job {
	pullFracs := []float64{0.8, 0.35, 0.65, 0.5}
	specs := make([]workload.Spec, placeJobs)
	for i := range specs {
		mul := 0.9 + 0.02*float64(i%11)
		specs[i] = workload.Spec{
			ID:                 fmt.Sprintf("place-%02d", i),
			App:                workload.Lasso,
			Data:               workload.Dataset{Name: "PlaceSynth", InputGB: 8, ModelGB: 2},
			Hyper:              fmt.Sprintf("mul=%.2f", mul),
			CompMachineSeconds: 1600 * mul,
			NetSeconds:         200 * mul,
			PullFrac:           pullFracs[i%len(pullFracs)],
			Iterations:         placeIters,
			WorkGB:             0.5,
		}
	}
	return sim.Jobs(specs, nil)
}

// placement runs both arms over the simulator seeds seed..seed+placeSeeds-1.
func placement(seed int64) (fmt.Stringer, error) {
	measure := func(netAware bool) (placeArmResult, error) {
		out := placeArmResult{mode: "baseline"}
		if netAware {
			out.mode = "net_aware"
		}
		for i := int64(0); i < placeSeeds; i++ {
			cfg := sim.Config{
				Machines:       placeMachines,
				Mode:           sim.ModeHarmony,
				Seed:           seed + i,
				LinkContention: true,
				SchedOpts:      core.Options{NetModel: netAware, MaxJobsPerGroup: 2},
			}
			res, err := sim.Run(cfg, placeScenario())
			if err != nil {
				return out, fmt.Errorf("%s seed %d: %w", out.mode, seed+i, err)
			}
			out.completed += len(res.Records)
			makespan := res.Summary.Makespan.Seconds()
			if makespan > 0 {
				iters := float64(len(res.Records) * placeIters)
				out.meanThroughput += iters / makespan * 1000
			}
			var iterSum float64
			for _, r := range res.Records {
				iterSum += r.Finish.Sub(r.Start).Seconds() / placeIters
			}
			if len(res.Records) > 0 {
				out.meanIterSeconds += iterSum / float64(len(res.Records))
			}
			out.meanMakespan += makespan
			out.meanJCT += res.Summary.MeanJCT.Seconds()
			out.meanCollisionSeconds += res.LinkCollisionSeconds
		}
		out.meanThroughput /= placeSeeds
		out.meanIterSeconds /= placeSeeds
		out.meanMakespan /= placeSeeds
		out.meanJCT /= placeSeeds
		out.meanCollisionSeconds /= placeSeeds
		return out, nil
	}

	r := &placementResult{}
	var err error
	if r.baseline, err = measure(false); err != nil {
		return nil, err
	}
	if r.netAware, err = measure(true); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *placementResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DESIGN.md §14 — net-aware placement: %d machines, %d comm-heavy jobs, link contention on, %d seeds per arm\n",
		placeMachines, placeJobs, placeSeeds)
	fmt.Fprintf(&b, "  %-9s %16s %12s %12s %10s %12s %9s\n",
		"MODE", "ITERS/1000s", "T_ITR(s)", "MAKESPAN(s)", "JCT(s)", "COLLIDED(s)", "DONE")
	for _, a := range []placeArmResult{r.baseline, r.netAware} {
		fmt.Fprintf(&b, "  %-9s %16.1f %12.1f %12.0f %10.0f %12.0f %6d/%d\n",
			a.mode, a.meanThroughput, a.meanIterSeconds, a.meanMakespan, a.meanJCT,
			a.meanCollisionSeconds, a.completed, placeSeeds*placeJobs)
	}
	if r.baseline.meanThroughput > 0 && r.baseline.meanIterSeconds > 0 {
		fmt.Fprintf(&b, "  aggregate throughput net-aware/baseline: %.2fx (mean T_itr ratio %.2fx)\n",
			r.netAware.meanThroughput/r.baseline.meanThroughput,
			r.netAware.meanIterSeconds/r.baseline.meanIterSeconds)
	}
	return b.String()
}
