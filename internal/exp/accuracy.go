package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"harmony/internal/core"
	"harmony/internal/metrics"
	"harmony/internal/parallel"
	"harmony/internal/sim"
	"harmony/internal/workload"
)

// Fig13aPoint is one error level of the sensitivity sweep.
type Fig13aPoint struct {
	ErrorFrac       float64
	JCTSpeedup      float64 // normalized to the zero-error run
	MakespanSpeedup float64
}

// Fig13aResult reproduces Fig. 13a: Harmony's speedup degrades as the
// performance-model error grows.
type Fig13aResult struct {
	Points []Fig13aPoint
}

// Fig13a sweeps injected profiling error from 0 to 20%.
func Fig13a(seed int64) (*Fig13aResult, error) {
	jobs := sim.Jobs(workload.Base(), nil)
	levels := []float64{0, 0.05, 0.075, 0.10, 0.15, 0.20}
	// Every error level is an independent run; normalization against the
	// zero-error base happens after the sweep, in level order.
	results := make([]*sim.Result, len(levels))
	err := runPool(len(levels), func(i int) error {
		e := levels[i]
		res, err := runMode(sim.ModeHarmony, jobs, seed, func(c *sim.Config) {
			c.MetricErrorFrac = e
		})
		if err != nil {
			return fmt.Errorf("fig13a err=%.0f%%: %w", e*100, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := results[0]
	out := &Fig13aResult{}
	for i, e := range levels {
		res := results[i]
		out.Points = append(out.Points, Fig13aPoint{
			ErrorFrac:       e,
			JCTSpeedup:      base.Summary.MeanJCT.Seconds() / res.Summary.MeanJCT.Seconds(),
			MakespanSpeedup: base.Summary.Makespan.Seconds() / res.Summary.Makespan.Seconds(),
		})
	}
	return out, nil
}

func (r *Fig13aResult) String() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{
			fmt.Sprintf("%.1f%%", p.ErrorFrac*100),
			fmt.Sprintf("%.3f", p.JCTSpeedup),
			fmt.Sprintf("%.3f", p.MakespanSpeedup),
		}
	}
	return "Fig. 13a — speedup vs injected model error (normalized to error-free run)\n" +
		table([]string{"injected error", "JCT speedup", "makespan speedup"}, rows)
}

// Fig13bResult reproduces Fig. 13b: prediction error of cluster
// utilization U and group iteration time T_g_itr over all scheduling
// decisions of a full run.
type Fig13bResult struct {
	UErrors    []float64
	IterErrors []float64
}

// Fig13b collects predicted-vs-actual samples from the base run.
func Fig13b(seed int64) (*Fig13bResult, error) {
	res, err := runMode(sim.ModeHarmony, sim.Jobs(workload.Base(), nil), seed, nil)
	if err != nil {
		return nil, err
	}
	out := &Fig13bResult{}
	for _, p := range res.UPred {
		out.UErrors = append(out.UErrors, p.Err())
	}
	for _, p := range res.IterPred {
		out.IterErrors = append(out.IterErrors, p.Err())
	}
	return out, nil
}

// MeanUError and MeanIterError report the average relative errors.
func (r *Fig13bResult) MeanUError() float64    { return metrics.Mean(r.UErrors) }
func (r *Fig13bResult) MeanIterError() float64 { return metrics.Mean(r.IterErrors) }

func (r *Fig13bResult) String() string {
	return "Fig. 13b — performance-model prediction error (paper: below 5%)\n" +
		fmt.Sprintf("  cluster utilization U:   mean %.1f%%  %s\n",
			r.MeanUError()*100, cdfSummary(scale100(r.UErrors), "%")) +
		fmt.Sprintf("  group iteration T_g_itr: mean %.1f%%  %s\n",
			r.MeanIterError()*100, cdfSummary(scale100(r.IterErrors), "%"))
}

func scale100(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * 100
	}
	return out
}

// Fig14Result reproduces Fig. 14 and §V-F as a one-shot comparison of
// Eq. 4 scores: on each input, Algorithm 1's plan against the plan of the
// exhaustive-search Oracle. The Oracle searches the same space, a prefix
// of the jobs in priority order, so Algorithm 1's score over the
// Oracle's is an optimality gap of at most 1.
type Fig14Result struct {
	// Per input, in grid order and indexed alike: the jobs and machines
	// both planners were given, and each planner's plan and score.
	Jobs                      [][]core.JobInfo
	Machines                  []int
	Harmony, Oracle           []core.Plan
	HarmonyScore, OracleScore []float64
	// HarmonyTime and OracleTime are the mean wall-clock planning times
	// per input at the grid's largest job count.
	HarmonyTime, OracleTime time.Duration
}

// fig14Opts are the one-shot planning options of every Fig. 14 input.
var fig14Opts = core.Options{MemoryCapGB: 25, MaxJobsPerGroup: 3}

// Fig. 14's grid: each job count n in fig14Sizes takes the first
// fig14Windows disjoint n-job windows of the base workload, in its order,
// on n/2, n and 2n machines.
var fig14Sizes = []int{6, 8, 10}

const fig14Windows = 8

// Fig14 plans every input of the grid with both planners. Each input is
// independent, so they fan out across the experiment worker pool into
// index-ordered slots.
func Fig14() *Fig14Result {
	est := estimatesOf(workload.Base())
	out := &Fig14Result{}
	for _, n := range fig14Sizes {
		for _, m := range []int{n / 2, n, 2 * n} {
			for k := range fig14Windows {
				out.Jobs = append(out.Jobs, est[k*n:(k+1)*n])
				out.Machines = append(out.Machines, m)
			}
		}
	}
	in := len(out.Jobs)
	out.Harmony, out.Oracle = make([]core.Plan, in), make([]core.Plan, in)
	out.HarmonyScore, out.OracleScore = make([]float64, in), make([]float64, in)
	harmonyTime, oracleTime := make([]time.Duration, in), make([]time.Duration, in)
	parallel.Run(in, concurrency, func(i int) {
		start := time.Now()
		out.Harmony[i] = core.Schedule(out.Jobs[i], out.Machines[i], fig14Opts)
		mid := time.Now()
		out.Oracle[i] = core.Oracle(out.Jobs[i], out.Machines[i], fig14Opts)
		harmonyTime[i], oracleTime[i] = mid.Sub(start), time.Since(mid)
		out.HarmonyScore[i] = fig14Opts.Score(out.Harmony[i])
		out.OracleScore[i] = fig14Opts.Score(out.Oracle[i])
	})
	var timed time.Duration
	for i, jobs := range out.Jobs {
		if len(jobs) == fig14Sizes[len(fig14Sizes)-1] {
			out.HarmonyTime += harmonyTime[i]
			out.OracleTime += oracleTime[i]
			timed++
		}
	}
	out.HarmonyTime /= timed
	out.OracleTime /= timed
	return out
}

func estimatesOf(specs []workload.Spec) []core.JobInfo {
	out := make([]core.JobInfo, len(specs))
	for i, s := range specs {
		out[i] = core.JobInfo{
			ID: s.ID, Comp: s.CompMachineSeconds, Net: s.NetSeconds,
			InputGB: s.Data.InputGB, ModelGB: s.Data.ModelGB, WorkGB: s.WorkGB,
			JVMHeapFactor: workload.JVMHeapFactor,
		}
	}
	return out
}

func (r *Fig14Result) String() string {
	var rows [][]string
	for i := 0; i < len(r.Jobs); i += fig14Windows {
		sum, worst := 0.0, math.Inf(1)
		var placedH, placedO int
		for k := i; k < i+fig14Windows; k++ {
			ratio := r.HarmonyScore[k] / r.OracleScore[k]
			sum += ratio
			worst = math.Min(worst, ratio)
			placedH += r.Harmony[k].NumJobs()
			placedO += r.Oracle[k].NumJobs()
		}
		rows = append(rows, []string{
			fmt.Sprint(len(r.Jobs[i])), fmt.Sprint(r.Machines[i]),
			fmt.Sprintf("%.4f", sum/fig14Windows), fmt.Sprintf("%.4f", worst),
			fmt.Sprintf("%d / %d of %d", placedH, placedO, fig14Windows*len(r.Jobs[i])),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 14 — Algorithm 1 vs exhaustive-search Oracle, Eq. 4 score ratio over %d inputs per row (paper: within ~2%%)\n",
		fig14Windows)
	b.WriteString(table([]string{"jobs", "machines", "mean ratio", "worst ratio", "placed (Alg. 1 / Oracle)"}, rows))
	fmt.Fprintf(&b, "planning time per %d-job input: Algorithm 1 %s, Oracle %s\n",
		fig14Sizes[len(fig14Sizes)-1], r.HarmonyTime.Round(time.Microsecond), r.OracleTime.Round(time.Millisecond))
	return b.String()
}
