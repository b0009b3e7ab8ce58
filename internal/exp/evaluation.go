package exp

import (
	"fmt"
	"strings"

	"harmony/internal/metrics"
	"harmony/internal/sim"
	"harmony/internal/workload"
)

// Fig9Result reproduces Fig. 9: the workload characteristic CDFs at
// DoP 16 — iteration times (minutes) and computation-time ratios.
type Fig9Result struct {
	IterMinutes []float64
	CompRatios  []float64
}

// Fig9 derives the distributions from the 80-job base workload.
func Fig9() *Fig9Result {
	out := &Fig9Result{}
	for _, s := range workload.Base() {
		out.IterMinutes = append(out.IterMinutes, s.IterSecondsAt(workload.ReferenceDoP)/60)
		out.CompRatios = append(out.CompRatios, s.CompRatioAt(workload.ReferenceDoP))
	}
	return out
}

func (r *Fig9Result) String() string {
	return "Fig. 9 — base workload characteristics (DoP 16)\n" +
		"  (a) iteration time:  " + cdfSummary(r.IterMinutes, "min") + "\n" +
		"  (b) comp-time ratio: " + cdfSummary(r.CompRatios, "") + "\n"
}

// Fig10Result reproduces Fig. 10: normalized JCT and makespan speedups of
// the three approaches (isolated = 1.0).
type Fig10Result struct {
	Isolated ModeOutcome
	Harmony  ModeOutcome
	// Naive holds one outcome per grouping seed (the paper reports mean
	// with best/worst error bars over "all possible cases").
	Naive []ModeOutcome
}

// Fig10 runs the main comparison on the full base workload. The isolated
// and Harmony runs plus every naive grouping seed are independent
// simulations, so they fan out across the experiment pool; seed-indexed
// result slots keep the reported rows in a fixed order.
func Fig10(seed int64, naiveSeeds int) (*Fig10Result, error) {
	jobs := sim.Jobs(workload.Base(), nil)
	if naiveSeeds < 1 {
		naiveSeeds = 1
	}
	out := &Fig10Result{Naive: make([]ModeOutcome, naiveSeeds)}
	err := runPool(2+naiveSeeds, func(i int) error {
		switch i {
		case 0:
			iso, err := runMode(sim.ModeIsolated, jobs, seed, nil)
			if err != nil {
				return fmt.Errorf("fig10 isolated: %w", err)
			}
			out.Isolated = outcomeOf(sim.ModeIsolated, iso)
		case 1:
			har, err := runMode(sim.ModeHarmony, jobs, seed, nil)
			if err != nil {
				return fmt.Errorf("fig10 harmony: %w", err)
			}
			out.Harmony = outcomeOf(sim.ModeHarmony, har)
		default:
			s := seed + int64(i-2)
			nv, err := runMode(sim.ModeNaive, jobs, s, nil)
			if err != nil {
				return fmt.Errorf("fig10 naive seed %d: %w", s, err)
			}
			out.Naive[i-2] = outcomeOf(sim.ModeNaive, nv)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// JCTSpeedup is mean-JCT speedup versus the isolated baseline.
func (r *Fig10Result) JCTSpeedup(o ModeOutcome) float64 {
	if o.MeanJCT == 0 {
		return 0
	}
	return r.Isolated.MeanJCT.Seconds() / o.MeanJCT.Seconds()
}

// MakespanSpeedup is makespan speedup versus the isolated baseline.
func (r *Fig10Result) MakespanSpeedup(o ModeOutcome) float64 {
	if o.Makespan == 0 {
		return 0
	}
	return r.Isolated.Makespan.Seconds() / o.Makespan.Seconds()
}

func (r *Fig10Result) naiveRange() (bestJCT, worstJCT, bestMk, worstMk, meanJCT, meanMk float64) {
	if len(r.Naive) == 0 {
		return
	}
	bestJCT, worstJCT = r.JCTSpeedup(r.Naive[0]), r.JCTSpeedup(r.Naive[0])
	bestMk, worstMk = r.MakespanSpeedup(r.Naive[0]), r.MakespanSpeedup(r.Naive[0])
	for _, o := range r.Naive {
		j, m := r.JCTSpeedup(o), r.MakespanSpeedup(o)
		meanJCT += j
		meanMk += m
		if j > bestJCT {
			bestJCT = j
		}
		if j < worstJCT {
			worstJCT = j
		}
		if m > bestMk {
			bestMk = m
		}
		if m < worstMk {
			worstMk = m
		}
	}
	meanJCT /= float64(len(r.Naive))
	meanMk /= float64(len(r.Naive))
	return
}

func (r *Fig10Result) String() string {
	bj, wj, bm, wm, mj, mm := r.naiveRange()
	rows := [][]string{
		{"isolated", "1.00x", "1.00x", pct(r.Isolated.CPUUtil), pct(r.Isolated.NetUtil), fmt.Sprintf("%d", r.Isolated.Failed)},
		{"naive (mean)", fmt.Sprintf("%.2fx", mj), fmt.Sprintf("%.2fx", mm), "", "", ""},
		{"naive (best/worst)", fmt.Sprintf("%.2f/%.2fx", bj, wj), fmt.Sprintf("%.2f/%.2fx", bm, wm), "", "", ""},
		{"harmony", fmt.Sprintf("%.2fx", r.JCTSpeedup(r.Harmony)), fmt.Sprintf("%.2fx", r.MakespanSpeedup(r.Harmony)),
			pct(r.Harmony.CPUUtil), pct(r.Harmony.NetUtil), fmt.Sprintf("%d", r.Harmony.Failed)},
	}
	var b strings.Builder
	b.WriteString("Fig. 10 — JCT and makespan speedups (80 jobs, 100 machines, isolated = 1.0)\n")
	b.WriteString(table([]string{"approach", "JCT speedup", "makespan speedup", "CPU util", "net util", "OOM"}, rows))
	fmt.Fprintf(&b, "harmony: %.1f concurrent jobs in %.1f groups on average (paper: 27.2 in 6.7)\n",
		r.Harmony.ConcJobs, r.Harmony.Groups)
	return b.String()
}

// Fig11Result reproduces Fig. 11: cluster utilization over time for the
// isolated baseline and Harmony.
type Fig11Result struct {
	IsolatedCPU []float64 // per-minute samples
	IsolatedNet []float64
	HarmonyCPU  []float64
	HarmonyNet  []float64
	Isolated    ModeOutcome
	Harmony     ModeOutcome
}

// Fig11 collects per-minute utilization series from the main runs.
func Fig11(seed int64) (*Fig11Result, error) {
	jobs := sim.Jobs(workload.Base(), nil)
	var iso, har *sim.Result
	err := runPool(2, func(i int) error {
		var err error
		if i == 0 {
			iso, err = runMode(sim.ModeIsolated, jobs, seed, nil)
		} else {
			har, err = runMode(sim.ModeHarmony, jobs, seed, nil)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Fig11Result{
		IsolatedCPU: iso.Util.Series(metrics.CPU),
		IsolatedNet: iso.Util.Series(metrics.Net),
		HarmonyCPU:  har.Util.Series(metrics.CPU),
		HarmonyNet:  har.Util.Series(metrics.Net),
		Isolated:    outcomeOf(sim.ModeIsolated, iso),
		Harmony:     outcomeOf(sim.ModeHarmony, har),
	}, nil
}

func (r *Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 11 — utilization over time (per-minute samples, sparkline over run)\n")
	fmt.Fprintf(&b, "  isolated CPU %s mean %s\n", spark(r.IsolatedCPU), pct(r.Isolated.CPUUtil))
	fmt.Fprintf(&b, "  isolated net %s mean %s\n", spark(r.IsolatedNet), pct(r.Isolated.NetUtil))
	fmt.Fprintf(&b, "  harmony  CPU %s mean %s\n", spark(r.HarmonyCPU), pct(r.Harmony.CPUUtil))
	fmt.Fprintf(&b, "  harmony  net %s mean %s\n", spark(r.HarmonyNet), pct(r.Harmony.NetUtil))
	gain := 0.0
	if r.Isolated.CPUUtil > 0 {
		gain = r.Harmony.CPUUtil / r.Isolated.CPUUtil
	}
	fmt.Fprintf(&b, "  CPU utilization gain %.2fx (paper: up to 1.65x)\n", gain)
	return b.String()
}

// spark renders a series as a fixed-width unicode sparkline.
func spark(series []float64) string {
	const width = 48
	levels := []rune("▁▂▃▄▅▆▇█")
	if len(series) == 0 {
		return strings.Repeat(" ", width)
	}
	out := make([]rune, 0, width)
	for i := 0; i < width; i++ {
		lo := i * len(series) / width
		hi := (i + 1) * len(series) / width
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		n := 0
		for k := lo; k < hi && k < len(series); k++ {
			sum += series[k]
			n++
		}
		v := sum / float64(n)
		idx := int(v * float64(len(levels)))
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out = append(out, levels[idx])
	}
	return string(out)
}

// Fig12Result reproduces Fig. 12: distributions of group DoPs and group
// sizes extracted from all grouping decisions, per workload mix.
type Fig12Result struct {
	// DoPs and JobsPerGroup map workload name to decision samples.
	DoPs         map[string][]float64
	JobsPerGroup map[string][]float64
}

// Fig12 runs Harmony over the base, computation-intensive and
// communication-intensive workloads and extracts every decision's groups.
func Fig12(seed int64) (*Fig12Result, error) {
	mixes := []struct {
		name  string
		specs []workload.Spec
	}{
		{"base", workload.Base()},
		{"comp-intensive", workload.CompIntensive()},
		{"comm-intensive", workload.CommIntensive()},
	}
	out := &Fig12Result{
		DoPs:         make(map[string][]float64),
		JobsPerGroup: make(map[string][]float64),
	}
	// Maps are not safe for concurrent writes: collect per-mix results in
	// index slots, then merge in mix order.
	results := make([]*sim.Result, len(mixes))
	err := runPool(len(mixes), func(i int) error {
		res, err := runMode(sim.ModeHarmony, sim.Jobs(mixes[i].specs, nil), seed, nil)
		if err != nil {
			return fmt.Errorf("fig12 %s: %w", mixes[i].name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, mix := range mixes {
		for _, d := range results[i].Decisions {
			out.DoPs[mix.name] = append(out.DoPs[mix.name], float64(d.Machines))
			out.JobsPerGroup[mix.name] = append(out.JobsPerGroup[mix.name], float64(d.Jobs))
		}
	}
	return out, nil
}

func (r *Fig12Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 12 — grouping decision distributions\n")
	for _, mix := range []string{"base", "comp-intensive", "comm-intensive"} {
		fmt.Fprintf(&b, "  %-15s group DoP:      %s\n", mix, cdfSummary(r.DoPs[mix], "machines"))
		fmt.Fprintf(&b, "  %-15s jobs per group: %s\n", mix, cdfSummary(r.JobsPerGroup[mix], "jobs"))
	}
	return b.String()
}
