package exp

import (
	"fmt"
	"strings"

	"harmony/internal/sim"
	"harmony/internal/workload"
)

// ReloadRow is one α setting of the §V-G micro-benchmark.
type ReloadRow struct {
	Alpha       float64 // -1 marks the adaptive controller
	IterSeconds float64 // mean group iteration time
	Makespan    float64 // seconds; grouping-independent comparison
	GCSeconds   float64
	StallSecs   float64
	Failed      int
}

// ReloadResult reproduces §V-G: mean group iteration time is U-shaped in
// the fixed disk-block ratio α, and the adaptive per-job controller beats
// the best fixed setting.
type ReloadResult struct {
	Rows []ReloadRow
	// AlphaMean/Min/Max summarize the adaptive run's final ratios
	// (paper: average 0.34, min 0.11, max 1).
	AlphaMean float64
	AlphaMin  float64
	AlphaMax  float64
	// ModelSpills counts jobs that needed the last-resort model spill.
	ModelSpills int
}

// Reload runs the 8-job / 32-machine micro-benchmark across fixed α
// values and the adaptive controller.
func Reload(seed int64) (*ReloadResult, error) {
	specs := workload.ReloadJobs()
	// Shorten convergence (the comparison stabilizes within a few dozen
	// iterations) and scale the datasets so that the sweep exercises both
	// failure regimes on 32 machines: α near 0 must overflow memory ("GC
	// explodes", §V-G) while mid-range α must fit — mirroring the
	// data-to-memory ratio of the paper's configuration.
	for i := range specs {
		specs[i].Iterations = 24
		specs[i].Data.InputGB *= 0.6
	}
	jobs := sim.Jobs(specs, nil)
	out := &ReloadResult{}
	run := func(alpha float64) (*sim.Result, error) {
		cfg := sim.Config{Machines: 32, Mode: sim.ModeHarmony, Seed: seed}
		if alpha >= 0 {
			cfg.FixedAlpha = &alpha
		}
		return sim.Run(cfg, jobs)
	}
	for _, a := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.0} {
		res, err := run(a)
		if err != nil {
			return nil, fmt.Errorf("reload alpha=%.1f: %w", a, err)
		}
		out.Rows = append(out.Rows, ReloadRow{
			Alpha:       a,
			IterSeconds: res.MeanGroupIterSeconds,
			Makespan:    res.Summary.Makespan.Seconds(),
			GCSeconds:   res.GCSeconds,
			StallSecs:   res.StallSeconds,
			Failed:      len(res.Failed),
		})
	}
	adaptive, err := run(-1)
	if err != nil {
		return nil, fmt.Errorf("reload adaptive: %w", err)
	}
	out.Rows = append(out.Rows, ReloadRow{
		Alpha:       -1,
		IterSeconds: adaptive.MeanGroupIterSeconds,
		Makespan:    adaptive.Summary.Makespan.Seconds(),
		GCSeconds:   adaptive.GCSeconds,
		StallSecs:   adaptive.StallSeconds,
		Failed:      len(adaptive.Failed),
	})
	out.AlphaMean = adaptive.AlphaMean
	out.AlphaMin = adaptive.AlphaMin
	out.AlphaMax = adaptive.AlphaMax
	out.ModelSpills = adaptive.ModelSpills
	return out, nil
}

// BestFixed returns the best (lowest mean group iteration time, the
// paper's §V-G metric) fixed-α row among runs that completed every job.
func (r *ReloadResult) BestFixed() (alpha, iterSeconds float64) {
	best := -1.0
	for _, row := range r.Rows {
		if row.Alpha < 0 || row.Failed > 0 || row.IterSeconds <= 0 {
			continue
		}
		if best < 0 || row.IterSeconds < best {
			best = row.IterSeconds
			alpha = row.Alpha
		}
	}
	return alpha, best
}

// Adaptive returns the adaptive controller's mean group iteration time.
func (r *ReloadResult) Adaptive() float64 {
	for _, row := range r.Rows {
		if row.Alpha < 0 {
			return row.IterSeconds
		}
	}
	return 0
}

func (r *ReloadResult) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		name := fmt.Sprintf("fixed %.1f", row.Alpha)
		if row.Alpha < 0 {
			name = "adaptive"
		}
		rows[i] = []string{
			name,
			fmt.Sprintf("%.1fs", row.IterSeconds),
			fmt.Sprintf("%.0f min", row.Makespan/60),
			fmt.Sprintf("%.0fs", row.GCSeconds),
			fmt.Sprintf("%.0fs", row.StallSecs),
			fmt.Sprintf("%d", row.Failed),
		}
	}
	var b strings.Builder
	b.WriteString("§V-G — dynamic data reloading (8 jobs, 32 machines)\n")
	b.WriteString(table([]string{"alpha", "mean group iter", "makespan", "GC time", "reload stalls", "OOM"}, rows))
	bestA, bestIter := r.BestFixed()
	fmt.Fprintf(&b, "best fixed alpha %.1f at %.0fs group iteration; adaptive %.0fs (paper: 52.9s vs 44.3s)\n",
		bestA, bestIter, r.Adaptive())
	fmt.Fprintf(&b, "adaptive final alpha mean %.2f min %.2f max %.2f, model spills %d (paper: 0.34 / 0.11 / 1)\n",
		r.AlphaMean, r.AlphaMin, r.AlphaMax, r.ModelSpills)
	return b.String()
}

// Tab1Result reproduces Table I: the workload inventory.
type Tab1Result struct {
	Specs []workload.Spec
}

// Tab1 lists one representative variant per (application, dataset) pair.
func Tab1() *Tab1Result {
	return &Tab1Result{Specs: workload.ReloadJobs()}
}

func (r *Tab1Result) String() string {
	rows := make([][]string, len(r.Specs))
	for i, s := range r.Specs {
		rows[i] = []string{
			s.App.String(), s.Data.Name,
			fmt.Sprintf("%.1f GB", s.Data.InputGB),
			fmt.Sprintf("%.1f GB", s.Data.ModelGB),
			fmt.Sprintf("%d variants", workload.VariantsPerProfile),
		}
	}
	return "Table I — workloads used for evaluation\n" +
		table([]string{"application", "dataset", "input", "model", "hyper-params"}, rows)
}
