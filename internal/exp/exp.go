// Package exp implements every experiment of the paper's evaluation
// (§V): one function per table and figure, each returning a structured
// result that prints the same rows or series the paper reports.
// DESIGN.md §4 maps experiment ids to paper references.
package exp

import (
	"fmt"
	"strings"

	"harmony/internal/metrics"
	"harmony/internal/sim"
	"harmony/internal/simtime"
)

// Machines is the default cluster size of the main evaluation
// (100 m4.2xlarge instances, §V-B).
const Machines = 100

// DefaultSeed keeps experiment runs reproducible.
const DefaultSeed = 1

// ModeOutcome summarizes one scheduling regime's full run.
type ModeOutcome struct {
	Mode      sim.Mode
	MeanJCT   simtime.Duration
	Makespan  simtime.Duration
	CPUUtil   float64
	NetUtil   float64
	Finished  int
	Failed    int
	ConcJobs  float64
	Groups    float64
	GCSeconds float64
}

func outcomeOf(mode sim.Mode, res *sim.Result) ModeOutcome {
	return ModeOutcome{
		Mode:      mode,
		MeanJCT:   res.Summary.MeanJCT,
		Makespan:  res.Summary.Makespan,
		CPUUtil:   res.Summary.CPUUtil,
		NetUtil:   res.Summary.NetUtil,
		Finished:  len(res.Records),
		Failed:    len(res.Failed),
		ConcJobs:  res.MeanConcurrentJobs,
		Groups:    res.MeanGroups,
		GCSeconds: res.GCSeconds,
	}
}

func runMode(mode sim.Mode, jobs []sim.Job, seed int64, mutate func(*sim.Config)) (*sim.Result, error) {
	cfg := sim.Config{Machines: Machines, Mode: mode, Seed: seed}
	if mutate != nil {
		mutate(&cfg)
	}
	return sim.Run(cfg, jobs)
}

// table renders rows with padded columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%5.1f%%", v*100) }

// cdfSummary formats a distribution as P10/P50/P90 plus min and max.
func cdfSummary(values []float64, unit string) string {
	if len(values) == 0 {
		return "(no samples)"
	}
	sorted := metrics.CDF(values)
	return fmt.Sprintf("min=%.2f p10=%.2f p50=%.2f p90=%.2f max=%.2f %s (n=%d)",
		sorted[0], metrics.Percentile(values, 10), metrics.Percentile(values, 50),
		metrics.Percentile(values, 90), sorted[len(sorted)-1], unit, len(values))
}
