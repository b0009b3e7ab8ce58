package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is the outcome of comparing one workload x metric pair.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictSame       verdict = "same"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// compareRow is one row of -compare: both medians, their ratio with its
// base, the metric's bound and the verdict.
type compareRow struct {
	Workload string
	Metric   metricSpec
	Base     float64 // median of the first file
	Other    float64 // median of the second file
	SpreadA  float64
	SpreadB  float64
	Verdict  verdict
}

// judge compares a base sample with another for a metric. The change counts
// as worse when the median moved in the bad direction by more than the
// metric's bound, as better when it moved in the good direction by more than
// the wider of the two run-to-run spreads, and as the same otherwise. When a
// spread is wider than the bound the data cannot tell a regression from
// noise, and the pair is unresolved rather than unchanged.
func judge(m metricSpec, base, other []float64) compareRow {
	row := compareRow{Metric: m, Base: median(base), Other: median(other),
		SpreadA: spread(base), SpreadB: spread(other)}
	if row.Base == 0 {
		row.Verdict = verdictUnresolved
		return row
	}
	// worse > 0 means the metric moved in its bad direction.
	worse := (row.Other - row.Base) / math.Abs(row.Base)
	if m.Better == "higher" {
		worse = -worse
	}
	noise := math.Max(row.SpreadA, row.SpreadB)
	switch {
	case noise > m.Bound:
		row.Verdict = verdictUnresolved
	case worse > m.Bound:
		row.Verdict = verdictWorse
	case -worse > noise && worse < 0:
		row.Verdict = verdictBetter
	default:
		row.Verdict = verdictSame
	}
	return row
}

// compareSuites prints one row per workload x end-to-end metric.
func compareSuites(w io.Writer, pathA, pathB string) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base  %s  commit %s  seed %d  %d set(s)  %s gomaxprocs=%d\n",
		pathA, a.Env.Commit, a.Seed, len(a.Sets), a.Env.GoVersion, a.Env.GOMAXPROCS)
	fmt.Fprintf(w, "other %s  commit %s  seed %d  %d set(s)  %s gomaxprocs=%d\n",
		pathB, b.Env.Commit, b.Seed, len(b.Sets), b.Env.GoVersion, b.Env.GOMAXPROCS)
	if a.Seconds != b.Seconds || a.Smoke != b.Smoke {
		return fmt.Errorf("the two files were run with different lengths (%gs smoke=%v, %gs smoke=%v): not comparable",
			a.Seconds, a.Smoke, b.Seconds, b.Smoke)
	}
	fmt.Fprintf(w, "%-10s %-12s %14s %14s %-5s %16s %7s %8s %8s  %s\n",
		"workload", "metric", "base median", "other median", "unit", "other/base", "bound", "spread_a", "spread_b", "verdict")
	worse := 0
	for _, spec := range workloads {
		for _, m := range endToEnd {
			row := judge(m, a.series(spec.Name, m.Name), b.series(spec.Name, m.Name))
			ratio := "n/a"
			if row.Base != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", row.Other/row.Base, row.Base)
			}
			fmt.Fprintf(w, "%-10s %-12s %14.4f %14.4f %-5s %16s %6.0f%% %7.1f%% %7.1f%%  %s\n",
				spec.Name, m.Name, row.Base, row.Other, m.Unit, ratio, 100*m.Bound,
				100*row.SpreadA, 100*row.SpreadB, row.Verdict)
			if row.Verdict == verdictWorse {
				worse++
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload x metric pairs are worse than their bound", worse)
	}
	return nil
}
