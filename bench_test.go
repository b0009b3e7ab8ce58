package harmony

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V). Each benchmark runs the corresponding experiment from
// internal/exp and reports its headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports alongside Go's timing.
// DESIGN.md §4 maps benchmark names to paper references.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"harmony/internal/exp"
	"harmony/internal/metrics"
)

func BenchmarkTab1WorkloadInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Tab1()
		if len(r.Specs) != 8 {
			b.Fatal("bad inventory")
		}
	}
}

func BenchmarkFig2SingleJobUtilization(b *testing.B) {
	var cpu, net float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig2(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		cpu, net = r.Rows[0].CPUUtil, r.Rows[0].NetUtil
	}
	b.ReportMetric(cpu*100, "MLR16K-cpu-%")
	b.ReportMetric(net*100, "MLR16K-net-%")
}

func BenchmarkFig3MachineSweep(b *testing.B) {
	var iter4, iter32 float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig3(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		iter4, iter32 = r.Rows[0].IterSeconds, r.Rows[len(r.Rows)-1].IterSeconds
	}
	b.ReportMetric(iter4, "iter-at-4-s")
	b.ReportMetric(iter32, "iter-at-32-s")
}

func BenchmarkFig4NaiveColocation(b *testing.B) {
	var oom float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig4(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		oom = 0
		if r.Rows[len(r.Rows)-1].OOM {
			oom = 1
		}
	}
	b.ReportMetric(oom, "triple-oom")
}

func BenchmarkFig9WorkloadCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig9()
		if len(r.IterMinutes) != 80 {
			b.Fatal("bad workload")
		}
	}
}

func BenchmarkFig10MainComparison(b *testing.B) {
	var jct, mk float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig10(exp.DefaultSeed, 3)
		if err != nil {
			b.Fatal(err)
		}
		jct = r.JCTSpeedup(r.Harmony)
		mk = r.MakespanSpeedup(r.Harmony)
	}
	b.ReportMetric(jct, "jct-speedup-x")
	b.ReportMetric(mk, "makespan-speedup-x")
}

// BenchmarkFig10Parallel compares the Fig. 10 sweep (isolated + harmony +
// 5 naive seeds, 7 independent simulations) at Concurrency 1 against the
// GOMAXPROCS worker pool. On a multi-core runner the pooled sub-benchmark
// should approach a 7-way fan-out's speedup; results are identical either
// way.
func BenchmarkFig10Parallel(b *testing.B) {
	old := exp.Concurrency()
	defer exp.SetConcurrency(old)
	run := func(name string, workers int) {
		b.Run(name, func(b *testing.B) {
			exp.SetConcurrency(workers)
			for i := 0; i < b.N; i++ {
				if _, err := exp.Fig10(exp.DefaultSeed, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("sequential", 1)
	run(fmt.Sprintf("pooled-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0))
}

func BenchmarkFig11UtilizationTimeline(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig11(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if r.Isolated.CPUUtil > 0 {
			gain = r.Harmony.CPUUtil / r.Isolated.CPUUtil
		}
	}
	b.ReportMetric(gain, "cpu-util-gain-x")
}

func BenchmarkFig12GroupingCDF(b *testing.B) {
	var baseDoP, compDoP float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig12(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		baseDoP = metrics.Percentile(r.DoPs["base"], 50)
		compDoP = metrics.Percentile(r.DoPs["comp-intensive"], 50)
	}
	b.ReportMetric(baseDoP, "median-dop-base")
	b.ReportMetric(compDoP, "median-dop-comp")
}

func BenchmarkFig13aErrorSensitivity(b *testing.B) {
	var degraded float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig13a(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		degraded = r.Points[len(r.Points)-1].MakespanSpeedup
	}
	b.ReportMetric(degraded, "speedup-at-20pct-err")
}

func BenchmarkFig13bPredictionError(b *testing.B) {
	var iterErr, uErr float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig13b(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		iterErr = r.MeanIterError()
		uErr = r.MeanUError()
	}
	b.ReportMetric(iterErr*100, "iter-err-%")
	b.ReportMetric(uErr*100, "U-err-%")
}

func BenchmarkFig14OracleAndScale(b *testing.B) {
	worst := 1.0
	for i := 0; i < b.N; i++ {
		r := exp.Fig14()
		for k := range r.OracleScore {
			worst = math.Min(worst, r.HarmonyScore[k]/r.OracleScore[k])
		}
	}
	b.ReportMetric(worst, "worst-harmony-vs-oracle-score")
}

func BenchmarkScaleScheduling(b *testing.B) {
	var latency float64
	for i := 0; i < b.N; i++ {
		r := exp.ScaleSched(exp.DefaultSeed)
		latency = r.Points[len(r.Points)-1].Latency.Seconds()
	}
	b.ReportMetric(latency, "8Kjobs-10Kmachines-s")
}

func BenchmarkAblationTechniques(b *testing.B) {
	var subtasksShare float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Ablation(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		subtasksShare = r.Rows[0].BenefitShare
	}
	b.ReportMetric(subtasksShare*100, "subtasks-benefit-%")
}

func BenchmarkAblationDesignChoices(b *testing.B) {
	var full, noSecondary float64
	for i := 0; i < b.N; i++ {
		r, err := exp.DesignAblation(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		full = r.Rows[0].MakespanSpeedup
		noSecondary = r.Rows[1].MakespanSpeedup
	}
	b.ReportMetric(full, "full-speedup-x")
	b.ReportMetric(noSecondary, "no-secondary-comm-x")
}

func BenchmarkSensRatio(b *testing.B) {
	var comp, comm float64
	for i := 0; i < b.N; i++ {
		r, err := exp.SensRatio(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			switch row.Mix {
			case "comp-intensive":
				comp = row.MakespanSpeedup
			case "comm-intensive":
				comm = row.MakespanSpeedup
			}
		}
	}
	b.ReportMetric(comp, "comp-mix-speedup-x")
	b.ReportMetric(comm, "comm-mix-speedup-x")
}

func BenchmarkSensArrival(b *testing.B) {
	var batch, slow float64
	for i := 0; i < b.N; i++ {
		r, err := exp.SensArrival(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		batch = r.Rows[0].MakespanSpeedup
		slow = r.Rows[len(r.Rows)-2].MakespanSpeedup // poisson 8m
	}
	b.ReportMetric(batch, "batch-speedup-x")
	b.ReportMetric(slow, "poisson8m-speedup-x")
}

func BenchmarkReloadAlphaSweep(b *testing.B) {
	var bestFixed, adaptive float64
	for i := 0; i < b.N; i++ {
		r, err := exp.Reload(exp.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		_, bestFixed = r.BestFixed()
		adaptive = r.Adaptive()
	}
	b.ReportMetric(bestFixed, "best-fixed-iter-s")
	b.ReportMetric(adaptive, "adaptive-iter-s")
}
