package exp

import (
	"strings"
	"testing"
	"time"
)

func TestFig2ShapesMatchPaper(t *testing.T) {
	r, err := Fig2(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("fig2 rows = %d, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Fig. 2's point: single jobs never saturate both resources.
		if row.CPUUtil > 0.95 && row.NetUtil > 0.95 {
			t.Errorf("%s: both resources saturated (%.2f, %.2f)", row.Workload, row.CPUUtil, row.NetUtil)
		}
		if row.CPUUtil+row.NetUtil < 0.4 {
			t.Errorf("%s: implausibly idle (%.2f, %.2f)", row.Workload, row.CPUUtil, row.NetUtil)
		}
	}
	if !strings.Contains(r.String(), "Fig. 2") {
		t.Error("String() missing title")
	}
}

func TestFig3ShapesMatchPaper(t *testing.T) {
	r, err := Fig3(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("fig3 rows = %d, want 4", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		// More machines: shorter iterations, lower CPU utilization.
		if r.Rows[i].IterSeconds >= r.Rows[i-1].IterSeconds {
			t.Errorf("iteration time not decreasing: m=%d %.0fs vs m=%d %.0fs",
				r.Rows[i].Machines, r.Rows[i].IterSeconds,
				r.Rows[i-1].Machines, r.Rows[i-1].IterSeconds)
		}
		if r.Rows[i].CPUUtil >= r.Rows[i-1].CPUUtil {
			t.Errorf("CPU util not decreasing with machines: %.2f -> %.2f",
				r.Rows[i-1].CPUUtil, r.Rows[i].CPUUtil)
		}
		// COMP halves with machines (Eq. 2); PULL/PUSH stay near-flat.
		if r.Rows[i].CompSeconds >= r.Rows[i-1].CompSeconds {
			t.Error("COMP time not shrinking with machines")
		}
	}
}

func TestFig4OOMOnTriple(t *testing.T) {
	r, err := Fig4(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("fig4 rows = %d, want 6", len(r.Rows))
	}
	last := r.Rows[len(r.Rows)-1]
	if !last.OOM {
		t.Errorf("three-job co-location should OOM, got util (%.2f, %.2f)", last.CPUUtil, last.NetUtil)
	}
	for _, row := range r.Rows[:5] {
		if row.OOM {
			t.Errorf("%s unexpectedly OOMed", row.Setup)
		}
		// Naive co-location never raises both utilizations high.
		if row.CPUUtil > 0.9 && row.NetUtil > 0.9 {
			t.Errorf("%s: naive co-location should not saturate both resources", row.Setup)
		}
	}
}

func TestFig9Distributions(t *testing.T) {
	r := Fig9()
	if len(r.IterMinutes) != 80 || len(r.CompRatios) != 80 {
		t.Fatalf("fig9 samples = %d/%d, want 80/80", len(r.IterMinutes), len(r.CompRatios))
	}
	if !strings.Contains(r.String(), "iteration time") {
		t.Error("String() missing series")
	}
}

func TestFig10Headline(t *testing.T) {
	if testing.Short() {
		t.Skip("full 80-job comparison")
	}
	r, err := Fig10(DefaultSeed, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's ordering: Harmony beats isolated on both metrics.
	if s := r.JCTSpeedup(r.Harmony); s <= 1.1 {
		t.Errorf("harmony JCT speedup %.2fx, want > 1.1x (paper: 2.11x)", s)
	}
	if s := r.MakespanSpeedup(r.Harmony); s <= 1.3 {
		t.Errorf("harmony makespan speedup %.2fx, want > 1.3x (paper: 1.60x)", s)
	}
	// Harmony completes everything; naive is unpredictable.
	if r.Harmony.Failed != 0 {
		t.Errorf("harmony failed %d jobs", r.Harmony.Failed)
	}
	if r.Harmony.CPUUtil <= r.Isolated.CPUUtil {
		t.Error("harmony CPU utilization should beat isolated")
	}
	_, worstJCT, _, worstMk, _, _ := r.naiveRange()
	if worstJCT >= r.JCTSpeedup(r.Harmony) || worstMk >= r.MakespanSpeedup(r.Harmony) {
		t.Error("naive worst case should fall below harmony")
	}
}

func TestFig13bPredictionErrorSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full 80-job run")
	}
	r, err := Fig13b(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.IterErrors) == 0 {
		t.Fatal("no iteration-time prediction samples")
	}
	if e := r.MeanIterError(); e > 0.12 {
		t.Errorf("mean T_g_itr prediction error %.1f%%, want small (paper < 5%%)", e*100)
	}
	if e := r.MeanUError(); e > 0.25 {
		t.Errorf("mean U prediction error %.1f%%, want moderate", e*100)
	}
}

func TestScaleSchedFast(t *testing.T) {
	r := ScaleSched(DefaultSeed)
	if len(r.Points) != 4 {
		t.Fatalf("scale points = %d", len(r.Points))
	}
	last := r.Points[len(r.Points)-1]
	if last.Jobs != 8000 || last.Machines != 10000 {
		t.Fatalf("unexpected final case %+v", last)
	}
	if last.Latency > 5*time.Second {
		t.Errorf("8K jobs / 10K machines took %v, paper claims < 5s", last.Latency)
	}
}

// TestOracleSearchesPrefixes checks that Fig. 14 compares like with like:
// on every input the Oracle, as Algorithm 1 does, places a prefix of the
// jobs and leaves the rest waiting, and it scores no lower than Algorithm
// 1. The tolerance covers one partition whose groups come in a different
// order, which can round differently.
func TestOracleSearchesPrefixes(t *testing.T) {
	r := Fig14()
	for i, jobs := range r.Jobs {
		oracle := r.Oracle[i]
		for _, j := range jobs[:oracle.NumJobs()] {
			if _, ok := oracle.FindJob(j.ID); !ok {
				t.Errorf("input %d (%d jobs, %d machines): oracle plan %s skips %s, not a prefix",
					i, len(jobs), r.Machines[i], oracle, j.ID)
				break
			}
		}
		if r.OracleScore[i] < r.HarmonyScore[i]-1e-9 {
			t.Errorf("input %d (%d jobs, %d machines): oracle %.6f < Algorithm 1 %.6f",
				i, len(jobs), r.Machines[i], r.OracleScore[i], r.HarmonyScore[i])
		}
	}
}

func TestTab1(t *testing.T) {
	r := Tab1()
	if len(r.Specs) != 8 {
		t.Fatalf("tab1 rows = %d, want 8", len(r.Specs))
	}
	if !strings.Contains(r.String(), "Netflix64x") {
		t.Error("missing dataset")
	}
}

func TestReloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("reload micro-benchmark")
	}
	r, err := Reload(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	bestA, bestIter := r.BestFixed()
	if bestIter <= 0 {
		t.Fatal("no successful fixed-alpha run")
	}
	// The low-α regime must hurt: out-of-memory kills or exploding GC
	// ("when α is too low, GC explodes", §V-G).
	lowAlphaPain := false
	for _, row := range r.Rows {
		if row.Alpha >= 0 && row.Alpha <= 0.2 && (row.Failed > 0 || row.GCSeconds > 2*bestIter) {
			lowAlphaPain = true
		}
	}
	if !lowAlphaPain {
		t.Error("low fixed α shows neither OOM nor GC explosion")
	}
	// The best fixed α is interior: extremes lose to the middle.
	if bestA <= 0.05 || bestA >= 0.95 {
		t.Errorf("best fixed alpha %.1f at the extreme, want interior (paper: 0.3)", bestA)
	}
	// Adaptive completes everything and lands near the best fixed
	// setting without knowing it in advance. (The paper's adaptive beats
	// best-fixed by 16%; see EXPERIMENTS.md for why ours only ties.)
	if ad := r.Adaptive(); ad > bestIter*1.25 {
		t.Errorf("adaptive %.0fs far from best fixed %.0fs", ad, bestIter)
	}
	for _, row := range r.Rows {
		if row.Alpha < 0 && row.Failed > 0 {
			t.Errorf("adaptive run failed %d jobs", row.Failed)
		}
	}
}
