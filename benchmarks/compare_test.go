package main

import "testing"

func TestJudgeVerdicts(t *testing.T) {
	lower := metricSpec{Name: "makespan_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 0.995, center * 1.005}
	}
	noisy := func(center float64) []float64 {
		return []float64{center * 0.7, center, center * 1.3, center * 0.8, center * 1.2, center}
	}
	cases := []struct {
		name        string
		m           metricSpec
		base, other []float64
		want        verdict
	}{
		{"slower beyond the bound", lower, steady(10), steady(11.5), verdictWorse},
		{"slower within the bound", lower, steady(10), steady(10.5), verdictSame},
		{"faster beyond the spread", lower, steady(10), steady(9), verdictBetter},
		{"faster within the spread", lower, steady(10), steady(9.99), verdictSame},
		{"spread wider than the bound", lower, noisy(10), steady(20), verdictUnresolved},
		{"higher is better: a drop is worse", higher, steady(100), steady(80), verdictWorse},
		{"higher is better: a rise is better", higher, steady(100), steady(120), verdictBetter},
		{"zero base cannot be judged", lower, []float64{0, 0, 0}, steady(1), verdictUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.m, c.base, c.other).Verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
