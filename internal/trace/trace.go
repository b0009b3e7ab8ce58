// Package trace generates job arrival processes for the workload
// sensitivity experiments of §V-D: batch submission, Poisson arrivals
// with a configurable mean inter-arrival time, and bursty trace-like
// arrivals standing in for the Google cluster traces used by the paper.
package trace

import (
	"math/rand"

	"harmony/internal/simtime"
)

// Batch returns n arrival offsets all at time zero — the main experiment
// of §V-C submits all 80 jobs at once.
func Batch(n int) []simtime.Time {
	return make([]simtime.Time, n)
}

// Poisson returns n arrival offsets whose inter-arrival times are
// exponentially distributed with the given mean. A non-positive mean
// degenerates to Batch. The sequence is deterministic for a given seed.
func Poisson(n int, mean simtime.Duration, seed int64) []simtime.Time {
	if mean <= 0 {
		return Batch(n)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]simtime.Time, n)
	var t simtime.Time
	for i := range out {
		out[i] = t
		gap := rng.ExpFloat64() * mean.Seconds()
		t = t.Add(simtime.FromSeconds(gap))
	}
	return out
}

// Bursty returns n arrival offsets following a trace-like process:
// alternating quiet and busy windows with occasional submission spikes,
// qualitatively matching the "more diverse pattern of arrivals and job
// arrival spikes" the paper extracts from the Google cluster traces.
func Bursty(n int, meanRatePerHour float64, seed int64) []simtime.Time {
	if n <= 0 {
		return nil
	}
	if meanRatePerHour <= 0 {
		meanRatePerHour = 30
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]simtime.Time, 0, n)
	var t simtime.Time
	for len(out) < n {
		// Draw a window with its own intensity: mostly near the mean,
		// sometimes a spike (5x) or a lull (0.2x).
		rate := meanRatePerHour * (0.5 + rng.Float64())
		switch {
		case rng.Float64() < 0.10:
			rate *= 5 // spike
		case rng.Float64() < 0.15:
			rate *= 0.2 // lull
		}
		windowLen := simtime.Duration(10+rng.Intn(20)) * simtime.Minute
		end := t.Add(windowLen)
		meanGapSec := 3600 / rate
		for t < end && len(out) < n {
			if rng.Float64() < 0.05 {
				// Submission spike: several jobs at the same instant.
				burst := 2 + rng.Intn(4)
				for b := 0; b < burst && len(out) < n; b++ {
					out = append(out, t)
				}
			} else {
				out = append(out, t)
			}
			gap := rng.ExpFloat64() * meanGapSec
			t = t.Add(simtime.FromSeconds(gap))
		}
		t = end
	}
	return out[:n]
}
