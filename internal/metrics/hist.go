package metrics

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of finite latency buckets. Bounds are fixed
// log-spaced: 1µs doubling up to ~134s, which covers everything from a
// cached COMP subtask to a stalled barrier without per-histogram
// configuration, and keeps snapshots fixed-size (they ride the Stats RPC
// as plain arrays).
const HistBuckets = 28

// histBounds holds the upper bound of each finite bucket in seconds.
var histBounds = func() [HistBuckets]float64 {
	var b [HistBuckets]float64
	ub := 1e-6
	for i := range b {
		b[i] = ub
		ub *= 2
	}
	return b
}()

// Histogram is a fixed-log-bucket latency histogram with atomic
// counters: observation is lock-free and allocation-free, so it can sit
// on the worker's span-recording path. The zero value is ready to use.
type Histogram struct {
	counts [HistBuckets + 1]atomic.Int64 // last slot is +Inf
	// sum accumulates nanoseconds; phase latencies fit comfortably in
	// int64 for any realistic process lifetime.
	sumNanos atomic.Int64
}

// Observe records one latency in seconds.
func (h *Histogram) Observe(seconds float64) {
	i := 0
	for i < HistBuckets && seconds > histBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	ns := seconds * float64(time.Second)
	// Clamp absurd observations: converting a float64 beyond the int64
	// range is implementation-defined and would corrupt the sum.
	if ns > float64(math.MaxInt64) {
		ns = float64(math.MaxInt64)
	}
	h.sumNanos.Add(int64(ns))
}

// HistSnapshot is a point-in-time copy of a Histogram, safe to ship in a
// control body and to aggregate across workers.
type HistSnapshot struct {
	// Counts are per-bucket (non-cumulative) observation counts; Inf
	// holds observations above the last finite bound.
	Counts [HistBuckets]int64
	Inf    int64
	Sum    float64 // seconds
}

// Snapshot copies the counters. Buckets are read independently, so a
// snapshot taken mid-observation may be skewed by one in-flight op —
// fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := 0; i < HistBuckets; i++ {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Inf = h.counts[HistBuckets].Load()
	s.Sum = time.Duration(h.sumNanos.Load()).Seconds()
	return s
}

// Add accumulates another snapshot (cross-worker aggregation).
func (s HistSnapshot) Add(o HistSnapshot) HistSnapshot {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Inf += o.Inf
	s.Sum += o.Sum
	return s
}

// AppendHistogram renders the snapshot as one Prometheus histogram
// series set of family fam: cumulative `fam_bucket{...,le="..."}` rows
// ending in le="+Inf", then `fam_sum` and `fam_count`. labels is the
// label body without braces (e.g. `phase="comp"`) and may be empty.
// Every appended sample carries Fam=fam so WritePrometheus announces the
// family once as TYPE histogram.
func AppendHistogram(dst []Sample, fam, help, labels string, s HistSnapshot) []Sample {
	series := func(suffix, extra string) string {
		switch {
		case labels == "" && extra == "":
			return fam + suffix
		case labels == "":
			return fam + suffix + "{" + extra + "}"
		case extra == "":
			return fam + suffix + "{" + labels + "}"
		default:
			return fam + suffix + "{" + labels + "," + extra + "}"
		}
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		le := strconv.FormatFloat(histBounds[i], 'g', -1, 64)
		dst = append(dst, Sample{
			Name: series("_bucket", `le="`+le+`"`),
			Help: help, Type: PromHistogram, Fam: fam, Value: float64(cum),
		})
	}
	cum += s.Inf
	dst = append(dst,
		Sample{Name: series("_bucket", `le="+Inf"`),
			Type: PromHistogram, Fam: fam, Value: float64(cum)},
		Sample{Name: series("_sum", ""),
			Type: PromHistogram, Fam: fam, Value: s.Sum},
		Sample{Name: series("_count", ""),
			Type: PromHistogram, Fam: fam, Value: float64(cum)},
	)
	return dst
}
