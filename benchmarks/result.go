package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// value is one reported number. N is the sample count behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// roundOut is what one round of a workload hands back: one set-up, one or
// more timed units of fixed work, pooled latency samples, and the verdict of
// the output checks.
type roundOut struct {
	setup time.Duration
	// makespans holds the wall seconds of each unit of fixed work in the
	// round: one for the live and churn workloads, one per pass for
	// sim_paper.
	makespans []float64
	// op and step are the samples (ms) behind op_ms and step_ms, each
	// reported as the median over all rounds' samples; spec.go says what
	// fills each role in each workload. tail holds the samples op_tail_ms
	// takes its percentile of, when they are not op's own.
	op, step []float64
	tail     []float64
	// extra holds further named samples that are printed and saved but are
	// not part of the driver's contract.
	extra map[string]*sampleSet

	attempted int
	failed    int
	problems  []string
	outcomes  *outcomes

	// layer holds the workload-derived per-layer metrics of a traced round.
	layer map[string]float64
	// measured is the wall time the round spent measuring (set-up and
	// checks excluded); the runner stops once the rounds add up to --seconds.
	measured time.Duration
}

func (r *roundOut) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// sampleSet is a named sample with its unit. It is reduced to the statistic
// its name asks for: _p99 and _max by those, everything else by the median.
type sampleSet struct {
	unit string
	xs   []float64
}

func (r *roundOut) addExtra(name, unit string, vs ...float64) {
	if r.extra == nil {
		r.extra = make(map[string]*sampleSet)
	}
	set := r.extra[name]
	if set == nil {
		set = &sampleSet{unit: unit}
		r.extra[name] = set
	}
	set.xs = append(set.xs, vs...)
}

// runResult is one workload run: end-to-end metrics from the untraced
// rounds, per-layer metrics when the run was traced.
type runResult struct {
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Loop     string  `json:"loop"`
	Clients  int     `json:"clients"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Rounds   int     `json:"rounds"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	// Outcomes counts expected outcomes per kind; Unexpected counts
	// unclassified HTTP statuses (each is also a failure).
	Outcomes   map[string]int `json:"outcomes,omitempty"`
	Unexpected int            `json:"unexpected_status"`

	EndToEnd map[string]value `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
	// Extra are named numbers outside the driver's contract: the issue's
	// workload-specific names (jct_p50_s, submit_p99_ms, ops_per_s, ...).
	Extra map[string]value `json:"extra,omitempty"`
	Sizes map[string]any   `json:"sizes"`
}

// aggregate folds rounds into a result. Untraced rounds feed the end-to-end
// metrics; traced rounds feed the workload-derived per-layer metrics and the
// tracing overhead.
func aggregate(spec workloadSpec, tailP float64, untraced, traced []*roundOut) *runResult {
	res := &runResult{Workload: spec.Name, Why: spec.Why, Loop: spec.Loop, Clients: spec.Clients,
		Rounds: len(untraced) + len(traced), Outcomes: map[string]int{},
		EndToEnd: map[string]value{}, Extra: map[string]value{}}
	all := newOutcomes()
	var setups, makespans, op, tail, step []float64
	extra := map[string]*sampleSet{}
	for _, r := range append(append([]*roundOut(nil), untraced...), traced...) {
		setups = append(setups, r.setup.Seconds())
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Problems = append(res.Problems, r.problems...)
		if r.outcomes != nil {
			all.merge(r.outcomes)
		}
	}
	for _, r := range untraced {
		makespans = append(makespans, r.makespans...)
		op = append(op, r.op...)
		if r.tail != nil {
			tail = append(tail, r.tail...)
		} else {
			tail = append(tail, r.op...)
		}
		step = append(step, r.step...)
		for k, set := range r.extra {
			if extra[k] == nil {
				extra[k] = &sampleSet{unit: set.unit}
			}
			extra[k].xs = append(extra[k].xs, set.xs...)
		}
	}
	res.Outcomes, res.Unexpected = all.snapshot()
	res.Problems = append(res.Problems, all.unexpectedWhat()...)
	res.Failed += res.Unexpected
	res.Correct = res.Failed == 0 && res.Attempted > 0

	put := func(name string, v float64, n int) {
		m, _ := findMetric(endToEnd, name)
		res.EndToEnd[name] = value{Value: v, Unit: m.Unit, N: n}
	}
	put("setup_s", median(setups), len(setups))
	put("makespan_s", median(makespans), len(makespans))
	put("op_ms", median(op), len(op))
	put("op_tail_ms", percentile(tail, tailP), len(tail))
	put("step_ms", median(step), len(step))
	put("peak_rss_mb", peakRSSMB(), 1)

	// The rule for tails: say when the pinned percentile has fewer than ten
	// samples beyond it, so a reader knows it is closer to a maximum.
	if samplesBeyond(len(tail), tailP) < 10 {
		rule, _ := tailPercentile(len(tail))
		res.Notes = append(res.Notes, fmt.Sprintf(
			"op_tail_ms is p%g of %d samples, fewer than ten beyond it; %d samples support p%g",
			tailP, len(tail), len(tail), rule))
	}
	for k, set := range extra {
		res.Extra[k] = value{Value: extraStat(k, set.xs), Unit: set.unit, N: len(set.xs)}
	}
	if len(traced) > 0 {
		res.Traced = true
		res.PerLayer = map[string]value{}
		sums := map[string]float64{}
		for _, r := range traced {
			for k, v := range r.layer {
				sums[k] += v
			}
		}
		for k, v := range sums {
			m, _ := findMetric(perLayer, k)
			res.PerLayer[k] = value{Value: v / float64(len(traced)), Unit: m.Unit, N: len(traced)}
		}
		var tracedSpans []float64
		for _, r := range traced {
			tracedSpans = append(tracedSpans, r.makespans...)
		}
		base := median(makespans)
		if base > 0 && len(tracedSpans) > 0 {
			res.PerLayer["obs.trace_overhead_frac"] = value{
				Value: (median(tracedSpans) - base) / base, Unit: "ratio", N: len(tracedSpans)}
		}
	}
	return res
}

// extraStat reduces an extra sample set by the statistic its name asks for.
func extraStat(name string, xs []float64) float64 {
	switch {
	case strings.Contains(name, "_p99"):
		return percentile(xs, 99)
	case strings.Contains(name, "_max"):
		return percentile(xs, 100)
	default:
		return median(xs)
	}
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (VmHWM); 0 where the file is missing.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
