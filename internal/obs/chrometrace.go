package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Trace-event track (tid) layout: one Perfetto "thread" per
// machine×resource, so co-located jobs' COMP and COMM subtasks render as
// stacked slices on shared tracks and their overlap is visible at a
// glance.
const (
	trackCPU = iota + 1
	trackNet
	trackCPUQueue
	trackNetQueue
	trackSync
)

func (p Phase) track() int {
	switch p {
	case PhaseComp:
		return trackCPU
	case PhasePull, PhasePush:
		return trackNet
	case PhaseWaitCPU:
		return trackCPUQueue
	case PhaseWaitNet:
		return trackNetQueue
	default:
		return trackSync
	}
}

var trackNames = map[int]string{
	trackCPU:      "cpu",
	trackNet:      "network",
	trackCPUQueue: "cpu queue",
	trackNetQueue: "network queue",
	trackSync:     "sync",
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (ph "X" complete events plus "M" metadata), accepted by Perfetto and
// chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders collected spans as Chrome trace-event JSON:
// one process per machine, one track per resource (cpu, network, the
// two executor queues, and barrier sync), slices named by job so two
// co-located jobs' subtasks are distinguishable on a shared track.
func WriteChromeTrace(w io.Writer, spans []TaggedSpan) error {
	machines := make([]string, 0, 4)
	seen := make(map[string]int)
	for _, s := range spans {
		if _, ok := seen[s.Machine]; !ok {
			seen[s.Machine] = 0
			machines = append(machines, s.Machine)
		}
	}
	sort.Strings(machines)
	for i, m := range machines {
		seen[m] = i + 1 // pid 0 renders oddly in some viewers
	}

	tr := chromeTrace{DisplayTimeUnit: "ms",
		TraceEvents: make([]chromeEvent, 0, len(spans)+6*len(machines))}
	for _, m := range machines {
		pid := seen[m]
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": m},
		})
		for tid := trackCPU; tid <= trackSync; tid++ {
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": trackNames[tid]},
			})
		}
	}
	for _, s := range spans {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Job + " " + s.Phase.String(),
			Cat:  s.Phase.String(),
			Ph:   "X",
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			PID:  seen[s.Machine],
			TID:  s.Phase.track(),
			Args: map[string]any{
				"job": s.Job, "iter": s.Iter, "group": s.Group, "seq": s.Seq,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// OverlapByGroup measures, per co-location group, the fraction of
// instrumented machine time where COMP and COMM subtasks ran
// simultaneously — the live check of the paper's §IV-A claim that
// co-located complementary jobs keep CPU and network busy at once.
// For each machine of a group, the union of COMP intervals is
// intersected with the union of PULL/PUSH intervals; the ratio is
// Σ intersections / Σ unions of all subtask activity.
//
// Only a group with spans in both phase classes is measured, so only such
// groups are in the map: a group whose spans are all COMP or all COMM has
// no ratio, not a ratio of 0.
func OverlapByGroup(spans []TaggedSpan) map[string]float64 {
	type key struct{ group, machine string }
	comp := make(map[key][]ival)
	comm := make(map[key][]ival)
	for _, s := range spans {
		k := key{s.Group, s.Machine}
		switch {
		case s.Phase == PhaseComp:
			comp[k] = append(comp[k], ival{s.Start, s.End})
		case s.Phase.IsComm():
			comm[k] = append(comm[k], ival{s.Start, s.End})
		}
	}
	overlap := make(map[string]int64)
	busy := make(map[string]int64)
	hasComp := make(map[string]bool)
	hasComm := make(map[string]bool)
	keys := make(map[key]bool)
	for k := range comp {
		keys[k] = true
	}
	for k := range comm {
		keys[k] = true
	}
	for k := range keys {
		cu := mergeIvals(comp[k])
		nu := mergeIvals(comm[k])
		if lenIvals(cu) > 0 {
			hasComp[k.group] = true
		}
		if lenIvals(nu) > 0 {
			hasComm[k.group] = true
		}
		overlap[k.group] += intersectSeconds(cu, nu)
		busy[k.group] += lenIvals(mergeIvals(append(cu, nu...)))
	}
	ratio := make(map[string]float64, len(busy))
	for g, b := range busy {
		if hasComp[g] && hasComm[g] {
			ratio[g] = float64(overlap[g]) / float64(b)
		}
	}
	return ratio
}

type ival struct{ s, e int64 }

// mergeIvals returns the sorted union of the intervals.
func mergeIvals(in []ival) []ival {
	if len(in) == 0 {
		return nil
	}
	sorted := append([]ival(nil), in...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].s < sorted[b].s })
	out := sorted[:1]
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.s <= last.e {
			if iv.e > last.e {
				last.e = iv.e
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// intersectSeconds sums the pairwise intersection of two interval
// unions (both sorted and disjoint).
func intersectSeconds(a, b []ival) int64 {
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		s := max64(a[i].s, b[j].s)
		e := min64(a[i].e, b[j].e)
		if e > s {
			total += e - s
		}
		if a[i].e < b[j].e {
			i++
		} else {
			j++
		}
	}
	return total
}

func lenIvals(in []ival) int64 {
	var total int64
	for _, iv := range in {
		total += iv.e - iv.s
	}
	return total
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
