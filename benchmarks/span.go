package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"harmony/internal/obs"
)

// A span is one call the harness made into a layer: an HTTP operation, an
// RPC, a probe call. Spans of one operation share Op; Parent is the span
// that caused this one (0 for the operation's root).
type span struct {
	ID     int64
	Parent int64
	Op     int64
	Layer  string
	Name   string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// off: every method is a no-op, so the untraced path costs a nil check.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	counts map[string]int64
	nextID int64
	nextOp int64
}

func newTracer() *tracer { return &tracer{counts: make(map[string]int64)} }

// spanRef names an open span; the zero value is "no span".
type spanRef struct {
	id, op int64
	idx    int
}

// begin opens a span under parent (the zero spanRef starts a new operation).
func (t *tracer) begin(parent spanRef, layer, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	op := parent.op
	if parent.id == 0 {
		t.nextOp++
		op = t.nextOp
	}
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent.id, Op: op,
		Layer: layer, Name: name, Start: now})
	// The count is taken where the span opens, so ratios of counts are
	// measured at the same boundary as the times.
	t.counts[layer+"."+name]++
	return spanRef{id: t.nextID, op: op, idx: len(t.spans) - 1}
}

func (t *tracer) end(r spanRef) {
	if t == nil || r.id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[r.idx].End = now
	t.mu.Unlock()
}

func (t *tracer) snapshot() ([]span, map[string]int64) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	return append([]span(nil), t.spans...), counts
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Overlapping children are merged
// first, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int64]time.Duration {
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for id, s := range byID {
		kids := children[id]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start.Before(kids[b].Start) })
		var covered time.Duration
		var curLo, curHi time.Time
		open := false
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo.Before(s.Start) {
				lo = s.Start
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if !hi.After(lo) {
				continue
			}
			if open && !lo.After(curHi) {
				if hi.After(curHi) {
					curHi = hi
				}
				continue
			}
			if open {
				covered += curHi.Sub(curLo)
			}
			curLo, curHi, open = lo, hi, true
		}
		if open {
			covered += curHi.Sub(curLo)
		}
		out[id] = s.dur() - covered
	}
	return out
}

// layerSelfSeconds sums self time per layer over finished spans.
func layerSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		out[s.Layer] += self[s.ID].Seconds()
	}
	return out
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the harness spans (process "harness", one track
// per layer) and the system's own worker spans (one process per machine,
// one track per phase) as one Chrome trace-event file for Perfetto.
func writeChromeTrace(path string, spans []span, counts map[string]int64, system []obs.TaggedSpan) error {
	const harnessPID = 1
	events := []traceEvent{{Name: "process_name", Ph: "M", PID: harnessPID,
		Args: map[string]any{"name": "harness", "counts": counts}}}
	layerTID := make(map[string]int)
	self := selfTimes(spans)
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		tid, ok := layerTID[s.Layer]
		if !ok {
			tid = len(layerTID) + 1
			layerTID[s.Layer] = tid
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: harnessPID, TID: tid,
				Args: map[string]any{"name": s.Layer}})
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.UnixNano()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			PID: harnessPID, TID: tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op,
				"self_us": float64(self[s.ID].Nanoseconds()) / 1e3},
		})
	}
	machinePID := make(map[string]int)
	for _, s := range system {
		pid, ok := machinePID[s.Machine]
		if !ok {
			pid = harnessPID + 1 + len(machinePID)
			machinePID[s.Machine] = pid
			events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": s.Machine}})
			for p := obs.Phase(0); p < obs.NumPhases; p++ {
				events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: int(p) + 1,
					Args: map[string]any{"name": p.String()}})
			}
		}
		events = append(events, traceEvent{
			Name: s.Job + " " + s.Phase.String(), Cat: s.Phase.String(), Ph: "X",
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			PID: pid, TID: int(s.Phase) + 1,
			Args: map[string]any{"job": s.Job, "iter": s.Iter, "group": s.Group},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
