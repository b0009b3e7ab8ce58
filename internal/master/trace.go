package master

import (
	"sort"
	"strings"
	"sync"
	"time"

	"harmony/internal/metrics"
	"harmony/internal/obs"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// collectTimeout bounds every telemetry Stats call (spans, worker totals,
// PS stripes). It is much shorter than a control call's minute so a
// /v1/trace, /v1/ps or /metrics scrape cannot park behind a dead worker;
// the scrape just misses that worker.
const collectTimeout = 5 * time.Second

// DefaultTraceRetention is how many tagged spans the master retains
// across collections when tracing is enabled.
const DefaultTraceRetention = 1 << 17

// traceState accumulates spans pulled from workers. Per-worker cursors
// make collection incremental: each Stats call only ships spans recorded
// since the previous collection.
type traceState struct {
	mu        sync.Mutex
	cursors   map[string]uint64
	spans     []obs.TaggedSpan
	retention int
	lost      int64 // Counters.SpansLost
}

// EnableTracing turns on cluster span collection, retaining up to
// retention spans (<= 0 selects DefaultTraceRetention). Workers record
// spans only when started with tracing themselves; the master simply
// collects whatever they report.
func (m *Master) EnableTracing(retention int) {
	if retention <= 0 {
		retention = DefaultTraceRetention
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.trace == nil {
		m.trace = &traceState{cursors: make(map[string]uint64), retention: retention}
	}
}

// TracingEnabled reports whether the master collects spans.
func (m *Master) TracingEnabled() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.trace != nil
}

// workerNamesLocked lists a job's current worker names.
func (m *Master) workerNamesLocked(j *job) []string {
	names := make([]string, len(j.workers))
	for i, wi := range j.workers {
		names[i] = m.workers[wi].name
	}
	return names
}

// groupLabelLocked is the group key for a job's current worker set: the
// comma-joined sorted worker names.
func (m *Master) groupLabelLocked(j *job) string {
	names := m.workerNamesLocked(j)
	sort.Strings(names)
	return strings.Join(names, ",")
}

// groupNamesLocked maps every deployed job to its group label.
func (m *Master) groupNamesLocked() map[string]string {
	out := make(map[string]string, len(m.jobs))
	for name, j := range m.jobs {
		out[name] = m.groupLabelLocked(j)
	}
	return out
}

// CollectSpans pulls new spans from every worker (best effort: a worker
// mid-restart is skipped) into the bounded retention buffer and returns
// a snapshot of all retained spans, tagged with the recording machine
// and the job's current group. Returns nil when tracing is disabled.
func (m *Master) CollectSpans() []obs.TaggedSpan {
	m.mu.RLock()
	t := m.trace
	if t == nil {
		m.mu.RUnlock()
		return nil
	}
	refs := append([]workerRef(nil), m.workers...)
	groups := m.groupNamesLocked()
	m.mu.RUnlock()

	type haul struct {
		machine string
		spans   []obs.Span
	}
	hauls := make([]haul, 0, len(refs))
	for _, r := range refs {
		t.mu.Lock()
		cursor := t.cursors[r.name]
		t.mu.Unlock()
		st, err := rpc.Invoke[worker.StatsArgs, worker.StatsReply](r.client,
			worker.MethodStats, worker.StatsArgs{SpanAfter: cursor}, collectTimeout)
		if err != nil {
			continue
		}
		hauls = append(hauls, haul{machine: r.name, spans: st.Spans})
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range hauls {
		// A haul starting past the cursor's successor: the worker's ring
		// evicted the spans in between.
		if cur := t.cursors[h.machine]; len(h.spans) > 0 && h.spans[0].Seq > cur+1 {
			t.lost += int64(h.spans[0].Seq - cur - 1)
		}
		for _, s := range h.spans {
			if s.Seq > t.cursors[h.machine] {
				t.cursors[h.machine] = s.Seq
			}
			t.spans = append(t.spans, obs.TaggedSpan{
				Span: s, Machine: h.machine, Group: groups[s.Job],
			})
		}
	}
	if over := len(t.spans) - t.retention; over > 0 {
		t.lost += int64(over)
		t.spans = append(t.spans[:0], t.spans[over:]...)
	}
	return append([]obs.TaggedSpan(nil), t.spans...)
}

// PhaseStats aggregates per-phase latency histograms across workers
// (best effort, like the other Stats aggregators). ok is false when
// tracing is disabled on this master.
func (m *Master) PhaseStats() (hist [obs.NumPhases]metrics.HistSnapshot, ok bool) {
	m.mu.RLock()
	enabled := m.trace != nil
	refs := append([]workerRef(nil), m.workers...)
	m.mu.RUnlock()
	if !enabled {
		return hist, false
	}
	for _, r := range refs {
		st, err := rpc.Invoke[worker.StatsArgs, worker.StatsReply](r.client,
			worker.MethodStats, worker.StatsArgs{SpanAfter: worker.SpanCursorNone},
			collectTimeout)
		if err != nil {
			continue
		}
		for p := 0; p < int(obs.NumPhases); p++ {
			hist[p] = hist[p].Add(st.PhaseHist[p])
		}
	}
	return hist, true
}

// MeasuredOverlap reports, per co-location group, the measured fraction
// of machine busy time where COMP and COMM subtasks ran simultaneously —
// the live counterpart of the model's utilization claim. Collection runs
// first so the measure covers the freshest spans; nil when tracing is
// disabled.
func (m *Master) MeasuredOverlap() map[string]float64 {
	spans := m.CollectSpans()
	if spans == nil {
		return nil
	}
	return obs.OverlapByGroup(spans)
}
