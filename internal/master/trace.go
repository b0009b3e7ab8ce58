package master

import (
	"sort"
	"strings"
	"sync"
	"time"

	"harmony/internal/obs"
)

// collectTimeout bounds each worker.stats call of a WorkerTotals pass. It
// is much shorter than a control call's minute so a /v1/trace, /v1/ps or
// /metrics scrape cannot park behind a dead worker; the scrape just misses
// that worker.
const collectTimeout = 5 * time.Second

// DefaultTraceRetention is how many tagged spans the master retains
// across collections when tracing is enabled.
const DefaultTraceRetention = 1 << 17

// traceState accumulates spans pulled from workers. Per-worker cursors
// make collection incremental: each worker.stats call only ships spans
// recorded since the previous collection.
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
	m.do(func() {
		if m.trace == nil {
			m.trace = &traceState{cursors: make(map[string]uint64), retention: retention}
		}
	})
}

// groupNames maps every deployed job to its group label: the comma-joined
// sorted names of its current workers.
func (m *Master) groupNames() map[string]string {
	out := make(map[string]string, len(m.jobs))
	for name, j := range m.jobs {
		ns := names(j.workers)
		sort.Strings(ns)
		out[name] = strings.Join(ns, ",")
	}
	return out
}

// cursor is the sequence number of the last span ingested from machine.
func (t *traceState) cursor(machine string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cursors[machine]
}

// ingest appends machine's spans past its cursor to the retention buffer,
// tagging each with its job's group. A span at or below the cursor came
// in twice: a concurrent collection asked from the same cursor and
// ingested it first. A gap before a new span is spans the worker's ring
// evicted before anyone collected them.
func (t *traceState) ingest(machine string, spans []obs.Span, groups map[string]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.cursors[machine]
	for _, s := range spans {
		if s.Seq <= cur {
			continue
		}
		t.lost += int64(s.Seq - cur - 1)
		cur = s.Seq
		t.spans = append(t.spans, obs.TaggedSpan{Span: s, Machine: machine, Group: groups[s.Job]})
	}
	t.cursors[machine] = cur
	if over := len(t.spans) - t.retention; over > 0 {
		t.lost += int64(over)
		t.spans = append(t.spans[:0], t.spans[over:]...)
	}
}

// retained copies the retained spans (nil when there are none).
func (t *traceState) retained() []obs.TaggedSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]obs.TaggedSpan(nil), t.spans...)
}
