// Package obs is the live runtime's telemetry subsystem: a low-overhead
// per-worker span recorder for the §IV-A subtask phases, phase latency
// histograms built on the same stream, and a Chrome-trace-event exporter
// so subtask overlap across co-located jobs is inspectable in Perfetto.
//
// Tracing is opt-in. A nil *Recorder is valid everywhere and records
// nothing — the instrumentation in the worker and the subtask executor
// compiles down to a nil check with zero allocations, keeping the
// zero-alloc hot paths of the data and compute planes intact (pinned by
// TestNilRecorderZeroAllocs).
package obs

import (
	"sync"
	"time"

	"harmony/internal/metrics"
)

// Version is the build version stamped into /healthz and the
// harmony_build_info metric; override at link time with
//
//	go build -ldflags "-X harmony/internal/obs.Version=v1.2.3"
var Version = "dev"

// Phase identifies one instrumented interval of a worker's subtask
// cycle.
type Phase uint8

// Phases. Comp/Pull/Push are subtask executions on their resource lane,
// WaitCPU/WaitNet are executor slot waits (queued behind another job's
// subtask, §IV-A runner queues), and Barrier is the iteration-boundary
// synchronization with the master (Fig. 7).
const (
	PhaseComp Phase = iota
	PhasePull
	PhasePush
	PhaseWaitCPU
	PhaseWaitNet
	PhaseBarrier
	// NumPhases sizes per-phase tables; keep it last.
	NumPhases
)

// String names the phase as it appears in metric labels and trace
// categories.
func (p Phase) String() string {
	switch p {
	case PhaseComp:
		return "comp"
	case PhasePull:
		return "pull"
	case PhasePush:
		return "push"
	case PhaseWaitCPU:
		return "wait_cpu"
	case PhaseWaitNet:
		return "wait_net"
	case PhaseBarrier:
		return "barrier"
	default:
		return "unknown"
	}
}

// IsComm reports whether the phase occupies the network resource.
func (p Phase) IsComm() bool { return p == PhasePull || p == PhasePush }

// Span is one recorded interval: a phase of one job's iteration on the
// recording worker. Start and End are wall-clock unix nanoseconds so
// spans from different processes align on one timeline.
type Span struct {
	// Seq is the recorder-local monotone sequence number, starting at 1.
	// Consumers resume collection with SpansAfter(lastSeq).
	Seq   uint64
	Phase Phase
	Job   string
	Iter  int
	Start int64
	End   int64
}

// TaggedSpan is a span annotated by the collector with cluster context
// the worker does not know: its machine and the co-location group the
// job belonged to at collection time.
type TaggedSpan struct {
	Span
	Machine string
	Group   string
}

// Recorder buffers spans in a bounded ring: recording is one mutex'd
// copy into a preallocated slot (no allocation), the sequence is
// monotone for the recorder's lifetime, and overflow drops the oldest
// spans — telemetry must never stall or grow the worker. Each Record
// also feeds the per-phase latency histogram.
//
// All methods are safe on a nil receiver (no-ops / zero values), so
// "tracing off" is represented by a nil recorder.
type Recorder struct {
	mu   sync.Mutex
	buf  []Span
	next uint64 // total spans ever recorded; last assigned Seq
	hist [NumPhases]metrics.Histogram
}

// DefaultSpanCapacity bounds the ring when callers pass 0: at ~80 bytes
// a span this is a few MB per worker, hours of spans at live iteration
// rates.
const DefaultSpanCapacity = 1 << 16

// NewRecorder creates a recorder holding up to capacity spans
// (DefaultSpanCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &Recorder{buf: make([]Span, capacity)}
}

// Record appends one span and feeds the phase histogram. Nil-safe and
// allocation-free.
func (r *Recorder) Record(phase Phase, job string, iter int, start, end time.Time) {
	if r == nil {
		return
	}
	if phase >= NumPhases || end.Before(start) {
		return
	}
	r.hist[phase].Observe(end.Sub(start).Seconds())
	r.mu.Lock()
	r.next++
	r.buf[(r.next-1)%uint64(len(r.buf))] = Span{
		Seq: r.next, Phase: phase, Job: job, Iter: iter,
		Start: start.UnixNano(), End: end.UnixNano(),
	}
	r.mu.Unlock()
}

// LastSeq reports the most recently assigned sequence number (0 before
// the first span).
func (r *Recorder) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// SpansAfter appends to dst every retained span with Seq > after, in
// sequence order. Spans already evicted by ring overflow are silently
// absent — the consumer sees a sequence gap and knows it fell behind.
func (r *Recorder) SpansAfter(after uint64, dst []Span) []Span {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lo := after + 1
	if n := uint64(len(r.buf)); r.next > n && lo <= r.next-n {
		lo = r.next - n + 1
	}
	for s := lo; s <= r.next; s++ {
		dst = append(dst, r.buf[(s-1)%uint64(len(r.buf))])
	}
	return dst
}

// HistSnapshots copies the per-phase latency histograms, indexable by
// Phase. Zero-valued on a nil recorder.
func (r *Recorder) HistSnapshots() [NumPhases]metrics.HistSnapshot {
	var out [NumPhases]metrics.HistSnapshot
	if r == nil {
		return out
	}
	for p := range out {
		out[p] = r.hist[p].Snapshot()
	}
	return out
}
