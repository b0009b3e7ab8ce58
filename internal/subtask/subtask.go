// Package subtask implements the fine-grained execution model of §IV-A
// for the live runtime: each worker decomposes its jobs' iterations into
// COMP and COMM subtasks and runs them through per-resource runner
// queues — one COMP subtask at a time (it saturates the cores), and up to
// two concurrent COMM subtasks (a secondary fills the primary's idle
// gaps while yielding on contention).
package subtask

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/obs"
)

// Kind classifies a subtask by its dominant resource.
type Kind int

// Subtask kinds of §IV-A. PULL and PUSH are both network-dominant COMM
// subtasks.
const (
	Comp Kind = iota + 1
	Pull
	Push
)

// String names the kind as the paper does.
func (k Kind) String() string {
	switch k {
	case Comp:
		return "COMP"
	case Pull:
		return "PULL"
	case Push:
		return "PUSH"
	default:
		return "Subtask(?)"
	}
}

// phase maps the kind to its telemetry phase.
func (k Kind) phase() obs.Phase {
	switch k {
	case Comp:
		return obs.PhaseComp
	case Pull:
		return obs.PhasePull
	default:
		return obs.PhasePush
	}
}

// ErrClosed is returned when submitting to a closed executor.
var ErrClosed = errors.New("subtask: executor closed")

// CompConcurrency and CommConcurrency encode §IV-A's executor rules.
const (
	CompConcurrency = 1
	CommConcurrency = 2
)

// Stats summarizes executed subtasks per kind.
type Stats struct {
	Executed map[Kind]int
	// Busy accumulates per-resource busy wall time.
	CPUBusy time.Duration
	NetBusy time.Duration
}

// Executor is one worker's pair of runner queues. Submitted subtasks run
// asynchronously in FIFO order per resource; the done callback fires from
// the executor goroutine when the subtask's work function returns.
type Executor struct {
	mu      sync.Mutex
	cond    *sync.Cond
	cpuQ    []*item
	netQ    []*item
	cpuRun  int
	netRun  int
	closed  bool
	wg      sync.WaitGroup
	stats   Stats
	started time.Time

	// rec, when set, receives an execution span per subtask plus a
	// slot-wait span for the time it sat queued behind other jobs'
	// subtasks. Nil (the default) disables tracing with zero overhead
	// beyond the atomic load.
	rec atomic.Pointer[obs.Recorder]
}

type item struct {
	kind Kind
	job  string
	iter int
	// enq stamps submission time for the slot-wait span; zero when
	// tracing is off.
	enq  time.Time
	work func()
	done func()
}

// NewExecutor starts the runner goroutines (one CPU lane, two network
// lanes, per §IV-A).
func NewExecutor() *Executor {
	e := &Executor{stats: Stats{Executed: make(map[Kind]int)}, started: time.Now()}
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < CompConcurrency; i++ {
		e.wg.Add(1)
		go e.runner(true)
	}
	for i := 0; i < CommConcurrency; i++ {
		e.wg.Add(1)
		go e.runner(false)
	}
	return e
}

// SetRecorder attaches a span recorder; every subsequent subtask emits
// an execution span and a slot-wait span tagged with its job and
// iteration. Pass nil to disable.
func (e *Executor) SetRecorder(r *obs.Recorder) { e.rec.Store(r) }

// SubmitAt enqueues a subtask for the given job. work runs on the resource
// lane; done (optional) runs right after on the same goroutine. iter is the
// job iteration the subtask belongs to, so recorded spans line up with
// barrier rounds in the trace.
func (e *Executor) SubmitAt(kind Kind, job string, iter int, work func(), done func()) error {
	it := &item{kind: kind, job: job, iter: iter, work: work, done: done}
	if e.rec.Load() != nil {
		it.enq = time.Now()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if kind == Comp {
		e.cpuQ = append(e.cpuQ, it)
	} else {
		e.netQ = append(e.netQ, it)
	}
	e.cond.Broadcast()
	return nil
}

func (e *Executor) runner(cpu bool) {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for !e.closed {
			if cpu && len(e.cpuQ) > 0 {
				break
			}
			if !cpu && len(e.netQ) > 0 {
				break
			}
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		var it *item
		if cpu {
			it = e.cpuQ[0]
			e.cpuQ = e.cpuQ[1:]
			e.cpuRun++
		} else {
			it = e.netQ[0]
			e.netQ = e.netQ[1:]
			e.netRun++
		}
		e.mu.Unlock()

		start := time.Now()
		it.work()
		end := time.Now()
		elapsed := end.Sub(start)
		if rec := e.rec.Load(); rec != nil {
			if !it.enq.IsZero() {
				wait := obs.PhaseWaitNet
				if cpu {
					wait = obs.PhaseWaitCPU
				}
				rec.Record(wait, it.job, it.iter, it.enq, start)
			}
			rec.Record(it.kind.phase(), it.job, it.iter, start, end)
		}

		e.mu.Lock()
		e.stats.Executed[it.kind]++
		if cpu {
			e.stats.CPUBusy += elapsed
			e.cpuRun--
		} else {
			e.stats.NetBusy += elapsed
			e.netRun--
		}
		e.mu.Unlock()

		if it.done != nil {
			it.done()
		}
	}
}

// QueueDepths reports pending subtasks per resource (diagnostics).
func (e *Executor) QueueDepths() (cpu, net int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cpuQ), len(e.netQ)
}

// Stats returns a snapshot of execution counters.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Stats{
		Executed: make(map[Kind]int, len(e.stats.Executed)),
		CPUBusy:  e.stats.CPUBusy,
		NetBusy:  e.stats.NetBusy,
	}
	for k, v := range e.stats.Executed {
		out.Executed[k] = v
	}
	return out
}

// Utilization reports the CPU and network busy fractions since the
// executor started — the live analogue of the simulator's recorder.
func (e *Executor) Utilization() (cpu, net float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	wall := time.Since(e.started).Seconds()
	if wall <= 0 {
		return 0, 0
	}
	return e.stats.CPUBusy.Seconds() / wall,
		e.stats.NetBusy.Seconds() / (wall * CommConcurrency)
}

// Close drains nothing: queued subtasks are discarded, running ones
// finish, and the runner goroutines exit.
func (e *Executor) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.cpuQ, e.netQ = nil, nil
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}
