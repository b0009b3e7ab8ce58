package simtime

import (
	"container/heap"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
)

// debugProgress enables periodic progress dumps for diagnosing hot loops.
var debugProgress = os.Getenv("SIMTIME_DEBUG_PROGRESS") != ""

// ErrHalted is returned by Run when the engine is stopped via Halt before
// the event queue drains.
var ErrHalted = errors.New("simtime: engine halted")

// Event is a scheduled callback. Events with the same firing time run in
// the order they were scheduled, which keeps simulations deterministic.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	index    int // heap index, -1 once popped or canceled
	canceled bool
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event engine. It is not safe for
// concurrent use; simulations drive it from one goroutine.
type Engine struct {
	now         Time
	seq         uint64
	events      eventHeap
	free        []*Event
	halted      bool
	fired       uint64
	sameInstant uint64
}

// SameInstant reports how many consecutive events fired without the clock
// advancing (only tracked when SIMTIME_DEBUG_PROGRESS is set).
func (e *Engine) SameInstant() uint64 { return e.sameInstant }

// NewEngine returns an engine positioned at virtual time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len reports the number of pending (non-canceled) events.
func (e *Engine) Len() int {
	n := 0
	for _, ev := range e.events {
		if !ev.canceled {
			n++
		}
	}
	return n
}

// At schedules fn to run at the given instant. Scheduling in the past is an
// error in the caller; the engine clamps such events to the current time so
// that time never moves backwards.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: t, seq: e.seq, fn: fn}
	} else {
		ev = &Event{at: t, seq: e.seq, fn: fn}
	}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.index < 0 {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	heap.Remove(&e.events, ev.index)
}

// Release returns a fired or canceled event to the engine's freelist so a
// later At can reuse the struct. Only an event's sole holder may release
// it, and must drop its reference; releasing an event still pending in the
// queue is ignored. High-frequency schedulers (the resource completion
// loop) release their events to avoid allocating one per state change.
func (e *Engine) Release(ev *Event) {
	if ev == nil || ev.index >= 0 {
		return
	}
	*ev = Event{index: -1}
	e.free = append(e.free, ev)
}

// Halt stops a Run in progress after the current event returns.
func (e *Engine) Halt() { e.halted = true }

// Step fires the next pending event, advancing the clock to its time.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*Event)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// Run fires events until the queue drains or the deadline passes. When the
// deadline interrupts the run, the clock is advanced to the deadline.
// It returns ErrHalted if Halt was called during the run.
func (e *Engine) Run(deadline Time) error {
	e.halted = false
	for len(e.events) > 0 {
		next := e.events[0]
		if next.canceled {
			heap.Pop(&e.events)
			continue
		}
		if next.at > deadline {
			e.now = deadline
			return nil
		}
		heap.Pop(&e.events)
		if debugProgress {
			if next.at == e.now {
				e.sameInstant++
				if e.sameInstant > 1<<20 {
					fmt.Fprintf(os.Stderr, "simtime: loop event: %s\n",
						runtime.FuncForPC(reflect.ValueOf(next.fn).Pointer()).Name())
					if e.sameInstant > 1<<20+20 {
						panic(fmt.Sprintf("simtime: %d events at %s without progress", e.sameInstant, e.now))
					}
				}
			} else {
				e.sameInstant = 0
			}
		}
		e.now = next.at
		e.fired++
		if debugProgress && e.fired%(1<<21) == 0 {
			fmt.Fprintf(os.Stderr, "simtime: %d events, now=%s, pending=%d\n", e.fired, e.now, len(e.events))
		}
		next.fn()
		if e.halted {
			return ErrHalted
		}
	}
	if deadline != MaxTime && deadline > e.now {
		e.now = deadline
	}
	return nil
}

// RunAll fires events until the queue drains. It returns ErrHalted if Halt
// was called during the run.
func (e *Engine) RunAll() error { return e.Run(MaxTime) }
