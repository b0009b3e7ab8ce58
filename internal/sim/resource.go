package sim

import (
	"fmt"
	"os"

	"harmony/internal/simtime"
)

// debugResource dumps task state when a same-instant loop is detected.
var debugResource = os.Getenv("SIMTIME_DEBUG_PROGRESS") != ""

// task is one subtask in flight on a resource. Work is measured in
// "elapsed-equivalent seconds": the wall time the subtask would take if it
// ran alone on the resource at rate 1.
type task struct {
	remaining float64 // elapsed-equivalent seconds left
	rate      float64 // current progress per wall second
	// busyPerProgress converts progress to resource busy time: 1.0 for
	// COMP subtasks (the CPU is pegged while computing), DefaultNetBusyFraction
	// for COMM subtasks (the link idles while servers process requests).
	busyPerProgress float64
	done            func()
}

// sharePolicy computes the progress rates of the currently active tasks,
// in arrival order. Implementations encode the execution disciplines the
// paper compares.
type sharePolicy interface {
	// maxActive bounds concurrent tasks; 0 means unlimited.
	maxActive() int
	// rates fills out[i] with the progress rate of active task i.
	rates(out []float64)
}

// exclusivePolicy runs one task at a time at full rate: Harmony's COMP
// subtask executor ("a single CPU subtask is executed at a time", §IV-A).
type exclusivePolicy struct{}

func (exclusivePolicy) maxActive() int { return 1 }
func (exclusivePolicy) rates(out []float64) {
	for i := range out {
		out[i] = 1
	}
}

// primarySecondaryPolicy runs up to two tasks: the primary at full rate,
// and a secondary that progresses only through the primary's idle gaps,
// yielding on contention (§IV-A). With busy fraction β, a solo COMM
// subtask leaves (1−β) of the link idle; the secondary claims exactly
// that, so its progress rate is (1−β)/β of nominal.
type primarySecondaryPolicy struct {
	busyFraction float64
}

func (primarySecondaryPolicy) maxActive() int { return 2 }
func (p primarySecondaryPolicy) rates(out []float64) {
	if len(out) > 0 {
		out[0] = 1
	}
	if len(out) > 1 {
		out[1] = (1 - p.busyFraction) / p.busyFraction
	}
}

// fairSharePolicy models uncoordinated co-location (the naive baseline,
// §II-B): k concurrent tasks time-slice the resource and additionally pay
// a contention penalty (cache thrash, connection multiplexing) that grows
// with k.
type fairSharePolicy struct {
	penalty float64
}

func (fairSharePolicy) maxActive() int { return 0 }
func (p fairSharePolicy) rates(out []float64) {
	k := len(out)
	if k == 0 {
		return
	}
	r := 1 / (float64(k) * (1 + p.penalty*float64(k-1)))
	for i := range out {
		out[i] = r
	}
}

// resource is a fluid-flow shared resource (the CPU cores or the network
// link of a group's representative machine). Tasks queue in FIFO order;
// the policy decides how many run and how fast. Progress is advanced
// lazily on every state change and an engine event fires at the earliest
// completion.
type resource struct {
	eng    *simtime.Engine
	policy sharePolicy
	active []*task
	queue  []*task
	last   simtime.Time
	// onBusy integrates resource busy time: called with the busy rate
	// that held over [from, to].
	onBusy func(busyRate float64, from, to simtime.Time)
	// collided, when non-nil, accumulates seconds during which two or
	// more tasks were active concurrently — on a link under the
	// contention policy that is exactly the goodput-burning collision
	// window the net-aware placement tries to avoid.
	collided   *float64
	completion *simtime.Event
	// completeFn is the method value passed to the engine, bound once; a
	// fresh r.complete per reschedule would allocate a closure each time.
	completeFn func()
	rateBuf    []float64
	// free and finBuf recycle task structs and the per-completion finished
	// list. The event loop is single-threaded, so a task returned to free
	// after its done callback can never still be referenced.
	free   []*task
	finBuf []*task
}

func newResource(eng *simtime.Engine, policy sharePolicy, onBusy func(float64, simtime.Time, simtime.Time)) *resource {
	r := &resource{eng: eng, policy: policy, last: eng.Now(), onBusy: onBusy}
	r.completeFn = r.complete
	return r
}

// submit enqueues a subtask with the given solo duration in seconds.
// Non-positive durations complete synchronously on the next event tick.
func (r *resource) submit(soloSeconds, busyPerProgress float64, done func()) {
	if soloSeconds <= 0 {
		soloSeconds = 1e-9
	}
	var t *task
	if n := len(r.free); n > 0 {
		t = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		t = new(task)
	}
	*t = task{remaining: soloSeconds, busyPerProgress: busyPerProgress, done: done}
	r.advance()
	r.queue = append(r.queue, t)
	r.admit()
	r.reschedule()
}

// idle reports whether nothing is running or queued.
func (r *resource) idle() bool { return len(r.active) == 0 && len(r.queue) == 0 }

// advance integrates progress (and busy time) from the last update to now.
func (r *resource) advance() {
	now := r.eng.Now()
	dt := now.Sub(r.last).Seconds()
	if dt > 0 && len(r.active) > 1 && r.collided != nil {
		*r.collided += dt
	}
	if dt > 0 && len(r.active) > 0 {
		var busyRate float64
		for _, t := range r.active {
			t.remaining -= t.rate * dt
			if t.remaining < 0 {
				t.remaining = 0
			}
			busyRate += t.busyPerProgress * t.rate
		}
		if busyRate > 1 {
			busyRate = 1
		}
		if r.onBusy != nil && busyRate > 0 {
			r.onBusy(busyRate, r.last, now)
		}
	}
	r.last = now
}

// admit moves queued tasks into the active set up to the policy bound and
// refreshes rates.
func (r *resource) admit() {
	max := r.policy.maxActive()
	for (max == 0 || len(r.active) < max) && len(r.queue) > 0 {
		r.active = append(r.active, r.queue[0])
		// Pop by copy-down so the slice keeps its capacity (re-slicing the
		// front leaks it) and the vacated tail slot drops its reference.
		n := len(r.queue)
		copy(r.queue, r.queue[1:])
		r.queue[n-1] = nil
		r.queue = r.queue[:n-1]
	}
	if cap(r.rateBuf) < len(r.active) {
		r.rateBuf = make([]float64, len(r.active))
	}
	rates := r.rateBuf[:len(r.active)]
	r.policy.rates(rates)
	for i, t := range r.active {
		t.rate = rates[i]
	}
}

// reschedule plans the next completion event.
func (r *resource) reschedule() {
	if r.completion != nil {
		// The resource is the event's sole holder, so the canceled struct
		// goes straight back to the engine's freelist.
		r.eng.Cancel(r.completion)
		r.eng.Release(r.completion)
		r.completion = nil
	}
	var next float64 = -1
	for _, t := range r.active {
		if t.rate <= 0 {
			continue
		}
		eta := t.remaining / t.rate
		if next < 0 || eta < next {
			next = eta
		}
	}
	if next < 0 {
		return
	}
	r.completion = r.eng.After(simtime.FromSeconds(next), r.completeFn)
}

// complete fires when at least one active task has drained.
func (r *resource) complete() {
	// The event that fired is r.completion; it already left the queue and
	// nothing else references it.
	r.eng.Release(r.completion)
	r.completion = nil
	if debugResource && r.eng.SameInstant() > 1<<20 {
		for i, t := range r.active {
			fmt.Fprintf(os.Stderr, "  loop task %d: remaining=%g rate=%g busy=%g\n",
				i, t.remaining, t.rate, t.busyPerProgress)
		}
	}
	r.advance()
	finished := r.finBuf[:0]
	kept := r.active[:0]
	for _, t := range r.active {
		// A task also counts as finished when its remaining ETA is below
		// the engine's microsecond resolution — otherwise the completion
		// event would reschedule at the same instant forever.
		if t.remaining <= 1e-9 || (t.rate > 0 && t.remaining/t.rate < 1e-6) {
			finished = append(finished, t)
		} else {
			kept = append(kept, t)
		}
	}
	r.active = kept
	r.admit()
	r.reschedule()
	for _, t := range finished {
		// Recycle before the callback: the struct is unreferenced once it
		// left active, and done may submit again, reusing it immediately.
		done := t.done
		*t = task{}
		r.free = append(r.free, t)
		if done != nil {
			done()
		}
	}
	r.finBuf = finished[:0]
}
