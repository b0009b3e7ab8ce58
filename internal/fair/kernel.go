package fair

import "math"

// This file is the admission kernel (DESIGN.md §13): fair order, the
// borrow gate, first-fit backfill, the reclaim scan and victim choice are
// decided here and nowhere else. The live master, the tick simulator
// (experiment.go) and replay's what-if verdicts are drivers: they build a
// View, supply a Place and execute the Decision.

// View is the entire policy input of one decision.
type View struct {
	// Total is the cluster size in workers; Free counts the workers no
	// deployed job occupies.
	Total, Free int
	// Usage is what each queue's deployed jobs occupy (see Usage).
	Usage Usage
	// Held is the admission queue, in any order.
	Held []Held
	// Running lists the deployed jobs reclaim may suspend.
	Running []Running
}

// Place is the one thing that differs between drivers: whether h can be
// placed right now on at most limit workers, and why not when it cannot.
// The live master scores the job into its plan (Eq. 1/3) or onto free
// workers; the simulator asks only whether the gang fits.
type Place func(h Held, limit int) (ok bool, reason string)

// Action is what a Decision asks its driver to do.
type Action int

const (
	// Wait: no held job places and no reclaim would unblock one.
	Wait Action = iota
	// Admit: Place accepted Decision.Job; deploy it.
	Admit
	// Preempt: suspend Decision.Victims so that Decision.Job's gang fits,
	// then decide again.
	Preempt
)

// Hold is one job the decision visited and did not place.
type Hold struct {
	Job    string
	Reason string // one of the Hold* constants
}

// Decision is the kernel's verdict on a View.
type Decision struct {
	Action Action
	// Job is the admitted job, or the beneficiary of a preemption.
	Job Held
	// Victims are the running jobs to suspend (Preempt only).
	Victims []Running
	// Holds lists every job visited before the verdict, with its reason.
	Holds []Hold
}

// Cap is the borrow gate as a number: the most workers a job of the queue
// may place on. While another queue is under its guarantee with jobs held,
// that is the queue's remaining quota headroom (possibly negative);
// otherwise borrowing is work-conserving and the cap is unbounded.
func (s *Scheduler) Cap(v View, queue string) int {
	if !s.BorrowGated(queue, v.Held, v.Usage, v.Total) {
		return math.MaxInt
	}
	return s.QuotaWorkers(queue, v.Total) - v.Usage[queue]
}

// Try is the kernel's step for one job: the gate, then the driver's
// placement. Decide applies it to the queue in fair order; the master also
// applies it to an arriving job ahead of the queue (the §IV-B4 arrival
// rule).
func (s *Scheduler) Try(v View, h Held, place Place) (ok bool, reason string) {
	return try(h, s.Cap(v, h.Queue), place)
}

func try(h Held, limit int, place Place) (ok bool, reason string) {
	if limit < h.Demand {
		reason = HoldQuota // the gang cannot fit under the gate; nothing to place
	} else if ok, reason = place(h, limit); ok {
		return true, ""
	}
	if h.Resumable {
		reason = HoldPreempted
	}
	return false, reason
}

// Decide makes one admission decision. It walks the held jobs in fair
// order and admits the first one the gate and the driver's Place accept,
// so a job that fits backfills past earlier ones that do not. When nothing
// places, it looks for the first held job whose queue would still be within
// its quota after admission (so a reclaim can never be reclaimed back) and
// whose gang the preemption of over-quota victims would free; victims that
// cannot cover the whole need are not touched.
func (s *Scheduler) Decide(v View, place Place) Decision {
	var d Decision
	ordered := s.Order(v.Held, v.Usage, v.Total)
	limit := 0
	for i, h := range ordered {
		if i == 0 || h.Queue != ordered[i-1].Queue {
			limit = s.Cap(v, h.Queue) // Order keeps a queue's jobs adjacent: once per queue
		}
		ok, reason := try(h, limit, place)
		if ok {
			d.Action, d.Job = Admit, h
			return d
		}
		if d.Holds == nil {
			d.Holds = make([]Hold, 0, len(ordered)-i)
		}
		d.Holds = append(d.Holds, Hold{Job: h.Job, Reason: reason})
	}
	for _, h := range ordered {
		if v.Usage[h.Queue]+h.Demand > s.QuotaWorkers(h.Queue, v.Total) {
			continue
		}
		need := h.Demand - v.Free
		if need <= 0 {
			continue // free workers suffice; this hold is not capacity-bound
		}
		if victims := s.Victims(h.Queue, need, v.Running, v.Usage, v.Total); victims != nil {
			d.Action, d.Job, d.Victims = Preempt, h, victims
			return d
		}
	}
	return d
}
