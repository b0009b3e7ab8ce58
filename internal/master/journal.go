package master

import (
	"time"

	"harmony/internal/core"
)

// Decision kinds recorded in the journal.
const (
	EventAdmitInitial = "admit_initial"
	EventAdmitArrival = "admit_arrival"
	EventHold         = "hold"
	EventQueueDrain   = "queue_drain"
	EventCancel       = "cancel"
	EventMigrate      = "migrate"
	// EventRecover requeues a job whose member was lost or failed, noting
	// the cause and the checkpoint iteration the job restarts from.
	EventRecover  = "recover"
	EventComplete = "complete"
	// EventPreempt and EventResume bracket a fair-scheduler reclaim
	// (DESIGN.md §13): preempt freezes the victim's measured T_itr/U at
	// suspension, resume stamps the model's prediction for the placement
	// the job restores onto.
	EventPreempt = "preempt"
	EventResume  = "resume"
	// EventCancelHeld marks a cancel of a never-admitted held job, so
	// replay can reconstruct queue state without guessing whether the
	// canceled name ever held workers.
	EventCancelHeld = "cancel_held"
)

// NoteDeployFailed prefixes the Note of the hold that compensates a
// placement whose deployment failed. Unlike an ordinary hold it takes the
// journaled placement back: the job never ran on that group, and replay
// drops the placement when it folds this event.
const NoteDeployFailed = "deploy failed: "

// Event is one scheduler decision: what the master did with a job, the
// model's predictions for the placement it chose (Eq. 1 and 3), and —
// once the job has run — the measured values beside them, so prediction
// error is auditable per decision rather than in aggregate.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind string    `json:"kind"`
	Job  string    `json:"job"`
	// Group is the worker set the decision placed the job on (empty for
	// holds and cancels of pending jobs).
	Group []string `json:"group,omitempty"`
	// Predicted values from the §IV-B2 model at decision time: the group
	// iteration seconds T_itr(g) of Eq. 1 and the utilization pair U(g)
	// of Eq. 3 for the group the job joined. Zero when the decision had
	// no placement to model (holds).
	PredictedIterSeconds float64 `json:"predicted_iter_seconds,omitempty"`
	PredictedCPUUtil     float64 `json:"predicted_cpu_util,omitempty"`
	PredictedNetUtil     float64 `json:"predicted_net_util,omitempty"`
	// Measured counterparts: iteration seconds are an EWMA of the wall
	// time between the job's barrier releases; utilization divides the
	// group's profiled subtask seconds by that measured iteration time.
	// Filled at read time while the job runs, frozen into the complete
	// event when it finishes, zero before the first measurement.
	MeasuredIterSeconds float64 `json:"measured_iter_seconds,omitempty"`
	MeasuredCPUUtil     float64 `json:"measured_cpu_util,omitempty"`
	MeasuredNetUtil     float64 `json:"measured_net_util,omitempty"`
	// Compatibility stamps: under Options.NetModel, the interleaving
	// solver's predicted link compatibility for the group the decision
	// placed the job on. Nothing fills the measured key; it stays because
	// the snapshot wire schema is frozen at v1.
	PredictedCompatibility float64 `json:"predicted_compatibility,omitempty"`
	MeasuredCompatibility  float64 `json:"measured_compatibility,omitempty"`
	Note                   string  `json:"note,omitempty"`
}

// DefaultJournalCapacity bounds journal retention; older events are
// evicted once the ring is full, keeping the master's footprint constant
// over arbitrarily long runs.
const DefaultJournalCapacity = 512

// journal is a bounded ring of decision events with monotone sequence
// numbers. The loop owns it.
type journal struct {
	buf  []Event
	next uint64
}

func newJournal(capacity int) *journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &journal{buf: make([]Event, capacity)}
}

// append stamps the event with the next sequence number and the current
// time, evicting the oldest entry when the ring is full.
func (l *journal) append(e Event) {
	l.next++
	e.Seq = l.next
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.buf[(l.next-1)%uint64(len(l.buf))] = e
}

// evicted is how many events the full ring has overwritten.
func (l *journal) evicted() int64 {
	return max(0, int64(l.next)-int64(len(l.buf)))
}

// snapshotSince returns retained events with Seq > since matching kind
// (every kind when empty), in sequence order. The copy is bounded to the
// slice actually requested, so an incremental poller pays for its delta,
// not the whole ring.
func (l *journal) snapshotSince(since uint64, kind string) []Event {
	n := uint64(len(l.buf))
	lo := uint64(1)
	if l.next > n {
		lo = l.next - n + 1
	}
	if since >= lo {
		lo = since + 1
	}
	if lo > l.next {
		return nil
	}
	out := make([]Event, 0, l.next-lo+1)
	for seq := lo; seq <= l.next; seq++ {
		e := l.buf[(seq-1)%n]
		if kind != "" && e.Kind != kind {
			continue
		}
		out = append(out, e)
	}
	return out
}

// predictedEvent is the one stamping helper shared by every decision
// path that journals a placement (admit, queue drain, resume, migrate):
// it fills the Eq. 1/Eq. 3 predictions and,
// under the net model, the group's predicted link compatibility. The
// prediction comes from the live plan's Scorer (or core.PredictGroup for a
// new group) — the stamp never triggers a model recomputation of its own.
func (m *Master) predictedEvent(e Event, p core.GroupPrediction) Event {
	e.PredictedIterSeconds = p.IterSeconds
	e.PredictedCPUUtil, e.PredictedNetUtil = p.CPUUtil, p.NetUtil
	if m.opts.NetModel {
		e.PredictedCompatibility = p.Compatibility
	}
	return e
}

// stampJobPlacement fills the event's predicted fields for the group e.Job
// currently occupies in the live plan, returning e unchanged when the job
// has no placement.
func (m *Master) stampJobPlacement(e Event) Event {
	lp := m.currentPlan()
	if gi, ok := lp.plan.FindJob(e.Job); ok {
		e = m.predictedEvent(e, lp.scorer.Prediction(gi))
	}
	return e
}

// measured reports the job's measured iteration seconds, once it has one,
// and its group's measured utilization in plan, the live plan. The EWMA
// tracks wall time between barrier releases; utilization divides the
// group's profiled subtask seconds (the same quantities the model predicts
// from) by the measured iteration time, so a prediction gap shows up
// directly.
func measured(plan core.Plan, name string, j *job) (iter, ucpu, unet float64) {
	iter = j.measIter
	if gi, ok := plan.FindJob(name); ok {
		g := plan.Groups[gi]
		ucpu = g.SumComp() / iter
		unet = g.SumNet() / iter
	}
	return iter, ucpu, unet
}

// removalEvent is the journal entry for a job leaving the live plan
// (complete, cancel, preempt, recover). It must be built while the job
// still counts as running: it freezes the group the job ran on, which
// labels the row in replay, and the final measured values, which the live
// plan can no longer produce once the status flips.
func (m *Master) removalEvent(kind, name string, j *job) Event {
	var iter, ucpu, unet float64
	if j.measIter > 0 {
		iter, ucpu, unet = measured(m.currentPlan().plan, name, j)
	}
	return Event{Kind: kind, Job: name, Group: names(j.workers),
		MeasuredIterSeconds: iter, MeasuredCPUUtil: ucpu, MeasuredNetUtil: unet}
}

// Events returns the decision journal, oldest first. Events for jobs
// still running are enriched with their current measured values; frozen
// measurements (stamped at completion) are kept as recorded.
func (m *Master) Events() []Event {
	return m.EventsSince(0, "")
}

// EventsSince returns journal events with Seq > since matching kind
// (every kind when empty), oldest first, enriched like Events.
func (m *Master) EventsSince(since uint64, kind string) []Event {
	var evs []Event
	m.read(func() {
		evs = m.journal.snapshotSince(since, kind)
		m.enrichEvents(evs)
	})
	return evs
}

// enrichEvents fills unmeasured events with their job's current measured
// values.
func (m *Master) enrichEvents(evs []Event) {
	type meas struct{ iter, ucpu, unet float64 }
	cache := make(map[string]meas)
	for i := range evs {
		e := &evs[i]
		if e.MeasuredIterSeconds != 0 {
			continue
		}
		mv, ok := cache[e.Job]
		if !ok {
			if j, live := m.jobs[e.Job]; live && j.measIter > 0 {
				mv.iter, mv.ucpu, mv.unet = measured(m.currentPlan().plan, e.Job, j)
			}
			cache[e.Job] = mv
		}
		e.MeasuredIterSeconds = mv.iter
		e.MeasuredCPUUtil = mv.ucpu
		e.MeasuredNetUtil = mv.unet
	}
}
