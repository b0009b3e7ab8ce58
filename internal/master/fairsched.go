package master

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// This file is the live driver's side of the admission kernel
// (fair.Scheduler.Decide, DESIGN.md §13): queue configuration, the View
// the kernel decides on, gang placement against the live plan (the
// kernel's Place), and the execution of a preemption: its victims pause
// together and each is requeued, resumable from its checkpoint. No
// admit/hold/preempt policy lives here.

// ErrUnknownQueue marks a submission naming a queue that was never
// configured.
var ErrUnknownQueue = errors.New("unknown queue")

// queueCounters is the per-queue ledger behind the labeled
// harmony_queue_* metric families; the loop owns it.
type queueCounters struct {
	admitted  int64
	held      int64
	drained   int64
	preempted int64
	canceled  int64
}

// qc returns the queue's counter ledger, creating it on first use.
func (m *Master) qc(queue string) *queueCounters {
	qc := m.qcounters[queue]
	if qc == nil {
		qc = &queueCounters{}
		m.qcounters[queue] = qc
	}
	return qc
}

// ConfigureQueues replaces the queue policy. Every queue referenced by a
// job the master knows must exist in the new configuration; shares and
// quotas take effect immediately and a drain pass retries held jobs
// against them.
func (m *Master) ConfigureQueues(cfgs ...fair.QueueConfig) error {
	s, err := fair.New(cfgs...)
	if err != nil {
		return err
	}
	err = ErrDraining
	m.do(func() {
		for name, j := range m.jobs {
			if !s.Has(j.spec.Queue) {
				err = fmt.Errorf("master: job %q uses queue %q absent from the new configuration", name, j.spec.Queue)
				return
			}
		}
		m.fairsched, err = s, nil
		// A new policy changes every quota and gate: held jobs retry
		// against it.
		m.wakeDrainer()
	})
	return err
}

// held is the policy's view of one held job.
func (j *job) held() fair.Held {
	return fair.Held{
		Job: j.spec.Name, Queue: j.spec.Queue, Priority: j.spec.Priority,
		Seq: j.arrival, Demand: j.demand(), Resumable: j.resume != nil,
	}
}

// buildView derives the admission kernel's view of the placements —
// everything but View.Held and View.Running — plus the free workers in
// registration order (deterministic for a fixed cluster state), which
// place draws from. Paused jobs keep their claim on usage and
// workers: their workers still hold job state mid-migration, so a
// Running↔Paused flip changes nothing here. Callers go through currentView
// (loop.go), which keeps the view between mutations.
func (m *Master) buildView() (fair.View, []*workerRef) {
	v := fair.View{Total: len(m.workers), Usage: make(fair.Usage)}
	for _, j := range m.jobs {
		if j.status != StatusRunning && j.status != StatusPaused {
			continue
		}
		v.Usage[j.spec.Queue] += len(j.workers)
		for _, w := range j.workers {
			w.busy = true
		}
	}
	var free []*workerRef
	for _, w := range m.workers {
		if !w.busy {
			free = append(free, w)
		}
		w.busy = false
	}
	v.Free = len(free)
	return v, free
}

// running lists the jobs reclaim may suspend: the live plan's, which are
// the running ones only — a paused job is mid-migration or already
// suspending and cannot be paused again. It is derived at each decision
// and never kept, so a victim choice cannot outlive the status it was made
// on.
func (m *Master) running() []fair.Running {
	var out []fair.Running
	for _, g := range m.currentPlan().plan.Groups {
		for _, info := range g.Jobs {
			j := m.jobs[info.ID]
			out = append(out, fair.Running{
				Job: info.ID, Queue: j.spec.Queue, Priority: j.spec.Priority,
				StartSeq: j.startSeq, Workers: len(j.workers),
			})
		}
	}
	return out
}

// placement is where place would put a job.
type placement struct {
	workers   []*workerRef
	predicted core.GroupPrediction
	// initial marks a new group on an otherwise idle cluster.
	initial bool
}

// place is the master's half of an admission decision, the only part the
// kernel does not own: where the job would go on at most limit workers
// (the kernel's borrow cap). The gang rule is atomic: the returned group
// satisfies the spec's MinWorkers/MaxWorkers band in full, or the job
// holds with a reason.
//
// Placement tries, in order: the §IV-B4 arrival rule (the Scorer's
// incremental BestAddition into a running group that improves the
// scheduling score), then a new group on free workers (the idle cluster
// is the degenerate case where every worker is free).
func (m *Master) place(j *job, free []*workerRef, limit int) (placement, bool, string) {
	m.counters.Placements++
	if len(m.workers) == 0 {
		return placement{}, false, fair.HoldNoGang
	}
	lo, hi, info := j.demand(), j.spec.MaxWorkers, j.prof
	if hi <= 0 {
		hi = len(m.workers)
	}
	hi = min(hi, limit)

	lp := m.currentPlan()
	if len(lp.plan.Groups) > 0 {
		if gi, pred, placed := lp.scorer.BestAddition(info); placed && gi < len(lp.members) {
			if g := lp.members[gi]; len(g) >= lo && len(g) <= hi {
				return placement{workers: slices.Clone(g), predicted: pred}, true, ""
			}
		}
	}
	if want := min(len(free), hi); want >= lo {
		pg := core.Group{Jobs: []core.JobInfo{info}, Machines: want}
		return placement{
			workers:   slices.Clone(free[:want]),
			predicted: core.PredictGroup(pg, m.opts.NetModel),
			initial:   len(lp.plan.Groups) == 0,
		}, true, ""
	}
	if len(free) < lo && lo > 1 {
		return placement{}, false, fair.HoldNoGang
	}
	return placement{}, false, fair.HoldSlowdown
}

// addPending appends a held job to the queue and the view's held list.
func (m *Master) addPending(j *job) {
	m.pending = append(m.pending, j)
	if m.held != nil {
		m.held = append(m.held, j.held())
	}
}

// removePending unlinks a held job from the queue and the view's held list.
func (m *Master) removePending(j *job) {
	if i := slices.Index(m.pending, j); i >= 0 {
		m.pending = slices.Delete(m.pending, i, i+1)
		if m.held != nil {
			m.held = slices.Delete(m.held, i, i+1)
		}
	}
}

// dropJob is the best-effort teardown of a placement: every worker that
// hosted the job drops its shards and its own model partition.
// Errors are ignored — a worker that is gone has nothing left to drop, and
// whatever replaces the placement rebuilds its state from a checkpoint.
func dropJob(refs []*workerRef, name string) {
	for _, r := range refs {
		_, _ = rpc.Invoke[worker.DropJobArgs, worker.Ack](r.client,
			worker.MethodDropJob, worker.DropJobArgs{Job: name}, time.Minute)
	}
}

// preempt executes a Preempt decision on the loop: it journals every
// victim's preemption, while the victim still counts as running, asks all
// of them to pause at their next barrier at once, and holds the drain
// pass until reclaim has settled each of them.
func (m *Master) preempt(d fair.Decision) {
	victims := make([]deployment, len(d.Victims))
	for i, v := range d.Victims {
		j := m.jobs[v.Job]
		ev := m.removalEvent(EventPreempt, v.Job, j)
		ev.Note = fmt.Sprintf("reclaimed for queue %q", d.Job.Queue)
		m.journal.append(ev)
		j.pauseRequested = true
		victims[i] = j.deployment()
	}
	m.waiting = true
	go m.reclaim(victims)
}

// reclaim suspends a preemption's victims off the loop, in the kernel's
// order: as each one's pause lands at its barrier (§IV-B4's
// drain-and-checkpoint), it checkpoints the model and requeues the victim
// as a held job resumable from it; the next admission of the name restores
// the checkpoint and continues from the iteration after it. A victim that
// finished, was canceled or restarted meanwhile is left to that path, and
// one that reaches no barrier within a minute keeps running. The drain
// pass goes on once every victim is settled, unless none was suspended:
// then nothing was freed, and the event that took the victims away wakes a
// new pass itself.
func (m *Master) reclaim(victims []deployment) {
	suspended := false
	deadline := time.Now().Add(time.Minute)
	for _, v := range victims {
		select {
		case <-v.paused:
		case <-v.j.finishedCh:
			continue
		case <-time.After(time.Until(deadline)):
			if m.withdrawPause(v) {
				continue
			}
		case <-m.stopped:
			return
		}
		_, _ = m.checkpoint(v, -1, false)
		if m.requeue(v, func(string) {
			m.counters.Preempted++
			m.qc(v.j.spec.Queue).preempted++
		}) {
			suspended = true
		}
	}
	m.do(func() { m.waiting, m.wake = false, m.wake || suspended })
}

// withdrawPause takes back the pause request of d that has not landed, and
// reports whether one was pending; once it landed, the job is paused.
func (m *Master) withdrawPause(d deployment) bool {
	withdrawn := true
	m.do(func() {
		if withdrawn = d.j.pauseRequested && d.j.epoch == d.epoch; withdrawn {
			d.j.pauseRequested = false
		}
	})
	return withdrawn
}

// QueueView is the per-queue status surface for GET /v1/queues and the
// labeled metric families.
type QueueView struct {
	Name            string  `json:"name"`
	Parent          string  `json:"parent,omitempty"`
	Weight          float64 `json:"weight"`
	Quota           float64 `json:"quota"`
	OverQuotaWeight float64 `json:"over_quota_weight"`
	// Share is the queue's resolved fraction of the cluster;
	// QuotaWorkers that share in whole workers on the current cluster.
	Share        float64 `json:"share"`
	QuotaWorkers int     `json:"quota_workers"`
	// UsageWorkers counts workers the queue's deployed jobs occupy;
	// Running and Depth count its deployed and held jobs.
	UsageWorkers int `json:"usage_workers"`
	Running      int `json:"running"`
	Depth        int `json:"depth"`
	// Cumulative per-queue counters.
	Admitted  int64 `json:"admitted_total"`
	Held      int64 `json:"held_total"`
	Drained   int64 `json:"drained_total"`
	Preempted int64 `json:"preempted_total"`
	Canceled  int64 `json:"canceled_total"`
}

// Queues reports every configured queue's share, live usage, queue
// depth, and cumulative counters, sorted by name.
func (m *Master) Queues() []QueueView {
	var views []QueueView
	m.read(func() { views = m.queues() })
	return views
}

// queues builds the per-queue views, so Snapshot can capture them in the
// same op as the plan and job state.
func (m *Master) queues() []QueueView {
	total := len(m.workers)
	view, _ := m.currentView()
	running, depth := make(map[string]int), make(map[string]int)
	for _, j := range m.jobs {
		switch j.status {
		case StatusRunning, StatusPaused:
			running[j.spec.Queue]++
		case StatusPending:
			depth[j.spec.Queue]++
		}
	}
	views := make([]QueueView, 0, len(m.fairsched.Names()))
	for _, name := range m.fairsched.Names() {
		cfg, _ := m.fairsched.Config(name)
		v := QueueView{
			Name: name, Parent: cfg.Parent, Weight: cfg.Weight,
			Quota: cfg.Quota, OverQuotaWeight: cfg.OverQuotaWeight,
			Share:        m.fairsched.Share(name),
			QuotaWorkers: m.fairsched.QuotaWorkers(name, total),
			UsageWorkers: view.Usage[name],
			Running:      running[name],
			Depth:        depth[name],
		}
		if qc := m.qcounters[name]; qc != nil {
			v.Admitted, v.Held, v.Drained = qc.admitted, qc.held, qc.drained
			v.Preempted, v.Canceled = qc.preempted, qc.canceled
		}
		views = append(views, v)
	}
	sort.Slice(views, func(a, b int) bool { return views[a].Name < views[b].Name })
	return views
}
