package master

import (
	"errors"
	"fmt"
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
// kernel's Place), and the execution of a preemption through the
// pause/checkpoint machinery. No admit/hold/preempt policy lives here.

// ErrUnknownQueue marks a submission naming a queue that was never
// configured.
var ErrUnknownQueue = errors.New("unknown queue")

// queueCounters is the per-queue ledger behind the labeled
// harmony_queue_* metric families; guarded by Master.mu.
type queueCounters struct {
	admitted  int64
	held      int64
	drained   int64
	preempted int64
	canceled  int64
}

// qcLocked returns the queue's counter ledger, creating it on first use.
func (m *Master) qcLocked(queue string) *queueCounters {
	qc := m.qcounters[queue]
	if qc == nil {
		qc = &queueCounters{}
		m.qcounters[queue] = qc
	}
	return qc
}

// ConfigureQueues replaces the queue policy. Every queue referenced by a
// deployed or held job must exist in the new configuration; shares and
// quotas take effect immediately and a drain pass retries held jobs
// against them.
func (m *Master) ConfigureQueues(cfgs ...fair.QueueConfig) error {
	s, err := fair.New(cfgs...)
	if err != nil {
		return err
	}
	m.mu.Lock()
	for name, j := range m.jobs {
		if !s.Has(j.queue) {
			m.mu.Unlock()
			return fmt.Errorf("master: job %q uses queue %q absent from the new configuration", name, j.queue)
		}
	}
	for _, p := range m.pending {
		if !s.Has(p.queue) {
			m.mu.Unlock()
			return fmt.Errorf("master: held job %q uses queue %q absent from the new configuration", p.spec.Name, p.queue)
		}
	}
	m.fairsched = s
	// A new policy changes every quota and gate: the cached view is stale,
	// and held jobs retry against it.
	m.admitEpoch++
	m.mu.Unlock()
	m.wakeDrainer()
	return nil
}

// held is the policy's view of one pending job.
func (p *pendingJob) held() fair.Held {
	return fair.Held{
		Job: p.spec.Name, Queue: p.queue, Priority: p.priority,
		Seq: p.seq, Demand: p.demand(), Resumable: p.resume != nil,
	}
}

// buildViewLocked derives the admission kernel's input from the master's
// state — everything but View.Running (runningLocked) — plus the names of
// the free workers in registration order (deterministic for a fixed cluster
// state), which placeLocked draws from. Paused jobs keep their claim on
// usage and workers: their workers still hold job state mid-migration, so a
// Running↔Paused flip changes nothing here. The admission paths go through
// viewLocked (fastpath.go), which caches the result per admission epoch;
// the status surfaces build it fresh under mu's read side.
func (m *Master) buildViewLocked() (fair.View, []string) {
	v := fair.View{
		Total: len(m.workers), Usage: make(fair.Usage),
		Held: make([]fair.Held, len(m.pending)),
	}
	busy := make([]bool, len(m.workers))
	for _, j := range m.jobs {
		if j.status != StatusRunning && j.status != StatusPaused {
			continue
		}
		v.Usage[j.queue] += len(j.workers)
		for _, wi := range j.workers {
			if wi < len(busy) {
				busy[wi] = true
			}
		}
	}
	var free []string
	for i, w := range m.workers {
		if !busy[i] {
			free = append(free, w.name)
		}
	}
	v.Free = len(free)
	for i, p := range m.pending {
		v.Held[i] = p.held()
	}
	return v, free
}

// runningLocked lists the jobs reclaim may suspend: running ones only — a
// paused job is mid-migration and cannot be paused again. It is derived
// from job status at each decision and never cached, so a victim choice
// cannot outlive the status it was made on.
func (m *Master) runningLocked() []fair.Running {
	var out []fair.Running
	for name, j := range m.jobs {
		if j.status == StatusRunning {
			out = append(out, fair.Running{
				Job: name, Queue: j.queue, Priority: j.priority,
				StartSeq: j.startSeq, Workers: len(j.workers),
			})
		}
	}
	return out
}

// placement is where placeLocked would put a job.
type placement struct {
	group     []string
	predicted core.GroupPrediction
	// initial marks a new group on an otherwise idle cluster.
	initial bool
}

// placeLocked is the master's half of an admission decision, the only
// part the kernel does not own: where the job would go on at most limit
// workers (the kernel's borrow cap). The gang rule is atomic: the returned
// group satisfies the spec's MinWorkers/MaxWorkers band in full, or the
// job holds with a reason.
//
// Placement tries, in order: the §IV-B4 arrival rule (the Scorer's
// incremental BestAddition into a running group that improves the
// scheduling score), then a new group on free workers (the idle cluster
// is the degenerate case where every worker is free). Caller holds mu's
// write side.
func (m *Master) placeLocked(p *pendingJob, free []string, limit int) (placement, bool, string) {
	m.counters.Placements++
	if len(m.workers) == 0 {
		return placement{}, false, fair.HoldNoGang
	}
	min, max, info := p.demand(), p.spec.MaxWorkers, p.info

	plan, members, sc := m.planScorerLocked()
	if len(plan.Groups) > 0 {
		if gi, pred, placed := sc.BestAddition(info); placed && gi < len(members) {
			g := members[gi]
			if len(g) >= min && (max <= 0 || len(g) <= max) && len(g) <= limit {
				return placement{group: append([]string(nil), g...), predicted: pred}, true, ""
			}
		}
	}
	want := len(free)
	if max > 0 && want > max {
		want = max
	}
	if want > limit {
		want = limit
	}
	if want >= min {
		pg := core.Group{Jobs: []core.JobInfo{info}, Machines: want}
		return placement{
			group:     append([]string(nil), free[:want]...),
			predicted: core.PredictGroup(pg, m.opts.NetModel),
			initial:   len(plan.Groups) == 0,
		}, true, ""
	}
	if len(free) < min && min > 1 {
		return placement{}, false, fair.HoldNoGang
	}
	return placement{}, false, fair.HoldSlowdown
}

// removePendingLocked unlinks a held job from the queue and advances the
// admission epoch (the held view feeds the kernel's borrow gate).
func (m *Master) removePendingLocked(p *pendingJob) {
	for i, q := range m.pending {
		if q == p {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			delete(m.pendingIdx, p.spec.Name)
			m.admitEpoch++
			return
		}
	}
}

// dropJob is the best-effort teardown of a placement: every worker that
// hosted the job drops its shards and its own model partition.
// Errors are ignored — a worker that is gone has nothing left to drop, and
// whatever replaces the placement rebuilds its state from a checkpoint.
func dropJob(refs []workerRef, name string) {
	for _, r := range refs {
		_, _ = rpc.Invoke[worker.DropJobArgs, worker.Ack](r.client,
			worker.MethodDropJob, worker.DropJobArgs{Job: name}, time.Minute)
	}
}

// preemptJob suspends one running victim through the §IV-B4
// drain-and-checkpoint path and requeues it as a resumable held job: the
// next admission of the name restores the checkpoint frame and continues
// from the iteration after it. It reports whether the victim was suspended
// (false: it finished, was canceled or paused while the drain decided, or
// the pause timed out). Called without Master.mu held.
func (m *Master) preemptJob(name, beneficiary string) bool {
	m.mu.Lock()
	j, ok := m.jobs[name]
	if !ok || j.status != StatusRunning {
		m.mu.Unlock()
		return false
	}
	ev := m.removalEventLocked(EventPreempt, name, j)
	ev.Note = fmt.Sprintf("reclaimed for queue %q", beneficiary)
	m.mu.Unlock()
	m.journal.append(ev)
	ckpt, err := m.Pause(name, time.Minute)
	if err != nil {
		// The victim finished or was canceled while we decided; whatever
		// changed its state wakes the drainer to decide on the new plan.
		return false
	}
	m.mu.Lock()
	j, ok = m.jobs[name]
	if !ok || j.status != StatusPaused {
		m.mu.Unlock()
		return false
	}
	suspended := m.requeueLocked(j, ckpt, j.iter+1)
	if suspended {
		m.counters.Preempted++
		m.qcLocked(j.queue).preempted++
	}
	m.mu.Unlock()
	return suspended
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
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.queuesLocked()
}

// queuesLocked builds the per-queue views under a lock the caller
// already holds, so Snapshot can capture queues in the same consistent
// section as the plan and job state.
func (m *Master) queuesLocked() []QueueView {
	total := len(m.workers)
	view, _ := m.buildViewLocked()
	running := make(map[string]int)
	for _, j := range m.jobs {
		if j.status == StatusRunning || j.status == StatusPaused {
			running[j.queue]++
		}
	}
	depth := make(map[string]int)
	for _, p := range m.pending {
		depth[p.queue]++
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
