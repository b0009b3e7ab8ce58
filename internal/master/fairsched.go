package master

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// This file wires the fair policy layer (internal/fair, DESIGN.md §13)
// into the live admission path: queue configuration, deficit-weighted
// drain ordering, gang placement against the live plan, and
// preemption/reclaim through the pause/checkpoint machinery.

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
	// A new policy changes every quota and gate: expire cached reject
	// verdicts and input snapshots, then retry held jobs against it.
	m.admitEpoch++
	m.mu.Unlock()
	m.wakeDrainer()
	return nil
}

// usageLocked counts the workers each queue's deployed jobs occupy.
// Paused jobs keep their claim: their workers still hold job state
// mid-migration.
func (m *Master) usageLocked() fair.Usage {
	u := make(fair.Usage)
	for _, j := range m.jobs {
		if j.status == StatusRunning || j.status == StatusPaused {
			u[j.queue] += len(j.workers)
		}
	}
	return u
}

// freeWorkersLocked lists workers no deployed job occupies, in
// registration order (deterministic for a fixed cluster state).
func (m *Master) freeWorkersLocked() []string {
	busy := make([]bool, len(m.workers))
	for _, j := range m.jobs {
		if j.status != StatusRunning && j.status != StatusPaused {
			continue
		}
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
	return free
}

// heldLocked is the policy view of the admission queue.
func (m *Master) heldLocked() []fair.Held {
	held := make([]fair.Held, len(m.pending))
	for i, p := range m.pending {
		held[i] = fair.Held{
			Job: p.spec.Name, Queue: p.queue, Priority: p.priority,
			Seq: p.seq, Demand: p.demand(), Resumable: p.resume != nil,
		}
	}
	return held
}

// runningLocked is the policy view of deployed jobs for victim
// selection.
func (m *Master) runningLocked() []fair.Running {
	var out []fair.Running
	for name, j := range m.jobs {
		if j.status != StatusRunning {
			continue
		}
		out = append(out, fair.Running{
			Job: name, Queue: j.queue, Priority: j.priority,
			StartSeq: j.startSeq, Workers: len(j.workers),
		})
	}
	return out
}

// admitLocked decides placement for one job under the fair policy. The
// gang rule is atomic: the returned group satisfies the spec's
// MinWorkers/MaxWorkers band in full, or the job holds with a reason.
//
// Placement tries, in order: the §IV-B4 arrival rule (the Scorer's
// incremental BestAddition into a running group that improves the
// scheduling score), then a new group on free workers
// (the idle cluster is the degenerate case where every worker is free).
// Either path is vetoed when the queue is over quota and an under-quota
// queue has held jobs (borrowing is gated). Caller holds mu's write
// side.
func (m *Master) admitLocked(spec JobSpec, info core.JobInfo) (group []string, predicted core.GroupPrediction, initial, ok bool, reason string) {
	if len(m.workers) == 0 {
		return nil, core.GroupPrediction{}, false, false, fair.HoldNoGang
	}
	queue := spec.Queue
	if queue == "" {
		queue = fair.DefaultQueue
	}
	min := spec.MinWorkers
	if min < 1 {
		min = 1
	}
	max := spec.MaxWorkers
	total := len(m.workers)
	usage, free, held := m.admitInputsLocked()
	gated := m.fairsched.BorrowGated(queue, held, usage, total)
	headroom := m.fairsched.QuotaWorkers(queue, total) - usage[queue]

	plan, members, sc := m.planScorerLocked()
	if len(plan.Groups) > 0 {
		if gi, pred, placed := sc.BestAddition(info); placed && gi < len(members) {
			g := members[gi]
			fits := len(g) >= min && (max <= 0 || len(g) <= max)
			if fits && (!gated || len(g) <= headroom) {
				return append([]string(nil), g...), pred, false, true, ""
			}
		}
	}
	want := len(free)
	if max > 0 && want > max {
		want = max
	}
	if gated && want > headroom {
		want = headroom
	}
	if want >= min {
		pg := core.Group{Jobs: []core.JobInfo{info}, Machines: want}
		return append([]string(nil), free[:want]...),
			core.PredictGroup(pg, m.opts.NetModel), len(plan.Groups) == 0, true, ""
	}
	switch {
	case gated && headroom < min:
		return nil, core.GroupPrediction{}, false, false, fair.HoldQuota
	case len(free) < min && min > 1:
		return nil, core.GroupPrediction{}, false, false, fair.HoldNoGang
	default:
		return nil, core.GroupPrediction{}, false, false, fair.HoldSlowdown
	}
}

// pendingByNameLocked finds a held job by name.
func (m *Master) pendingByNameLocked(name string) *pendingJob {
	return m.pendingIdx[name]
}

// removePendingLocked unlinks a held job from the queue and advances the
// admission epoch (the held view feeds BorrowGated).
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

// reclaimTarget is one beneficiary held job plus the over-quota victims
// whose preemption frees enough workers for its gang.
type reclaimTarget struct {
	p       *pendingJob
	need    int
	victims []fair.Running
}

// reclaimTargetLocked scans held jobs in fair order for one whose queue
// is under quota, would stay within quota after admission (the
// anti-ping-pong rule), and whose gang can be covered by preempting
// over-quota victims.
func (m *Master) reclaimTargetLocked(ordered []fair.Held) *reclaimTarget {
	usage := m.usageLocked()
	total := len(m.workers)
	free := len(m.freeWorkersLocked())
	running := m.runningLocked()
	for _, h := range ordered {
		p := m.pendingByNameLocked(h.Job)
		if p == nil {
			continue
		}
		quota := m.fairsched.QuotaWorkers(h.Queue, total)
		if usage[h.Queue]+h.Demand > quota {
			continue // beneficiary would end over quota; no reclaim
		}
		need := h.Demand - free
		if need <= 0 {
			continue // free workers suffice; this hold is not capacity-bound
		}
		if victims := m.fairsched.Victims(h.Queue, need, running, usage, total); victims != nil {
			return &reclaimTarget{p: p, need: need, victims: victims}
		}
	}
	return nil
}

// preemptJob suspends one running victim through the §IV-B4
// drain-and-checkpoint path and requeues it as a resumable held job: the
// next admission of the name restores the checkpoint frame and continues
// from the iteration after it. Called without Master.mu held.
func (m *Master) preemptJob(name, beneficiary string) {
	m.mu.Lock()
	j, ok := m.jobs[name]
	if !ok || j.status != StatusRunning {
		m.mu.Unlock()
		return
	}
	iter, ucpu, unet := m.measuredLocked(name, j)
	m.mu.Unlock()
	m.journal.append(Event{Kind: EventPreempt, Job: name,
		MeasuredIterSeconds: iter, MeasuredCPUUtil: ucpu, MeasuredNetUtil: unet,
		Note: fmt.Sprintf("reclaimed for queue %q", beneficiary)})
	ckpt, err := m.Pause(name, time.Minute)
	if err != nil {
		// The victim finished or was canceled while we decided; the drain
		// loop re-evaluates against the new plan.
		return
	}
	m.mu.Lock()
	j, ok = m.jobs[name]
	if !ok || j.status != StatusPaused {
		m.mu.Unlock()
		return
	}
	refs := make([]workerRef, len(j.workers))
	for i, wi := range j.workers {
		refs[i] = m.workers[wi]
	}
	p := &pendingJob{
		spec: j.spec, info: m.jobInfoLocked(name, j),
		queue: j.queue, priority: j.priority, seq: j.arrival,
		holdReason: fair.HoldPreempted,
		resume:     ckpt, resumeIter: j.iter + 1,
		finishedCh: j.finishedCh, epoch: j.epoch,
	}
	delete(m.jobs, name)
	m.invalidatePlanLocked()
	m.addPendingLocked(p)
	m.counters.preempted++
	m.qcLocked(j.queue).preempted++
	m.mu.Unlock()

	// Best-effort teardown of the suspended placement; shards and model
	// partitions rebuild from the checkpoint on re-admission.
	for _, r := range refs {
		_, _ = rpc.Invoke[worker.DropJobArgs, worker.Ack](r.client,
			worker.MethodDropJob, worker.DropJobArgs{Job: name}, time.Minute)
		_, _ = rpc.Invoke[ps.DropArgs, ps.Ack](r.client,
			ps.MethodDrop, ps.DropArgs{Job: name}, time.Minute)
	}
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
	usage := m.usageLocked()
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
			UsageWorkers: usage[name],
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
