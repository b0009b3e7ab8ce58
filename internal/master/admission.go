package master

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/workload"
)

// Sentinel errors surfaced by the control plane; callers match them with
// errors.Is to pick HTTP status codes.
var (
	// ErrDuplicateJob marks a submission that reuses a known job name.
	ErrDuplicateJob = errors.New("duplicate job")
	// ErrUnknownJob marks an operation on a name the master never saw.
	ErrUnknownJob = errors.New("unknown job")
	// ErrJobFinished marks a cancel of a job that already completed.
	ErrJobFinished = errors.New("job already finished")
	// ErrDraining rejects submissions while the master shuts down.
	ErrDraining = errors.New("master is draining")
	// ErrUnknownWorker marks a placement naming an unregistered worker.
	ErrUnknownWorker = errors.New("unknown worker")
)

// Profile carries a submitter's cost estimates for a job that has not run
// yet, in the scheduler's units (§IV-B1): aggregate COMP machine-seconds
// and per-machine COMM seconds per iteration, plus memory footprint
// parameters. The zero value means "unprofiled" — such a job cannot be
// placed by the arrival rule while other jobs run and waits in the queue
// until the cluster goes idle.
type Profile struct {
	CompSeconds float64
	NetSeconds  float64
	InputGB     float64
	ModelGB     float64
	WorkGB      float64
}

func (p Profile) info(name string) core.JobInfo {
	return core.JobInfo{
		ID:      name,
		Comp:    p.CompSeconds,
		Net:     p.NetSeconds,
		InputGB: p.InputGB, ModelGB: p.ModelGB, WorkGB: p.WorkGB,
		JVMHeapFactor: workload.JVMHeapFactor,
	}
}

// Admission reports the outcome of an Enqueue.
type Admission struct {
	// Admitted is true when the job was placed and started immediately;
	// false means it is held pending in the queue.
	Admitted bool
	// Workers is the group the job was placed on when admitted.
	Workers []string
}

type pendingJob struct {
	spec JobSpec
	info core.JobInfo
	// Fair-scheduler coordinates (DESIGN.md §13): the resolved queue,
	// the job's priority, and its arrival sequence number (FIFO within
	// equal priority; preserved across preemption so a reclaimed job
	// resumes ahead of later arrivals in its queue).
	queue    string
	priority int
	seq      uint64
	// holdReason classifies why the job waits (fair.Hold*).
	holdReason string
	// resume carries a requeued job's checkpoint frame; on re-admission
	// the job restores it and continues from resumeIter. finishedCh and
	// epoch survive the requeue so WaitJob callers stay parked and
	// stragglers of the suspended placement stay stale.
	resume     []float64
	resumeIter int
	finishedCh chan struct{}
	epoch      int
}

// demand is the gang size the job must place atomically.
func (p *pendingJob) demand() int {
	if p.spec.MinWorkers > 1 {
		return p.spec.MinWorkers
	}
	return 1
}

// Counters aggregates control-plane events. The master keeps one under
// Master.mu; Master.Counters returns a copy.
type Counters struct {
	// AdmittedInitial counts jobs started on an idle cluster.
	AdmittedInitial int64
	// AdmittedArrival counts jobs placed into a running group by the
	// §IV-B4 arrival rule.
	AdmittedArrival int64
	// HeldPending counts submissions the arrival rule rejected.
	HeldPending int64
	// QueueDrained counts pending jobs later admitted by a drain pass.
	QueueDrained int64
	// Canceled counts operator cancellations (pending or running).
	Canceled int64
	// Preempted counts running jobs the fair scheduler reclaimed and
	// requeued as resumable held jobs (DESIGN.md §13).
	Preempted int64
	// Migrations counts pause/resume group moves.
	Migrations int64
	// Recoveries counts jobs requeued after a failure: a lost member
	// worker or a member whose loop failed (recover events).
	Recoveries int64
	// CheckpointFailures counts background model snapshots that failed
	// and were dropped.
	CheckpointFailures int64
	// Placements counts placement attempts (placeLocked runs): the
	// arrival rule's and every held job's a drain pass reaches.
	Placements int64
	// DrainPasses counts the drainer's kernel decisions over the held
	// queue; DrainPassSeconds totals the time they held mu's write side.
	DrainPasses      int64
	DrainPassSeconds float64
	// JournalEvicted counts decision events the journal ring overwrote.
	JournalEvicted int64
	// SpansLost counts worker spans the master never retained: evicted
	// from a worker's ring before a collection reached them, or trimmed
	// by the master's retention bound.
	SpansLost int64
}

// Counters snapshots the control-plane counters.
func (m *Master) Counters() Counters {
	m.mu.RLock()
	c, t := m.counters, m.trace
	m.mu.RUnlock()
	c.JournalEvicted = m.journal.evicted()
	if t != nil {
		t.mu.Lock()
		c.SpansLost = t.lost
		t.mu.Unlock()
	}
	return c
}

// acceptLocked vets a submission — a well-formed spec, a master that still
// takes work, a name no deployed or pending job holds — and resolves the
// queue it counts against.
func (m *Master) acceptLocked(spec JobSpec) (queue string, err error) {
	if spec.Name == "" || spec.Iterations <= 0 {
		return "", errors.New("master: job needs a name and positive iterations")
	}
	if m.draining || m.closed {
		return "", ErrDraining
	}
	if m.jobs[spec.Name] != nil || m.pendingIdx[spec.Name] != nil {
		return "", fmt.Errorf("master: duplicate job %q: %w", spec.Name, ErrDuplicateJob)
	}
	if queue = spec.Queue; queue == "" {
		queue = fair.DefaultQueue
	}
	if !m.fairsched.Has(queue) {
		return "", fmt.Errorf("master: %w %q", ErrUnknownQueue, queue)
	}
	return queue, nil
}

// Enqueue submits a job through the online admission path of §IV-B4
// under the fair policy (DESIGN.md §13): the job places atomically into
// a running group (the arrival rule) or onto free workers — an idle
// cluster is the degenerate case — unless its queue's quota gates the
// borrow, in which case it holds with a reason. Pending jobs are
// retried in deficit-weighted fair order whenever a job completes, a
// migration reshapes the plan, or a job is canceled or preempted.
func (m *Master) Enqueue(spec JobSpec, prof Profile) (Admission, error) {
	if spec.MaxWorkers > 0 && spec.MinWorkers > spec.MaxWorkers {
		return Admission{}, fmt.Errorf("master: job %q wants min %d > max %d workers",
			spec.Name, spec.MinWorkers, spec.MaxWorkers)
	}
	info := prof.info(spec.Name)
	m.mu.Lock()
	queue, err := m.acceptLocked(spec)
	if err != nil {
		m.mu.Unlock()
		return Admission{}, err
	}
	m.arrivalSeq++
	p := &pendingJob{spec: spec, info: info, queue: queue,
		priority: spec.Priority, seq: m.arrivalSeq}
	// The arrival rule: the new job is tried at once, ahead of the queue.
	view, free := m.viewLocked()
	var pl placement
	ok, reason := m.fairsched.Try(view, p.held(), func(_ fair.Held, limit int) (ok bool, reason string) {
		pl, ok, reason = m.placeLocked(p, free, limit)
		return ok, reason
	})
	if !ok {
		p.holdReason = reason
		// Held work is waitable from the moment it is accepted: WaitJob
		// parks on this channel, which survives the pending→deployed
		// transition (and is closed by Cancel/Shutdown of a held job).
		p.finishedCh = make(chan struct{})
		m.addPendingLocked(p)
		m.counters.HeldPending++
		m.qcLocked(queue).held++
		// Journaled before the lock drops: once the job is in the queue a
		// drain may place it, and its placement must follow this hold.
		m.journal.append(Event{Kind: EventHold, Job: spec.Name,
			Note: "held: " + reason})
		m.mu.Unlock()
		// A hold in an under-quota queue may be reclaimable right now:
		// the drain pass evaluates preemption against the live plan.
		m.wakeDrainer()
		return Admission{}, nil
	}
	if err := m.admitAndUnlock(p, pl, false); err != nil {
		return Admission{}, err
	}
	return Admission{Admitted: true, Workers: pl.group}, nil
}

// admitAndUnlock executes an admit decision, for the arrival path and
// the drain path (drained) alike: enter the job record, count it, journal
// the placement with the model's prediction, deploy. The caller holds mu's
// write side, in the same hold that accepted the job or took it off the
// queue; admitAndUnlock releases it after the journal row, because
// deployment fans RPCs out to the gang. A failed deployment is undone in
// full, in one hold of mu — the record comes out, the counters move back, a
// compensating hold (NoteDeployFailed) follows the placement in the
// journal, and a drained job returns to the queue — so neither the metrics
// nor a replay count a job that never started, or count it twice when the
// drain retries it.
func (m *Master) admitAndUnlock(p *pendingJob, pl placement, drained bool) error {
	j, err := m.installLocked(p, pl.group)
	if err != nil {
		if drained {
			m.addPendingLocked(p)
		}
		m.mu.Unlock()
		return err
	}
	m.countAdmissionLocked(p.queue, pl.initial, drained, 1)
	e := Event{Kind: EventAdmitArrival, Job: p.spec.Name, Group: pl.group}
	fromIter := 0
	switch {
	case p.resume != nil:
		fromIter = p.resumeIter
		e.Kind = EventResume
		e.Note = fmt.Sprintf("resume from checkpoint iteration %d", p.resumeIter-1)
	case drained:
		e.Kind = EventQueueDrain
	case pl.initial:
		e.Kind = EventAdmitInitial
	}
	// Under the lock: a cancel of the job, which the record makes possible
	// from here on, must not overtake its placement in the journal.
	m.journal.append(m.predictedEvent(e, pl.predicted))
	m.mu.Unlock()
	if err = m.deploy(j, p.resume, fromIter); err == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.withdrawLocked(j) {
		return nil
	}
	m.countAdmissionLocked(p.queue, pl.initial, drained, -1)
	if drained && !m.closed && !m.draining {
		// Deployment raced a worker failure; the job goes back to the
		// queue for the next drain to retry.
		m.addPendingLocked(p)
	}
	// Under the lock for the same reason as Enqueue's hold: the retry's
	// placement must not overtake the undo of this one.
	m.journal.append(Event{Kind: EventHold, Job: p.spec.Name,
		Note: NoteDeployFailed + err.Error()})
	return err
}

// countAdmissionLocked moves the admission counters and the queue's
// ledger by n (1 to count an admission, -1 to take it back).
func (m *Master) countAdmissionLocked(queue string, initial, drained bool, n int64) {
	if initial {
		m.counters.AdmittedInitial += n
	} else {
		m.counters.AdmittedArrival += n
	}
	qc := m.qcLocked(queue)
	qc.admitted += n
	if drained {
		m.counters.QueueDrained += n
		qc.drained += n
	}
}

// buildLivePlanLocked derives the scheduler's view of the running
// cluster from scratch: jobs sharing a worker set form one group whose
// DoP is the set size. The parallel slice maps each group to its worker
// names. Group and job order are deterministic for a fixed cluster
// state. Callers go through livePlanLocked or planScorerLocked
// (fastpath.go), which reuse the cached plan between plan mutations.
func (m *Master) buildLivePlanLocked() (core.Plan, [][]string) {
	type bucket struct {
		idxs []int
		jobs []core.JobInfo
	}
	byKey := make(map[string]*bucket)
	var keys []string
	for name, j := range m.jobs {
		if j.status != StatusRunning {
			continue
		}
		idxs := append([]int(nil), j.workers...)
		sort.Ints(idxs)
		key := workerSetKey(idxs)
		b := byKey[key]
		if b == nil {
			b = &bucket{idxs: idxs}
			byKey[key] = b
			keys = append(keys, key)
		}
		b.jobs = append(b.jobs, m.jobInfoLocked(name, j))
	}
	sort.Strings(keys)
	var plan core.Plan
	var members [][]string
	for _, key := range keys {
		b := byKey[key]
		sort.Slice(b.jobs, func(a, c int) bool { return b.jobs[a].ID < b.jobs[c].ID })
		names := make([]string, len(b.idxs))
		for i, wi := range b.idxs {
			names[i] = m.workers[wi].name
		}
		plan.Groups = append(plan.Groups, core.Group{Jobs: b.jobs, Machines: len(b.idxs)})
		members = append(members, names)
	}
	return plan, members
}

// jobInfoLocked is the scheduler's view of one deployed job: runtime
// profiled metrics once enough samples accumulated, submission hints
// before that.
func (m *Master) jobInfoLocked(name string, j *job) core.JobInfo {
	info := j.prof
	info.ID = name
	if met, ok := m.profiles.Metrics(name); ok && met.Profiled() {
		info.Comp = met.CompMachineSeconds
		info.Net = met.NetSeconds
	}
	// The fitted serial floor (Synergy-style sensitivity) only feeds the
	// model when the net-aware scheduler is on: with it off, TcpuAt must
	// reproduce Eq. 2 exactly.
	if m.opts.NetModel {
		if s, ok := m.profiles.Sensitivity(name); ok && s.Fitted() {
			info.CompFloor = s.CompFloorSeconds
		}
	}
	return info
}

// drainQueue executes the admission kernel's decisions over the held
// queue until it has none left (DESIGN.md §13): a job the kernel admits is
// deployed where placeLocked put it; victims the kernel selects for an
// under-quota gang are preempted through the pause/checkpoint path and the
// queue is decided again. It runs on the single drainer goroutine
// (fastpath.go), woken after completions, migrations, cancellations,
// holds, and queue reconfigurations.
func (m *Master) drainQueue() {
	for {
		m.mu.Lock()
		if m.closed || m.draining || len(m.pending) == 0 {
			m.mu.Unlock()
			return
		}
		start := time.Now()
		view, free := m.viewLocked()
		view.Running = m.runningLocked()
		var pl placement
		d := m.fairsched.Decide(view, func(h fair.Held, limit int) (ok bool, reason string) {
			pl, ok, reason = m.placeLocked(m.pendingIdx[h.Job], free, limit)
			return ok, reason
		})
		for _, h := range d.Holds {
			m.pendingIdx[h.Job].holdReason = h.Reason
		}
		m.counters.DrainPasses++
		m.counters.DrainPassSeconds += time.Since(start).Seconds()
		switch d.Action {
		case fair.Admit:
			p := m.pendingIdx[d.Job.Job]
			m.removePendingLocked(p)
			if m.admitAndUnlock(p, pl, true) != nil {
				return // requeued; the next wakeup retries rather than spinning here
			}
		case fair.Preempt:
			// The latch serializes rounds so concurrent drains never
			// double-preempt.
			if m.reclaiming {
				m.mu.Unlock()
				return
			}
			m.reclaiming = true
			m.mu.Unlock()
			suspended := false
			for _, v := range d.Victims {
				if m.preemptJob(v.Job, d.Job.Queue) {
					suspended = true
				}
			}
			m.mu.Lock()
			m.reclaiming = false
			m.mu.Unlock()
			if !suspended {
				// Nothing was freed, so deciding again would only repeat
				// this round. The event that took the victims away (a
				// completion, cancel or migration) wakes the drainer itself;
				// a pause that timed out is retried at the next wakeup.
				return
			}
		default:
			m.mu.Unlock()
			return
		}
	}
}

// Cancel removes a pending job from the queue, or stops a deployed job:
// its barriers are released with Stop, its shards and model partitions
// are dropped from the workers, and waiters are unblocked.
func (m *Master) Cancel(name string) error {
	m.mu.Lock()
	if p := m.pendingIdx[name]; p != nil {
		m.removePendingLocked(p)
		m.counters.Canceled++
		m.qcLocked(p.queue).canceled++
		if p.finishedCh != nil {
			// A canceled preempted job will never resume; unpark its
			// WaitJob callers.
			close(p.finishedCh)
		}
		m.mu.Unlock()
		// cancel_held is distinct from a running-job cancel so replay
		// can reconstruct queue state: this name never held workers
		// (or had already released them to a preemption).
		note := "canceled while held"
		if p.holdReason != "" {
			note += ": " + p.holdReason
		}
		m.journal.append(Event{Kind: EventCancelHeld, Job: name, Note: note})
		return nil
	}
	j, ok := m.jobs[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("master: %w %q", ErrUnknownJob, name)
	}
	switch j.status {
	case StatusFinished:
		m.mu.Unlock()
		return fmt.Errorf("master: cancel %q: %w", name, ErrJobFinished)
	case StatusCanceled:
		m.mu.Unlock()
		return nil
	}
	m.journal.append(m.removalEventLocked(EventCancel, name, j))
	j.status = StatusCanceled
	m.invalidatePlanLocked()
	m.counters.Canceled++
	m.qcLocked(j.queue).canceled++
	j.stopBarriers()
	close(j.finishedCh)
	refs := m.workerRefsLocked(j)
	m.mu.Unlock()

	j.ckpt.release()
	dropJob(refs, name)
	m.wakeDrainer()
	return nil
}

// JobView is the status surface of one job for the control plane.
type JobView struct {
	Name      string
	State     string
	Iteration int
	Loss      float64
	Workers   []string
	// CompSeconds and NetSeconds are the job's current scheduler metrics
	// (profiled once Profiled is true, submission hints before).
	CompSeconds float64
	NetSeconds  float64
	Profiled    bool
	// CheckpointIter is the iteration of the latest background snapshot.
	CheckpointIter int
	// Queue and Priority are the job's fair-scheduler coordinates.
	Queue    string
	Priority int
	// HoldReason classifies a pending job's wait (fair.Hold*): the Eq. 1
	// slowdown bound, no feasible gang, quota exhaustion, or a
	// preemption awaiting resume. Empty for deployed jobs.
	HoldReason string
	// QueuePosition is the job's 1-based slot in the fair admission
	// order (0 for deployed jobs) — a held job is distinguishable from a
	// stuck one by reason and place in line.
	QueuePosition int
	// Resumable marks a requeued job holding a checkpoint; ResumeIter
	// is the iteration it will continue from on re-admission.
	Resumable  bool
	ResumeIter int
}

func (m *Master) jobViewLocked(name string, j *job) JobView {
	info := m.jobInfoLocked(name, j)
	met, ok := m.profiles.Metrics(name)
	return JobView{
		Name:           name,
		State:          j.status.String(),
		Iteration:      j.iter,
		Loss:           j.loss,
		Workers:        m.workerNamesLocked(j),
		CompSeconds:    info.Comp,
		NetSeconds:     info.Net,
		Profiled:       ok && met.Profiled(),
		CheckpointIter: j.checkpointIter,
		Queue:          j.queue,
		Priority:       j.priority,
	}
}

// pendingViewLocked builds the view of one held job at the given 1-based
// slot in the fair admission order.
func (m *Master) pendingViewLocked(p *pendingJob, position int) JobView {
	return JobView{
		Name:          p.spec.Name,
		State:         StatusPending.String(),
		CompSeconds:   p.info.Comp,
		NetSeconds:    p.info.Net,
		Queue:         p.queue,
		Priority:      p.priority,
		HoldReason:    p.holdReason,
		QueuePosition: position,
		Resumable:     p.resume != nil,
		ResumeIter:    p.resumeIter,
		Iteration:     max(p.resumeIter-1, 0),
	}
}

// ListJobs reports every deployed and pending job, sorted by name.
func (m *Master) ListJobs() []JobView {
	m.mu.RLock()
	defer m.mu.RUnlock()
	views := make([]JobView, 0, len(m.jobs)+len(m.pending))
	for name, j := range m.jobs {
		views = append(views, m.jobViewLocked(name, j))
	}
	view, _ := m.buildViewLocked()
	ordered := m.fairsched.Order(view.Held, view.Usage, view.Total)
	positions := make(map[string]int, len(ordered))
	for i, h := range ordered {
		positions[h.Job] = i + 1
	}
	for _, p := range m.pending {
		views = append(views, m.pendingViewLocked(p, positions[p.spec.Name]))
	}
	sort.Slice(views, func(a, b int) bool { return views[a].Name < views[b].Name })
	return views
}

// Job reports one job's status; ok is false for unknown names.
func (m *Master) Job(name string) (JobView, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if j, ok := m.jobs[name]; ok {
		return m.jobViewLocked(name, j), true
	}
	if p := m.pendingIdx[name]; p != nil {
		return m.pendingViewLocked(p, m.queuePositionLocked(p)), true
	}
	return JobView{}, false
}

// queuePositionLocked is a held job's 1-based slot in the fair admission
// order, counted in one pass over the queue rather than sorted (DESIGN.md
// §13).
func (m *Master) queuePositionLocked(p *pendingJob) int {
	r := m.fairsched.Rank(p.held(), m.usageLocked(), len(m.workers))
	pos, earlier := 1, true
	for _, q := range m.pending {
		if q == p {
			earlier = false
		} else if r.Ahead(q.held(), earlier) {
			pos++
		}
	}
	return pos
}

// GroupView is one live co-location group: the worker set and the jobs
// sharing it.
type GroupView struct {
	Workers []string
	Jobs    []string
}

// ClusterView is the control plane's cluster status: registered workers,
// the current placement derived from running jobs, and the held queue.
type ClusterView struct {
	Workers []string
	Groups  []GroupView
	Pending []string
}

// Cluster reports the cluster status surface.
func (m *Master) Cluster() ClusterView {
	m.mu.RLock()
	defer m.mu.RUnlock()
	cv := ClusterView{Workers: make([]string, len(m.workers))}
	for i, w := range m.workers {
		cv.Workers[i] = w.name
	}
	plan, members := m.livePlanLocked()
	for gi, g := range plan.Groups {
		gv := GroupView{Workers: members[gi]}
		for _, j := range g.Jobs {
			gv.Jobs = append(gv.Jobs, j.ID)
		}
		cv.Groups = append(cv.Groups, gv)
	}
	for _, p := range m.pending {
		cv.Pending = append(cv.Pending, p.spec.Name)
	}
	return cv
}

// Shutdown drains the control plane for a clean exit: it stops admitting
// new work, snapshots every running job's model as a final checkpoint
// (best effort, within the timeout per job), and closes the master. It
// returns the names of the jobs checkpointed.
func (m *Master) Shutdown(timeout time.Duration) []string {
	if timeout <= 0 {
		timeout = time.Minute
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	for _, p := range m.pending {
		if p.finishedCh != nil {
			// Dropped preempted jobs never resume; unpark WaitJob callers.
			close(p.finishedCh)
		}
	}
	m.pending = nil
	m.pendingIdx = make(map[string]*pendingJob)
	m.admitEpoch++
	var targets []*job
	for _, j := range m.jobs {
		if j.status == StatusRunning && j.iter != 0 {
			targets = append(targets, j)
		}
	}
	m.mu.Unlock()
	sort.Slice(targets, func(a, b int) bool { return targets[a].spec.Name < targets[b].spec.Name })

	var saved []string
	for _, j := range targets {
		done := make(chan error, 1)
		go func() {
			_, err := m.checkpoint(j, -1, false)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				saved = append(saved, j.spec.Name)
			}
		case <-time.After(timeout):
			j.ckpt.close() // aborts the Sync, which fails and is counted
		}
	}
	m.Close()
	return saved
}
