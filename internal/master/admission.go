package master

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
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

// demand is the gang size the job must place atomically.
func (j *job) demand() int { return max(j.spec.MinWorkers, 1) }

// Counters aggregates control-plane events. The loop keeps one;
// Master.Counters returns a copy.
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
	// Placements counts placement attempts (place runs): the arrival
	// rule's and every held job's a drain pass reaches.
	Placements int64
	// DrainPasses counts the drain passes' kernel decisions over the held
	// queue; DrainPassSeconds totals the time the loop spent deciding.
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
	var c Counters
	var t *traceState
	m.read(func() {
		c, t = m.counters, m.trace
		c.JournalEvicted = m.journal.evicted()
	})
	if t != nil {
		t.mu.Lock()
		c.SpansLost = t.lost
		t.mu.Unlock()
	}
	return c
}

// accept vets a submission — a well-formed spec, a master that still takes
// work, a name no record holds — and resolves the queue it counts against
// into spec.Queue.
func (m *Master) accept(spec *JobSpec) error {
	if spec.Name == "" || spec.Iterations <= 0 {
		return errors.New("master: job needs a name and positive iterations")
	}
	if m.draining {
		return ErrDraining
	}
	if m.jobs[spec.Name] != nil {
		return fmt.Errorf("master: duplicate job %q: %w", spec.Name, ErrDuplicateJob)
	}
	if spec.Queue == "" {
		spec.Queue = fair.DefaultQueue
	}
	if !m.fairsched.Has(spec.Queue) {
		return fmt.Errorf("master: %w %q", ErrUnknownQueue, spec.Queue)
	}
	return nil
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
	var group []string
	var deployed <-chan error
	err := ErrDraining
	m.do(func() {
		if err = m.accept(&spec); err != nil {
			return
		}
		j := m.newJob(spec, info)
		// The arrival rule: the new job is tried at once, ahead of the queue.
		view, free := m.currentView()
		var pl placement
		ok, reason := m.fairsched.Try(view, j.held(), func(_ fair.Held, limit int) (ok bool, reason string) {
			pl, ok, reason = m.place(j, free, limit)
			return ok, reason
		})
		if ok {
			group, deployed = names(pl.workers), m.admit(j, pl, fromArrival, nil)
			return
		}
		j.holdReason = reason
		m.addPending(j)
		m.counters.HeldPending++
		m.qc(spec.Queue).held++
		m.journal.append(Event{Kind: EventHold, Job: spec.Name, Note: "held: " + reason})
		// A hold in an under-quota queue may be reclaimable right now:
		// the drain pass evaluates preemption against the live plan.
		m.wakeDrainer()
	})
	if err == nil && deployed != nil {
		err = <-deployed
	}
	if err != nil || deployed == nil {
		return Admission{}, err
	}
	return Admission{Admitted: true, Workers: group}, nil
}

// source is where an admission comes from. It picks the journal kind, the
// counters, and the undo of a failed deployment.
type source int

const (
	fromArrival source = iota // the arrival rule placed a submission
	fromQueue                 // a drain pass placed a held job
	fromSubmit                // Submit pinned a submission to its group
	fromMigrate               // Resume pinned a paused job to a new group
)

// notePinned marks the placement of a job Submit pinned to the group its
// caller named, bypassing the admission kernel.
const notePinned = "placed on the submitter's group"

// admit is the one way a job takes workers, for every source: it places
// the held record j — the placement's state starts afresh, the resume
// frame moves into its checkpointer — counts it, journals the placement
// with the model's prediction, and deploys it off the loop once drop's
// members (a migration's old group) have dropped the job. The channel
// yields the deployment's outcome after the loop applied it (deployed); a
// failed migration takes the one restart path instead, resumable from the
// checkpoint Resume was given. A drained admission holds the drain until
// then.
func (m *Master) admit(j *job, pl placement, src source, drop []*workerRef) <-chan error {
	restore, fromIter := j.resume, j.resumeIter
	m.deploySeq++
	j.status, j.workers, j.startSeq, j.epoch = StatusRunning, pl.workers, m.deploySeq, j.epoch+1
	j.barriers, j.doneFrom, j.pausedCh = make(map[int]*barrierState), make(map[string]bool), make(chan struct{})
	j.ckpt, j.resume, j.checkpointIter = &checkpointer{vals: restore}, nil, 0
	if restore != nil {
		j.checkpointIter = j.iter
	}
	m.invalidatePlan()
	e := Event{Kind: EventAdmitArrival, Job: j.spec.Name, Group: names(pl.workers)}
	switch {
	case src == fromMigrate:
		e.Kind = EventMigrate
	case restore != nil:
		e.Kind = EventResume
		e.Note = fmt.Sprintf("resume from checkpoint iteration %d", fromIter-1)
	case src == fromQueue:
		e.Kind = EventQueueDrain
	case pl.initial:
		e.Kind = EventAdmitInitial
	}
	switch src {
	case fromMigrate:
		m.counters.Migrations++
		e = m.stampJobPlacement(e)
	case fromSubmit:
		m.countAdmission(j.spec.Queue, pl.initial, false, 1)
		e.Note = notePinned
		e = m.stampJobPlacement(e)
	default:
		m.countAdmission(j.spec.Queue, pl.initial, src == fromQueue, 1)
		e = m.predictedEvent(e, pl.predicted)
	}
	m.journal.append(e)
	if src == fromQueue {
		m.waiting = true
	}
	done := make(chan error, 1)
	d := j.deployment()
	go func() {
		dropJob(drop, j.spec.Name)
		err := m.deploy(d, restore, fromIter)
		if err != nil && src == fromMigrate {
			m.restart(d, "migration failed: "+err.Error())
		} else {
			m.do(func() { err = m.deployed(d, pl, src, restore, err) })
		}
		done <- err
	}()
	return done
}

// deployed applies the outcome of deployment d on the loop: a drained one
// lets the drain pass decide again, and a migration, which reshaped the
// plan, wakes it. A failed one is undone, unless a cancel or a restart took
// the job meanwhile and owns it now, so that neither the metrics nor a
// replay count a job that never started: the placement is vacated and the
// admission uncounted, with a compensating hold (NoteDeployFailed) after
// it in the journal. A held job goes back to the queue as it was, resume
// frame (restore) included, and the pass ends rather than retrying it at
// once; the master forgets any other job.
func (m *Master) deployed(d deployment, pl placement, src source, restore []float64, err error) error {
	j := d.j
	if src == fromQueue {
		m.waiting = false
	}
	if err == nil || j.status != StatusRunning || j.epoch != d.epoch {
		switch src {
		case fromQueue:
			m.wake = true
		case fromMigrate:
			m.wakeDrainer()
		}
		return nil
	}
	m.vacate(j)
	m.countAdmission(j.spec.Queue, pl.initial, src == fromQueue, -1)
	if src == fromQueue && !m.draining {
		j.resume = restore
		m.addPending(j)
	} else {
		delete(m.jobs, j.spec.Name)
	}
	m.journal.append(Event{Kind: EventHold, Job: j.spec.Name, Note: NoteDeployFailed + err.Error()})
	return err
}

// countAdmission moves the admission counters and the queue's ledger by n
// (1 to count an admission, -1 to take it back).
func (m *Master) countAdmission(queue string, initial, drained bool, n int64) {
	if initial {
		m.counters.AdmittedInitial += n
	} else {
		m.counters.AdmittedArrival += n
	}
	qc := m.qc(queue)
	qc.admitted += n
	if drained {
		m.counters.QueueDrained += n
		qc.drained += n
	}
}

// buildLivePlan derives the scheduler's view of the running cluster from
// scratch: jobs sharing a worker set form one group whose DoP is the set
// size. The parallel slice holds each group's workers in registration
// order. Groups follow compareWorkerSets, jobs their names, so the plan is
// deterministic for a fixed cluster state. Callers go through currentPlan
// (loop.go), which keeps the plan between mutations.
func (m *Master) buildLivePlan() (core.Plan, [][]*workerRef) {
	type entry struct {
		members []*workerRef
		info    core.JobInfo
	}
	var es []entry
	for name, j := range m.jobs {
		if j.status == StatusRunning {
			members := slices.SortedFunc(slices.Values(j.workers), func(a, b *workerRef) int { return a.seq - b.seq })
			es = append(es, entry{members, m.jobInfo(name, j)})
		}
	}
	slices.SortFunc(es, func(a, b entry) int {
		if c := compareWorkerSets(a.members, b.members); c != 0 {
			return c
		}
		return strings.Compare(a.info.ID, b.info.ID)
	})
	var plan core.Plan
	var members [][]*workerRef
	for i, e := range es {
		if i == 0 || compareWorkerSets(e.members, es[i-1].members) != 0 {
			plan.Groups = append(plan.Groups, core.Group{Machines: len(e.members)})
			members = append(members, e.members)
		}
		g := &plan.Groups[len(plan.Groups)-1]
		g.Jobs = append(g.Jobs, e.info)
	}
	return plan, members
}

// jobInfo is the scheduler's view of one deployed job: runtime profiled
// metrics once enough samples accumulated, submission hints before that.
func (m *Master) jobInfo(name string, j *job) core.JobInfo {
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

// Cancel forgets a held job, or stops a deployed job: its barriers are
// released with Stop, its shards and model partitions are dropped from the
// workers, and waiters are unblocked.
func (m *Master) Cancel(name string) error {
	var d deployment
	err := ErrDraining
	m.do(func() {
		err = nil
		switch j := m.jobs[name]; {
		case j == nil:
			err = fmt.Errorf("master: %w %q", ErrUnknownJob, name)
		case j.status == StatusPending:
			m.removePending(j)
			delete(m.jobs, name)
			m.counters.Canceled++
			m.qc(j.spec.Queue).canceled++
			close(j.finishedCh) // it will never run; unpark its WaitJob callers
			// cancel_held is distinct from a running-job cancel so replay
			// can reconstruct queue state: this name never held workers
			// (or had already released them to a preemption).
			note := "canceled while held"
			if j.holdReason != "" {
				note += ": " + j.holdReason
			}
			m.journal.append(Event{Kind: EventCancelHeld, Job: name, Note: note})
		case j.status == StatusFinished:
			err = fmt.Errorf("master: cancel %q: %w", name, ErrJobFinished)
		case j.status != StatusCanceled:
			m.journal.append(m.removalEvent(EventCancel, name, j))
			j.status = StatusCanceled
			m.invalidatePlan()
			m.counters.Canceled++
			m.qc(j.spec.Queue).canceled++
			j.stopBarriers()
			close(j.finishedCh)
			d = j.deployment()
			m.wakeDrainer()
		}
	})
	if d.j != nil {
		d.ckpt.release()
		dropJob(d.workers, name)
	}
	return err
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

// jobView is one job's status; position is a held job's 1-based slot in
// the fair admission order. A held job reports the scheduler's view it is
// placed on and why it waits, a placed one its workers and live metrics.
func (m *Master) jobView(name string, j *job, position int) JobView {
	v := JobView{
		Name:           name,
		State:          j.status.String(),
		Iteration:      j.iter,
		Loss:           j.loss,
		CheckpointIter: j.checkpointIter,
		Queue:          j.spec.Queue,
		Priority:       j.spec.Priority,
	}
	if j.status == StatusPending {
		v.CompSeconds, v.NetSeconds = j.prof.Comp, j.prof.Net
		v.HoldReason, v.QueuePosition = j.holdReason, position
		v.Resumable, v.ResumeIter = j.resume != nil, j.resumeIter
		return v
	}
	info := m.jobInfo(name, j)
	met, ok := m.profiles.Metrics(name)
	v.Workers, v.CompSeconds, v.NetSeconds, v.Profiled = names(j.workers), info.Comp, info.Net, ok && met.Profiled()
	return v
}

// ListJobs reports every job the master knows, sorted by name.
func (m *Master) ListJobs() []JobView {
	var views []JobView
	m.read(func() {
		view, _ := m.currentView()
		ordered := m.fairsched.Order(view.Held, view.Usage, view.Total)
		positions := make(map[string]int, len(ordered))
		for i, h := range ordered {
			positions[h.Job] = i + 1
		}
		views = make([]JobView, 0, len(m.jobs))
		for name, j := range m.jobs {
			views = append(views, m.jobView(name, j, positions[name]))
		}
	})
	sort.Slice(views, func(a, b int) bool { return views[a].Name < views[b].Name })
	return views
}

// Job reports one job's status; ok is false for unknown names.
func (m *Master) Job(name string) (v JobView, ok bool) {
	m.read(func() {
		j := m.jobs[name]
		if ok = j != nil; ok {
			v = m.jobView(name, j, m.queuePosition(j))
		}
	})
	return v, ok
}

// queuePosition is a held job's 1-based slot in the fair admission order,
// counted in one pass over the view's held list rather than sorted
// (DESIGN.md §13); 0 for any other job.
func (m *Master) queuePosition(j *job) int {
	if j.status != StatusPending {
		return 0
	}
	view, _ := m.currentView()
	at := slices.Index(m.pending, j) // the held list is in queue order
	r := m.fairsched.Rank(view.Held[at], view.Usage, view.Total)
	pos := 1
	for i, h := range view.Held {
		if i != at && r.Ahead(h, i < at) {
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
	var cv ClusterView
	m.read(func() { cv = m.cluster() })
	return cv
}

// cluster builds the cluster view, so Snapshot can capture it in the same
// op as the jobs.
func (m *Master) cluster() ClusterView {
	cv := ClusterView{Workers: names(m.workers)}
	lp := m.currentPlan()
	for gi, g := range lp.plan.Groups {
		gv := GroupView{Workers: names(lp.members[gi])}
		for _, j := range g.Jobs {
			gv.Jobs = append(gv.Jobs, j.ID)
		}
		cv.Groups = append(cv.Groups, gv)
	}
	for _, j := range m.pending {
		cv.Pending = append(cv.Pending, j.spec.Name)
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
	var targets []deployment
	if !m.do(func() {
		m.draining = true
		for _, j := range m.pending {
			delete(m.jobs, j.spec.Name)
			close(j.finishedCh) // dropped held jobs never run; unpark WaitJob callers
		}
		m.pending, m.held = nil, nil
		for _, j := range m.jobs {
			if j.status == StatusRunning && j.iter != 0 {
				targets = append(targets, j.deployment())
			}
		}
	}) {
		return nil
	}
	sort.Slice(targets, func(a, b int) bool { return targets[a].j.spec.Name < targets[b].j.spec.Name })

	var saved []string
	for _, d := range targets {
		done := make(chan error, 1)
		go func() {
			_, err := m.checkpoint(d, -1, false)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				saved = append(saved, d.j.spec.Name)
			}
		case <-time.After(timeout):
			d.ckpt.close() // aborts the Sync, which fails and is counted
		}
	}
	m.Close()
	return saved
}
