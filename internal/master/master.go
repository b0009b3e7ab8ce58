// Package master implements the live Harmony master (Fig. 6): it accepts
// worker registrations, submits Parameter-Server jobs across them,
// synchronizes every job's distributed iterations (the SubTask
// Synchronizer of Fig. 7), profiles subtask times, and regroups jobs with
// Algorithm 1 — pausing, checkpointing and migrating models between
// worker groups (§IV-B4).
package master

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/metrics"
	"harmony/internal/mlapp"
	"harmony/internal/obs"
	"harmony/internal/profile"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// JobSpec describes one training job submission.
type JobSpec struct {
	Name       string
	Config     mlapp.Config
	Iterations int
	// Alpha is the initial disk-block spill ratio on each worker.
	Alpha float64
	// Seed drives synthetic data generation and model init.
	Seed int64
	// Queue names the admission queue (DESIGN.md §13); empty means the
	// default queue.
	Queue string
	// Priority orders jobs within a queue (higher first) and protects
	// running jobs from preemption (lowest-priority victims go first).
	Priority int
	// MinWorkers is the job's gang size: its full worker set places
	// atomically or the whole job holds — never partial. <= 1 means any
	// single worker suffices.
	MinWorkers int
	// MaxWorkers caps the placement size (0 = no cap). A flood of
	// MaxWorkers=1 jobs shares a cluster instead of serializing on it.
	MaxWorkers int
}

// JobStatus reports a job's lifecycle.
type JobStatus int

// Job states (§III). StatusPending and StatusCanceled extend the paper's
// lifecycle for the online control plane: pending jobs wait in the
// admission queue, canceled jobs were stopped by an operator.
const (
	StatusRunning JobStatus = iota + 1
	StatusPaused
	StatusFinished
	StatusPending
	StatusCanceled
)

// String names the state for status surfaces and metrics labels.
func (s JobStatus) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusPaused:
		return "paused"
	case StatusFinished:
		return "finished"
	case StatusPending:
		return "pending"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

type workerRef struct {
	name   string
	addr   string
	client *rpc.Client
}

type barrierState struct {
	arrived int
	waiters []chan worker.Directive
}

// stopBarriers releases every worker parked at one of the job's
// barriers with Stop and forgets the barriers. Caller holds Master.mu's
// write side.
func (j *job) stopBarriers() {
	for _, bs := range j.barriers {
		for _, ch := range bs.waiters {
			ch <- worker.Stop
		}
	}
	j.barriers = make(map[int]*barrierState)
}

// ended reports whether the job finished or was canceled. Caller holds
// Master.mu.
func (j *job) ended() bool {
	return j.status == StatusFinished || j.status == StatusCanceled
}

// releasing reports whether the job's members drop, or have dropped, what
// they hold of it: it ended, or a member completed its loop and released
// its own share. Caller holds Master.mu.
func (j *job) releasing() bool {
	return j.ended() || len(j.doneFrom) > 0
}

type job struct {
	spec    JobSpec
	workers []int // indexes into Master.workers
	status  JobStatus
	iter    int // last completed iteration (max over barriers)

	// queue and priority are the fair-scheduler coordinates (§13);
	// arrival is the submission sequence number (kept across preemption
	// so a reclaimed job resumes ahead of later arrivals in its queue),
	// startSeq the deployment sequence (recency for victim selection).
	queue    string
	priority int
	arrival  uint64
	startSeq uint64

	// prof carries the submitter's profile hints (§IV-B1 shape); live
	// profiled metrics supersede it once MinSamples have accumulated.
	prof core.JobInfo

	// epoch counts deployments of this job. A restart and a migration tear
	// a placement down while its stragglers may still have barrier or
	// done RPCs in flight; those echo the old epoch and are discarded so
	// they cannot pollute the new placement's barrier counts.
	epoch int

	barriers map[int]*barrierState
	doneFrom map[string]bool
	loss     float64

	// ckpt holds the latest model checkpoint (§VI fault tolerance) and the
	// means of taking the next; checkpointIter is the iteration it covers.
	ckpt           checkpointer
	checkpointIter int

	pauseRequested bool
	pausedCh       chan struct{} // closed when the pause takes effect
	finishedCh     chan struct{} // closed when all workers complete

	// measIter tracks measured iteration seconds as an EWMA of the wall
	// time between consecutive barrier releases; the decision journal
	// reports it beside the model's predicted T_itr.
	measIter    float64
	lastRelease time.Time
}

// Master coordinates the live runtime. Create with New; stop with Close.
type Master struct {
	srv  *rpc.Server
	addr string

	// mu is a read/write split (DESIGN.md §15): status surfaces
	// (ListJobs, Job, Cluster, Counters, Queues, queue views, /metrics
	// scrapes) take the read side and do not contend with admission,
	// which — like every state mutation — holds the write side.
	mu       sync.RWMutex
	workers  []workerRef
	jobs     map[string]*job
	pending  []*pendingJob
	profiles *profile.Store
	opts     core.Options
	counters Counters
	draining bool
	closed   bool

	// pendingIdx indexes m.pending by job name so duplicate checks and
	// drain lookups are O(1) instead of scans of a 10K-deep queue.
	// Maintained by addPendingLocked/removePendingLocked.
	pendingIdx map[string]*pendingJob

	// The admission fast path's two caches (DESIGN.md §15), both under
	// mu's write side: the live plan with its Scorer (planCache, dropped
	// by invalidatePlanLocked), and the kernel's view with the free-worker
	// list (viewCache, freeCache), current while inputEpoch equals
	// admitEpoch. admitEpoch versions every input of a decision: it moves
	// with every plan invalidation, worker registration, queue policy,
	// shutdown, and change of the held queue.
	planCache  *livePlanCache
	admitEpoch uint64
	inputEpoch uint64
	viewCache  fair.View
	freeCache  []string

	// The single drainer goroutine (drainLoop): wakeups coalesce through
	// the 1-buffered drainCh, so a burst of holds and completions
	// triggers one batched pass.
	drainCh       chan struct{}
	drainStop     chan struct{}
	drainStopOnce sync.Once

	// Fair-scheduler state (fairsched.go): the active queue policy, a
	// per-queue counter ledger, the arrival/deployment sequence clocks,
	// and the reclaim latch that serializes preemption rounds.
	fairsched  *fair.Scheduler
	qcounters  map[string]*queueCounters
	arrivalSeq uint64
	deploySeq  uint64
	reclaiming bool

	// journal records scheduler decisions (always on; bounded ring).
	// trace, when non-nil, collects worker spans for /v1/trace.
	journal *journal
	trace   *traceState
}

// New starts a master listening on addr ("127.0.0.1:0" for tests).
func New(addr string, opts core.Options) (*Master, error) {
	m := &Master{
		srv:        rpc.NewServer(),
		jobs:       make(map[string]*job),
		pendingIdx: make(map[string]*pendingJob),
		profiles:   profile.NewStore(profile.DefaultEWMAAlpha),
		opts:       opts,
		journal:    newJournal(DefaultJournalCapacity),
		fairsched:  fair.Default(),
		qcounters:  make(map[string]*queueCounters),
		admitEpoch: 1,
		drainCh:    make(chan struct{}, 1),
		drainStop:  make(chan struct{}),
	}
	go m.drainLoop()
	m.srv.Handle("master.register", rpc.Typed(m.handleRegister))
	m.srv.Handle(worker.MethodBarrier, rpc.Typed(m.handleBarrier))
	m.srv.Handle(worker.MethodJobDone, rpc.Typed(m.handleJobDone))
	bound, err := m.srv.Listen(addr)
	if err != nil {
		return nil, err
	}
	m.addr = bound
	return m, nil
}

// Addr is the master's RPC address for workers to dial.
func (m *Master) Addr() string { return m.addr }

type registerArgs struct {
	Name string
	Addr string
}

func (m *Master) handleRegister(a registerArgs) (worker.Ack, error) {
	client, err := rpc.Dial(a.Addr, 10*time.Second)
	if err != nil {
		return worker.Ack{}, fmt.Errorf("master: dial back worker %s: %w", a.Name, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		client.Close()
		return worker.Ack{}, rpc.ErrClosed
	}
	for _, w := range m.workers {
		if w.name == a.Name {
			client.Close()
			return worker.Ack{}, fmt.Errorf("master: duplicate worker name %q", a.Name)
		}
	}
	m.workers = append(m.workers, workerRef{name: a.Name, addr: a.Addr, client: client})
	// The failure detector: the connection closes when the worker dies.
	go func() { <-client.Done(); m.workerLost(a.Name) }()
	// A new worker extends the free list, so the cached view is stale.
	// Appending leaves existing worker indexes — and so the live plan —
	// intact. Held jobs may fit now.
	m.admitEpoch++
	m.wakeDrainer()
	return worker.Ack{}, nil
}

// WaitForWorkers blocks until n workers have registered.
func (m *Master) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.RLock()
		got := len(m.workers)
		m.mu.RUnlock()
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("master: %d of %d workers after %s", got, n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Workers reports registered worker names.
func (m *Master) Workers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, len(m.workers))
	for i, w := range m.workers {
		names[i] = w.name
	}
	return names
}

// Submit loads and starts a job across the given workers (all registered
// workers when group is nil), bypassing the admission queue.
func (m *Master) Submit(spec JobSpec, group []string) error {
	p := &pendingJob{spec: spec, info: core.JobInfo{ID: spec.Name}}
	m.mu.Lock()
	var j *job
	var err error
	if p.queue, err = m.acceptLocked(spec); err == nil {
		j, err = m.installLocked(p, group)
	}
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if err := m.deploy(j, nil, 0); err != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.withdrawLocked(j) {
			return err
		}
	}
	return nil
}

// installLocked enters the record of a (possibly previously preempted)
// job, deployed on the named workers, in m.jobs. The pendingJob carries
// the admission path's profile hints, the queue coordinates, and — after
// a preemption — the checkpoint frame to restore from. The caller holds
// mu's write side and has vetted the name, by acceptLocked or by taking
// the job off the queue in the same hold: so no status read, cancel or
// same-name submission finds the name unknown while the job moves from
// the queue onto its workers.
func (m *Master) installLocked(p *pendingJob, group []string) (*job, error) {
	idxs, err := m.workerIndexesLocked(group)
	if err != nil {
		return nil, err
	}
	if p.seq == 0 {
		m.arrivalSeq++
		p.seq = m.arrivalSeq
	}
	m.deploySeq++
	j := &job{
		// epoch advances past every prior deployment of this name, so a
		// preempted placement's stragglers stay stale after the resume.
		spec: p.spec, workers: idxs, status: StatusRunning, prof: p.info, epoch: p.epoch + 1,
		queue: p.queue, priority: p.spec.Priority, arrival: p.seq, startSeq: m.deploySeq,
		barriers:   make(map[int]*barrierState),
		doneFrom:   make(map[string]bool),
		pausedCh:   make(chan struct{}),
		finishedCh: p.finishedCh,
	}
	if j.finishedCh == nil {
		j.finishedCh = make(chan struct{})
	}
	if p.resume != nil {
		j.iter = p.resumeIter - 1
		j.ckpt.vals = p.resume
		j.checkpointIter = p.resumeIter - 1
	}
	m.jobs[p.spec.Name] = j
	m.invalidatePlanLocked()
	return j, nil
}

// withdrawLocked takes a job whose deployment failed back out of m.jobs
// and reports true — unless a Cancel or a restart caught the job
// mid-deployment and owns it now: then it is not failed, and must not be
// requeued.
func (m *Master) withdrawLocked(j *job) bool {
	if j.status != StatusRunning || m.jobs[j.spec.Name] != j {
		return false
	}
	// Members that did start may already be parked at the first
	// barrier; once the record is gone nothing else would release them.
	j.stopBarriers()
	delete(m.jobs, j.spec.Name)
	m.invalidatePlanLocked()
	return true
}

func (m *Master) workerIndexesLocked(group []string) ([]int, error) {
	if len(m.workers) == 0 {
		return nil, errors.New("master: no workers registered")
	}
	if group == nil {
		idxs := make([]int, len(m.workers))
		for i := range idxs {
			idxs[i] = i
		}
		return idxs, nil
	}
	var idxs []int
	for _, name := range group {
		found := -1
		for i, w := range m.workers {
			if w.name == name {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("master: %w %q", ErrUnknownWorker, name)
		}
		idxs = append(idxs, found)
	}
	if len(idxs) == 0 {
		return nil, errors.New("master: empty worker group")
	}
	return idxs, nil
}

// deploy loads a job onto its worker group and starts iterating; restore
// carries checkpointed model parameters for migrations. A deployment that
// fails, or finds the job canceled or requeued once its loads are in (the
// teardown's own drop may have overtaken a load), tells every member to
// drop the job: member 0's load seeds a model partition on
// every member's server, and the members that did load would keep a shard
// store and a PS client until the process exits. The loads go out one
// member at a time: sent together they finish
// sooner when a load is real work, but against workers that answer at once
// the burst only delays whatever else the master is serving (CHANGES.md,
// PR 18).
func (m *Master) deploy(j *job, restore []float64, fromIter int) error {
	m.mu.Lock()
	epoch := j.epoch
	refs := m.workerRefsLocked(j)
	m.mu.Unlock()
	servers := make([]string, len(refs))
	for i, r := range refs {
		servers[i] = r.addr
	}
	var err error
	for i, r := range refs {
		args := worker.LoadJobArgs{
			Job: j.spec.Name, Config: j.spec.Config, Servers: servers,
			ShardIndex: i, ShardCount: len(refs), Seed: j.spec.Seed,
			InitModel: i == 0, Alpha: j.spec.Alpha,
		}
		if i == 0 && restore != nil {
			// Checkpointed models ride the data plane's float-frame codec:
			// a gob []float64 would walk every element reflectively.
			args.RestoreFrame = rpc.AppendFloats(nil, restore)
		}
		if _, e := rpc.Invoke[worker.LoadJobArgs, worker.Ack](r.client,
			worker.MethodLoadJob, args, time.Minute); e != nil {
			err = fmt.Errorf("master: load %s on %s: %w", j.spec.Name, r.name, e)
			break
		}
	}
	m.mu.RLock()
	if err == nil && j.status != StatusRunning {
		err = fmt.Errorf("master: %s was canceled or requeued while it loaded", j.spec.Name)
	}
	m.mu.RUnlock()
	for i := 0; err == nil && i < len(refs); i++ {
		if _, e := rpc.Invoke[worker.StartJobArgs, worker.Ack](refs[i].client,
			worker.MethodStartJob, worker.StartJobArgs{
				Job: j.spec.Name, FromIteration: fromIter, Iterations: j.spec.Iterations,
				Epoch: epoch,
			}, time.Minute); e != nil {
			err = fmt.Errorf("master: start %s on %s: %w", j.spec.Name, refs[i].name, e)
		}
	}
	if err != nil {
		dropJob(refs, j.spec.Name)
	}
	return err
}

// handleBarrier blocks each worker until the whole group reaches the
// iteration boundary, then releases them with the pending directive.
func (m *Master) handleBarrier(a worker.BarrierArgs) (worker.BarrierReply, error) {
	m.mu.Lock()
	j, ok := m.jobs[a.Job]
	if !ok {
		m.mu.Unlock()
		return worker.BarrierReply{Directive: worker.Stop}, nil
	}
	if j.ended() {
		// A canceled job's stragglers must not park at a barrier no
		// group-mate will ever reach.
		m.mu.Unlock()
		return worker.BarrierReply{Directive: worker.Stop}, nil
	}
	if a.Epoch != j.epoch {
		// Straggler from a placement that a restart or migration already
		// tore down; counting it would desync the new group's barrier.
		m.mu.Unlock()
		return worker.BarrierReply{Directive: worker.Stop}, nil
	}
	if m.draining || m.closed {
		// Wind-down: a barrier call that parked here after Close released
		// the existing waiters would pin the RPC server's handler wait
		// group until the barrier timeout.
		m.mu.Unlock()
		return worker.BarrierReply{Directive: worker.Stop}, nil
	}
	// Every observation can move the scheduler-visible profile (the EWMA
	// supersedes submission hints once MinSamples accumulate), so the
	// cached plan is stale; the same bump covers the pause flip below.
	_ = m.profiles.Observe(a.Job, len(j.workers), a.CompSeconds, a.NetSeconds)
	m.invalidatePlanLocked()
	j.loss = a.Loss
	if a.Iteration > j.iter {
		j.iter = a.Iteration
	}
	bs := j.barriers[a.Iteration]
	if bs == nil {
		bs = &barrierState{}
		j.barriers[a.Iteration] = bs
	}
	bs.arrived++
	if bs.arrived < len(j.workers) {
		ch := make(chan worker.Directive, 1)
		bs.waiters = append(bs.waiters, ch)
		m.mu.Unlock()
		select {
		case d := <-ch:
			return worker.BarrierReply{Directive: d}, nil
		case <-time.After(5 * time.Minute):
			return worker.BarrierReply{Directive: worker.Stop},
				errors.New("master: barrier timed out")
		}
	}
	// Last arrival: release the whole group. The wall time between
	// releases is the measured group iteration time the journal compares
	// against the model's prediction.
	now := time.Now()
	if !j.lastRelease.IsZero() {
		dt := now.Sub(j.lastRelease).Seconds()
		if j.measIter <= 0 {
			j.measIter = dt
		} else {
			j.measIter = 0.3*dt + 0.7*j.measIter
		}
	}
	j.lastRelease = now
	d := worker.Continue
	if j.pauseRequested {
		d = worker.Pause
		j.status = StatusPaused
		j.pauseRequested = false
		close(j.pausedCh)
	}
	// The barrier entry is deleted under the lock BEFORE the release
	// below: once gone, Close and workerLost can no longer see these
	// waiters, so the sends after the unlock are the only sends.
	delete(j.barriers, a.Iteration)
	if d == worker.Continue {
		m.maybeCheckpoint(j, a.Iteration)
	}
	waiters := bs.waiters
	m.mu.Unlock()
	for _, ch := range waiters {
		ch <- d
	}
	return worker.BarrierReply{Directive: d}, nil
}

// handleJobDone counts a member's completion; each member then releases
// the job's state on its own, so the last one here only has the master's
// checkpoint to release. A member whose loop failed (a.Err) keeps its
// state, and the job restarts.
func (m *Master) handleJobDone(a worker.JobDoneArgs) (worker.Ack, error) {
	m.mu.Lock()
	j, ok := m.jobs[a.Job]
	if !ok || a.Epoch != j.epoch {
		m.mu.Unlock()
		return worker.Ack{}, nil
	}
	if a.Err != "" {
		m.mu.Unlock()
		go m.restart(j, a.Epoch, "member failed: "+a.Err)
		return worker.Ack{}, nil
	}
	j.doneFrom[a.Worker] = true
	finished := len(j.doneFrom) >= len(j.workers) && !j.ended()
	if finished {
		m.journal.append(m.removalEventLocked(EventComplete, a.Job, j))
		j.status = StatusFinished
		m.invalidatePlanLocked()
		close(j.finishedCh)
		// A completion frees capacity: drain the admission queue (§IV-B4).
		m.wakeDrainer()
	}
	m.mu.Unlock()
	if finished {
		j.ckpt.release()
	}
	return worker.Ack{}, nil
}

// WaitJob blocks until the job completes.
func (m *Master) WaitJob(name string, timeout time.Duration) error {
	m.mu.RLock()
	var ch chan struct{}
	if j, ok := m.jobs[name]; ok {
		ch = j.finishedCh
	} else if p := m.pendingIdx[name]; p != nil {
		// A held job is known work: it completes after a drain (or a
		// resume from preemption) eventually deploys it. The channel
		// survives the pending→deployed transition.
		ch = p.finishedCh
	}
	m.mu.RUnlock()
	if ch == nil {
		return fmt.Errorf("master: %w %q", ErrUnknownJob, name)
	}
	select {
	case <-ch:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("master: job %q not finished after %s", name, timeout)
	}
}

// Metrics exposes the profiled (T_cpu, T_net) estimates for a job.
func (m *Master) Metrics(name string) (profile.Metrics, bool) {
	return m.profiles.Metrics(name)
}

// Pause stops a job at its next iteration boundary and returns its model
// checkpoint (§IV-B4: "waits until ongoing iteration ends, stops the
// subtasks of the job, and checkpoints the model parameters").
func (m *Master) Pause(name string, timeout time.Duration) ([]float64, error) {
	m.mu.Lock()
	j, ok := m.jobs[name]
	if !ok || j.status != StatusRunning {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: job %q not running", name)
	}
	j.pauseRequested = true
	pausedCh := j.pausedCh
	finishedCh := j.finishedCh
	m.mu.Unlock()

	select {
	case <-pausedCh:
	case <-finishedCh:
		return nil, fmt.Errorf("master: job %q finished before pausing", name)
	case <-time.After(timeout):
		return nil, fmt.Errorf("master: pause of %q timed out", name)
	}
	return m.checkpoint(j, -1, true)
}

// Resume migrates a paused job onto a (possibly different) worker group,
// restoring the checkpointed model; input shards are regenerated, not
// migrated (§IV-B4). A deploy that fails leaves the job paused holding no
// workers, with the failure in the migrate event's note, for a later
// Resume to retry.
func (m *Master) Resume(name string, group []string, checkpoint []float64) error {
	m.mu.Lock()
	j, ok := m.jobs[name]
	if !ok || j.status != StatusPaused {
		m.mu.Unlock()
		return fmt.Errorf("master: job %q not paused", name)
	}
	idxs, err := m.workerIndexesLocked(group)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	oldRefs := m.workerRefsLocked(j)
	j.workers = idxs
	j.status = StatusRunning
	j.pausedCh = make(chan struct{})
	j.doneFrom = make(map[string]bool)
	j.epoch++
	epoch, fromIter := j.epoch, j.iter+1
	m.counters.Migrations++
	// The stamp must see the new placement, not the cached plan.
	m.invalidatePlanLocked()
	ev := m.stampJobPlacementLocked(Event{Kind: EventMigrate, Job: name, Group: m.workerNamesLocked(j)})
	j.measIter = 0
	j.lastRelease = time.Time{}
	m.mu.Unlock()

	// Shards and model partitions are rebuilt on the new group.
	dropJob(oldRefs, name)
	// Journal after the deploy attempt so a failed one is auditable in
	// place: the PS client stamps the failing server's address into its
	// fan-out errors, and that identity surfaces here.
	if err = m.deploy(j, checkpoint, fromIter); err != nil {
		ev.Note = "deploy failed: " + err.Error()
		m.mu.Lock()
		if j.status == StatusRunning && j.epoch == epoch { // not canceled or re-placed meanwhile
			j.status = StatusPaused
			j.workers = nil
			j.stopBarriers()
			j.epoch++ // what the failed deploy started is stale too
			m.invalidatePlanLocked()
		}
		m.mu.Unlock()
	}
	m.journal.append(ev)
	// A regroup reshapes the plan and a failed one frees its workers:
	// retry held jobs (§IV-B4).
	m.wakeDrainer()
	return err
}

// workerRefsLocked resolves a job's current worker set to its RPC
// handles, for fan-out after the lock is released.
func (m *Master) workerRefsLocked(j *job) []workerRef {
	refs := make([]workerRef, len(j.workers))
	for i, wi := range j.workers {
		refs[i] = m.workers[wi]
	}
	return refs
}

// serverAddrsLocked lists the PS addresses of a job's current group (each
// worker co-hosts a server).
func (m *Master) serverAddrsLocked(j *job) []string {
	addrs := make([]string, len(j.workers))
	for i, wi := range j.workers {
		addrs[i] = m.workers[wi].addr
	}
	return addrs
}

// PlanGroups runs Algorithm 1 over the profiled jobs that still hold
// machines (running or paused), mapping machine counts to concrete worker
// subsets. It returns job→workers assignments without applying them;
// callers migrate via Pause/Resume.
func (m *Master) PlanGroups() (map[string][]string, error) {
	m.mu.RLock()
	var infos []core.JobInfo
	for name, j := range m.jobs {
		if j.status != StatusRunning && j.status != StatusPaused {
			continue
		}
		if met, ok := m.profiles.Metrics(name); ok && met.Profiled() {
			infos = append(infos, m.jobInfoLocked(name, j))
		}
	}
	total := len(m.workers)
	names := make([]string, len(m.workers))
	for i, w := range m.workers {
		names[i] = w.name
	}
	m.mu.RUnlock()
	if len(infos) == 0 {
		return nil, errors.New("master: no profiled jobs to plan")
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].ID < infos[b].ID })
	plan := core.Schedule(infos, total, m.opts)
	if len(plan.Groups) == 0 {
		return nil, errors.New("master: scheduler produced no groups")
	}
	out := make(map[string][]string)
	next := 0
	for _, g := range plan.Groups {
		take := g.Machines
		if next+take > total {
			take = total - next
		}
		if take < 1 {
			take = 1
			next = total - 1
		}
		members := names[next : next+take]
		next += take
		for _, job := range g.Jobs {
			out[job.ID] = members
		}
	}
	return out, nil
}

// WorkerTotals is one pass of worker.stats over the cluster, the only way
// the master reads its workers. CPUUtil and NetUtil are mean executor busy
// fractions, valid when UtilErr is nil (there are workers and all
// answered). Comm and Comp sum data-plane traffic and compute-path health
// over this process — checkpoints ride the same data plane — and every
// worker that answered, counted once per owning process (in-process
// workers share this process's counters); best effort, a worker
// mid-restart is skipped. LoadedJobs sums the jobs the answering workers
// hold: a job counts once per member until its members release it. PS
// holds the co-hosted parameter server of every worker that answered, and
// PhaseHist sums their per-phase latency histograms. Traced reports that
// this master collects traces; then the pass also collects each worker's
// new spans, and Spans is every span retained after it.
type WorkerTotals struct {
	CPUUtil, NetUtil float64
	UtilErr          error
	Comm             metrics.CommSnapshot
	Comp             metrics.CompSnapshot
	LoadedJobs       int
	PS               ps.ClusterStats
	PhaseHist        [obs.NumPhases]metrics.HistSnapshot
	Traced           bool
	Spans            []obs.TaggedSpan
}

// WorkerTotals scrapes every worker once. WorkerStats, CommStats, PSStats,
// PhaseStats, CollectSpans and MeasuredOverlap are views of it for callers
// that want one part.
func (m *Master) WorkerTotals() WorkerTotals {
	m.mu.RLock()
	refs := append([]workerRef(nil), m.workers...)
	tr := m.trace
	var groups map[string]string
	if tr != nil {
		groups = m.groupNamesLocked()
	}
	m.mu.RUnlock()
	t := WorkerTotals{Traced: tr != nil}
	comm := map[string]metrics.CommSnapshot{metrics.ProcessID(): metrics.Comm.Snapshot()}
	comp := map[string]metrics.CompSnapshot{metrics.ProcessID(): metrics.Comp.Snapshot()}
	for _, r := range refs {
		args := worker.StatsArgs{SpanAfter: worker.SpanCursorNone}
		if tr != nil {
			args.SpanAfter = tr.cursor(r.name)
		}
		st, err := rpc.Invoke[worker.StatsArgs, worker.StatsReply](r.client,
			worker.MethodStats, args, collectTimeout)
		if err != nil {
			if t.UtilErr == nil {
				t.UtilErr = fmt.Errorf("master: stats from %s (%s): %w", r.name, r.addr, err)
			}
			continue
		}
		t.CPUUtil += st.CPUUtil
		t.NetUtil += st.NetUtil
		t.LoadedJobs += st.Jobs
		comm[st.CommProcess], comp[st.CommProcess] = st.Comm, st.Comp
		t.PS.Servers = append(t.PS.Servers, ps.ServerStats{Name: r.name, Addr: r.addr, StatsReply: st.PS})
		for p := range t.PhaseHist {
			t.PhaseHist[p] = t.PhaseHist[p].Add(st.PhaseHist[p])
		}
		if tr != nil {
			tr.ingest(r.name, st.Spans, groups)
		}
	}
	if len(refs) == 0 {
		t.UtilErr = errors.New("master: no workers")
	} else {
		t.CPUUtil /= float64(len(refs))
		t.NetUtil /= float64(len(refs))
	}
	for _, s := range comm {
		t.Comm = t.Comm.Add(s)
	}
	for _, s := range comp {
		t.Comp = t.Comp.Add(s)
	}
	if tr != nil {
		t.Spans = tr.retained()
	}
	return t
}

// WorkerStats aggregates executor utilization across workers.
func (m *Master) WorkerStats() (cpu, net float64, err error) {
	t := m.WorkerTotals()
	if t.UtilErr != nil {
		return 0, 0, t.UtilErr
	}
	return t.CPUUtil, t.NetUtil, nil
}

// CommStats sums data-plane traffic across the cluster.
func (m *Master) CommStats() metrics.CommSnapshot { return m.WorkerTotals().Comm }

// PSStats merges per-stripe parameter-server statistics across workers.
// Best effort per worker — one mid-restart worker must not blank the
// cluster view — so it errors only when no server answered.
func (m *Master) PSStats() (ps.ClusterStats, error) {
	t := m.WorkerTotals()
	if len(t.PS.Servers) == 0 {
		return t.PS, t.UtilErr
	}
	return t.PS, nil
}

// PhaseStats sums per-phase latency histograms across workers. ok is
// false when tracing is disabled on this master.
func (m *Master) PhaseStats() (hist [obs.NumPhases]metrics.HistSnapshot, ok bool) {
	t := m.WorkerTotals()
	return t.PhaseHist, t.Traced
}

// CollectSpans pulls new spans from every worker into the bounded
// retention buffer and returns a copy of all retained spans, tagged with
// the recording machine and the job's group at collection. Returns nil
// when tracing is disabled.
func (m *Master) CollectSpans() []obs.TaggedSpan { return m.WorkerTotals().Spans }

// MeasuredOverlap reports, per co-location group, the measured fraction
// of machine busy time where COMP and COMM subtasks ran simultaneously —
// the live counterpart of the model's utilization claim — over the spans
// retained after a fresh collection; nil when tracing is disabled.
func (m *Master) MeasuredOverlap() map[string]float64 {
	spans := m.CollectSpans()
	if spans == nil {
		return nil
	}
	return obs.OverlapByGroup(spans)
}

// Close releases all barriers with Stop and shuts the master down.
func (m *Master) Close() {
	// Signal the drainer first; it exits after at most one more round
	// (each round re-checks m.closed under the lock).
	m.drainStopOnce.Do(func() { close(m.drainStop) })
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for _, j := range m.jobs {
		j.stopBarriers()
	}
	clients := make([]*rpc.Client, 0, len(m.workers))
	for _, w := range m.workers {
		clients = append(clients, w.client)
	}
	for _, j := range m.jobs {
		j.ckpt.close()
	}
	m.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	m.srv.Close()
}
