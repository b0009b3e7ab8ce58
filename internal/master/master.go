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
	"slices"
	"sort"
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

// workerRef is one registered worker. seq numbers registrations: worker
// sets are ordered by it, which is also the order of Master.workers. busy
// is buildView's scratch mark, false outside it.
type workerRef struct {
	name   string
	addr   string
	client *rpc.Client
	seq    int
	busy   bool
}

type barrierState struct {
	arrived int
	waiters []chan worker.Directive
}

// stopBarriers releases every worker parked at one of the job's
// barriers with Stop and forgets the barriers.
func (j *job) stopBarriers() {
	for _, bs := range j.barriers {
		for _, ch := range bs.waiters {
			ch <- worker.Stop
		}
	}
	j.barriers = make(map[int]*barrierState)
}

// unpark releases a Pause or a reclaim waiting for the job to pause at a
// barrier, when its placement goes and the pause will not come.
func (j *job) unpark() {
	if j.pauseRequested {
		close(j.pausedCh)
		j.pauseRequested = false
	}
}

// ended reports whether the job finished or was canceled.
func (j *job) ended() bool {
	return j.status == StatusFinished || j.status == StatusCanceled
}

// releasing reports whether the job's members drop, or have dropped, what
// they hold of it: it ended, or a member completed its loop and released
// its own share.
func (j *job) releasing() bool {
	return j.ended() || len(j.doneFrom) > 0
}

// job is the one record of a job from the accepted submission to its end
// (DESIGN.md §15): admit places it, hold and vacate take it off its
// workers.
type job struct {
	spec JobSpec
	// spec.Queue and spec.Priority are the fair-scheduler coordinates
	// (§13); arrival is the submission sequence number (kept across
	// preemption so a reclaimed job resumes ahead of later arrivals in its
	// queue), startSeq the deployment sequence (recency for victim
	// selection).
	arrival  uint64
	startSeq uint64

	// holdReason classifies why a held job waits (fair.Hold*); resume is the
	// checkpoint frame its next placement restores, at resumeIter.
	holdReason string
	resume     []float64
	resumeIter int

	workers []*workerRef // nil while held; replaced, never written into
	status  JobStatus
	iter    int // last completed iteration (max over barriers)

	// prof carries the submitter's profile hints (§IV-B1 shape), or the
	// scheduler's view of the job when it last left its workers (hold); live
	// profiled metrics supersede it once MinSamples have accumulated.
	prof core.JobInfo

	// epoch names the placement: a placement, a restart, a lost member and
	// vacate advance it, so a held job's is one no placement used. A torn-down
	// placement's stragglers echo an old epoch and are discarded.
	epoch int

	barriers map[int]*barrierState
	doneFrom map[string]bool
	loss     float64

	// ckpt holds the placement's latest model checkpoint (§VI fault
	// tolerance) and the means of taking the next; checkpointIter is the
	// iteration it covers.
	ckpt           *checkpointer
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

	// The loop (loop.go) is the master's one writer: it runs every op
	// posted on ops, and every field below it is the loop's alone. stopped
	// closes when Close has stopped it.
	ops     chan func()
	stopped chan struct{}

	// jobs holds every job's record by name and pending the held ones, in
	// queue order; workerSeq numbers registrations.
	workers   []*workerRef
	workerSeq int
	jobs      map[string]*job
	pending   []*job
	profiles  *profile.Store
	opts      core.Options
	counters  Counters
	draining  bool
	closed    bool

	// The derived values (DESIGN.md §15), nil while stale: the live plan
	// with its Scorer, which invalidatePlan drops; the kernel's view of the
	// placements with the free workers, which invalidateView drops too; and
	// the view's held list, which a change of the held queue edits in place.
	plan *livePlan
	view *kernelView
	held []fair.Held

	// The drain (decide): wake asks for a decision, and waiting holds it
	// while the last one's deployment or reclaim is out. parked keeps ops
	// from waking it, so that tests run each pass themselves.
	wake, waiting, parked bool

	// Fair-scheduler state (fairsched.go): the active queue policy, a
	// per-queue counter ledger, and the arrival/deployment sequence clocks.
	fairsched  *fair.Scheduler
	qcounters  map[string]*queueCounters
	arrivalSeq uint64
	deploySeq  uint64

	// journal records scheduler decisions (always on; bounded ring).
	// trace, when non-nil, collects worker spans for /v1/trace.
	journal *journal
	trace   *traceState
}

// New starts a master listening on addr ("127.0.0.1:0" for tests).
func New(addr string, opts core.Options) (*Master, error) {
	m := &Master{
		srv:       rpc.NewServer(),
		ops:       make(chan func()),
		stopped:   make(chan struct{}),
		jobs:      make(map[string]*job),
		profiles:  profile.NewStore(profile.DefaultEWMAAlpha),
		opts:      opts,
		journal:   newJournal(DefaultJournalCapacity),
		fairsched: fair.Default(),
		qcounters: make(map[string]*queueCounters),
	}
	go m.loop()
	m.srv.Handle("master.register", rpc.Typed(m.handleRegister))
	m.srv.Handle(worker.MethodBarrier, rpc.Typed(m.handleBarrier))
	m.srv.Handle(worker.MethodJobDone, rpc.Typed(m.handleJobDone))
	bound, err := m.srv.Listen(addr)
	if err != nil {
		m.Close()
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
	err = rpc.ErrClosed
	m.do(func() {
		if slices.ContainsFunc(m.workers, func(w *workerRef) bool { return w.name == a.Name }) {
			err = fmt.Errorf("master: duplicate worker name %q", a.Name)
			return
		}
		err = nil
		m.workerSeq++
		m.workers = append(m.workers, &workerRef{name: a.Name, addr: a.Addr, client: client, seq: m.workerSeq})
		// The failure detector: the connection closes when the worker dies.
		go func() { <-client.Done(); m.workerLost(a.Name) }()
		// The free list grows: held jobs may fit now.
		m.invalidateView()
		m.wakeDrainer()
	})
	if err != nil {
		client.Close()
	}
	return worker.Ack{}, err
}

// WaitForWorkers blocks until n workers have registered.
func (m *Master) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		got := len(m.Workers())
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
	var ns []string
	m.read(func() { ns = names(m.workers) })
	return ns
}

// names lists the workers' names.
func names(ws []*workerRef) []string {
	ns := make([]string, len(ws))
	for i, w := range ws {
		ns[i] = w.name
	}
	return ns
}

// addrs lists the workers' addresses, which are their PS servers' too.
func addrs(ws []*workerRef) []string {
	as := make([]string, len(ws))
	for i, w := range ws {
		as[i] = w.addr
	}
	return as
}

// Submit loads and starts a job across the given workers (all registered
// workers when group is nil), bypassing the admission kernel: the job is
// pinned there through the same path as an admission (admit), counted in
// its queue and journaled with notePinned.
func (m *Master) Submit(spec JobSpec, group []string) error {
	var deployed <-chan error
	err := ErrDraining
	m.do(func() {
		if err = m.accept(&spec); err != nil {
			return
		}
		var ws []*workerRef
		if ws, err = m.lookupWorkers(group); err != nil {
			return
		}
		initial := len(m.currentPlan().plan.Groups) == 0
		deployed = m.admit(m.newJob(spec, core.JobInfo{ID: spec.Name}), placement{workers: ws, initial: initial}, fromSubmit, nil)
	})
	if err != nil {
		return err
	}
	return <-deployed
}

// newJob enters the record of an accepted submission in m.jobs, held (and
// waitable: WaitJob parks on finishedCh) until admit places it.
func (m *Master) newJob(spec JobSpec, prof core.JobInfo) *job {
	m.arrivalSeq++
	j := &job{spec: spec, status: StatusPending, prof: prof, arrival: m.arrivalSeq, finishedCh: make(chan struct{})}
	m.jobs[spec.Name] = j
	return j
}

// lookupWorkers resolves a group of worker names (every registered worker
// when nil); a name that is unknown or repeats refuses the group.
func (m *Master) lookupWorkers(group []string) ([]*workerRef, error) {
	if group == nil {
		group = names(m.workers)
	}
	if len(group) == 0 {
		return nil, errors.New("master: no workers to place on")
	}
	ws := make([]*workerRef, len(group))
	for i, name := range group {
		if slices.Contains(group[:i], name) {
			return nil, fmt.Errorf("master: the group names worker %q twice", name)
		}
		k := slices.IndexFunc(m.workers, func(w *workerRef) bool { return w.name == name })
		if k < 0 {
			return nil, fmt.Errorf("master: %w %q", ErrUnknownWorker, name)
		}
		ws[i] = m.workers[k]
	}
	return ws, nil
}

// deploy loads a job onto the workers of its placement d and starts
// iterating from fromIter. A fresh job's model is seeded by member 0's
// load; a resumed job's checkpoint (restore) is seeded on the placement's
// servers by the master before any load, and the client that did it is
// kept for the placement's checkpoints. It runs off the loop. A deployment
// that fails, or finds its placement gone once its loads are in (a cancel
// or a restart took the job, and the teardown's own drop may have
// overtaken a load), tells every member to drop the job: the seed put a
// model partition on every member's server, and the members that did load
// would keep a shard store and a PS client until the process exits. The
// loads go out one member at a time: sent together they finish sooner when
// a load is real work, but against workers that answer at once the burst
// only delays whatever else the master is serving (CHANGES.md).
func (m *Master) deploy(d deployment, restore []float64, fromIter int) error {
	j, refs, servers := d.j, d.workers, addrs(d.workers)
	var err error
	if restore != nil {
		var cl *ps.Client
		if cl, err = ps.NewClient(servers, time.Minute); err == nil {
			if err = cl.Init(j.spec.Name, restore); err != nil || !d.ckpt.client.CompareAndSwap(nil, cl) {
				cl.Close()
			}
		}
	}
	for i := 0; err == nil && i < len(refs); i++ {
		args := worker.LoadJobArgs{
			Job: j.spec.Name, Config: j.spec.Config, Servers: servers,
			ShardIndex: i, ShardCount: len(refs), Seed: j.spec.Seed,
			InitModel: i == 0 && restore == nil, Alpha: j.spec.Alpha,
		}
		if _, e := rpc.Invoke[worker.LoadJobArgs, worker.Ack](refs[i].client,
			worker.MethodLoadJob, args, time.Minute); e != nil {
			err = fmt.Errorf("master: load %s on %s: %w", j.spec.Name, refs[i].name, e)
		}
	}
	if err == nil {
		stands := false
		m.read(func() { stands = j.status == StatusRunning && j.epoch == d.epoch })
		if !stands {
			err = fmt.Errorf("master: %s was canceled or requeued while it loaded", j.spec.Name)
		}
	}
	for i := 0; err == nil && i < len(refs); i++ {
		if _, e := rpc.Invoke[worker.StartJobArgs, worker.Ack](refs[i].client,
			worker.MethodStartJob, worker.StartJobArgs{
				Job: j.spec.Name, FromIteration: fromIter, Iterations: j.spec.Iterations,
				Epoch: d.epoch,
			}, time.Minute); e != nil {
			err = fmt.Errorf("master: start %s on %s: %w", j.spec.Name, refs[i].name, e)
		}
	}
	if err != nil {
		d.ckpt.close() // the seed's client, which a teardown before the seed missed
		dropJob(refs, j.spec.Name)
	}
	return err
}

// handleBarrier blocks each worker until the whole group reaches the
// iteration boundary, then releases them with the pending directive.
func (m *Master) handleBarrier(a worker.BarrierArgs) (worker.BarrierReply, error) {
	d := worker.Stop
	var wait chan worker.Directive
	m.do(func() {
		j := m.jobs[a.Job]
		// A canceled job's stragglers must not park at a barrier no
		// group-mate will ever reach; a straggler from a placement a
		// restart or migration tore down would desync the new group's
		// barrier; and one that parked while the master winds down would
		// pin the RPC server's handler wait group until the barrier timeout.
		if j == nil || j.status == StatusPending || j.ended() || a.Epoch != j.epoch || m.draining {
			return
		}
		// Every observation can move the scheduler-visible profile (the EWMA
		// supersedes submission hints once MinSamples accumulate), so the
		// live plan is stale; the same mark covers the pause flip below.
		_ = m.profiles.Observe(a.Job, len(j.workers), a.CompSeconds, a.NetSeconds)
		m.invalidatePlan()
		j.loss = float64(a.Loss)
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
			wait = make(chan worker.Directive, 1)
			bs.waiters = append(bs.waiters, wait)
			return
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
		d = worker.Continue
		if j.pauseRequested {
			d = worker.Pause
			j.status = StatusPaused
			j.pauseRequested = false
			close(j.pausedCh)
		}
		delete(j.barriers, a.Iteration)
		// Checkpoints run off the loop so the release is not delayed; the
		// last iteration's model is released, not restored.
		if i := a.Iteration; d == worker.Continue && i != 0 && i%CheckpointEvery == 0 && i < j.spec.Iterations-1 {
			go m.checkpoint(j.deployment(), i, false)
		}
		for _, ch := range bs.waiters {
			ch <- d
		}
	})
	if wait == nil {
		return worker.BarrierReply{Directive: d}, nil
	}
	select {
	case d := <-wait:
		return worker.BarrierReply{Directive: d}, nil
	case <-time.After(5 * time.Minute):
		return worker.BarrierReply{Directive: worker.Stop},
			errors.New("master: barrier timed out")
	}
}

// handleJobDone counts a member's completion; each member then releases
// the job's state on its own, so the last one here only has the master's
// checkpoint to release. A member whose loop failed (a.Err) keeps its
// state, and the job restarts.
func (m *Master) handleJobDone(a worker.JobDoneArgs) (worker.Ack, error) {
	var d deployment
	var finished, failed bool
	m.do(func() {
		j := m.jobs[a.Job]
		if j == nil || j.status == StatusPending || a.Epoch != j.epoch {
			return
		}
		if d, failed = j.deployment(), a.Err != ""; failed {
			return
		}
		j.doneFrom[a.Worker] = true
		if finished = len(j.doneFrom) >= len(j.workers) && !j.ended(); finished {
			m.journal.append(m.removalEvent(EventComplete, a.Job, j))
			j.status = StatusFinished
			m.invalidatePlan()
			close(j.finishedCh)
			// A completion frees capacity: drain the admission queue (§IV-B4).
			m.wakeDrainer()
		}
	})
	switch {
	case failed:
		go m.restart(d, "member failed: "+a.Err)
	case finished:
		d.ckpt.release()
	}
	return worker.Ack{}, nil
}

// WaitJob blocks until the job completes.
func (m *Master) WaitJob(name string, timeout time.Duration) error {
	var ch chan struct{}
	m.read(func() {
		if j := m.jobs[name]; j != nil {
			ch = j.finishedCh
		}
	})
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
// subtasks of the job, and checkpoints the model parameters"). A pause
// that has not landed by the timeout is withdrawn.
func (m *Master) Pause(name string, timeout time.Duration) ([]float64, error) {
	var d deployment
	m.do(func() {
		if j := m.jobs[name]; j != nil && j.status == StatusRunning {
			j.pauseRequested, d = true, j.deployment()
		}
	})
	if d.j == nil {
		return nil, fmt.Errorf("master: job %q not running", name)
	}
	select {
	case <-d.paused:
	case <-d.j.finishedCh:
		return nil, fmt.Errorf("master: job %q finished before pausing", name)
	case <-time.After(timeout):
		if m.withdrawPause(d) {
			return nil, fmt.Errorf("master: pause of %q timed out", name)
		}
	}
	return m.checkpoint(d, -1, true)
}

// Resume migrates a paused job onto a (possibly different) worker group,
// restoring the checkpointed model; input shards are regenerated, not
// migrated (§IV-B4). The job is pinned to the group through the same path
// as an admission (admit), journaled as a migration, after its old group
// dropped it. A deploy that fails requeues the job through a recover row,
// held and resumable from checkpoint, for a drain pass to place.
func (m *Master) Resume(name string, group []string, checkpoint []float64) error {
	var deployed <-chan error
	err := ErrDraining
	m.do(func() {
		j := m.jobs[name]
		if j == nil || j.status != StatusPaused {
			err = fmt.Errorf("master: job %q not paused", name)
			return
		}
		var ws []*workerRef
		if ws, err = m.lookupWorkers(group); err != nil {
			return
		}
		// Shards and model partitions are rebuilt on the new group.
		old := j.workers
		m.hold(j, checkpoint, j.iter+1)
		deployed = m.admit(j, placement{workers: ws}, fromMigrate, old)
	})
	if err != nil {
		return err
	}
	return <-deployed
}

// PlanGroups runs Algorithm 1 over the profiled jobs that still hold
// machines (running or paused), mapping machine counts to concrete worker
// subsets. It returns job→workers assignments without applying them;
// callers migrate via Pause/Resume.
func (m *Master) PlanGroups() (map[string][]string, error) {
	var infos []core.JobInfo
	var ns []string
	m.read(func() {
		for name, j := range m.jobs {
			if j.status != StatusRunning && j.status != StatusPaused {
				continue
			}
			if met, ok := m.profiles.Metrics(name); ok && met.Profiled() {
				infos = append(infos, m.jobInfo(name, j))
			}
		}
		ns = names(m.workers)
	})
	total := len(ns)
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
		members := ns[next : next+take]
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
	var refs []*workerRef
	var tr *traceState
	var groups map[string]string
	m.read(func() {
		refs, tr = slices.Clone(m.workers), m.trace
		if tr != nil {
			groups = m.groupNames()
		}
	})
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
		if st.PhaseHist != nil {
			for p := range t.PhaseHist {
				t.PhaseHist[p] = t.PhaseHist[p].Add(st.PhaseHist[p])
			}
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
	var clients []*rpc.Client
	if !m.do(func() {
		m.closed = true // the loop stops after this op
		for _, j := range m.jobs {
			j.stopBarriers()
			if j.ckpt != nil {
				j.ckpt.close()
			}
		}
		for _, w := range m.workers {
			clients = append(clients, w.client)
		}
		// Reads after the loop stops run on their callers (read), so the
		// derived values they use must already be built.
		m.currentPlan()
		m.currentView()
	}) {
		return
	}
	<-m.stopped
	for _, c := range clients {
		c.Close()
	}
	m.srv.Close()
}
