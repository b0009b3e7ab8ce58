package master

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// The model test drives the master through seeded random sequences of the
// operations that move its derived state — submissions, cancels,
// completions, failed members, profile observations, drain passes with
// preemptions, worker registrations and losses, queue reconfigurations,
// failed deployments — and after every step checks each value the loop
// keeps (the live plan and the admission view, DESIGN.md §15) against a
// rebuild from scratch and every read surface against itself with them
// dropped. Each seed's decisions are pinned in
// testdata/model_seed<N>.log.gz. Its concurrent variant runs the same
// operations from several goroutines against the running loop and checks
// the same once the master is quiet.

const (
	modelSeeds = 8
	modelSteps = 1250
	// modelDepth bounds the held queue.
	modelDepth = 10
	// modelIterations is every job's iteration budget: the master's
	// background checkpoints start at iteration 5 and skip the last one,
	// so with 5 none runs and each step's outcome is the step's alone.
	modelIterations = 5
)

func TestModelCachesMatchRecomputation(t *testing.T) {
	steps := modelSteps
	if raceEnabled {
		steps /= 8
	}
	for seed := int64(1); seed <= modelSeeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			pinLog(t, fmt.Sprintf("testdata/model_seed%d.log.gz", seed), runModel(t, seed, steps), steps)
		})
	}
}

// pinLog compares the decision log of a run of steps steps with the
// pinned log, or with its first steps steps when the run is shorter. On a
// mismatch it writes the new log to a temporary file, names it, and shows
// the first differing line under the step that produced it; gzip -9n of
// that file is the new pinned log.
func pinLog(t *testing.T, path, got string, steps int) {
	t.Helper()
	want, err := readGzip(path)
	if i := strings.Index(want, fmt.Sprintf("## step %d:", steps+1)); i >= 0 {
		want = want[:i]
	}
	if err == nil && want == got {
		return
	}
	f, ferr := os.CreateTemp("", "harmony-model-*.log")
	if ferr != nil {
		t.Fatal(ferr)
	}
	defer f.Close()
	if _, ferr := f.WriteString(got); ferr != nil {
		t.Fatal(ferr)
	}
	if err != nil {
		t.Fatalf("%v (the log is in %s)", err, f.Name())
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	step := ""
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			t.Fatalf("decisions differ from %s (the new log is in %s), at %s\n- %s\n+ %s", path, f.Name(), step, w[i], g[i])
		}
		if strings.HasPrefix(w[i], "## ") {
			step = w[i]
		}
	}
	t.Fatalf("decisions differ from %s in length (the new log is in %s): %d lines, want %d", path, f.Name(), len(g), len(w))
}

func readGzip(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return "", err
	}
	b, err := io.ReadAll(zr)
	return string(b), err
}

// modelRig is one goroutine of a seeded run: its random source and the
// run it drives.
type modelRig struct {
	*modelRun
	rng *rand.Rand
}

// modelRun is one seeded run: a master, stub workers that each co-host a
// parameter server (so a preempted job's pause checkpoints and its resume
// restores), and the decision log. A sequential run parks the master's
// drain and runs each pass as a step; a concurrent one leaves it to the
// loop.
type modelRun struct {
	t          *testing.T
	m          *Master
	concurrent bool
	log        strings.Builder
	seq        uint64 // the last journal row logged
	// lastHeld and lastCluster are the held queue's reasons and the
	// cluster view as last logged.
	lastHeld, lastCluster string

	mu      sync.Mutex
	jobs    int             // names handed out: j0000, j0001, ...
	regs    int             // workers registered: w00, w01, ...
	failJob string          // the next load of this job fails, once
	driving map[string]bool // jobs a barrier round or a completion drives
}

func (r *modelRun) nextJob() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs++
	return fmt.Sprintf("j%04d", r.jobs-1)
}

// drive claims a job for one barrier round or completion: two of them on
// one job at once would mix their arrivals. It reports false when another
// goroutine holds the job; release gives it back.
func (r *modelRun) drive(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.driving[name] {
		return false
	}
	r.driving[name] = true
	return true
}

func (r *modelRun) release(name string) {
	r.mu.Lock()
	delete(r.driving, name)
	r.mu.Unlock()
}

// modelOp is one kind of step, drawn with its weight.
type modelOp struct {
	weight int
	do     func() string // "" when the op does not apply now
}

// ops is the op generator. A sequential run drains as a step of its own; a
// concurrent one never draws a drain, which the loop runs by itself.
func (r *modelRig) ops() []modelOp {
	drains := 4
	if r.concurrent {
		drains = 0
	}
	return []modelOp{
		{8, r.submit},
		{2, r.cancelHeld},
		{1, r.cancelRunning},
		{3, r.complete},
		{1, r.failMember},
		{4, r.barrier},
		{drains, r.drain},
		{1, r.register},
		{1, r.loseWorker},
		{1, r.configure},
		{1, r.failDeploy},
	}
}

// step draws ops until one applies and returns what it did.
func (r *modelRig) step(ops []modelOp) string {
	total := 0
	for _, o := range ops {
		total += o.weight
	}
	for {
		n := r.rng.Intn(total)
		for _, o := range ops {
			if n -= o.weight; n < 0 {
				if what := o.do(); what != "" {
					return what
				}
				break
			}
		}
	}
}

func runModel(t *testing.T, seed int64, steps int) string {
	opts := core.Options{MaxJobsPerGroup: 1 + int(seed%3), NetModel: seed%2 == 0}
	m, err := New("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	park(m)
	r := newModelRig(t, m, seed, false)
	ops := r.ops()
	for step := 1; step <= steps; step++ {
		what := r.step(ops)
		fmt.Fprintf(&r.log, "## step %d: %s\n", step, what)
		r.record(what)
		r.check()
		if t.Failed() {
			t.Fatalf("seed %d failed at step %d (%s)", seed, step, what)
		}
	}
	// Closed before the stub servers, so their teardown is not a failure.
	m.Close()
	return r.log.String()
}

// newModelRig starts a run on m: four workers, a queue policy, and the
// journal rows so far logged.
func newModelRig(t *testing.T, m *Master, seed int64, concurrent bool) *modelRig {
	r := &modelRig{modelRun: &modelRun{t: t, m: m, concurrent: concurrent, driving: make(map[string]bool)},
		rng: rand.New(rand.NewSource(seed))}
	fmt.Fprintf(&r.log, "# seed %d, MaxJobsPerGroup %d, NetModel %v\n", seed, m.opts.MaxJobsPerGroup, m.opts.NetModel)
	for i := 0; i < 4; i++ {
		r.addWorker()
	}
	r.configure()
	r.record("")
	return r
}

// TestModelConcurrent is the model test's concurrent variant: four
// goroutines draw from the same op generator against the running loop,
// which drains by itself. Once they are done and the master is quiet, the
// run is checked as the sequential test checks each step. Run it under
// -race too.
func TestModelConcurrent(t *testing.T) {
	steps := 400
	if raceEnabled {
		steps = 100
	}
	for seed := int64(1); seed <= modelSeeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			opts := core.Options{MaxJobsPerGroup: 1 + int(seed%3), NetModel: seed%2 == 0}
			m, err := New("127.0.0.1:0", opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			r := newModelRig(t, m, seed, true)
			var wg sync.WaitGroup
			for g := int64(0); g < 4; g++ {
				wg.Add(1)
				go func(rig *modelRig) {
					defer wg.Done()
					ops := rig.ops()
					for i := 0; i < steps && !t.Failed(); i++ {
						rig.step(ops)
					}
				}(&modelRig{modelRun: r.modelRun, rng: rand.New(rand.NewSource(seed*10 + g))})
			}
			wg.Wait()
			r.quiesce()
			if evs := m.Events(); len(evs) > 0 {
				r.seq = evs[0].Seq - 1 // the ring has evicted the rows before
			}
			r.record("")
			r.check()
			m.Close()
		})
	}
}

// quiesce waits until the master is quiet: no drain decision pending or
// waiting on a deployment or a reclaim. A victim a reclaim waits on pauses
// at the barrier round this runs for it.
func (r *modelRig) quiesce() {
	for {
		if name := r.pausing(); name != "" {
			r.barrierRound(name)
			continue
		}
		busy := false
		r.m.read(func() { busy = r.m.wake || r.m.waiting })
		if !busy {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// addWorker starts a stub worker on its own server and registers it. The
// load hook fails a deployment the test asked to fail; otherwise the
// member told to (member 0 of a fresh job) seeds the job's model on every
// member's parameter server, as a real worker does. A resumed job's
// servers the master has seeded itself.
func (r *modelRig) addWorker() string {
	r.mu.Lock()
	name := fmt.Sprintf("w%02d", r.regs)
	r.regs++
	r.mu.Unlock()
	srv, store := rpc.NewServer(), ps.NewServer()
	store.Register(srv)
	srv.Handle(worker.MethodLoadJob, rpc.Typed(func(a worker.LoadJobArgs) (worker.Ack, error) {
		r.mu.Lock()
		fail := a.Job == r.failJob
		if fail {
			r.failJob = ""
		}
		r.mu.Unlock()
		if fail {
			return worker.Ack{}, errors.New("injected load failure")
		}
		if !a.InitModel {
			return worker.Ack{}, nil
		}
		model := make([]float64, a.Config.ModelSize())
		cl, err := ps.NewClient(a.Servers, time.Minute)
		if err != nil {
			return worker.Ack{}, err
		}
		defer cl.Close()
		return worker.Ack{}, cl.Init(a.Job, model)
	}))
	srv.Handle(worker.MethodStartJob, rpc.Typed(func(worker.StartJobArgs) (worker.Ack, error) {
		return worker.Ack{}, nil
	}))
	srv.Handle(worker.MethodDropJob, rpc.Typed(func(a worker.DropJobArgs) (worker.Ack, error) {
		store.Drop(a.Job)
		return worker.Ack{}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		r.t.Error(err)
		return name
	}
	r.t.Cleanup(func() { srv.Close(); store.Close() })
	if _, err := r.m.handleRegister(registerArgs{Name: name, Addr: addr}); err != nil {
		r.t.Error(err)
		return name
	}
	return name
}

// jobsIn lists the deployed jobs in the given state, by name.
func (r *modelRig) jobsIn(s JobStatus) []string {
	var names []string
	r.m.read(func() {
		for name, j := range r.m.jobs {
			if j.status == s {
				names = append(names, name)
			}
		}
	})
	slices.Sort(names)
	return names
}

// held lists the held jobs in queue order.
func (r *modelRig) held() (names []string) {
	r.m.read(func() {
		for _, p := range r.m.pending {
			names = append(names, p.spec.Name)
		}
	})
	return names
}

func (r *modelRig) pick(names []string) string {
	if len(names) == 0 {
		return ""
	}
	return names[r.rng.Intn(len(names))]
}

// placementOf reads a deployed job's record, members and epoch.
// It reads no members of a job that is gone.
func (r *modelRig) placementOf(name string) (j *job, members []string, epoch int) {
	r.m.read(func() {
		if j = r.m.jobs[name]; j != nil {
			members, epoch = names(j.workers), j.epoch
		}
	})
	return j, members, epoch
}

// submit enqueues a new job while fewer than modelDepth are held: with or
// without profile hints, a gang of one to three workers, a cap or none, a
// random queue and priority.
func (r *modelRig) submit() string {
	if len(r.held()) >= modelDepth {
		return ""
	}
	name := r.nextJob()
	min := 1 + r.rng.Intn(3)
	max := 0
	if r.rng.Intn(2) == 0 {
		max = min + r.rng.Intn(3)
	}
	s := fairSpec(name, modelIterations, []string{"", "qa", "qb"}[r.rng.Intn(3)], min, max)
	s.Priority = r.rng.Intn(3)
	var prof Profile
	if r.rng.Intn(3) > 0 {
		prof = Profile{CompSeconds: float64(1+r.rng.Intn(20)) / 10, NetSeconds: float64(1+r.rng.Intn(20)) / 20}
	}
	adm, err := r.m.Enqueue(s, prof)
	return fmt.Sprintf("submit %s q=%s p=%d gang=%d-%d prof=%v/%v: %v %v %v",
		name, s.Queue, s.Priority, min, max, prof.CompSeconds, prof.NetSeconds, adm.Admitted, adm.Workers, err)
}

func (r *modelRig) cancelHeld() string {
	name := r.pick(r.held())
	if name == "" {
		return ""
	}
	return fmt.Sprintf("cancel held %s: %v", name, r.m.Cancel(name))
}

func (r *modelRig) cancelRunning() string {
	name := r.pick(append(r.jobsIn(StatusRunning), r.jobsIn(StatusPaused)...))
	if name == "" {
		return ""
	}
	return fmt.Sprintf("cancel %s: %v", name, r.m.Cancel(name))
}

// complete reports the job done from every member.
func (r *modelRig) complete() string {
	name := r.pick(r.jobsIn(StatusRunning))
	if name == "" || !r.drive(name) {
		return ""
	}
	defer r.release(name)
	_, members, epoch := r.placementOf(name)
	for _, w := range members {
		if _, err := r.m.handleJobDone(worker.JobDoneArgs{Job: name, Worker: w, Epoch: epoch}); err != nil {
			r.t.Error(err)
		}
	}
	return "complete " + name
}

// failMember reports one member's loop failed, then waits for the
// restart to requeue the job (or, in a concurrent run, for whatever else
// ended it first).
func (r *modelRig) failMember() string {
	name := r.pick(r.jobsIn(StatusRunning))
	if name == "" {
		return ""
	}
	j, members, epoch := r.placementOf(name)
	if len(members) == 0 {
		return ""
	}
	if _, err := r.m.handleJobDone(worker.JobDoneArgs{Job: name, Worker: members[0], Epoch: epoch,
		Err: "injected failure"}); err != nil {
		r.t.Error(err)
	}
	// The job has left the placement once it ended or is held, or once a
	// later placement replaced it: a restart advances the epoch as it
	// stops the placement, and the requeue once more as it vacates it.
	for requeued := false; !requeued; {
		r.m.read(func() { requeued = j.ended() || j.status == StatusPending || j.epoch > epoch+1 })
		if !requeued {
			time.Sleep(20 * time.Microsecond)
		}
	}
	return fmt.Sprintf("fail member %s of %s", members[0], name)
}

// barrier runs one barrier round of a running job: every member observes
// the same subtask times, so the profile does not depend on their order.
func (r *modelRig) barrier() string {
	name := r.pick(r.jobsIn(StatusRunning))
	if name == "" {
		return ""
	}
	return r.barrierRound(name)
}

// It claims the job first (drive): a round on a job another goroutine
// drives, or on a job that is gone, does not apply.
func (r *modelRig) barrierRound(name string) string {
	if !r.drive(name) {
		return ""
	}
	defer r.release(name)
	var a worker.BarrierArgs
	var members []string
	r.m.read(func() {
		if j := r.m.jobs[name]; j != nil && j.status != StatusPending {
			a = worker.BarrierArgs{Job: name, Iteration: j.iter + 1, Epoch: j.epoch}
			members = names(j.workers)
		}
	})
	if members == nil {
		return ""
	}
	a.CompSeconds, a.NetSeconds = float64(1+r.rng.Intn(20))/20, float64(1+r.rng.Intn(20))/20
	var wg sync.WaitGroup
	for _, w := range members {
		wg.Add(1)
		go func(a worker.BarrierArgs) {
			defer wg.Done()
			if _, err := r.m.handleBarrier(a); err != nil {
				r.t.Error(err)
			}
		}(worker.BarrierArgs{Job: a.Job, Worker: w, Iteration: a.Iteration, Epoch: a.Epoch,
			CompSeconds: a.CompSeconds, NetSeconds: a.NetSeconds})
	}
	wg.Wait()
	return fmt.Sprintf("barrier %s iteration %d comp=%v net=%v", name, a.Iteration, a.CompSeconds, a.NetSeconds)
}

// drain runs one drain pass. A victim the pass preempts pauses at its
// next barrier, which the test runs; then the pass goes on.
func (r *modelRig) drain() string {
	done := make(chan struct{})
	go func() {
		r.m.drainQueue()
		close(done)
	}()
	var rounds []string
	for {
		select {
		case <-done:
			return "drain" + strings.Join(rounds, "")
		default:
		}
		if name := r.pausing(); name != "" {
			rounds = append(rounds, "; "+r.barrierRound(name))
			continue
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// pausing names a running job a preemption waits on to pause, the first
// in the order the preemption journaled its victims.
func (r *modelRig) pausing() (name string) {
	evs := r.m.EventsSince(r.seq, EventPreempt)
	r.m.read(func() {
		for _, e := range evs {
			if j := r.m.jobs[e.Job]; j != nil && j.status == StatusRunning && j.pauseRequested {
				name = e.Job
				return
			}
		}
	})
	return name
}

func (r *modelRig) register() string {
	if len(r.m.Workers()) >= 8 {
		return ""
	}
	return "register " + r.addWorker()
}

func (r *modelRig) loseWorker() string {
	workers := r.m.Workers()
	if len(workers) <= 2 {
		return ""
	}
	name := r.pick(workers)
	r.m.workerLost(name)
	return "lose " + name
}

// configure installs a random policy over qa and qb; dropping qb is
// refused while a job uses it, and refuses submissions to qb after.
func (r *modelRig) configure() string {
	quota := []float64{0, 0.25, 0.5}
	cfgs := []fair.QueueConfig{
		{Name: "qa", Quota: quota[r.rng.Intn(3)], Weight: float64(1 + r.rng.Intn(2))},
		{Name: "qb", Quota: quota[r.rng.Intn(3)], Weight: float64(1 + r.rng.Intn(2))},
	}
	if r.rng.Intn(4) == 0 {
		cfgs = cfgs[:1]
	}
	desc := make([]string, len(cfgs))
	for i, c := range cfgs {
		desc[i] = fmt.Sprintf("%s quota=%v weight=%v", c.Name, c.Quota, c.Weight)
	}
	// The error names whichever job map order finds first.
	return fmt.Sprintf("configure %s: refused=%v", strings.Join(desc, ", "), r.m.ConfigureQueues(cfgs...) != nil)
}

// failDeploy makes the next load of one job fail: a held job's, followed
// by a drain pass, or a new submission's.
func (r *modelRig) failDeploy() string {
	r.mu.Lock()
	name, run := fmt.Sprintf("j%04d", r.jobs), r.submit
	r.mu.Unlock()
	if held := r.held(); !r.concurrent && len(held) > 0 && r.rng.Intn(2) == 0 {
		name, run = r.pick(held), r.drain
	}
	r.setFailJob(name)
	defer r.setFailJob("")
	if what := run(); what != "" {
		return "fail the next load of " + name + ": " + what
	}
	return ""
}

func (r *modelRig) setFailJob(name string) {
	r.mu.Lock()
	r.failJob = name
	r.mu.Unlock()
}

// jobName matches the names nextJob hands out.
var jobName = regexp.MustCompile(`\bj\d{4}\b`)

// record appends the step's journal rows, without their time and measured
// values; every held job's reason when one changed; the status read of
// each job the step's op (what) or its rows named; and the cluster view
// when it changed.
func (r *modelRig) record(what string) {
	named := jobName.FindAllString(what, -1)
	for _, e := range r.m.EventsSince(r.seq, "") {
		if e.Seq != r.seq+1 {
			r.t.Errorf("journal seq %d follows %d", e.Seq, r.seq)
		}
		r.seq = e.Seq
		fmt.Fprintf(&r.log, "%d %s %s %v %v/%v/%v/%v %q\n", e.Seq, e.Kind, e.Job, e.Group,
			e.PredictedIterSeconds, e.PredictedCPUUtil, e.PredictedNetUtil, e.PredictedCompatibility, e.Note)
		named = append(named, e.Job)
	}
	var b strings.Builder
	b.WriteString("held:")
	r.m.read(func() {
		for _, p := range r.m.pending {
			fmt.Fprintf(&b, " %s=%s", p.spec.Name, p.holdReason)
		}
	})
	if held := b.String(); held != r.lastHeld {
		r.lastHeld = held
		r.log.WriteString(held + "\n")
	}
	slices.Sort(named)
	for _, name := range slices.Compact(named) {
		v, ok := r.m.Job(name)
		if !ok {
			fmt.Fprintf(&r.log, "job %s unknown\n", name)
			continue
		}
		fmt.Fprintf(&r.log, "job %s %s iter=%d on %v pos=%d hold=%q resume=%v/%d ckpt=%d profiled=%v %v/%v\n",
			name, v.State, v.Iteration, v.Workers, v.QueuePosition, v.HoldReason, v.Resumable, v.ResumeIter,
			v.CheckpointIter, v.Profiled, v.CompSeconds, v.NetSeconds)
	}
	cv := r.m.Cluster()
	if c := fmt.Sprintf("cluster: %v %v %v", cv.Workers, cv.Groups, cv.Pending); c != r.lastCluster {
		r.lastCluster = c
		r.log.WriteString(c + "\n")
	}
}

// modelReads is every read surface the caches feed. Job is read for the
// jobs that have not ended: an ended job's view reads no cache.
type modelReads struct {
	jobs    map[string]JobView
	list    []JobView
	queues  []QueueView
	cluster ClusterView
}

func (r *modelRig) reads() modelReads {
	rd := modelReads{jobs: make(map[string]JobView), list: r.m.ListJobs(),
		queues: r.m.Queues(), cluster: r.m.Cluster()}
	for _, v := range rd.list {
		if v.State != StatusFinished.String() && v.State != StatusCanceled.String() {
			rd.jobs[v.Name], _ = r.m.Job(v.Name)
		}
	}
	return rd
}

// withoutCaches runs read with the loop's derived values dropped, so that
// the reads rebuild them, then puts the old ones back: the run goes on
// with whatever the loop kept.
func (m *Master) withoutCaches(read func()) {
	var plan *livePlan
	var view *kernelView
	var held []fair.Held
	m.do(func() { plan, view, held, m.plan, m.view, m.held = m.plan, m.view, m.held, nil, nil, nil })
	read()
	m.do(func() { m.plan, m.view, m.held = plan, view, held })
}

// check is the model: each cache equals its rebuild, the read surfaces
// read the same without the caches, and the master's books balance.
func (r *modelRig) check() {
	t, m := r.t, r.m
	m.do(func() {
		if c := m.plan; c != nil {
			plan, members := m.buildLivePlan()
			if !reflect.DeepEqual(c.plan, plan) || !reflect.DeepEqual(c.members, members) {
				t.Errorf("kept plan %+v on %v, rebuilt %+v on %v", c.plan, c.members, plan, members)
			}
		}
		if c := m.view; c != nil {
			v, free := m.buildView()
			if !reflect.DeepEqual(c.view, v) || !slices.Equal(c.free, free) {
				t.Errorf("kept view %+v free %v, rebuilt %+v free %v", c.view, c.free, v, free)
			}
		}
		if m.held != nil {
			for i, j := range m.pending {
				if i >= len(m.held) || m.held[i] != j.held() {
					t.Errorf("kept held list %+v, queue at %d holds %+v", m.held, i, j.held())
				}
			}
			if len(m.held) != len(m.pending) {
				t.Errorf("kept held list of %d, queue of %d", len(m.held), len(m.pending))
			}
		}
		// Every queued record is held, queued once and on no workers, and
		// every held record is queued.
		queued := make(map[*job]bool)
		for _, j := range m.pending {
			if j.status != StatusPending || queued[j] || j.workers != nil {
				t.Errorf("queued job %s: %v, queued before %v, on %v", j.spec.Name, j.status, queued[j], names(j.workers))
			}
			queued[j] = true
		}
		held := 0
		for name, j := range m.jobs {
			if j.status == StatusPending {
				held++
				if !queued[j] {
					t.Errorf("held job %s is not queued", name)
				}
			}
		}
		if held != len(queued) {
			t.Errorf("%d jobs queued, %d held", len(queued), held)
		}
	})

	before := r.reads()
	var after modelReads
	m.withoutCaches(func() { after = r.reads() })
	if !reflect.DeepEqual(before, after) {
		t.Errorf("reads differ once the caches are dropped:\n%+v\n%+v", before, after)
	}
	usage := make(map[string]int)
	for _, v := range before.list {
		if v.State == StatusRunning.String() || v.State == StatusPaused.String() {
			usage[v.Queue] += len(v.Workers)
		}
	}
	for _, q := range before.queues {
		if q.UsageWorkers != usage[q.Name] {
			t.Errorf("queue %s uses %d workers, its running and paused gangs %d", q.Name, q.UsageWorkers, usage[q.Name])
		}
	}
	checkPositions(t, m)

	s, err := m.Snapshot()
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		t.Error(err)
	}
	for i, e := range s.Journal {
		if e.Seq != s.Journal[0].Seq+uint64(i) {
			t.Errorf("snapshot journal seq %d at index %d after %d", e.Seq, i, s.Journal[0].Seq)
		}
	}
	if n := len(s.Journal); n > 0 && s.Journal[n-1].Seq != r.seq {
		t.Errorf("snapshot journal ends at seq %d, the journal at %d", s.Journal[n-1].Seq, r.seq)
	}
}
