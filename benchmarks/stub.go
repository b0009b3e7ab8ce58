package main

import (
	"fmt"
	"sync"
	"time"

	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// stubFleet stands in for a fleet of workers, built from outside over the
// wire protocol only: one rpc.Server acks the deploy and teardown calls the
// master makes (worker.loadJob/startJob/dropJob, ps.drop) and answers its
// stats scrapes with zeros; worker names are registered through the
// master.register RPC; a job is completed by sending worker.MethodJobDone
// with the epoch the master put in StartJobArgs. It uses no package-internal
// access to the master.
type stubFleet struct {
	srv   *rpc.Server
	addr  string
	names []string

	mu sync.Mutex
	// loading holds the gang size the master announced in loadJob.
	loading map[string]int
	// starting counts startJob calls until the whole gang has started.
	starting map[string]int
	// running are the jobs whose whole gang has started, with the epoch to
	// echo in jobDone; order lists them for random picks.
	running map[string]int
	order   []string
	// startedAt stamps the moment a job's last gang member started.
	startedAt map[string]time.Time
	// dropped are the jobs the master tore down (dropJob). A cancel that
	// catches a job in the middle of its deployment sends its dropJob calls
	// beside the deployment's loadJob and startJob calls, so some of those
	// arrive after the drop; they are acked and ignored, and lateCalls counts
	// them. (A real worker refuses a startJob for a job it has dropped.)
	dropped   map[string]bool
	lateCalls int
	// pendingDone are completions whose freed slot no start has claimed yet;
	// the next job start is the drain pass answering the oldest of them.
	pendingDone []*doneMark
	holdToRun   []float64 // ms
	desync      error
}

// doneMark is one completion: sent before its last jobDone leaves, acked when
// the master's reply is back.
type doneMark struct {
	sent  time.Time
	acked time.Time
}

// registerArgs mirrors the master's registration request (gob matches
// fields by name).
type registerArgs struct {
	Name string
	Addr string
}

func newStubFleet(workers int) (*stubFleet, error) {
	f := &stubFleet{
		srv:       rpc.NewServer(),
		loading:   make(map[string]int),
		starting:  make(map[string]int),
		running:   make(map[string]int),
		startedAt: make(map[string]time.Time),
		dropped:   make(map[string]bool),
	}
	f.srv.Handle(worker.MethodLoadJob, rpc.Typed(f.handleLoad))
	f.srv.Handle(worker.MethodStartJob, rpc.Typed(f.handleStart))
	f.srv.Handle(worker.MethodDropJob, rpc.Typed(f.handleDrop))
	f.srv.Handle(ps.MethodDrop, rpc.Typed(func(ps.DropArgs) (ps.Ack, error) { return ps.Ack{}, nil }))
	f.srv.Handle(worker.MethodStats, rpc.Typed(func(worker.StatsArgs) (worker.StatsReply, error) {
		return worker.StatsReply{CommProcess: "stub"}, nil
	}))
	f.srv.Handle(ps.MethodStats, rpc.Typed(func(ps.StatsArgs) (ps.StatsReply, error) {
		return ps.StatsReply{}, nil
	}))
	addr, err := f.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, infra(errDial, "stub fleet listen: %v", err)
	}
	f.addr = addr
	for i := 0; i < workers; i++ {
		f.names = append(f.names, fmt.Sprintf("s%03d", i))
	}
	return f, nil
}

// register announces every stub worker to the master; the master dials each
// one back at the fleet's single address.
func (f *stubFleet) register(masterAddr string) error {
	c, err := rpc.Dial(masterAddr, 10*time.Second)
	if err != nil {
		return infra(errDial, "stub fleet dial master: %v", err)
	}
	defer c.Close()
	for _, name := range f.names {
		if _, err := rpc.Invoke[registerArgs, worker.Ack](c, "master.register",
			registerArgs{Name: name, Addr: f.addr}, 10*time.Second); err != nil {
			return infra(errDial, "register %s: %v", name, err)
		}
	}
	return nil
}

func (f *stubFleet) close() { _ = f.srv.Close() }

func (f *stubFleet) handleLoad(a worker.LoadJobArgs) (worker.Ack, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if a.ShardCount < 1 {
		f.desyncLocked("loadJob %s with shard count %d", a.Job, a.ShardCount)
	}
	if f.dropped[a.Job] {
		f.lateCalls++
		return worker.Ack{}, nil
	}
	f.loading[a.Job] = a.ShardCount
	return worker.Ack{}, nil
}

func (f *stubFleet) handleStart(a worker.StartJobArgs) (worker.Ack, error) {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dropped[a.Job] {
		f.lateCalls++
		return worker.Ack{}, nil
	}
	gang, ok := f.loading[a.Job]
	if !ok {
		f.desyncLocked("startJob %s without loadJob", a.Job)
		return worker.Ack{}, nil
	}
	f.starting[a.Job]++
	if f.starting[a.Job] < gang {
		return worker.Ack{}, nil
	}
	delete(f.starting, a.Job)
	delete(f.loading, a.Job)
	if _, dup := f.running[a.Job]; dup {
		f.desyncLocked("job %s started twice", a.Job)
		return worker.Ack{}, nil
	}
	f.running[a.Job] = a.Epoch
	f.order = append(f.order, a.Job)
	f.startedAt[a.Job] = now
	// A start with a completion outstanding is the drain pass filling the
	// slot that completion freed. Marks older than two seconds belong to a
	// slot something else took (a direct admission) and are dropped.
	for len(f.pendingDone) > 0 {
		mark := f.pendingDone[0]
		f.pendingDone = f.pendingDone[1:]
		if now.Sub(mark.sent) > 2*time.Second {
			continue
		}
		if !mark.acked.IsZero() {
			f.holdToRun = append(f.holdToRun, ms(now.Sub(mark.acked)))
		}
		break
	}
	return worker.Ack{}, nil
}

func (f *stubFleet) handleDrop(a worker.DropJobArgs) (worker.Ack, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropped[a.Job] = true
	delete(f.loading, a.Job)
	delete(f.starting, a.Job)
	f.removeLocked(a.Job)
	return worker.Ack{}, nil
}

func (f *stubFleet) desyncLocked(format string, args ...any) {
	if f.desync == nil {
		f.desync = infra(errDesync, format, args...)
	}
}

func (f *stubFleet) removeLocked(job string) {
	if _, ok := f.running[job]; !ok {
		return
	}
	delete(f.running, job)
	for i, name := range f.order {
		if name == job {
			f.order[i] = f.order[len(f.order)-1]
			f.order = f.order[:len(f.order)-1]
			break
		}
	}
}

// claimRunning removes and returns the pick-th running job (modulo the
// number running) with its epoch, so two clients never complete the same job.
func (f *stubFleet) claimRunning(pick int) (job string, epoch int, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.order) == 0 {
		return "", 0, false
	}
	job = f.order[pick%len(f.order)]
	epoch = f.running[job]
	f.removeLocked(job)
	return job, epoch, true
}

// peekRunning names the pick-th running job without claiming it.
func (f *stubFleet) peekRunning(pick int) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.order) == 0 {
		return "", false
	}
	return f.order[pick%len(f.order)], true
}

// hasStarted reports whether the master has ever begun deploying the job: it
// is no longer held, whatever became of it since.
func (f *stubFleet) hasStarted(job string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.startedAt[job]
	if !ok {
		_, ok = f.loading[job]
	}
	return ok || f.dropped[job]
}

func (f *stubFleet) runningCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.order)
}

// runningNames lists the jobs the fleet runs, for the checks' messages.
func (f *stubFleet) runningNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.order...)
}

// lateCallCount is the number of deployment calls that arrived after their
// job's dropJob.
func (f *stubFleet) lateCallCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lateCalls
}

// deploying counts jobs the master has begun to load but not fully started.
func (f *stubFleet) deploying() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.loading)
}

// markDone registers a completion before its last jobDone is sent.
func (f *stubFleet) markDone() *doneMark {
	mark := &doneMark{sent: time.Now()}
	f.mu.Lock()
	f.pendingDone = append(f.pendingDone, mark)
	f.mu.Unlock()
	return mark
}

func (f *stubFleet) ackDone(mark *doneMark) {
	now := time.Now()
	f.mu.Lock()
	mark.acked = now
	f.mu.Unlock()
}

// drainSamples hands back and clears the hold-to-run samples and reports a
// desync if one was seen.
func (f *stubFleet) drainSamples() ([]float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.holdToRun
	f.holdToRun = nil
	return out, f.desync
}
