package fair

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Experiment is a deterministic discrete-tick simulation of two-tenant
// contention, used by `harmony-bench -run fair-share` and by tests. One
// tick is one training iteration: admitted jobs burn one unit of work
// per tick on a fixed-size gang of workers; completions free the gang.
//
// The simulation is a driver of the admission kernel (Scheduler.Decide):
// each tick it executes the kernel's decisions until none is left, with a
// Place that only asks whether the gang fits the free workers. Fair=true
// runs the configured queues — deficit-weighted order, quota-gated
// borrowing, preemptive reclaim with checkpoint-style resumable requeue.
// Fair=false is the comparison: the same kernel under the single default
// queue, which is strict arrival order with backfill and no preemption.
//
// The workload is TwoTenantWorkload(Seed, Workers). Everything is a pure
// function of (Workers, Queues, Seed): two runs with the same inputs
// produce bit-identical event logs.
type Experiment struct {
	// Workers is the cluster size in workers.
	Workers int
	// Queues configures the scheduler; nil means the default queue only.
	Queues []QueueConfig
	// Seed drives workload generation.
	Seed int64
	// Fair selects the policy: the configured queues vs one FIFO queue.
	Fair bool
}

// experimentHorizon caps a run in ticks, far past the generated
// workload's makespan, so a bug cannot spin forever.
const experimentHorizon = 100000

// SimJob is one job in the simulated workload.
type SimJob struct {
	Name     string `json:"name"`
	Queue    string `json:"queue"`
	Priority int    `json:"priority"`
	// Arrival is the tick the job enters the admission queue.
	Arrival int `json:"arrival"`
	// Work is the number of ticks of compute once placed.
	Work int `json:"work"`
	// Gang is the fixed worker-set size; the whole gang places
	// atomically or the job holds.
	Gang int `json:"gang"`
}

// SimResult aggregates one simulated run.
type SimResult struct {
	Mode string `json:"mode"`
	// Makespan is the tick after the last completion (or the horizon).
	Makespan int `json:"makespan"`
	// Completed counts jobs that finished within the horizon.
	Completed int `json:"completed"`
	// Preemptions counts reclaim victims suspended.
	Preemptions int `json:"preemptions"`
	// MeanResumeTicks is the mean preemption-to-resume latency in
	// ticks over victims that resumed (0 when none were preempted).
	MeanResumeTicks float64 `json:"mean_resume_ticks"`
	// TimeToQuota maps each queue to the first tick its usage reached
	// min(quota workers, outstanding demand) while it had outstanding
	// demand; -1 means it never did.
	TimeToQuota map[string]int `json:"time_to_quota"`
	// Events is the deterministic decision log; bit-stability tests
	// compare it across runs.
	Events []string `json:"-"`
}

// EventLog renders the decision log as one newline-joined string.
func (r SimResult) EventLog() string { return strings.Join(r.Events, "\n") }

// TwoTenantWorkload builds the canonical contention scenario: tenantB
// floods the cluster with long single-worker jobs at tick 0, then
// tenantA's gang jobs arrive at tick 1 and find every worker taken.
// Under FIFO tenantA starves until tenantB's flood drains; under the
// fair policy reclaim suspends tenantB back to its quota. Durations
// jitter with seed so the workload is seeded but reproducible.
func TwoTenantWorkload(seed int64, workers int) []SimJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]SimJob, 0, workers+4)
	for i := 0; i < workers; i++ {
		jobs = append(jobs, SimJob{
			Name: fmt.Sprintf("b%02d", i), Queue: "tenantB",
			Arrival: 0, Work: 60 + rng.Intn(20), Gang: 1,
		})
	}
	gang := workers / 3
	if gang < 1 {
		gang = 1
	}
	for i := 0; i < 4; i++ {
		// Alternate gang jobs with single-worker jobs so tenantA's
		// admissible demand can tile its quota exactly.
		g := gang
		if i%2 == 1 {
			g = 1
		}
		jobs = append(jobs, SimJob{
			Name: fmt.Sprintf("a%02d", i), Queue: "tenantA",
			Arrival: 1, Work: 25 + rng.Intn(10), Gang: g,
		})
	}
	return jobs
}

// TwoTenantQueues is the 70/30 split used by the canonical scenario.
func TwoTenantQueues() []QueueConfig {
	return []QueueConfig{
		{Name: "tenantA", Quota: 0.7},
		{Name: "tenantB", Quota: 0.3},
	}
}

// simJob is the mutable per-job simulation state.
type simJob struct {
	SimJob
	// queue and priority are the job's coordinates under the policy that
	// runs; they differ from SimJob's only in the FIFO comparison.
	queue     string
	priority  int
	seq       uint64
	remaining int
	resumable bool
	// preemptedAt is the tick of the last preemption, -1 otherwise.
	preemptedAt int
	startSeq    uint64
}

type simState struct {
	workers int
	// sched is the configured policy; it always backs TimeToQuota.
	sched *Scheduler
	held  []*simJob
	run   map[string]*simJob
	free  int
	// seq and startSeq mirror the master's arrival/deploy counters.
	seq, startSeq uint64
	res           SimResult
	resumeTicks   []int
	t             int
	buf           View
}

// Run executes the simulation and returns its aggregate result.
func (e Experiment) Run() (SimResult, error) {
	if e.Workers <= 0 {
		return SimResult{}, fmt.Errorf("fair: experiment needs workers")
	}
	sched, err := New(e.Queues...)
	if err != nil {
		return SimResult{}, err
	}
	jobs := TwoTenantWorkload(e.Seed, e.Workers)
	for _, j := range jobs {
		if !sched.Has(j.Queue) {
			return SimResult{}, fmt.Errorf("fair: job %s: unknown queue %q", j.Name, j.Queue)
		}
	}
	// FIFO is not a second code path: it is the same kernel under the
	// default policy, every job in the one uncapped queue at equal
	// priority. That orders by arrival, never gates a borrow, and leaves
	// reclaim nothing to do (any gang that does not fit would take the
	// queue past its quota, which is the whole cluster).
	policy, mode := Default(), "fifo"
	coords := func(SimJob) (string, int) { return DefaultQueue, 0 }
	if e.Fair {
		policy, mode = sched, "fair"
		coords = func(j SimJob) (string, int) { return j.Queue, j.Priority }
	}
	st := &simState{
		workers: e.Workers, sched: sched,
		run:  make(map[string]*simJob),
		buf:  View{Usage: make(Usage)},
		free: e.Workers,
		res:  SimResult{Mode: mode, TimeToQuota: make(map[string]int)},
	}
	for _, q := range sched.Names() {
		st.res.TimeToQuota[q] = -1
	}
	gangFits := func(h Held, _ int) (bool, string) { return h.Demand <= st.free, HoldNoGang }

	for st.t = 0; st.t < experimentHorizon; st.t++ {
		// Arrivals enter the admission queue in declaration order.
		for i := range jobs {
			if jobs[i].Arrival == st.t {
				st.seq++
				j := &simJob{SimJob: jobs[i], seq: st.seq,
					remaining: jobs[i].Work, preemptedAt: -1}
				j.queue, j.priority = coords(jobs[i])
				st.held = append(st.held, j)
			}
		}
		// Drain: execute the kernel's decisions until it has none left.
	drain:
		for {
			switch d := policy.Decide(st.view(), gangFits); d.Action {
			case Admit:
				st.admit(d.Job.Job)
			case Preempt:
				for _, v := range d.Victims {
					st.preempt(v.Job, d.Job.Queue)
				}
			default:
				break drain
			}
		}
		st.recordQuotaAttainment()
		if len(st.held) == 0 && len(st.run) == 0 {
			break
		}
		// One tick of training on every placed gang.
		var done []*simJob
		for _, j := range st.run {
			j.remaining--
			if j.remaining == 0 {
				done = append(done, j)
			}
		}
		sort.Slice(done, func(a, b int) bool { return done[a].Name < done[b].Name })
		for _, j := range done {
			delete(st.run, j.Name)
			st.free += j.Gang
			st.res.Completed++
			st.event("complete %s queue=%s", j.Name, j.Queue)
		}
	}
	st.res.Makespan = st.t
	if len(st.resumeTicks) > 0 {
		sum := 0
		for _, v := range st.resumeTicks {
			sum += v
		}
		st.res.MeanResumeTicks = float64(sum) / float64(len(st.resumeTicks))
	}
	return st.res, nil
}

func (st *simState) event(format string, args ...any) {
	st.res.Events = append(st.res.Events,
		fmt.Sprintf("t=%d ", st.t)+fmt.Sprintf(format, args...))
}

// view is the kernel's input for the current tick state. The kernel keeps
// nothing of a View past Decide, so one set of buffers serves every call.
func (st *simState) view() View {
	v := &st.buf
	v.Total, v.Free = st.workers, st.free
	v.Held, v.Running = v.Held[:0], v.Running[:0]
	clear(v.Usage)
	for _, j := range st.held {
		v.Held = append(v.Held, Held{Job: j.Name, Queue: j.queue, Priority: j.priority,
			Seq: j.seq, Demand: j.Gang, Resumable: j.resumable})
	}
	for _, j := range st.run {
		v.Usage[j.queue] += j.Gang
		v.Running = append(v.Running, Running{Job: j.Name, Queue: j.queue,
			Priority: j.priority, StartSeq: j.startSeq, Workers: j.Gang})
	}
	return *v
}

// admit places a held job's gang, resuming it if it was preempted.
func (st *simState) admit(name string) {
	j := st.takeHeld(name)
	st.startSeq++
	j.startSeq = st.startSeq
	st.run[j.Name] = j
	st.free -= j.Gang
	if j.resumable {
		lat := st.t - j.preemptedAt
		st.resumeTicks = append(st.resumeTicks, lat)
		st.event("resume %s queue=%s gang=%d after=%d", j.Name, j.Queue, j.Gang, lat)
	} else {
		st.event("admit %s queue=%s gang=%d", j.Name, j.Queue, j.Gang)
	}
}

// preempt suspends a running victim and requeues it resumable, the
// tick-world analogue of the master's pause/checkpoint path.
func (st *simState) preempt(name, beneficiary string) {
	j := st.run[name]
	delete(st.run, name)
	st.free += j.Gang
	j.resumable = true
	j.preemptedAt = st.t
	st.held = append(st.held, j)
	st.res.Preemptions++
	st.event("preempt %s queue=%s remaining=%d for=%s", j.Name, j.Queue, j.remaining, beneficiary)
}

func (st *simState) takeHeld(name string) *simJob {
	for i, j := range st.held {
		if j.Name == name {
			st.held = append(st.held[:i], st.held[i+1:]...)
			return j
		}
	}
	return nil
}

// recordQuotaAttainment stamps the first tick each queue's usage covers
// min(quota, outstanding demand) while it has outstanding demand.
func (st *simState) recordQuotaAttainment() {
	usage, demand := make(Usage), make(Usage)
	for _, j := range st.run {
		usage[j.Queue] += j.Gang
		demand[j.Queue] += j.Gang
	}
	for _, j := range st.held {
		demand[j.Queue] += j.Gang
	}
	for q, first := range st.res.TimeToQuota {
		if first >= 0 || demand[q] == 0 {
			continue
		}
		want := st.sched.QuotaWorkers(q, st.workers)
		if demand[q] < want {
			want = demand[q]
		}
		if want > 0 && usage[q] >= want {
			st.res.TimeToQuota[q] = st.t
		}
	}
}
