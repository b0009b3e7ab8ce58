package sim

import (
	"errors"
	"math/rand"

	"harmony/internal/memmodel"
	"harmony/internal/metrics"
	"harmony/internal/simtime"
	"harmony/internal/workload"
)

// jobPhase tracks where a job is in its PULL-COMP-PUSH cycle.
type jobPhase int

const (
	phaseIdle jobPhase = iota
	phasePull
	phaseComp
	phasePush
)

// jobRun is the execution state of one job inside a group.
type jobRun struct {
	spec workload.Spec
	rng  *rand.Rand

	iter  int // completed iterations
	phase jobPhase
	group *groupRun

	// alpha is the disk-block ratio α_j (§IV-C): the fraction of this
	// job's input partition spilled to disk.
	alpha float64
	// modelSpilled marks the last-resort model-data spill for jobs whose
	// α=1 still leaves the group over capacity (§V-G).
	modelSpilled bool

	// reloadReadyAt is when the disk-side input blocks for the next COMP
	// will have been reloaded; COMP stalls until then.
	reloadReadyAt simtime.Time

	// cycleStart and lastCycleEnd measure the job's pipeline period.
	cycleStart   simtime.Time
	lastCycleEnd simtime.Time

	// Measured last-iteration subtask times, fed to the profiler.
	lastCompSeconds float64
	lastNetSeconds  float64

	// Accumulated overheads, for the run report.
	gcSeconds    float64
	stallSeconds float64

	// Hill-climbing controller state (§IV-C).
	alphaDir          float64
	alphaPrevPeriod   float64
	alphaProbePeriods []float64
	lastPeriodSeconds float64

	pauseRequested bool
}

// memoryGB is the job's current per-machine heap footprint.
func (j *jobRun) memoryGB(machines int) float64 {
	mem := j.spec.MemoryGB(machines, j.alpha)
	if j.modelSpilled {
		// Model spill keeps only a working fraction of the model
		// resident, at the cost of extra pull traffic.
		mem -= 0.8 * workload.JVMHeapFactor * j.spec.Data.ModelGB / float64(machines)
	}
	return mem
}

func (j *jobRun) jitter() float64 {
	return 1 + DefaultJitterFrac*(2*j.rng.Float64()-1)
}

// groupRun simulates one job group through its representative machine:
// a CPU resource and a network resource shared by the group's jobs, plus
// disk and memory modelling.
type groupRun struct {
	id       string
	machines int
	jobs     []*jobRun
	cpu      *resource
	net      *resource
	sim      *Simulator

	// periodEWMA tracks the measured group iteration time (per-job
	// pipeline period) for the prediction-error study (Fig. 13b).
	periodEWMA  float64
	periodNInit int
	closed      bool

	// Cached comm-interleaving solve (netmodel.go), valid while ilSig
	// matches the member set; invalidated on addJob/removeJob.
	ilSig     string
	ilPeriod  float64
	ilOffsets map[string]float64
	ilAnchor  simtime.Time
	// ilHeld marks members that already paid their one-time
	// establishment hold under the current solve.
	ilHeld map[string]bool
}

func (s *Simulator) newGroupRun(id string, machines int, pipelined bool) *groupRun {
	g := &groupRun{id: id, machines: machines, sim: s}
	var cpuPolicy, netPolicy sharePolicy
	if pipelined {
		cpuPolicy = exclusivePolicy{}
		switch {
		case s.cfg.LinkContention && s.cfg.SchedOpts.NetModel:
			// Net-aware runtime enforcement of the solved interleaving:
			// never launch a comm burst into an occupied link. Bursts
			// dispatch FIFO — under a compatibility-1 schedule the solved
			// offsets mean a burst always finds the link free, and when
			// windows would have collided the burst waits instead of
			// burning collisionLoss of goodput (queueing delay <= the
			// collision stretch, so this strictly dominates colliding).
			netPolicy = exclusivePolicy{}
		case s.cfg.LinkContention:
			// Non-work-conserving shared link (netmodel.go): colliding
			// comm windows from different jobs burn aggregate goodput.
			netPolicy = linkContentionPolicy{loss: collisionLoss}
		case s.cfg.DisableSecondaryComm:
			netPolicy = exclusivePolicy{}
		default:
			netPolicy = primarySecondaryPolicy{busyFraction: DefaultNetBusyFraction}
		}
	} else {
		cpuPolicy = fairSharePolicy{penalty: DefaultContentionPenalty}
		netPolicy = fairSharePolicy{penalty: DefaultContentionPenalty}
	}
	g.cpu = newResource(s.eng, cpuPolicy, func(rate float64, from, to simtime.Time) {
		s.util.AddBusyWeighted(metrics.CPU, from, to, rate*float64(g.machines))
	})
	g.net = newResource(s.eng, netPolicy, func(rate float64, from, to simtime.Time) {
		s.util.AddBusyWeighted(metrics.Net, from, to, rate*float64(g.machines))
	})
	if s.cfg.LinkContention {
		g.net.collided = &s.linkCollided
	}
	return g
}

// hasProfilingJobs reports whether any unprofiled ride-along currently
// loads the group beyond its planned membership.
func (g *groupRun) hasProfilingJobs() bool {
	for _, j := range g.jobs {
		if sj, ok := g.sim.jobs[j.spec.ID]; ok && sj.state == jobProfiling {
			return true
		}
	}
	return false
}

// occupancy is the group's heap occupancy on its representative machine.
func (g *groupRun) occupancy() float64 {
	var used float64
	for _, j := range g.jobs {
		used += j.memoryGB(g.machines)
	}
	return memmodel.Occupancy(used, machineMemoryGB)
}

// errAdmission distinguishes "newcomer does not fit" from a group-wide
// OOM: the group survives, the newcomer is rejected.
var errAdmission = errors.New("sim: job rejected, group memory full")

// addJob inserts a job into the group and starts its cycle. It applies
// the initial α estimate (§IV-C: "determine the initial value by
// estimating the memory use").
//
// Without force, a newcomer that cannot fit even with full spill is
// rejected with errAdmission and the group is untouched — Harmony's
// memory-aware admission never kills resident jobs. With force (the
// naive and isolated baselines, which have no such awareness), the job
// is added regardless and an overflowing group dies of OOM, as in Fig. 4.
func (g *groupRun) addJob(j *jobRun, force bool) error {
	j.group = g
	j.phase = phaseIdle
	j.lastCycleEnd = 0 // period measurements restart in the new group
	g.jobs = append(g.jobs, j)
	g.invalidateInterleave()
	g.sim.initAlpha(j, g)
	if !g.tryResolveMemory() {
		if !force {
			g.jobs = g.jobs[:len(g.jobs)-1]
			j.group = nil
			return errAdmission
		}
		g.sim.failGroup(g, memmodel.ErrOOM)
		return nil
	}
	g.startCycle(j)
	return nil
}

// removeJob detaches a paused or finished job. It must only be called at
// a cycle boundary, when the job has no subtask in flight.
func (g *groupRun) removeJob(j *jobRun) {
	for i, jj := range g.jobs {
		if jj == j {
			g.jobs = append(g.jobs[:i], g.jobs[i+1:]...)
			break
		}
	}
	g.invalidateInterleave()
	j.group = nil
	if len(g.jobs) == 0 {
		g.closed = true
		g.sim.groupClosed(g)
	}
}

// resolveMemory checks the group against machine memory, escalating
// through input spill (only when reload is enabled) and model spill
// before declaring OOM. It returns false when the group cannot fit; the
// group's jobs are failed.
func (g *groupRun) resolveMemory() bool {
	if g.tryResolveMemory() {
		return true
	}
	g.sim.failGroup(g, memmodel.ErrOOM)
	return false
}

// tryResolveMemory is resolveMemory without the kill: it reports whether
// the group fits after escalating spills.
func (g *groupRun) tryResolveMemory() bool {
	if g.occupancy() <= memmodel.GCOverheadLimitOccupancy {
		return true
	}
	if g.sim.reloadEnabled() && g.sim.cfg.FixedAlpha == nil {
		// Spill inputs as far as needed, largest resident input first.
		for g.occupancy() > memmodel.GCOverheadLimitOccupancy {
			var pick *jobRun
			var most float64
			for _, j := range g.jobs {
				resident := (1 - j.alpha) * j.spec.Data.InputGB
				if j.alpha < 1 && resident > most {
					most = resident
					pick = j
				}
			}
			if pick == nil {
				break
			}
			pick.alpha = 1
		}
		// Last resort: spill model data (§V-G).
		for g.occupancy() > memmodel.GCOverheadLimitOccupancy {
			var pick *jobRun
			var most float64
			for _, j := range g.jobs {
				if !j.modelSpilled && j.spec.Data.ModelGB > most {
					most = j.spec.Data.ModelGB
					pick = j
				}
			}
			if pick == nil {
				break
			}
			pick.modelSpilled = true
			g.sim.modelSpills++
		}
	}
	return g.occupancy() <= memmodel.GCOverheadLimitOccupancy
}

// startCycle begins one PULL-COMP-PUSH iteration for the job, first
// holding briefly when the net-aware scheduler solved a phase offset the
// job has drifted off of (CASSINI-style interleaving, netmodel.go).
func (g *groupRun) startCycle(j *jobRun) {
	if g.closed {
		return
	}
	if d := g.phaseDelay(j); d > 0 {
		g.sim.eng.After(simtime.FromSeconds(d), func() { g.startCycleNow(j) })
		return
	}
	g.startCycleNow(j)
}

// startCycleNow is startCycle past the phase stagger. The job may have
// been paused out or migrated during the hold; it only cycles if it
// still belongs here.
func (g *groupRun) startCycleNow(j *jobRun) {
	if g.closed || j.group != g {
		return
	}
	if j.pauseRequested {
		g.sim.applyPause(g, j)
		return
	}
	now := g.sim.eng.Now()
	j.cycleStart = now
	j.phase = phasePull
	pull := j.spec.TpullAt(g.machines) * j.jitter()
	if j.modelSpilled {
		// Spilled model partitions must be paged in on access,
		// inflating pull time.
		pull *= 1.15
	}
	comp := j.spec.TcpuAt(g.machines) * j.jitter()
	push := j.spec.TpushAt(g.machines) * j.jitter()
	j.lastNetSeconds = pull + push
	g.net.submit(pull, DefaultNetBusyFraction, func() { g.afterPull(j, comp, push) })
}

func (g *groupRun) afterPull(j *jobRun, comp, push float64) {
	if g.closed {
		return
	}
	now := g.sim.eng.Now()
	if j.reloadReadyAt > now {
		// Input blocks still reloading from disk: the COMP subtask is
		// blocked (§IV-C, "data should be preloaded so as to not block
		// task progress" — this is the penalty when it is not).
		stall := j.reloadReadyAt.Sub(now).Seconds()
		j.stallSeconds += stall
		g.sim.eng.At(j.reloadReadyAt, func() { g.submitComp(j, comp, push) })
		return
	}
	g.submitComp(j, comp, push)
}

func (g *groupRun) submitComp(j *jobRun, comp, push float64) {
	if g.closed {
		return
	}
	if !g.resolveMemory() {
		return
	}
	gcF := memmodel.GCFactor(g.occupancy())
	deser := g.deserSeconds(j)
	dur := comp*(1+gcF) + deser
	j.gcSeconds += comp * gcF
	g.sim.gcSeconds += comp * gcF
	j.lastCompSeconds = dur
	j.phase = phaseComp
	g.cpu.submit(dur, 1, func() { g.afterComp(j, push) })
}

func (g *groupRun) afterComp(j *jobRun, push float64) {
	if g.closed {
		return
	}
	now := g.sim.eng.Now()
	// Kick off the background reload of this job's disk-side blocks for
	// the next iteration; COMP for iteration k+1 cannot start before it
	// completes.
	reload := g.reloadSeconds(j)
	if reload > 0 {
		j.reloadReadyAt = now.Add(simtime.FromSeconds(reload))
		g.sim.util.AddBusyWeighted(metrics.Disk, now, j.reloadReadyAt, float64(g.machines))
	} else {
		j.reloadReadyAt = now
	}
	j.phase = phasePush
	g.net.submit(push, DefaultNetBusyFraction, func() { g.afterPush(j) })
}

func (g *groupRun) afterPush(j *jobRun) {
	if g.closed {
		return
	}
	now := g.sim.eng.Now()
	j.iter++
	j.phase = phaseIdle

	// Measure the pipeline period (group iteration time as this job
	// experiences it). Samples during perturbations — the job's first
	// cycle in the group, or profiling ride-alongs loading the group
	// beyond its plan — would not reflect the modelled steady state.
	j.lastPeriodSeconds = 0
	if j.lastCycleEnd > 0 {
		j.lastPeriodSeconds = now.Sub(j.lastCycleEnd).Seconds()
		if !g.hasProfilingJobs() {
			if g.periodNInit == 0 {
				g.periodEWMA = j.lastPeriodSeconds
			} else {
				g.periodEWMA = 0.3*j.lastPeriodSeconds + 0.7*g.periodEWMA
			}
			g.periodNInit++
			g.sim.periodSum += j.lastPeriodSeconds
			g.sim.periodN++
		}
	}
	j.lastCycleEnd = now

	g.sim.onIterationComplete(g, j)
}

// deserSeconds is the CPU cost of deserializing the blocks reloaded for
// this iteration.
func (g *groupRun) deserSeconds(j *jobRun) float64 {
	if j.alpha <= 0 {
		return 0
	}
	gb := j.alpha * j.spec.Data.InputGB / float64(g.machines)
	return gb * DefaultDeserSecPerGB
}

// reloadSeconds is how long the disk needs to stream this job's spilled
// blocks back, with bandwidth shared among the group's reloading jobs.
func (g *groupRun) reloadSeconds(j *jobRun) float64 {
	if j.alpha <= 0 {
		return 0
	}
	reloaders := 0
	for _, jj := range g.jobs {
		if jj.alpha > 0 {
			reloaders++
		}
	}
	if reloaders < 1 {
		reloaders = 1
	}
	gb := j.alpha * j.spec.Data.InputGB / float64(g.machines)
	gbps := machineDiskMBps / 1024 / float64(reloaders)
	return gb / gbps
}
