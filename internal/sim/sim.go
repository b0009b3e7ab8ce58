package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"harmony/internal/core"
	"harmony/internal/metrics"
	"harmony/internal/profile"
	"harmony/internal/simtime"
)

// ErrDeadline reports that the simulation exceeded maxVirtualTime.
var ErrDeadline = errors.New("sim: virtual-time deadline exceeded")

// maxAdmissionRejections bounds placement retries before a job is
// declared unschedulable.
const maxAdmissionRejections = 100

// jobState is the lifecycle of §III: waiting → profiling → profiled/
// running/paused → finished (or failed on OOM).
type jobState int

const (
	jobQueued jobState = iota + 1
	jobProfiling
	jobRunning
	jobPaused
	jobFinished
	jobFailed
)

// simJob is the simulator-wide record of one job.
type simJob struct {
	run     *jobRun
	arrival simtime.Time
	state   jobState
	record  metrics.JobRecord
	// profIters counts profiling iterations completed.
	profIters int
	// targetGroup is the signature of the group the job should join when
	// its migration completes.
	targetGroup string
	// migrating marks a pause as migration (counted as regrouping
	// overhead) rather than a stay in the waiting pool.
	migrating bool
	// rejections counts memory-based admission refusals; a job no group
	// can ever absorb is eventually failed rather than retried forever.
	rejections int
}

// PredPair is one predicted-vs-actual sample for the model-accuracy
// analysis (Fig. 13b).
type PredPair struct {
	Predicted float64
	Actual    float64
}

// Err returns the relative prediction error.
func (p PredPair) Err() float64 {
	if p.Actual == 0 {
		return 0
	}
	e := (p.Predicted - p.Actual) / p.Actual
	if e < 0 {
		return -e
	}
	return e
}

// GroupDecision records one group of one scheduling decision, the raw
// data behind Fig. 12.
type GroupDecision struct {
	At       simtime.Time
	Machines int
	Jobs     int
}

// Result is the outcome of a simulation run.
type Result struct {
	Summary metrics.Summary
	Records []metrics.JobRecord
	// Failed maps job IDs to failure descriptions (OOM).
	Failed map[string]string
	Util   *metrics.UtilRecorder

	// Decisions holds every (machines, jobs) group of every scheduling
	// decision (Fig. 12).
	Decisions []GroupDecision
	// IterPred and UPred pair the scheduler's predictions with measured
	// values (Fig. 13b).
	IterPred []PredPair
	UPred    []PredPair

	// GCSeconds is total simulated garbage-collection time (§V-B uses GC
	// time as the memory-pressure metric).
	GCSeconds float64
	// StallSeconds is total COMP time lost waiting for block reloads.
	StallSeconds float64
	// ModelSpills counts jobs that needed the model-data spill.
	ModelSpills int
	// PausedSeconds accumulates job-time spent paused for migrations
	// (the regrouping overhead of §V-C).
	PausedSeconds float64
	// PoolWaitSeconds accumulates job-time spent in the waiting pool
	// (paused by a scheduling decision, not by migration).
	PoolWaitSeconds float64
	// LinkCollisionSeconds accumulates time during which two or more
	// comm subtasks drove a shared group link concurrently under
	// Config.LinkContention — the goodput-burning windows network-aware
	// placement exists to shrink. Zero when LinkContention is off.
	LinkCollisionSeconds float64

	// MeanConcurrentJobs and MeanGroups are time-averaged over the run
	// (§V-C reports 27.2 jobs in 6.7 groups).
	MeanConcurrentJobs float64
	MeanGroups         float64

	// AlphaMean/Min/Max summarize final α values of finished jobs (§V-G).
	AlphaMean float64
	AlphaMin  float64
	AlphaMax  float64

	// MeanGroupIterSeconds averages measured group iteration times
	// (the §V-G comparison metric), weighted per sample across all
	// groups over the whole run.
	MeanGroupIterSeconds float64
}

// Simulator executes one configuration. Create with New, drive with Run.
type Simulator struct {
	cfg  Config
	eng  *simtime.Engine
	util *metrics.UtilRecorder
	rng  *rand.Rand

	jobs  map[string]*simJob
	order []string

	profiles  *profile.Store
	estimates map[string]core.JobInfo

	groups   map[string]*groupRun
	jobGroup map[string]string // job id -> group id
	// sortedGroups reuse buffers; no call site holds the returned slice
	// across another sortedGroups call.
	sortIDs    []string
	sortGroups []*groupRun

	// Harmony state.
	plan            core.Plan
	waitingProfiled []string
	arrivalQueue    []string
	arrivalPending  bool
	bootstrapped    bool
	bootstrapWave   map[string]bool
	profilingPicks  int // pickProfilingGroup calls, a test hook

	// Isolated and naive state.
	freeMachines int
	fifo         []string
	inNaiveAdmit bool

	// Accounting.
	records     []metrics.JobRecord
	failed      map[string]string
	decisions   []GroupDecision
	iterPred    []PredPair
	uPred       []PredPair
	gcSeconds   float64
	modelSpills int

	pausedSince  map[string]simtime.Time
	pausedTotal  float64
	poolWait     float64
	linkCollided float64

	runningCount   int
	runningIntegr  float64
	groupsIntegr   float64
	lastCountTime  simtime.Time
	planStart      simtime.Time
	planPredCPU    float64
	planPredNet    float64
	planPredValid  bool
	groupPredIter  map[string]float64
	finishedAlphas []float64
	periodSum      float64
	periodN        int
}

// New builds a simulator for the given jobs. Job IDs must be unique.
func New(cfg Config, jobs []Job) (*Simulator, error) {
	cfg = cfg.withDefaults()
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("sim: %d machines, need > 0", cfg.Machines)
	}
	if cfg.Mode < ModeHarmony || cfg.Mode > ModeNaive {
		return nil, fmt.Errorf("sim: unknown mode %d", int(cfg.Mode))
	}
	if len(jobs) == 0 {
		return nil, errors.New("sim: no jobs")
	}
	s := &Simulator{
		cfg:           cfg,
		eng:           simtime.NewEngine(),
		util:          metrics.NewUtilRecorder(cfg.Machines, simtime.Minute),
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		jobs:          make(map[string]*simJob, len(jobs)),
		profiles:      profile.NewStore(profile.DefaultEWMAAlpha),
		estimates:     make(map[string]core.JobInfo),
		groups:        make(map[string]*groupRun),
		jobGroup:      make(map[string]string),
		failed:        make(map[string]string),
		freeMachines:  cfg.Machines,
		pausedSince:   make(map[string]simtime.Time),
		groupPredIter: make(map[string]float64),
	}
	for i, job := range jobs {
		if err := job.Spec.Validate(); err != nil {
			return nil, err
		}
		id := job.Spec.ID
		if _, dup := s.jobs[id]; dup {
			return nil, fmt.Errorf("sim: duplicate job id %q", id)
		}
		jr := &jobRun{
			spec: job.Spec,
			rng:  rand.New(rand.NewSource(cfg.Seed ^ int64(i*2654435761+1))),
		}
		s.jobs[id] = &simJob{run: jr, arrival: job.Arrival, state: jobQueued,
			record: metrics.JobRecord{ID: id, Submit: job.Arrival}}
		s.order = append(s.order, id)
	}
	return s, nil
}

// Run executes the simulation to completion and returns the results.
func Run(cfg Config, jobs []Job) (*Result, error) {
	s, err := New(cfg, jobs)
	if err != nil {
		return nil, err
	}
	return s.run()
}

func (s *Simulator) run() (*Result, error) {
	for _, id := range s.order {
		id := id
		sj := s.jobs[id]
		s.eng.At(sj.arrival, func() { s.onArrival(id) })
	}
	deadline := simtime.Time(maxVirtualTime)
	if err := s.eng.Run(deadline); err != nil {
		return nil, err
	}
	if s.eng.Len() > 0 || s.unfinishedCount() > 0 {
		if s.eng.Now() >= deadline {
			return nil, fmt.Errorf("%w: %d jobs unfinished at %s",
				ErrDeadline, s.unfinishedCount(), s.eng.Now())
		}
		return nil, fmt.Errorf("sim: stalled with %d unfinished jobs at %s",
			s.unfinishedCount(), s.eng.Now())
	}
	return s.buildResult(), nil
}

func (s *Simulator) unfinishedCount() int {
	n := 0
	for _, sj := range s.jobs {
		if sj.state != jobFinished && sj.state != jobFailed {
			n++
		}
	}
	return n
}

func (s *Simulator) reloadEnabled() bool {
	return s.cfg.Mode == ModeHarmony
}

func (s *Simulator) pipelined() bool {
	return s.cfg.Mode != ModeNaive && !s.cfg.DisablePipelining
}

// onArrival dispatches a submission to the mode-specific scheduler.
func (s *Simulator) onArrival(id string) {
	switch s.cfg.Mode {
	case ModeHarmony:
		s.harmonyArrival(id)
	case ModeIsolated:
		s.isolatedArrival(id)
	case ModeNaive:
		s.naiveArrival(id)
	}
}

// onIterationComplete is invoked by the group runtime after each PUSH.
func (s *Simulator) onIterationComplete(g *groupRun, j *jobRun) {
	id := j.spec.ID
	sj := s.jobs[id]

	// Feed the profiler with what a worker would report: measured COMP
	// and COMM wall times at the group DoP.
	if s.cfg.Mode == ModeHarmony {
		_ = s.profiles.Observe(id, g.machines, j.lastCompSeconds, j.lastNetSeconds)
	}

	if s.reloadEnabled() && s.cfg.FixedAlpha == nil && !s.cfg.DisableAlphaTuning {
		s.adjustAlpha(g, j, j.lastPeriodSeconds)
	}

	if j.iter >= j.spec.Iterations {
		s.finishJob(g, j)
		return
	}

	if sj.state == jobProfiling && sj.profIters < DefaultProfileIters {
		sj.profIters++
		if sj.profIters >= DefaultProfileIters {
			s.onProfiled(id)
			return
		}
	}

	if j.pauseRequested {
		s.applyPause(g, j)
		return
	}
	g.startCycle(j)
}

// finishJob records a completion and hands control to the mode scheduler.
func (s *Simulator) finishJob(g *groupRun, j *jobRun) {
	id := j.spec.ID
	sj := s.jobs[id]
	sj.state = jobFinished
	sj.record.Finish = s.eng.Now()
	s.records = append(s.records, sj.record)
	s.finishedAlphas = append(s.finishedAlphas, j.alpha)
	s.noteCounts(-1)
	g.removeJob(j)
	delete(s.jobGroup, id)

	switch s.cfg.Mode {
	case ModeHarmony:
		s.harmonyFinish(id)
	case ModeIsolated:
		s.isolatedFinish(g)
	case ModeNaive:
		// Remaining jobs keep running with less contention; a drained
		// group returns its machines.
		if g.closed {
			s.naiveFinish(g)
		}
	}
}

// failGroup kills every job of a group (machine-level OOM, §VI).
func (s *Simulator) failGroup(g *groupRun, err error) {
	if g.closed {
		return
	}
	g.closed = true
	now := s.eng.Now()
	for _, j := range g.jobs {
		id := j.spec.ID
		sj := s.jobs[id]
		if sj.state == jobFinished || sj.state == jobFailed {
			continue
		}
		sj.state = jobFailed
		sj.record.Finish = now
		s.failed[id] = err.Error()
		s.noteCounts(-1)
		delete(s.jobGroup, id)
	}
	g.jobs = nil
	s.groupClosed(g)
	switch s.cfg.Mode {
	case ModeIsolated:
		s.isolatedFinish(g)
	case ModeNaive:
		s.naiveFinish(g)
	}
}

// groupClosed removes a drained group from the active set.
func (s *Simulator) groupClosed(g *groupRun) {
	if _, ok := s.groups[g.id]; ok {
		delete(s.groups, g.id)
		s.noteGroupCount()
	}
}

// startJobInGroup places a job into a group run and tracks state. It
// reports false when the group rejects the job for lack of memory; the
// job is left paused/queued for the caller to re-route. The baselines
// force admission (no memory awareness) and may OOM the group instead.
func (s *Simulator) startJobInGroup(id string, g *groupRun, state jobState) bool {
	sj := s.jobs[id]
	force := s.cfg.Mode != ModeHarmony
	s.noteCounts(+1)
	if err := g.addJob(sj.run, force); err != nil {
		s.noteCounts(-1)
		sj.rejections++
		if sj.rejections > maxAdmissionRejections {
			// No group can absorb the job (e.g. a pinned spill ratio
			// leaves its working set larger than any machine): the
			// memory pressure is fatal, as for the low-α runs of §V-G.
			sj.state = jobFailed
			sj.record.Finish = s.eng.Now()
			s.failed[id] = "unschedulable: working set exceeds machine memory"
			delete(s.pausedSince, id)
		}
		return false
	}
	if sj.state == jobFailed {
		// Forced admission OOMed the group, taking this job with it;
		// failGroup already balanced the count.
		return false
	}
	if since, ok := s.pausedSince[id]; ok {
		if sj.migrating {
			s.pausedTotal += s.eng.Now().Sub(since).Seconds()
		} else {
			s.poolWait += s.eng.Now().Sub(since).Seconds()
		}
		delete(s.pausedSince, id)
	}
	sj.migrating = false
	sj.state = state
	sj.run.pauseRequested = false
	if sj.record.Start == 0 && s.eng.Now() > 0 {
		sj.record.Start = s.eng.Now()
	}
	s.jobGroup[id] = g.id
	return true
}

// requestPause asks a running job to stop at its next iteration boundary.
func (s *Simulator) requestPause(id string) {
	sj := s.jobs[id]
	if sj.state != jobRunning && sj.state != jobProfiling {
		return
	}
	sj.run.pauseRequested = true
}

// applyPause takes effect at an iteration boundary.
func (s *Simulator) applyPause(g *groupRun, j *jobRun) {
	id := j.spec.ID
	sj := s.jobs[id]
	g.removeJob(j)
	delete(s.jobGroup, id)
	sj.state = jobPaused
	sj.run.pauseRequested = false
	s.pausedSince[id] = s.eng.Now()
	s.noteCounts(-1)
	if s.cfg.Mode == ModeHarmony {
		s.harmonyPaused(id)
	}
}

// noteCounts integrates the running-job and group counts over time. The
// running count is recomputed from group membership (the ground truth)
// rather than tracked by deltas, so transient state-machine paths cannot
// skew it; the delta argument is kept for call-site readability but the
// count is authoritative.
func (s *Simulator) noteCounts(delta int) {
	_ = delta
	now := s.eng.Now()
	dt := now.Sub(s.lastCountTime).Seconds()
	if dt > 0 {
		s.runningIntegr += float64(s.runningCount) * dt
		s.groupsIntegr += float64(len(s.groups)) * dt
		s.lastCountTime = now
	}
	running := 0
	for _, g := range s.groups {
		running += len(g.jobs)
	}
	s.runningCount = running
}

func (s *Simulator) noteGroupCount() { s.noteCounts(0) }

// groupSignature derives a stable id for a set of job ids and a machine
// count.
func groupSignature(ids []string, machines int) string {
	sorted := make([]string, len(ids))
	copy(sorted, ids)
	sort.Strings(sorted)
	return fmt.Sprintf("m%d:%s", machines, strings.Join(sorted, ","))
}

func (s *Simulator) buildResult() *Result {
	s.noteCounts(0)
	res := &Result{
		Records:         s.records,
		Failed:          s.failed,
		Util:            s.util,
		Decisions:       s.decisions,
		IterPred:        s.iterPred,
		UPred:           s.uPred,
		GCSeconds:       s.gcSeconds,
		ModelSpills:     s.modelSpills,
		PausedSeconds:   s.pausedTotal,
		PoolWaitSeconds: s.poolWait,

		LinkCollisionSeconds: s.linkCollided,
	}
	res.Summary = metrics.Summarize(s.records, s.util)
	if span := res.Summary.Makespan.Seconds(); span > 0 {
		res.MeanConcurrentJobs = s.runningIntegr / span
		res.MeanGroups = s.groupsIntegr / span
	}
	var stall float64
	for _, sj := range s.jobs {
		stall += sj.run.stallSeconds
	}
	res.StallSeconds = stall
	if len(s.finishedAlphas) > 0 {
		res.AlphaMin, res.AlphaMax = s.finishedAlphas[0], s.finishedAlphas[0]
		var sum float64
		for _, a := range s.finishedAlphas {
			sum += a
			if a < res.AlphaMin {
				res.AlphaMin = a
			}
			if a > res.AlphaMax {
				res.AlphaMax = a
			}
		}
		res.AlphaMean = sum / float64(len(s.finishedAlphas))
	}
	if s.periodN > 0 {
		res.MeanGroupIterSeconds = s.periodSum / float64(s.periodN)
	}
	return res
}
