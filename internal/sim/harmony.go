package sim

import (
	"sort"

	"harmony/internal/core"
	"harmony/internal/metrics"
	"harmony/internal/simtime"
	"harmony/internal/workload"
)

// maxProfilingPerGroup bounds how many unprofiled jobs ride along in one
// group at a time (§IV-B1 deploys new jobs "to a job group with the
// smallest number of machines or a job group that is already profiling
// another new job, to minimize the potential degradation").
const maxProfilingPerGroup = 2

// bootstrapGroupJobs is how many unprofiled jobs share one bootstrap
// group at cold start, before any metrics exist.
const bootstrapGroupJobs = 4

// maxBootstrapJobs bounds the cold-start wave: the master picks jobs up
// from the queue rather than flooding the cluster (§III); the rest profile
// later through ride-along slots in running groups.
const maxBootstrapJobs = 16

// harmonyArrival enqueues a submission and schedules arrival processing
// at the current instant so that batch submissions are handled together.
func (s *Simulator) harmonyArrival(id string) {
	s.arrivalQueue = append(s.arrivalQueue, id)
	if !s.arrivalPending {
		s.arrivalPending = true
		s.eng.After(0, s.processArrivals)
	}
}

// processArrivals places queued jobs for profiling: into existing groups
// when there are any, or into naive bootstrap groups at cold start (§III:
// new jobs are "naively assigned to a group and executed ... to be
// profiled").
func (s *Simulator) processArrivals() {
	s.arrivalPending = false
	if len(s.arrivalQueue) == 0 {
		return
	}
	if len(s.groups) == 0 {
		s.bootstrapGroups()
		return
	}
	var retry []string
	full := false // no group has profiling headroom, and nothing here makes any
	for _, id := range s.arrivalQueue {
		var g *groupRun
		if !full {
			g = s.pickProfilingGroup()
			full = g == nil
		}
		if g == nil || !s.startJobInGroup(id, g, jobProfiling) {
			if s.jobs[id].state != jobFailed {
				retry = append(retry, id)
			}
		}
	}
	s.arrivalQueue = retry
	if len(retry) > 0 {
		// Re-attempt when the cluster changes; the next completion or
		// profiling decision will trigger scheduling anyway. Poll at a
		// coarse interval as a fallback.
		if !s.arrivalPending {
			s.arrivalPending = true
			s.eng.After(30*simtime.Second, s.processArrivals)
		}
	}
}

// sortedGroups returns the active groups in stable (id) order, since map
// iteration order would make runs non-reproducible. The returned slice is
// reused by the next call and must not be retained across one — it runs in
// the simulator's scheduling hot path on every decision.
func (s *Simulator) sortedGroups() []*groupRun {
	ids := s.sortIDs[:0]
	for id := range s.groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := s.sortGroups[:0]
	for _, id := range ids {
		out = append(out, s.groups[id])
	}
	s.sortIDs = ids
	s.sortGroups = out
	return out
}

// pickProfilingGroup selects the group with the smallest machine count
// that still has profiling headroom.
func (s *Simulator) pickProfilingGroup() *groupRun {
	s.profilingPicks++
	var best *groupRun
	for _, g := range s.sortedGroups() {
		if g.closed {
			continue
		}
		profiling := 0
		for _, j := range g.jobs {
			if s.jobs[j.spec.ID].state == jobProfiling {
				profiling++
			}
		}
		if profiling >= maxProfilingPerGroup {
			continue
		}
		if best == nil || g.machines < best.machines ||
			(g.machines == best.machines && len(g.jobs) < len(best.jobs)) {
			best = g
		}
	}
	return best
}

// bootstrapGroups cold-starts the cluster: unprofiled jobs are chunked
// into naive groups that both make progress and produce profiles.
func (s *Simulator) bootstrapGroups() {
	ids := s.arrivalQueue
	s.arrivalQueue = nil
	if len(ids) > maxBootstrapJobs {
		s.arrivalQueue = ids[maxBootstrapJobs:]
		ids = ids[:maxBootstrapJobs]
	}
	s.bootstrapWave = make(map[string]bool, len(ids))
	for _, id := range ids {
		s.bootstrapWave[id] = true
	}
	nGroups := (len(ids) + bootstrapGroupJobs - 1) / bootstrapGroupJobs
	if nGroups > s.cfg.Machines {
		nGroups = s.cfg.Machines
	}
	base := s.cfg.Machines / nGroups
	extra := s.cfg.Machines % nGroups
	next := 0
	for gi := 0; gi < nGroups; gi++ {
		m := base
		if gi < extra {
			m++
		}
		count := len(ids) / nGroups
		if gi < len(ids)%nGroups {
			count++
		}
		member := ids[next : next+count]
		next += count
		g := s.newGroupRun(groupSignature(member, m)+":boot", m, s.pipelined())
		s.groups[g.id] = g
		s.noteGroupCount()
		for _, id := range member {
			if !s.startJobInGroup(id, g, jobProfiling) {
				if s.jobs[id].state != jobFailed {
					s.arrivalQueue = append(s.arrivalQueue, id)
				}
			}
		}
		if len(g.jobs) == 0 && !g.closed {
			g.closed = true
			s.groupClosed(g)
		}
	}
	// Leftover and rejected jobs re-enter via the retry path.
	if len(s.arrivalQueue) > 0 && !s.arrivalPending {
		s.arrivalPending = true
		s.eng.After(30*simtime.Second, s.processArrivals)
	}
}

// onProfiled fires when a job has accumulated enough samples (§IV-B1).
// It snapshots the scheduler's estimate (with optional injected error for
// Fig. 13a) and applies the arrival rule of §IV-B4.
func (s *Simulator) onProfiled(id string) {
	s.tracef("profiled %s (bootstrapped=%v waiting=%d)", id, s.bootstrapped, len(s.waitingProfiled))
	sj := s.jobs[id]
	m, _ := s.profiles.Metrics(id)
	est := core.JobInfo{
		ID:            id,
		Comp:          m.CompMachineSeconds,
		Net:           m.NetSeconds,
		InputGB:       sj.run.spec.Data.InputGB,
		ModelGB:       sj.run.spec.Data.ModelGB,
		WorkGB:        sj.run.spec.WorkGB,
		JVMHeapFactor: workload.JVMHeapFactor,
	}
	if e := s.cfg.MetricErrorFrac; e > 0 {
		est.Comp *= 1 + e*(2*s.rng.Float64()-1)
		est.Net *= 1 + e*(2*s.rng.Float64()-1)
	}
	// Net-aware placement feeds the solver the PULL/PUSH split and the
	// fitted serial COMP floor (Synergy-style sensitivity). Gated so the
	// default scheduler reproduces Eq. 2 exactly.
	if s.cfg.SchedOpts.NetModel {
		est.PullFrac = sj.run.spec.PullFrac
		if sens, ok := s.profiles.Sensitivity(id); ok && sens.Fitted() {
			est.CompFloor = sens.CompFloorSeconds
		}
	}
	s.estimates[id] = est

	if s.bootstrapped {
		if len(s.plan.Groups) == 0 {
			// Every planned job drained while this one profiled; plan
			// from scratch over it and the waiting pool.
			s.fullReschedule()
			sj.state = jobRunning
			s.resumeOrPause(sj)
			return
		}
		// Arrival rule: place the job into the group that maximizes U,
		// or let it wait if no placement improves U (§IV-B4).
		if newPlan, ok := s.tryAdd(est); ok {
			s.installSingleAddition(id, newPlan)
			s.absorbWaiting()
			return
		}
		// Keep waiting: pause out of the profiling ride-along slot.
		sj.run.pauseRequested = true
		s.applyPause(sj.run.group, sj.run)
		s.ensureProgress()
		return
	}

	// Cold start: keep running in the bootstrap group; once the initial
	// wave is profiled, compute the first real plan. (Jobs still queued
	// behind the wave profile later through ride-along slots.)
	if !s.bootstrapped && s.waveProfiled() {
		s.bootstrapped = true
		sj.state = jobRunning // profiled: a full member from here on
		s.fullReschedule()
		// The reschedule may have asked this very job — idle at its own
		// iteration boundary — to pause for migration; apply that now,
		// otherwise resume cycling in place.
		s.resumeOrPause(sj)
		return
	}
	// Wave profiles outstanding: keep cycling in the bootstrap group.
	sj.state = jobRunning
	s.resumeOrPause(sj)
}

// waveProfiled reports whether every job of the cold-start wave has
// produced a profile (or left the system).
func (s *Simulator) waveProfiled() bool {
	for id := range s.bootstrapWave {
		sj := s.jobs[id]
		if sj.state == jobFinished || sj.state == jobFailed {
			continue
		}
		if _, ok := s.estimates[id]; !ok {
			return false
		}
	}
	return true
}

// resumeOrPause continues a job that sits idle at an iteration boundary:
// it applies a pending pause request or starts the next cycle.
func (s *Simulator) resumeOrPause(sj *simJob) {
	g := sj.run.group
	if g == nil {
		return
	}
	if sj.run.pauseRequested {
		s.applyPause(g, sj.run)
		return
	}
	g.startCycle(sj.run)
}

// installSingleAddition installs a plan that differs from the running
// state only by placing one job into a group. The group grows in place —
// resident jobs are not disturbed — and the new job migrates in. When no
// existing group matches, it falls back to a full plan application.
func (s *Simulator) installSingleAddition(id string, newPlan core.Plan) {
	sj := s.jobs[id]
	gi, ok := newPlan.FindJob(id)
	if !ok {
		s.applyPlan(newPlan)
		return
	}
	target := newPlan.Groups[gi]
	targetSig := groupSignature(jobIDsOf(target), target.Machines)
	s.recordDecision(newPlan)

	g := s.matchGroupForAddition(id, target)
	if g == nil {
		s.applyPlan(newPlan)
		// The added job may be sitting idle at its iteration boundary
		// (it is the caller); a pause requested by applyPlan would never
		// apply on its own.
		if sj.run.group != nil {
			if sj.state == jobProfiling {
				sj.state = jobRunning
			}
			s.resumeOrPause(sj)
		}
		return
	}
	// Rename the group to its new signature and update the members.
	delete(s.groups, g.id)
	g.id = targetSig
	s.groups[targetSig] = g
	for _, j := range g.jobs {
		s.jobGroup[j.spec.ID] = targetSig
	}
	s.plan = newPlan

	if sj.run.group == g {
		// Already riding in the group (it profiled there): just flip to
		// a planned member.
		sj.state = jobRunning
		sj.targetGroup = targetSig
		g.startCycle(sj.run)
		return
	}
	if sj.run.group != nil {
		// At an iteration boundary in another group: pause out first.
		sj.run.pauseRequested = true
		sj.state = jobRunning
		s.applyPause(sj.run.group, sj.run)
	}
	s.migrateJobInto(id, targetSig, target.Machines)
}

// planMembersMatch reports whether a running group's non-profiling
// members are exactly the planned group's job set.
func planMembersMatch(s *Simulator, g *groupRun, planned core.Group) bool {
	want := make(map[string]bool, len(planned.Jobs))
	for _, j := range planned.Jobs {
		want[j.ID] = true
	}
	have := 0
	for _, j := range g.jobs {
		id := j.spec.ID
		if s.jobs[id].state == jobProfiling {
			if want[id] {
				return false // planned member still profiling elsewhere in flow
			}
			continue
		}
		if !want[id] {
			return false
		}
		have++
	}
	return have == len(planned.Jobs)
}

// matchGroupForAddition finds the running group whose planned members are
// exactly the target group's members minus the job being added (profiling
// ride-alongs are ignored), with the same machine count.
func (s *Simulator) matchGroupForAddition(id string, target core.Group) *groupRun {
	want := make(map[string]bool, len(target.Jobs))
	for _, j := range target.Jobs {
		want[j.ID] = true
	}
	for _, g := range s.sortedGroups() {
		if g.closed || g.machines != target.Machines {
			continue
		}
		have := 0
		match := true
		hasID := false
		for _, j := range g.jobs {
			jid := j.spec.ID
			if s.jobs[jid].state == jobProfiling {
				continue // ride-along, not part of the plan
			}
			if !want[jid] {
				match = false
				break
			}
			if jid == id {
				hasID = true
			}
			have++
		}
		if !match {
			continue
		}
		if have == len(target.Jobs) && hasID {
			return g // job already rides here as a member-to-be
		}
		if have == len(target.Jobs)-1 && !hasID {
			return g
		}
	}
	return nil
}

// absorbWaiting pulls waiting profiled jobs into running groups while the
// predicted cluster utilization keeps improving — the scheduler
// "constantly seeks for higher resource utilization U" (§IV-B2). It stops
// at the first non-improving candidate set, leaving the rest waiting.
func (s *Simulator) absorbWaiting() {
	if len(s.plan.Groups) == 0 {
		return
	}
	for {
		gi, job, ok := s.absorbPick()
		if !ok {
			return
		}
		s.installSingleAddition(job.ID, s.planWith(gi, job))
	}
}

// absorbPick runs the arrival rule for every waiting job against one
// Scorer of the plan and returns the job, and its group, whose placement
// raises the plan's score the most; the first job wins ties.
func (s *Simulator) absorbPick() (gi int, job core.JobInfo, ok bool) {
	sc := core.NewScorer(s.plan, s.cfg.SchedOpts)
	best := sc.Score()
	gi = -1
	for _, id := range s.waitingProfiled {
		est, known := s.estimates[id]
		if !known {
			continue
		}
		var g int
		var score float64
		placed := true
		if s.cfg.DisableSmartGrouping {
			g = smallestGroup(s.plan)
			score = s.cfg.SchedOpts.Score(s.planWith(g, est))
		} else if g, _, placed = sc.BestAddition(est); placed {
			score, _, _ = sc.ScoreDelta(est, g)
		}
		if placed && score > best {
			best, gi, job = score, g, est
		}
	}
	return gi, job, gi >= 0
}

func jobIDsOf(g core.Group) []string {
	ids := make([]string, len(g.Jobs))
	for i, j := range g.Jobs {
		ids[i] = j.ID
	}
	return ids
}

// harmonyPaused routes a paused job: migrating jobs continue into their
// target group, unprofiled jobs go back to the profiling queue, and
// profiled jobs without a destination join the waiting pool.
func (s *Simulator) harmonyPaused(id string) {
	sj := s.jobs[id]
	if sig := sj.targetGroup; sig != "" && sig != s.jobGroup[id] {
		if g, ok := s.groups[sig]; ok && !g.closed {
			s.migrateJobInto(id, sig, g.machines)
			return
		}
	}
	if _, profiled := s.estimates[id]; !profiled {
		s.arrivalQueue = append(s.arrivalQueue, id)
		if !s.arrivalPending {
			s.arrivalPending = true
			s.eng.After(0, s.processArrivals)
		}
		return
	}
	for _, w := range s.waitingProfiled {
		if w == id {
			return
		}
	}
	s.waitingProfiled = append(s.waitingProfiled, id)
}

// harmonyFinish applies the completion rule of §IV-B4.
func (s *Simulator) harmonyFinish(id string) {
	s.tracef("finish %s (waiting=%d running=%d)", id, len(s.waitingProfiled), s.runningCount)
	s.profiles.Forget(id)
	delete(s.estimates, id)
	if _, ok := s.plan.FindJob(id); !ok {
		// Finished while profiling or while paused out of the plan.
		s.ensureProgress()
		return
	}
	waiting := s.waitingEstimates()
	var next core.Plan
	if s.cfg.DisableSmartGrouping {
		next = s.shrinkPlanNaive(id, waiting)
	} else {
		next = core.RegroupAfterFinish(s.plan, id, waiting, s.cfg.SchedOpts).Plan
	}
	s.recordDecision(next)
	s.applyPlan(next)
	s.absorbWaiting()
	s.ensureProgress()
}

// waitingEstimates collects scheduler views of the waiting profiled jobs.
// Jobs that a previous decision already placed (for example a job whose
// migration was interrupted and parked) are excluded so no plan can hold
// the same job twice.
func (s *Simulator) waitingEstimates() []core.JobInfo {
	out := make([]core.JobInfo, 0, len(s.waitingProfiled))
	for _, id := range s.waitingProfiled {
		if _, placed := s.plan.FindJob(id); placed {
			continue
		}
		if est, ok := s.estimates[id]; ok {
			out = append(out, est)
		}
	}
	return out
}

// fullReschedule runs Algorithm 1 over every profiled job: running,
// paused and waiting, in that priority order (§IV-B3).
func (s *Simulator) fullReschedule() {
	var jobs []core.JobInfo
	seen := make(map[string]bool)
	appendJob := func(id string) {
		if seen[id] {
			return
		}
		if est, ok := s.estimates[id]; ok {
			seen[id] = true
			jobs = append(jobs, est)
		}
	}
	for _, id := range s.plan.JobIDs() {
		appendJob(id)
	}
	// Jobs currently running in groups (e.g. bootstrap groups that are
	// not part of a plan yet).
	for _, g := range s.sortedGroups() {
		for _, j := range g.jobs {
			if s.jobs[j.spec.ID].state == jobRunning || s.jobs[j.spec.ID].state == jobProfiling {
				appendJob(j.spec.ID)
			}
		}
	}
	for _, id := range s.waitingProfiled {
		appendJob(id)
	}
	if len(jobs) == 0 {
		return
	}
	var plan core.Plan
	if s.cfg.DisableSmartGrouping {
		plan = s.naivePlan(jobs, s.cfg.Machines)
	} else {
		plan = core.Schedule(jobs, s.cfg.Machines, s.cfg.SchedOpts)
	}
	if len(plan.Groups) == 0 {
		return
	}
	s.recordDecision(plan)
	s.applyPlan(plan)
}

// tryAdd is the arrival rule. With smart grouping disabled it degrades
// to "join the smallest group".
func (s *Simulator) tryAdd(job core.JobInfo) (core.Plan, bool) {
	if s.cfg.DisableSmartGrouping {
		return s.planWith(smallestGroup(s.plan), job), true
	}
	return core.TryAddJob(s.plan, job, s.cfg.SchedOpts)
}

// planWith is a copy of the plan with job added to group gi.
func (s *Simulator) planWith(gi int, job core.JobInfo) core.Plan {
	p := s.plan.Clone()
	p.Groups[gi].Jobs = append(p.Groups[gi].Jobs, job)
	return p
}

// applyPlan migrates the cluster onto a new plan. Groups whose signature
// is unchanged keep running untouched. Every other planned job migrates
// individually: running jobs pause at their own iteration boundary and
// rejoin their target group after the migration delay, while "the master
// ... executes the other co-located jobs in the meanwhile, keeping the
// resources busy" (§IV-B4). Jobs planned out pause into the waiting pool.
func (s *Simulator) applyPlan(newPlan core.Plan) {
	// Defensive invariant: a job may appear at most once in a plan.
	// Scheduling-policy bugs would otherwise corrupt group signatures and
	// strand jobs; dropping duplicates keeps the run sound.
	seen := make(map[string]bool, newPlan.NumJobs())
	for gi := range newPlan.Groups {
		jobs := newPlan.Groups[gi].Jobs[:0]
		for _, j := range newPlan.Groups[gi].Jobs {
			if seen[j.ID] {
				continue
			}
			seen[j.ID] = true
			jobs = append(jobs, j)
		}
		newPlan.Groups[gi].Jobs = jobs
	}

	s.samplePlanPrediction(newPlan)
	s.tracef("applyPlan %s", newPlan.String())

	targets := make(map[string]string) // job id -> target signature
	sigMachines := make(map[string]int)
	sigs := make([]string, 0, len(newPlan.Groups))
	for _, g := range newPlan.Groups {
		sig := groupSignature(jobIDsOf(g), g.Machines)
		sigMachines[sig] = g.Machines
		sigs = append(sigs, sig)
		for _, j := range g.Jobs {
			targets[j.ID] = sig
		}
	}
	s.plan = newPlan

	// Adopt in place: an existing group (for example a bootstrap group)
	// whose planned members and machine count already match a planned
	// group just takes the new signature — no one migrates.
	for gi, g := range newPlan.Groups {
		sig := sigs[gi]
		if _, ok := s.groups[sig]; ok {
			continue
		}
		for _, existing := range s.sortedGroups() {
			if existing.closed || existing.machines != g.Machines {
				continue
			}
			if !planMembersMatch(s, existing, g) {
				continue
			}
			delete(s.groups, existing.id)
			existing.id = sig
			s.groups[sig] = existing
			for _, j := range existing.jobs {
				s.jobGroup[j.spec.ID] = sig
			}
			break
		}
	}

	// Instantiate the new groups up front so that migrating jobs have a
	// destination; unchanged groups are simply kept.
	for _, sig := range sigs {
		if g, ok := s.groups[sig]; ok && !g.closed {
			continue
		}
		gr := s.newGroupRun(sig, sigMachines[sig], s.pipelined())
		s.groups[sig] = gr
		s.noteGroupCount()
	}

	// Route every planned job, in plan order for determinism.
	for _, g := range newPlan.Groups {
		sig := groupSignature(jobIDsOf(g), g.Machines)
		for _, pj := range g.Jobs {
			id := pj.ID
			sj := s.jobs[id]
			if sj == nil || sj.state == jobFinished || sj.state == jobFailed {
				continue
			}
			sj.targetGroup = sig
			if s.jobGroup[id] == sig {
				continue // already in place
			}
			switch sj.state {
			case jobRunning, jobProfiling:
				s.requestPause(id) // harmonyPaused migrates it on pause
			case jobPaused:
				s.migrateJobInto(id, sig, sigMachines[sig])
			}
		}
	}

	// Running jobs that the plan no longer places pause out; unprofiled
	// ride-alongs stay wherever their group survives.
	for id, gid := range s.jobGroup {
		if _, planned := targets[id]; planned {
			continue
		}
		sj := s.jobs[id]
		if sj.state != jobRunning && sj.state != jobProfiling {
			continue
		}
		sj.targetGroup = ""
		if sj.state == jobProfiling && sigMachines[gid] > 0 {
			continue // profiling slot in a surviving group
		}
		s.requestPause(id)
	}

	// Sweep empty groups that the plan no longer references (superseded
	// destinations that never received their joiners).
	for sig, g := range s.groups {
		if _, planned := sigMachines[sig]; planned {
			continue
		}
		if len(g.jobs) == 0 && !g.closed {
			g.closed = true
			s.groupClosed(g)
		}
	}
}

// migrateJobInto schedules a job to join a group after its migration
// delay. Jobs that never ran before start immediately.
func (s *Simulator) migrateJobInto(id, sig string, machines int) {
	sj := s.jobs[id]
	if sj.state == jobFinished || sj.state == jobFailed {
		return
	}
	sj.targetGroup = sig
	sj.migrating = true
	// Migration time starts now; any earlier waiting-pool time was a
	// scheduling decision, not regrouping overhead.
	if _, ok := s.pausedSince[id]; ok {
		s.pausedSince[id] = s.eng.Now()
	}
	delay := 0.0
	if sj.run.iter > 0 {
		delay = DefaultMigrationBaseSeconds +
			DefaultMigrationSecPerModelGB*sj.run.spec.Data.ModelGB
	}
	// Remove from waiting pool if present.
	for i, w := range s.waitingProfiled {
		if w == id {
			s.waitingProfiled = append(s.waitingProfiled[:i], s.waitingProfiled[i+1:]...)
			break
		}
	}
	s.eng.After(simtime.FromSeconds(delay), func() {
		s.tracef("migrate-join %s -> %s (state=%d)", id, sig, sj.state)
		if sj.state == jobFinished || sj.state == jobFailed || sj.targetGroup != sig {
			return
		}
		g, ok := s.groups[sig]
		if !ok || g.closed {
			// Target dissolved while migrating (e.g. superseded plan);
			// park the job as waiting.
			if sj.state != jobPaused {
				sj.state = jobPaused
				s.pausedSince[id] = s.eng.Now()
			}
			s.harmonyPaused(id)
			s.ensureProgress()
			return
		}
		if sj.run.group == g {
			return
		}
		if sj.run.group != nil {
			return // still draining; will be handled on pause
		}
		if !s.startJobInGroup(id, g, jobRunning) {
			// The target group cannot absorb the job after all (e.g.
			// ride-alongs grew its footprint); park it as waiting.
			sj.migrating = false
			sj.targetGroup = ""
			sj.state = jobPaused
			if _, ok := s.pausedSince[id]; !ok {
				s.pausedSince[id] = s.eng.Now()
			}
			s.harmonyPaused(id)
			s.ensureProgress()
		}
	})
}

// ensureProgress guards against the cluster going fully idle while jobs
// still wait: if nothing is running and nothing is in flight, force a
// full reschedule over the waiting pool.
func (s *Simulator) ensureProgress() {
	s.tracef("ensureProgress (running=%d waiting=%d)", s.runningCount, len(s.waitingProfiled))
	if s.runningCount > 0 {
		return
	}
	if len(s.waitingProfiled) == 0 {
		return
	}
	s.fullReschedule()
}

// recordDecision logs every group of a scheduling decision (Fig. 12).
func (s *Simulator) recordDecision(p core.Plan) {
	now := s.eng.Now()
	for _, g := range p.Groups {
		s.decisions = append(s.decisions, GroupDecision{
			At: now, Machines: g.Machines, Jobs: len(g.Jobs),
		})
	}
}

// samplePlanPrediction closes out the measurement window of the previous
// plan and opens one for the new plan (Fig. 13b data).
func (s *Simulator) samplePlanPrediction(newPlan core.Plan) {
	now := s.eng.Now()
	// Windows shorter than a few group iterations never settle; sampling
	// them would measure migration transients, not the model.
	const minWindow = 20 * simtime.Minute
	if s.planPredValid && now.Sub(s.planStart) >= minWindow {
		actCPU := s.util.WindowMean(metrics.CPU, s.planStart, now)
		actNet := s.util.WindowMean(metrics.Net, s.planStart, now)
		predU := 0.7*s.planPredCPU + 0.3*s.planPredNet
		actU := 0.7*actCPU + 0.3*actNet
		if actU > 0 {
			s.uPred = append(s.uPred, PredPair{Predicted: predU, Actual: actU})
		}
	}
	// Close group iteration predictions for groups being dissolved.
	sigs := make([]string, 0, len(s.groupPredIter))
	for sig := range s.groupPredIter {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		pred := s.groupPredIter[sig]
		g, ok := s.groups[sig]
		if !ok || g.closed {
			delete(s.groupPredIter, sig)
			continue
		}
		if g.periodNInit >= 2 {
			s.iterPred = append(s.iterPred, PredPair{Predicted: pred, Actual: g.periodEWMA})
			delete(s.groupPredIter, sig)
		}
	}
	uc, un := newPlan.Util()
	// Scale prediction to whole-cluster terms: groups cover only the
	// machines the plan allocates.
	frac := float64(newPlan.TotalMachines()) / float64(s.cfg.Machines)
	s.planPredCPU = uc * frac
	s.planPredNet = un * frac
	s.planPredValid = true
	s.planStart = now
	for _, g := range newPlan.Groups {
		sig := groupSignature(jobIDsOf(g), g.Machines)
		s.groupPredIter[sig] = g.IterSeconds()
	}
}
