package master

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"harmony/internal/core"
)

// This file is the live half of the CASSINI-style interleaving layer
// (DESIGN.md §14). The scheduler side (core.SolveInterleave) assigns each
// co-located job a phase offset on its group's shared link; the master
// enforces the offsets by staggering barrier releases — a job whose group
// finished an iteration early is held for at most a small slice of the
// period so its next PULL/PUSH windows land on the solved phase — and
// feeds the measured COMP/COMM overlap ratio from internal/obs back into
// the predicted compatibility each scrape.

const (
	// maxStaggerFraction caps a barrier-release delay at this share of
	// the group period: the stagger is a phase corrector for small drift,
	// not a throttle. A group that has drifted further restarts free and
	// re-aligns over the next cycles.
	maxStaggerFraction = 0.15
	// maxStaggerDelay absolutely bounds a release delay so mis-profiled
	// periods can never park a whole worker group for long.
	maxStaggerDelay = 250 * time.Millisecond
	// phaseResolveInterval is how often a group's offsets are re-solved
	// against fresher profiled metrics while its membership is stable.
	phaseResolveInterval = 2 * time.Second
	// recalibrateAlpha weighs a new measured-overlap sample in the
	// calibrated compatibility EWMA.
	recalibrateAlpha = 0.3
)

// groupPhase is the solved interleaving for one live co-location group,
// keyed by the group label (sorted comma-joined worker names — the same
// label internal/obs tags spans with).
type groupPhase struct {
	// sig identifies the job membership the solve was made for.
	sig string
	// anchor is the phase reference: offsets are measured against it and
	// it survives re-solves so the group's phasing stays continuous.
	anchor   time.Time
	solvedAt time.Time
	period   float64
	offsets  map[string]float64
	// predicted is the solver's compatibility; predOverlap the overlap
	// ratio the model expects obs to measure under those offsets.
	predicted   float64
	predOverlap float64
	// calibrated folds measured overlap into predicted (EWMA); zero
	// until the first sufficient-sample measurement arrives.
	calibrated float64
	journaled  bool
}

// groupLabelLocked is the group key for a job's current worker set.
func (m *Master) groupLabelLocked(j *job) string {
	names := m.workerNamesLocked(j)
	sort.Strings(names)
	return strings.Join(names, ",")
}

// groupPhaseLocked returns the solved phase state for the group the job
// runs in, solving (or re-solving) when membership changed or the solve
// went stale. Returns nil when the job runs alone — nothing to
// interleave — or is not running.
func (m *Master) groupPhaseLocked(name string, now time.Time) *groupPhase {
	j := m.jobs[name]
	if j == nil || j.status != StatusRunning {
		return nil
	}
	key := m.groupLabelLocked(j)
	members := make([]string, 0, 2)
	for other, oj := range m.jobs {
		if oj.status == StatusRunning && m.groupLabelLocked(oj) == key {
			members = append(members, other)
		}
	}
	if len(members) < 2 {
		delete(m.phases, key)
		return nil
	}
	sort.Strings(members)
	sig := strings.Join(members, "\x00")
	gp := m.phases[key]
	if gp != nil && gp.sig == sig && now.Sub(gp.solvedAt) < phaseResolveInterval {
		return gp
	}
	infos := make([]core.JobInfo, len(members))
	for i, id := range members {
		infos[i] = m.jobInfoLocked(id, m.jobs[id])
	}
	il := core.SolveInterleave(infos, len(j.workers))
	if gp == nil || gp.sig != sig {
		gp = &groupPhase{sig: sig, anchor: now}
		m.phases[key] = gp
	}
	gp.solvedAt = now
	gp.period = il.Period
	gp.predicted = il.Compatibility
	gp.predOverlap = predictOverlap(infos, len(j.workers), il.Compatibility)
	gp.offsets = make(map[string]float64, len(members))
	for i, id := range members {
		gp.offsets[id] = il.Offsets[i]
	}
	return gp
}

// predictOverlap is the COMP/COMM overlap ratio the model expects
// internal/obs to measure for the group: the pipelined share of the
// period, discounted by the compatibility (collided comm extends comm
// windows while CPUs idle, eroding overlap).
func predictOverlap(jobs []core.JobInfo, machines int, compat float64) float64 {
	var sumComp, sumNet, iter float64
	for _, j := range jobs {
		sumComp += j.TcpuAt(machines)
		sumNet += j.Net
		iter = math.Max(iter, j.IterAt(machines))
	}
	iter = math.Max(iter, math.Max(sumComp, sumNet))
	if iter <= 0 {
		return 0
	}
	return compat * math.Min(sumComp, sumNet) / iter
}

// phaseDelayLocked computes how long to hold a group's barrier release so
// the named job's next comm windows land on its solved phase offset.
// Zero when the net model is off, the job runs alone, or the group has
// drifted too far for a short hold to correct.
func (m *Master) phaseDelayLocked(name string, now time.Time) time.Duration {
	if !m.opts.NetModel {
		return 0
	}
	gp := m.groupPhaseLocked(name, now)
	if gp == nil || gp.period <= 0 {
		return 0
	}
	phase := math.Mod(now.Sub(gp.anchor).Seconds(), gp.period)
	delay := gp.offsets[name] - phase
	if delay < 0 {
		delay += gp.period
	}
	if delay > maxStaggerFraction*gp.period {
		return 0
	}
	d := time.Duration(delay * float64(time.Second))
	if d > maxStaggerDelay {
		d = maxStaggerDelay
	}
	return d
}

// recalibrateInterleave folds measured per-group overlap ratios into the
// calibrated compatibility of every live group (called on each
// MeasuredOverlap scrape). Groups whose measurement has insufficient
// samples (ok false) are skipped — "no data" is not "no overlap". The
// first calibration per group membership is journaled predicted-vs-
// measured, like the T_itr/U stamps.
func (m *Master) recalibrateInterleave(ratio map[string]float64, ok map[string]bool) {
	if !m.opts.NetModel {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	live := make(map[string]bool, len(m.jobs))
	for _, j := range m.jobs {
		if j.status == StatusRunning {
			live[m.groupLabelLocked(j)] = true
		}
	}
	for key, gp := range m.phases {
		if !live[key] {
			delete(m.phases, key)
			continue
		}
		if !ok[key] {
			continue
		}
		measured := gp.predicted
		if gp.predOverlap > 1e-9 {
			scale := ratio[key] / gp.predOverlap
			if scale > 1 {
				scale = 1
			}
			measured = gp.predicted * scale
		}
		if gp.calibrated == 0 {
			gp.calibrated = measured
		} else {
			gp.calibrated = recalibrateAlpha*measured + (1-recalibrateAlpha)*gp.calibrated
		}
		if !gp.journaled {
			gp.journaled = true
			m.journal.append(Event{
				Kind:                   EventRecalibrate,
				Group:                  strings.Split(key, ","),
				PredictedCompatibility: gp.predicted,
				MeasuredCompatibility:  gp.calibrated,
				Note: fmt.Sprintf("overlap ratio %.3f vs predicted %.3f",
					ratio[key], gp.predOverlap),
			})
		}
	}
}
