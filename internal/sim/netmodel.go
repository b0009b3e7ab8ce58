package sim

import (
	"math"
	"sort"
	"strings"

	"harmony/internal/core"
)

// This file is the simulator half of the network-aware placement layer
// (DESIGN.md §14): a link-contention model that prices comm-window
// collisions between co-located jobs, and the runtime enforcement of the
// scheduler's CASSINI-style phase offsets (core.SolveInterleave) — an
// establishment hold that staggers cycle starts onto the solved offsets
// at every group (re)formation, plus a non-colliding link discipline
// (group.go: comm bursts dispatch FIFO, never into an occupied link)
// that keeps the separation against per-cycle jitter and churn.
//
// The fluid model shares one representative link per group. With the
// default primary/secondary discipline that link is work-conserving, so
// colliding comm windows cost nothing in aggregate and interleaving has
// nothing to win. Real shared links are not work-conserving: concurrent
// PULL/PUSH bursts from different jobs collide in switch queues, and the
// retransmits/head-of-line blocking burn goodput (the congestion premise
// of CASSINI). Config.LinkContention enables that physics.

// collisionLoss is the fraction of aggregate link goodput lost while
// k >= 2 comm subtasks from different jobs drive the shared link
// concurrently: heavy incast-style congestion on an oversubscribed link,
// where colliding bursts lose nearly half the goodput to retransmits and
// head-of-line blocking.
const collisionLoss = 0.45

// linkContentionPolicy shares the link fairly among all active comm
// subtasks but burns `loss` of the aggregate goodput whenever two or
// more collide: k active tasks each progress at (1-loss)/k. The split is
// symmetric on purpose — colliding jobs slow down together and stay
// phase-locked, exactly the persistent interference interleaving exists
// to break (an asymmetric split would let the loser slip behind the
// winner and self-resolve).
type linkContentionPolicy struct {
	loss float64
}

func (linkContentionPolicy) maxActive() int { return 0 }
func (p linkContentionPolicy) rates(out []float64) {
	k := len(out)
	if k == 0 {
		return
	}
	r := 1.0
	if k > 1 {
		r = (1 - p.loss) / float64(k)
	}
	for i := range out {
		out[i] = r
	}
}

// interleaveInfo is the scheduler's view of a job for the phase solver:
// the profiled estimate when one exists, the spec-derived ground truth
// before that. PullFrac always rides along — the solver needs the
// PULL/PUSH split to place windows.
func (s *Simulator) interleaveInfo(j *jobRun) core.JobInfo {
	info, ok := s.estimates[j.spec.ID]
	if !ok {
		info = core.JobInfo{
			ID:   j.spec.ID,
			Comp: j.spec.CompMachineSeconds,
			Net:  j.spec.NetSeconds,
		}
	}
	if info.PullFrac == 0 {
		info.PullFrac = j.spec.PullFrac
	}
	return info
}

// phaseDelay computes how long to hold a job's cycle start so its comm
// windows land on the group's solved phase offsets. The hold is paid
// once per member per solve — the establishment payment of the CASSINI
// circle: a group (re)formation starts every member in phase, and
// without the stagger their first PULL bursts collide on the shared
// link at full collision loss. Once established, the exclusive CPU
// discipline (§IV-A) and the non-colliding link dispatch maintain the
// separation, so steady-state cycles run unthrottled. Zero when the
// net-aware scheduler is off or the job runs alone.
func (g *groupRun) phaseDelay(j *jobRun) float64 {
	s := g.sim
	if !s.cfg.SchedOpts.NetModel || len(g.jobs) < 2 {
		return 0
	}
	if g.ilSig == "" {
		ids := make([]string, len(g.jobs))
		for i, jj := range g.jobs {
			ids[i] = jj.spec.ID
		}
		sort.Strings(ids)
		infos := make([]core.JobInfo, len(g.jobs))
		byID := make(map[string]*jobRun, len(g.jobs))
		for _, jj := range g.jobs {
			byID[jj.spec.ID] = jj
		}
		for i, id := range ids {
			infos[i] = s.interleaveInfo(byID[id])
		}
		il := core.SolveInterleave(infos, g.machines)
		g.ilSig = strings.Join(ids, ",")
		g.ilPeriod = il.Period
		g.ilOffsets = make(map[string]float64, len(ids))
		// Normalize so the earliest slot starts immediately: the circle
		// only fixes relative phases, and idling the whole group by the
		// smallest offset would be pure waste.
		min := math.Inf(1)
		for _, off := range il.Offsets {
			if off < min {
				min = off
			}
		}
		for i, id := range ids {
			g.ilOffsets[id] = il.Offsets[i] - min
		}
		g.ilHeld = make(map[string]bool, len(ids))
		g.ilAnchor = s.eng.Now()
	}
	if g.ilPeriod <= 0 || g.ilHeld[j.spec.ID] {
		return 0
	}
	g.ilHeld[j.spec.ID] = true
	now := s.eng.Now()
	phase := math.Mod(now.Sub(g.ilAnchor).Seconds(), g.ilPeriod)
	delay := g.ilOffsets[j.spec.ID] - phase
	if delay < 0 {
		delay += g.ilPeriod
	}
	return delay
}

// invalidateInterleave drops the cached phase solve; the next cycle
// start re-solves against the new membership and every member pays a
// fresh establishment hold.
func (g *groupRun) invalidateInterleave() {
	g.ilSig = ""
	g.ilOffsets = nil
	g.ilHeld = nil
}
