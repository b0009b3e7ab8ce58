package core

import (
	"math"
	"sort"
)

// This file implements the CASSINI-style communication interleaving model
// (PAPERS.md): co-located jobs alternate COMP and COMM phases, so their
// demand on the group's shared link is a periodic sequence of PULL and
// PUSH bursts. CASSINI's geometric abstraction rolls one period onto a
// circle and rotates each job's bursts by a per-job angle (the phase
// offset) so bursts interleave instead of collide. Because every job in a
// Harmony group is dispatched on the same group iteration period (Eq. 1),
// the unified circle has a single circumference and the search reduces to
// small modular arithmetic over a discretized circle.

const (
	// interleaveSlots discretizes one group period. 64 slots keep the
	// solver exact enough for burst widths down to ~1.5% of the period
	// while staying cheap inside the scheduler's inner loops.
	interleaveSlots = 64
	// offsetStep is the candidate-offset granularity in slots; every
	// job's offset is searched at interleaveSlots/offsetStep positions
	// around the circle.
	offsetStep = 2
)

// Interleave is the solved communication schedule for one set of
// co-located jobs sharing a link.
type Interleave struct {
	// Period is the circle circumference in seconds: the group iteration
	// time predicted by Eq. 1 at the given DoP.
	Period float64
	// Offsets holds one phase offset in seconds per input job, aligned
	// with the input slice, each in [0, Period). Shifting job i's cycle
	// start by Offsets[i] realizes the interleaving.
	Offsets []float64
	// Compatibility is the fraction of the group's comm demand that fits
	// the shared link without collision under the best found offsets:
	// 1 means perfectly interleavable, lower values mean (1-C)·ΣNet
	// seconds of comm collide per iteration no matter the phasing.
	Compatibility float64
	// CollisionSeconds is the absolute collided comm seconds per
	// iteration, (1-Compatibility)·ΣNet.
	CollisionSeconds float64
}

// SolveInterleave computes per-job phase offsets on the shared link for
// jobs co-located at DoP machines, and the resulting compatibility score.
// It is a pure function: the same jobs (in any order) produce the same
// per-job offsets, because placement walks jobs in a canonical order
// (descending comm demand, ties by ID) regardless of input order.
func SolveInterleave(jobs []JobInfo, machines int) Interleave {
	res := Interleave{
		Period:        groupIterSeconds(jobs, machines),
		Offsets:       make([]float64, len(jobs)),
		Compatibility: 1,
	}
	if len(jobs) < 2 || res.Period <= 0 {
		return res
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := jobs[order[a]], jobs[order[b]]
		if ja.Net != jb.Net {
			return ja.Net > jb.Net
		}
		return ja.ID < jb.ID
	})

	slotSec := res.Period / interleaveSlots
	var occ, dem [interleaveSlots]float64
	var totalDemand, totalExcess float64
	for _, ji := range order {
		j := jobs[ji]
		if j.Net <= 0 {
			continue
		}
		demand := commDemand(j, machines, res.Period, &dem)
		totalDemand += demand
		// The slots the job occupies, ascending: the offset search and the
		// placement visit only these.
		var used [interleaveSlots]int
		n := 0
		for s, d := range dem {
			if d != 0 {
				used[n] = s
				n++
			}
		}
		bestOff, bestCost := 0, math.Inf(1)
		for c := 0; c < interleaveSlots; c += offsetStep {
			var cost float64
			for _, s := range used[:n] {
				d := dem[s]
				o := occ[(s+c)%interleaveSlots]
				// Incremental excess over unit link capacity in this
				// slot: what the new demand adds beyond what already
				// overflowed.
				after := o + d - 1
				if after > 0 {
					if before := o - 1; before > 0 {
						after -= before
					}
					cost += after
				}
			}
			if cost < bestCost-1e-12 {
				bestCost = cost
				bestOff = c
			}
			if bestCost == 0 {
				break
			}
		}
		for _, s := range used[:n] {
			occ[(s+bestOff)%interleaveSlots] += dem[s]
		}
		res.Offsets[ji] = float64(bestOff) * slotSec
		totalExcess += bestCost * slotSec
	}
	if totalDemand > 0 {
		res.CollisionSeconds = math.Min(totalExcess, totalDemand)
		res.Compatibility = 1 - res.CollisionSeconds/totalDemand
	}
	return res
}

// commDemand fills dem with job j's fractional link occupancy per slot at
// zero offset — the PULL window at the start of the cycle and the PUSH
// window after COMP — and returns the total demand in seconds.
func commDemand(j JobInfo, machines int, period float64, dem *[interleaveSlots]float64) float64 {
	*dem = [interleaveSlots]float64{}
	net := math.Min(j.Net, period)
	if net <= 0 || period <= 0 {
		return 0
	}
	pf := j.PullFrac
	if pf <= 0 || pf >= 1 {
		pf = 0.5
	}
	pull := pf * net
	push := net - pull
	comp := j.TcpuAt(machines)
	fillWindow(dem, period, 0, pull)
	fillWindow(dem, period, pull+comp, push)
	return net
}

// fillWindow adds a [start, start+width) second window onto the circle,
// with fractional coverage at the partial edge slots. It walks slot
// indices as integers — a float accumulator here can stall when a window
// edge lands within one ulp of a slot boundary.
func fillWindow(dem *[interleaveSlots]float64, period, start, width float64) {
	if width <= 0 || period <= 0 {
		return
	}
	if width > period {
		width = period
	}
	slotSec := period / interleaveSlots
	end := start + width
	first := int(math.Floor(start / slotSec))
	last := int(math.Ceil(end / slotSec))
	for s := first; s < last; s++ {
		lo := math.Max(start, float64(s)*slotSec)
		hi := math.Min(end, float64(s+1)*slotSec)
		if hi <= lo {
			continue
		}
		dem[((s%interleaveSlots)+interleaveSlots)%interleaveSlots] += (hi - lo) / slotSec
	}
}

// groupIterSeconds is Eq. 1 over an ad-hoc job set at the given DoP,
// without materializing a Group. The sums accumulate in value-sorted
// order so the result is bit-identical for any permutation of the input —
// the solver's input-order-independence contract depends on it.
func groupIterSeconds(jobs []JobInfo, machines int) float64 {
	comps := make([]float64, 0, len(jobs))
	nets := make([]float64, 0, len(jobs))
	var maxIter float64
	for i := range jobs {
		comps = append(comps, jobs[i].TcpuAt(machines))
		nets = append(nets, jobs[i].Net)
		maxIter = math.Max(maxIter, jobs[i].IterAt(machines))
	}
	sort.Float64s(comps)
	sort.Float64s(nets)
	var sumComp, sumNet float64
	for _, v := range comps {
		sumComp += v
	}
	for _, v := range nets {
		sumNet += v
	}
	return math.Max(sumComp, math.Max(sumNet, maxIter))
}

// GroupCompatibility scores how well a group's comm bursts can interleave
// on its shared link, in [0, 1].
func GroupCompatibility(g Group) float64 {
	return SolveInterleave(g.Jobs, g.Machines).Compatibility
}

// collisionSeconds is the solver's predicted collided comm seconds per
// iteration for an ad-hoc job set; the scheduler uses it as a penalty in
// the same units as the imbalance terms it already minimizes.
func collisionSeconds(jobs []JobInfo, machines int) float64 {
	return SolveInterleave(jobs, machines).CollisionSeconds
}
