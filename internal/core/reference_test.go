package core

import (
	"math"
	"sort"
)

// The reference implementations of the §IV-B4 rules that
// TestIncrementalAdmissionBitIdentical compares the Scorer paths against,
// and of §IV-B3's machine allocation.

// TryAddJobReference is the arrival rule by clone-and-rescore: clone the
// plan once per candidate group and rescore from scratch. It is the
// oracle for the bit-identity property tests; TryAddJob must make the
// same decision on every input.
func TryAddJobReference(plan Plan, job JobInfo, opts Options) (Plan, bool) {
	opts = opts.withDefaults()
	if len(plan.Groups) == 0 {
		return plan, false
	}
	base := opts.Score(plan)
	bestScore := base
	bestGroup := -1
	for gi := range plan.Groups {
		cand := plan.Clone()
		cand.Groups[gi].Jobs = append(cand.Groups[gi].Jobs, job)
		if !opts.feasible(cand) {
			continue
		}
		if s := opts.Score(cand); s > bestScore {
			bestScore = s
			bestGroup = gi
		}
	}
	if bestGroup < 0 {
		return plan, false
	}
	out := plan.Clone()
	out.Groups[bestGroup].Jobs = append(out.Groups[bestGroup].Jobs, job)
	return out, true
}

// RegroupAfterFinishReference is the completion rule with every
// escalation candidate materialized as a full plan and scored from
// scratch. It is the oracle for the bit-identity property tests;
// RegroupAfterFinish must return an identical RegroupResult on every
// input.
func RegroupAfterFinishReference(plan Plan, finishedID string, waiting []JobInfo, opts Options) RegroupResult {
	opts = opts.withDefaults()
	gi, ok := plan.FindJob(finishedID)
	if !ok {
		return RegroupResult{Plan: plan}
	}
	shrunk := plan.Clone()
	shrunk.Groups[gi].Jobs = removeJob(shrunk.Groups[gi].Jobs, finishedID)
	finished := jobByID(plan.Groups[gi].Jobs, finishedID)

	if len(shrunk.Groups[gi].Jobs) == 0 && len(waiting) == 0 {
		shrunk.Groups = append(shrunk.Groups[:gi], shrunk.Groups[gi+1:]...)
		return RegroupResult{Plan: shrunk}
	}

	if idxs, ok := FindReplacement(finished, plan.Groups[gi].Machines, waiting); ok {
		repaired := shrunk.Clone()
		var added []string
		for _, i := range idxs {
			repaired.Groups[gi].Jobs = append(repaired.Groups[gi].Jobs, waiting[i])
			added = append(added, waiting[i].ID)
		}
		if opts.feasible(repaired) {
			return RegroupResult{Plan: repaired, Changed: true, AddedJobs: added}
		}
	}

	type candidate struct {
		plan     Plan
		score    float64
		involved int
		jobs     int
	}
	baseScore := opts.Score(shrunk)
	var cands []candidate

	others := make([]int, 0, len(shrunk.Groups))
	for i := range shrunk.Groups {
		if i != gi {
			others = append(others, i)
		}
	}
	sort.SliceStable(others, func(a, b int) bool {
		return len(shrunk.Groups[others[a]].Jobs) < len(shrunk.Groups[others[b]].Jobs)
	})

	for k := 0; k <= len(others); k++ {
		selected := map[int]bool{gi: true}
		for _, oi := range others[:k] {
			selected[oi] = true
		}
		var pool []JobInfo
		var poolMachines int
		var untouched []Group
		for i, g := range shrunk.Groups {
			if selected[i] {
				pool = append(pool, g.Jobs...)
				poolMachines += g.Machines
			} else {
				untouched = append(untouched, g)
			}
		}
		pool = append(pool, waiting...)
		if len(pool) == 0 || poolMachines == 0 {
			continue
		}
		sub := Schedule(pool, poolMachines, opts)
		if len(sub.Groups) == 0 {
			continue
		}
		cand := Plan{Groups: append(untouched, sub.Groups...)}
		cands = append(cands, candidate{
			plan:     cand,
			score:    opts.Score(cand),
			involved: k + 1,
			jobs:     len(pool),
		})
	}
	if len(cands) == 0 {
		return RegroupResult{Plan: shrunk}
	}

	best := cands[0]
	for _, c := range cands[1:] {
		if c.score > best.score*(1+SimilarityTolerance) {
			best = c
		}
	}
	if best.score < baseScore*(1+opts.MinImprovement) {
		return RegroupResult{Plan: shrunk}
	}
	added := addedJobIDs(shrunk, best.plan)
	return RegroupResult{
		Plan:           best.plan,
		Changed:        true,
		AddedJobs:      added,
		InvolvedGroups: best.involved,
	}
}

// allocateMachinesReference is the water-filling loop as it stood before
// heap entries cached Eq. 1: four Group.IterSeconds calls per machine and
// a lazy re-key on pop. It is the oracle for
// TestAllocateMachinesMatchesReference and reports how often the re-key
// branch fired.
func allocateMachinesReference(groups []Group, machines int) (rekeys int) {
	if len(groups) == 0 {
		return 0
	}
	gain := func(i int) float64 {
		g := groups[i]
		now := g.IterSeconds()
		g.Machines++
		return (now - g.IterSeconds()) / math.Max(now, 1e-12)
	}
	for i := range groups {
		groups[i].Machines = 1
	}
	// heap of (gain, group index); lazy re-evaluation on pop.
	type entry struct {
		gain float64
		idx  int
	}
	h := make([]entry, len(groups))
	for i := range groups {
		h[i] = entry{gain(i), i}
	}
	less := func(a, b entry) bool { return a.gain > b.gain } // max-heap
	var down func(i int)
	down = func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && less(h[l], h[big]) {
				big = l
			}
			if r < len(h) && less(h[r], h[big]) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for spare := machines - len(groups); spare > 0; {
		top := h[0]
		fresh := gain(top.idx)
		if fresh < top.gain-1e-12 {
			// Stale: re-key and sift.
			rekeys++
			h[0].gain = fresh
			down(0)
			continue
		}
		if fresh <= 1e-12 {
			// No group benefits (all network- or job-bound); spread the
			// rest round-robin so machines are not stranded.
			for i := 0; spare > 0; i, spare = (i+1)%len(groups), spare-1 {
				groups[i].Machines++
			}
			return rekeys
		}
		groups[top.idx].Machines++
		spare--
		h[0].gain = gain(top.idx)
		down(0)
	}
	return rekeys
}
