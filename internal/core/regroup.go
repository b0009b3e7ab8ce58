package core

import (
	"math"
	"sort"
)

// SimilarityTolerance is the relative difference under which two jobs (or
// a job and a bundle of jobs) count as equivalent for replacement after a
// completion; the paper uses 5% (§IV-B4).
const SimilarityTolerance = 0.05

// maxBundleSize bounds the subset search when replacing one finished job
// with several smaller equivalent jobs.
const maxBundleSize = 3

// TryAddJob implements the arrival rule of §IV-B4: place the newly
// profiled job into the existing group that maximizes cluster utilization,
// without moving any running job or machine. It returns the improved plan
// and true only when the addition raises the scheduling score; otherwise
// the job should keep waiting.
//
// Candidates are scored incrementally through a Scorer (DESIGN.md §15), so
// only the winning placement materializes a cloned plan.
func TryAddJob(plan Plan, job JobInfo, opts Options) (Plan, bool) {
	if len(plan.Groups) == 0 {
		return plan, false
	}
	gi, _, ok := NewScorer(plan, opts).BestAddition(job)
	if !ok {
		return plan, false
	}
	out := plan.Clone()
	out.Groups[gi].Jobs = append(out.Groups[gi].Jobs, job)
	return out, true
}

// FindReplacement searches waiting jobs for a substitute with statistics
// within SimilarityTolerance of the finished job at the group's DoP —
// first a single similar job, then a bundle whose summed iteration time
// and computation/communication ratio match (§IV-B4). It returns the
// chosen candidate indices.
func FindReplacement(finished JobInfo, dop int, waiting []JobInfo) ([]int, bool) {
	if dop < 1 {
		dop = 1
	}
	targetIter := finished.IterAt(dop)
	targetRatio := finished.CompRatioAt(dop)
	if targetIter <= 0 {
		return nil, false
	}
	// Single-job match.
	for i, w := range waiting {
		if similar(w.IterAt(dop), targetIter) && similar(w.CompRatioAt(dop), targetRatio) {
			return []int{i}, true
		}
	}
	// Bundle match: a set whose iteration times sum to the finished job's
	// and whose aggregate comp/comm ratio matches.
	idxs := make([]int, len(waiting))
	for i := range idxs {
		idxs[i] = i
	}
	// Consider shorter jobs first; long jobs can never be part of a
	// bundle whose sum matches.
	sort.SliceStable(idxs, func(a, b int) bool {
		return waiting[idxs[a]].IterAt(dop) < waiting[idxs[b]].IterAt(dop)
	})
	var pick func(start int, chosen []int, sumIter, sumComp, sumNet float64) ([]int, bool)
	pick = func(start int, chosen []int, sumIter, sumComp, sumNet float64) ([]int, bool) {
		if len(chosen) >= 2 {
			ratio := 0.0
			if sumComp+sumNet > 0 {
				ratio = sumComp / (sumComp + sumNet)
			}
			if similar(sumIter, targetIter) && similar(ratio, targetRatio) {
				out := make([]int, len(chosen))
				copy(out, chosen)
				return out, true
			}
		}
		if len(chosen) == maxBundleSize {
			return nil, false
		}
		for k := start; k < len(idxs); k++ {
			w := waiting[idxs[k]]
			it := w.IterAt(dop)
			if sumIter+it > targetIter*(1+SimilarityTolerance) {
				break // sorted ascending: everything after overshoots too
			}
			if got, ok := pick(k+1, append(chosen, idxs[k]), sumIter+it,
				sumComp+w.TcpuAt(dop), sumNet+w.Net); ok {
				return got, true
			}
		}
		return nil, false
	}
	return pick(0, nil, 0, 0, 0)
}

func similar(a, b float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= SimilarityTolerance*scale
}

// RegroupResult describes the outcome of a completion-triggered regroup.
type RegroupResult struct {
	// Plan is the new scheduling decision.
	Plan Plan
	// Changed reports whether the decision goes beyond merely removing
	// the finished job: false when the expected benefit was under the
	// regrouping threshold and the shrunk plan is kept as-is.
	Changed bool
	// AddedJobs lists waiting jobs the decision pulled in.
	AddedJobs []string
	// InvolvedGroups is the number of pre-existing groups whose jobs were
	// reshuffled (0 when only a replacement was inserted).
	InvolvedGroups int
}

// RegroupAfterFinish implements the completion rule of §IV-B4. It removes
// the finished job, tries to repair the group with an equivalent waiting
// job (or bundle), and only if that fails escalates to Algorithm 1 over a
// growing set of groups — preferring decisions that move fewer jobs unless
// a bigger reshuffle wins by more than the 5% threshold.
//
// Escalation candidates are scored through the Scorer's replacement walk
// (cached aggregates for untouched groups, fresh terms for the rebuilt
// sub-plan), so only the winning candidate materializes a plan.
func RegroupAfterFinish(plan Plan, finishedID string, waiting []JobInfo, opts Options) RegroupResult {
	opts = opts.withDefaults()
	gi, ok := plan.FindJob(finishedID)
	if !ok {
		return RegroupResult{Plan: plan}
	}
	shrunk := plan.Clone()
	shrunk.Groups[gi].Jobs = removeJob(shrunk.Groups[gi].Jobs, finishedID)
	finished := jobByID(plan.Groups[gi].Jobs, finishedID)

	// Drop emptied groups (their machines are reclaimed by the caller).
	if len(shrunk.Groups[gi].Jobs) == 0 && len(waiting) == 0 {
		shrunk.Groups = append(shrunk.Groups[:gi], shrunk.Groups[gi+1:]...)
		return RegroupResult{Plan: shrunk}
	}

	// 1) Repair with an equivalent waiting job or bundle.
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

	// 2) Escalate: re-run Algorithm 1 over the affected group plus a
	// growing set of other groups (smallest job count first), keeping
	// their combined machines. Prefer the smallest involvement; a larger
	// reshuffle must beat the best so far by the threshold to be chosen
	// (§IV-B4), so a candidate whose score bound cannot is not searched.
	type candidate struct {
		selected map[int]bool
		sub      []Group
		score    float64
		involved int
	}
	sc := NewScorer(shrunk, opts)
	baseScore := sc.Score()
	var best candidate

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
		var poolMachines int
		for i, g := range shrunk.Groups {
			if selected[i] {
				poolMachines += g.Machines
			}
		}
		beat := best.score * (1 + SimilarityTolerance)
		if best.sub != nil && sc.replacementBound(selected, poolMachines) <= beat {
			boundSkips.Add(1)
			continue
		}
		var pool []JobInfo
		for i, g := range shrunk.Groups {
			if selected[i] {
				pool = append(pool, g.Jobs...)
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
		if score := sc.scoreReplacement(selected, sub.Groups); best.sub == nil || score > beat {
			best = candidate{selected: selected, sub: sub.Groups, score: score, involved: k + 1}
		}
	}
	if best.sub == nil {
		return RegroupResult{Plan: shrunk}
	}
	// Do not regroup at all when the expected benefit is under threshold.
	if best.score < baseScore*(1+opts.MinImprovement) {
		return RegroupResult{Plan: shrunk}
	}
	// Materialize only the winner (untouched groups in base-plan order,
	// then the rebuilt sub-plan — the same layout scoreReplacement walked).
	var untouched []Group
	for i, g := range shrunk.Groups {
		if !best.selected[i] {
			untouched = append(untouched, g)
		}
	}
	bestPlan := Plan{Groups: append(untouched, best.sub...)}
	added := addedJobIDs(shrunk, bestPlan)
	return RegroupResult{
		Plan:           bestPlan,
		Changed:        true,
		AddedJobs:      added,
		InvolvedGroups: best.involved,
	}
}

func removeJob(jobs []JobInfo, id string) []JobInfo {
	out := jobs[:0]
	for _, j := range jobs {
		if j.ID != id {
			out = append(out, j)
		}
	}
	return out
}

func jobByID(jobs []JobInfo, id string) JobInfo {
	for _, j := range jobs {
		if j.ID == id {
			return j
		}
	}
	return JobInfo{}
}

func addedJobIDs(before, after Plan) []string {
	had := make(map[string]bool, before.NumJobs())
	for _, id := range before.JobIDs() {
		had[id] = true
	}
	var added []string
	for _, id := range after.JobIDs() {
		if !had[id] {
			added = append(added, id)
		}
	}
	return added
}
