package core

import (
	"math"
	"sync/atomic"
)

// This file implements the admission fast path (DESIGN.md §15): a Scorer
// caches per-group aggregates of a fixed base plan (ΣT_cpu, ΣT_net, the
// job-bound Eq. 1 term, the spilled memory footprint, Eq. 3 utilizations
// and the NetModel compatibility term) so that scoring "plan + one job in
// group gi" — the inner loop of the §IV-B4 arrival rule — costs O(groups)
// float re-accumulation and O(1) model work instead of a full Plan.Clone
// and rescore.
//
// Bit-identity contract: every cached value is produced by the same Group
// methods the full Options.Score path calls, and every candidate score
// re-accumulates the weighted sums in the plan's group order substituting
// the candidate group's terms in place. Because appending one job to a
// group appends exactly one term at the end of each left-to-right
// reduction (s += ..., math.Max chains), the incremental results are
// bit-identical to cloning the plan, appending the job, and rescoring —
// float addition is order-sensitive, so the Scorer never subtracts or
// reorders terms. The property test in score_test.go pins this against
// the clone-and-rescore references of reference_test.go.

// fullScoreCalls counts full-plan Options.Score evaluations. The
// admission fast path must not perform any (see
// TestAdmitZeroFullScoreRecomputations in internal/master); the
// counter is a test hook, incremented in Options.Score.
var fullScoreCalls atomic.Int64

// FullScoreCalls returns the number of full-plan Options.Score
// evaluations performed by this process. Tests snapshot it around an
// admission decision to pin the zero-recompute invariant.
func FullScoreCalls() int64 { return fullScoreCalls.Load() }

// boundSkips counts the escalation candidates RegroupAfterFinish decided
// without running Algorithm 1; a test hook, like fullScoreCalls.
var boundSkips atomic.Int64

// GroupPrediction carries the model predictions for one group that the
// runtime stamps into journal events (Eq. 1 iteration time, Eq. 3
// utilizations, and the interleaving compatibility when the NetModel is
// active). The admission path reads these from the Scorer's cache instead
// of recomputing them per event.
type GroupPrediction struct {
	IterSeconds   float64
	CPUUtil       float64
	NetUtil       float64
	Compatibility float64
}

// PredictGroup computes a group's journal predictions directly, for
// callers with no Scorer cache to read (single-job free-worker
// placements, replay).
func PredictGroup(g Group, netModel bool) GroupPrediction {
	uc, un := g.Util()
	p := GroupPrediction{IterSeconds: g.IterSeconds(), CPUUtil: uc, NetUtil: un}
	if netModel {
		p.Compatibility = GroupCompatibility(g)
	}
	return p
}

// groupAgg caches one group's scoring aggregates. All floats are the
// exact values the corresponding Group methods return for the base plan.
type groupAgg struct {
	sumComp float64 // Group.SumComp at the group DoP
	sumNet  float64 // Group.SumNet
	maxIter float64 // Group.MaxJobIter
	iter    float64 // Group.IterSeconds (Eq. 1)
	minMem  float64 // Group.MinMemoryGB
	uc, un  float64 // Group.Util (Eq. 3)
	compat  float64 // GroupCompatibility, cached only when NetModel
	mach    float64 // float64(Group.Machines), the Eq. 4 weight
	nJobs   int
	ok      bool // group passes the MaxJobsPerGroup / MemoryCapGB caps
}

// Scorer scores incremental modifications of a fixed base plan. It is
// cheap to build (one pass over the plan, plus one interleave solve per
// group when NetModel is on) and must be rebuilt whenever the underlying
// plan changes. Methods that score candidates reuse internal scratch
// space: a Scorer is not safe for concurrent use.
type Scorer struct {
	opts       Options
	plan       Plan
	groups     []groupAgg
	infeasible int   // groups already violating the caps
	open       []int // groups below MaxJobsPerGroup (every group when it is 0)
	base       float64
	scratch    []JobInfo // candidate job list for interleave solves
}

// NewScorer builds the aggregate cache for plan. opts is normalized with
// the same defaults Options.Score applies.
func NewScorer(plan Plan, opts Options) *Scorer {
	s := &Scorer{
		opts:   opts.withDefaults(),
		plan:   plan,
		groups: make([]groupAgg, len(plan.Groups)),
	}
	for i, g := range plan.Groups {
		a := &s.groups[i]
		a.sumComp = g.SumComp()
		a.sumNet = g.SumNet()
		a.maxIter = g.MaxJobIter()
		a.iter = math.Max(a.sumComp, math.Max(a.sumNet, a.maxIter))
		a.minMem = g.MinMemoryGB()
		a.uc, a.un = g.Util()
		if s.opts.NetModel {
			a.compat = GroupCompatibility(g)
		}
		a.mach = float64(g.Machines)
		a.nJobs = len(g.Jobs)
		a.ok = s.groupFits(len(g.Jobs), a.minMem)
		if !a.ok {
			s.infeasible++
		}
		if s.opts.MaxJobsPerGroup == 0 || a.nJobs < s.opts.MaxJobsPerGroup {
			s.open = append(s.open, i)
		}
	}
	s.base = s.scoreWith(-1, groupAgg{})
	return s
}

func (s *Scorer) groupFits(nJobs int, minMem float64) bool {
	if s.opts.MaxJobsPerGroup > 0 && nJobs > s.opts.MaxJobsPerGroup {
		return false
	}
	if s.opts.MemoryCapGB > 0 && minMem > s.opts.MemoryCapGB {
		return false
	}
	return true
}

// scoreWith accumulates the plan score with group gi's cached terms
// replaced by cand (gi < 0 scores the base plan). The walk mirrors
// Options.Score exactly: same group order, same per-group factors, same
// final weighting, so results are bit-identical to scoring the
// materialized candidate plan.
func (s *Scorer) scoreWith(gi int, cand groupAgg) float64 {
	var wc, wn, m float64
	if s.opts.NetModel {
		for i := range s.groups {
			a := &s.groups[i]
			if i == gi {
				a = &cand
			}
			wc += a.mach * a.uc
			wn += a.mach * a.un * a.compat
			m += a.mach
		}
		if m == 0 {
			return 0
		}
		return s.opts.CPUWeight*wc/m + (1-s.opts.CPUWeight)*wn/m
	}
	for i := range s.groups {
		a := &s.groups[i]
		if i == gi {
			a = &cand
		}
		wc += a.mach * a.uc
		wn += a.mach * a.un
		m += a.mach
	}
	if m == 0 {
		return 0
	}
	return s.opts.CPUWeight*(wc/m) + (1-s.opts.CPUWeight)*(wn/m)
}

// Score returns the base plan's score, bit-identical to
// opts.Score(plan) but without a full-plan recomputation.
func (s *Scorer) Score() float64 { return s.base }

// Prediction returns the cached journal predictions for base group gi.
func (s *Scorer) Prediction(gi int) GroupPrediction {
	a := &s.groups[gi]
	p := GroupPrediction{IterSeconds: a.iter, CPUUtil: a.uc, NetUtil: a.un}
	if s.opts.NetModel {
		p.Compatibility = a.compat
	}
	return p
}

// candidateAgg computes the aggregates of group gi with job appended,
// replaying exactly the final term of each left-to-right reduction the
// Group methods would perform on the materialized candidate.
func (s *Scorer) candidateAgg(job JobInfo, gi int) groupAgg {
	g := &s.groups[gi]
	mInt := s.plan.Groups[gi].Machines
	cand := groupAgg{
		sumComp: g.sumComp + job.TcpuAt(mInt),
		sumNet:  g.sumNet + job.Net,
		maxIter: math.Max(g.maxIter, job.IterAt(mInt)),
		minMem:  g.minMem + job.MinMemoryGB(mInt),
		mach:    g.mach,
		nJobs:   g.nJobs + 1,
		compat:  1,
	}
	cand.iter = math.Max(cand.sumComp, math.Max(cand.sumNet, cand.maxIter))
	if cand.iter != 0 {
		cand.uc = cand.sumComp / cand.iter
		cand.un = cand.sumNet / cand.iter
	}
	if s.opts.NetModel {
		s.scratch = append(s.scratch[:0], s.plan.Groups[gi].Jobs...)
		s.scratch = append(s.scratch, job)
		cand.compat = SolveInterleave(s.scratch, mInt).Compatibility
	}
	return cand
}

// ScoreDelta scores adding job to group gi without materializing the
// candidate plan. feasible mirrors Options.feasible over the candidate:
// false when the grown group would violate a cap, or when any untouched
// group already does. The returned prediction describes the candidate
// group with the job included.
func (s *Scorer) ScoreDelta(job JobInfo, gi int) (score float64, pred GroupPrediction, feasible bool) {
	cand := s.candidateAgg(job, gi)
	rest := s.infeasible
	if !s.groups[gi].ok {
		rest--
	}
	if rest > 0 || !s.groupFits(cand.nJobs, cand.minMem) {
		return 0, GroupPrediction{}, false
	}
	pred = GroupPrediction{IterSeconds: cand.iter, CPUUtil: cand.uc, NetUtil: cand.un}
	if s.opts.NetModel {
		pred.Compatibility = cand.compat
	}
	return s.scoreWith(gi, cand), pred, true
}

// BestAddition applies the §IV-B4 arrival rule over the cached plan:
// the candidate group maximizing the cluster score, requiring a strict
// improvement over the base plan; the first group wins ties. Only groups
// with room are scored. A full group, or any group once one already
// breaks a cap, could only yield an infeasible candidate: adding a job
// never lowers a group's job count, and a footprint is never negative.
func (s *Scorer) BestAddition(job JobInfo) (gi int, pred GroupPrediction, ok bool) {
	if s.infeasible > 0 {
		return -1, GroupPrediction{}, false
	}
	bestScore := s.base
	bestGroup := -1
	var bestPred GroupPrediction
	for _, i := range s.open {
		sc, p, feasible := s.ScoreDelta(job, i)
		if !feasible {
			continue
		}
		if sc > bestScore {
			bestScore = sc
			bestGroup = i
			bestPred = p
		}
	}
	if bestGroup < 0 {
		return -1, GroupPrediction{}, false
	}
	return bestGroup, bestPred, true
}

// scoreReplacement scores the plan formed by the base plan's groups minus
// the selected set, followed by repl, accumulating untouched groups from
// the cache in base-plan order and the replacement groups fresh — the
// exact walk Options.Score performs on the materialized candidate. The
// §IV-B4 completion rule uses it to score escalation candidates without
// materializing them.
func (s *Scorer) scoreReplacement(selected map[int]bool, repl []Group) float64 {
	var wc, wn, m float64
	if s.opts.NetModel {
		for i := range s.groups {
			if selected[i] {
				continue
			}
			a := &s.groups[i]
			wc += a.mach * a.uc
			wn += a.mach * a.un * a.compat
			m += a.mach
		}
		for _, g := range repl {
			uc, un := g.Util()
			wc += float64(g.Machines) * uc
			wn += float64(g.Machines) * un * GroupCompatibility(g)
			m += float64(g.Machines)
		}
		if m == 0 {
			return 0
		}
		return s.opts.CPUWeight*wc/m + (1-s.opts.CPUWeight)*wn/m
	}
	for i := range s.groups {
		if selected[i] {
			continue
		}
		a := &s.groups[i]
		wc += a.mach * a.uc
		wn += a.mach * a.un
		m += a.mach
	}
	for _, g := range repl {
		uc, un := g.Util()
		wc += float64(g.Machines) * uc
		wn += float64(g.Machines) * un
		m += float64(g.Machines)
	}
	if m == 0 {
		return 0
	}
	return s.opts.CPUWeight*(wc/m) + (1-s.opts.CPUWeight)*(wn/m)
}

// replacementBound bounds scoreReplacement(selected, repl) from above for
// every repl on at most poolMachines machines: the untouched groups from
// the cache, plus poolMachines at utilization 1 (DESIGN.md §15). The
// relative margin covers the rounding of the two different sums.
func (s *Scorer) replacementBound(selected map[int]bool, poolMachines int) float64 {
	p := float64(poolMachines)
	wc, wn, m := p, p, p
	for i := range s.groups {
		if selected[i] {
			continue
		}
		a := &s.groups[i]
		un := a.un
		if s.opts.NetModel {
			un *= a.compat
		}
		wc += a.mach * a.uc
		wn += a.mach * un
		m += a.mach
	}
	if m == 0 {
		return 0
	}
	return (s.opts.CPUWeight*wc + (1-s.opts.CPUWeight)*wn) / m * (1 + 1e-9)
}
