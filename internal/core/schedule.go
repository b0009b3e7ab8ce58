package core

import (
	"math"
	"sort"
)

// Options tune the scheduler. The zero value selects the paper's defaults.
type Options struct {
	// CPUWeight is the weight of CPU utilization in the scheduling score;
	// the paper treats CPU "more importantly than the network" (§IV-B2).
	// Defaults to 0.7; network gets the remainder.
	CPUWeight float64
	// MemoryCapGB bounds the per-machine heap footprint of a group with
	// all inputs spilled. Zero disables the feasibility check.
	MemoryCapGB float64
	// MinImprovement is the relative utilization gain below which Harmony
	// refuses to regroup (§IV-B4 uses 5%).
	MinImprovement float64
	// MaxJobsPerGroup caps group size; zero means unlimited. The paper
	// prefers fewer jobs per group for lower memory pressure.
	MaxJobsPerGroup int
	// DisableSwapTuning skips the swap-based fine-tuning step of §IV-B3,
	// for the design ablation.
	DisableSwapTuning bool
	// NetModel replaces Eq. 1's aggregate-bandwidth view of a group's
	// network with the link-contention model: grouping decisions account
	// for whether co-located jobs' PULL/PUSH bursts can interleave on
	// the shared link (see interleave.go), and comm seconds the solver
	// predicts will collide are discounted from the network-utilization
	// score. Off by default; plans are bit-identical to the paper's
	// model when false.
	NetModel bool
}

func (o Options) withDefaults() Options {
	if o.CPUWeight <= 0 || o.CPUWeight > 1 {
		o.CPUWeight = 0.7
	}
	if o.MinImprovement <= 0 {
		o.MinImprovement = 0.05
	}
	return o
}

// Score collapses a plan's utilization vector to a scalar objective using
// the CPU-preferring weights. With NetModel on, each group's network term
// is discounted by its link compatibility: comm seconds predicted to
// collide on the shared link are occupancy, not useful utilization.
func (o Options) Score(p Plan) float64 {
	fullScoreCalls.Add(1)
	o = o.withDefaults()
	if o.NetModel {
		var wc, wn, m float64
		for _, g := range p.Groups {
			uc, un := g.Util()
			wc += float64(g.Machines) * uc
			wn += float64(g.Machines) * un * GroupCompatibility(g)
			m += float64(g.Machines)
		}
		if m == 0 {
			return 0
		}
		return o.CPUWeight*wc/m + (1-o.CPUWeight)*wn/m
	}
	uc, un := p.Util()
	return o.CPUWeight*uc + (1-o.CPUWeight)*un
}

// feasible reports whether every group fits machine memory with all input
// spilled and respects the group-size cap.
func (o Options) feasible(p Plan) bool {
	for _, g := range p.Groups {
		if o.MaxJobsPerGroup > 0 && len(g.Jobs) > o.MaxJobsPerGroup {
			return false
		}
		if o.MemoryCapGB > 0 && g.MinMemoryGB() > o.MemoryCapGB {
			return false
		}
	}
	return true
}

// Schedule is Algorithm 1 of the paper. It considers growing prefixes of
// jobs (which the caller orders by scheduling priority: running, paused,
// then newly profiled), picks the group count that best balances CPU and
// network time, assigns jobs to groups, allocates machines, and stops when
// utilization no longer improves.
//
// The returned plan places a prefix of jobs; the rest remain waiting.
// An empty plan is returned when no job can be placed (for example when
// there are no jobs or no machines).
func Schedule(jobs []JobInfo, machines int, opts Options) Plan {
	opts = opts.withDefaults()
	if len(jobs) == 0 || machines <= 0 {
		return Plan{}
	}
	var best Plan
	bestScore := -1.0
	for nj := 1; nj <= len(jobs); nj = nextPrefix(nj) {
		groups := groupPrefix(jobs[:nj], machines, opts)
		if groups == nil {
			// Memory-infeasible at every group count; larger prefixes only
			// add memory pressure.
			break
		}
		cand := Plan{Groups: groups}
		score := opts.Score(cand)
		if !(score > bestScore) {
			break // L12-13: no more improvement with more jobs
		}
		best, bestScore = cand, score
	}
	return best
}

// groupPrefix is L6-L11 of Algorithm 1 for one job prefix: group at the
// count that best balances CPU and network time and, while the result
// does not fit machine memory, retry with more, smaller groups. It
// returns nil when even one job per group does not fit.
func groupPrefix(jobs []JobInfo, machines int, opts Options) []Group {
	maxG := min(len(jobs), machines)
	for nG := bestGroupCount(jobs, machines, opts); nG <= maxG; nG++ {
		groups := assignJobs(jobs, nG, machines, opts)
		if !opts.DisableSwapTuning {
			fineTune(groups, opts)
		}
		allocateMachines(groups, machines)
		if opts.feasible(Plan{Groups: groups}) {
			return groups
		}
	}
	return nil
}

// nextPrefix advances Algorithm 1's job-count loop. Small prefixes step
// one job at a time (exactly L4 of the paper); past 64 jobs the step
// grows geometrically so that scheduling thousands of jobs stays within
// the seconds the paper reports for 8K jobs on 10K machines (§V-F).
func nextPrefix(nj int) int {
	if nj < 64 {
		return nj + 1
	}
	return nj + (nj+15)/16
}

// bestGroupCount is L6 of Algorithm 1: choose the number of groups n_G
// whose implied DoP (machines/n_G, equal across groups) best balances
// each job's CPU and network time: argmin Σ_j |T_cpu_j(n_G) − T_net_j|.
// Each |comp·n_G/M − net| term is convex in n_G, so the sum is convex;
// large inputs use ternary search instead of a linear scan.
func bestGroupCount(jobs []JobInfo, machines int, opts Options) int {
	maxG := len(jobs)
	if machines < maxG {
		maxG = machines
	}
	cost := func(nG int) float64 {
		if opts.MaxJobsPerGroup > 0 && (len(jobs)+nG-1)/nG > opts.MaxJobsPerGroup {
			return math.Inf(1)
		}
		m := machines / nG
		var c float64
		for i := range jobs {
			c += math.Abs(jobs[i].TcpuAt(m) - jobs[i].Net)
		}
		return c
	}
	if maxG <= 64 {
		bestG, bestCost := 1, math.Inf(1)
		for nG := 1; nG <= maxG; nG++ {
			if c := cost(nG); c < bestCost {
				bestCost = c
				bestG = nG
			}
		}
		return bestG
	}
	lo, hi := 1, maxG
	for hi-lo > 2 {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if cost(m1) <= cost(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	bestG, bestCost := lo, cost(lo)
	for nG := lo + 1; nG <= hi; nG++ {
		if c := cost(nG); c < bestCost {
			bestCost = c
			bestG = nG
		}
	}
	return bestG
}

// assignJobs distributes jobs evenly into nG groups (§IV-B3): sort by the
// job's own iteration time so that similarly sized jobs land together
// (preventing job-bound groups), then fill groups one by one, choosing at
// each step the remaining job that best balances the group's CPU and
// network use.
//
// The model terms T_cpu and T_itr at the group DoP are memoized up front
// (the sort and every window scan reuse them), and removal from the
// remaining set shifts only the scanned window — at most 32 elements —
// instead of the whole tail, so one assignment pass is O(n log n + n·w)
// rather than O(n²).
//
// With Options.NetModel on, each candidate is additionally charged the
// comm seconds the interleaving solver predicts would collide on the
// group's shared link were the candidate added — so the window pick
// prefers jobs whose PULL/PUSH bursts fit the group's idle link windows.
func assignJobs(jobs []JobInfo, nG, machines int, opts Options) []Group {
	if nG < 1 {
		nG = 1
	}
	m := machines / nG
	if m < 1 {
		m = 1
	}
	n := len(jobs)
	tcpu := make([]float64, n)
	iter := make([]float64, n)
	rem := make([]int, n) // indices into jobs, sorted; rem[head:] remain
	for i := range jobs {
		tcpu[i] = jobs[i].TcpuAt(m)
		iter[i] = jobs[i].IterAt(m)
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool {
		return iter[rem[a]] > iter[rem[b]]
	})

	groups := make([]Group, nG)
	for i := range groups {
		groups[i].Machines = m // provisional; allocateMachines finalizes
	}
	var scratch []JobInfo // candidate group membership for the net model
	head := 0
	for gi := range groups {
		// Even split: earlier groups absorb the remainder.
		left := n - head
		size := left / (nG - gi)
		if left%(nG-gi) != 0 {
			size++
		}
		for k := 0; k < size; k++ {
			pick := 0
			if k > 0 {
				// Pick the remaining job that minimizes the group's
				// |ΣT_cpu − ΣT_net| imbalance, but only among jobs with
				// iteration times close to the largest remaining one:
				// similar-sized jobs stay together (preventing the
				// job-bound case) while the choice within that window
				// balances resource use.
				window := 1
				top := iter[rem[head]]
				for window < n-head && window < 32 &&
					iter[rem[head+window]]*1.5 >= top {
					window++
				}
				// The group is unchanged while scanning candidates, so
				// its imbalance is computed once, not per candidate.
				imb := groups[gi].Imbalance()
				bestImb := math.Inf(1)
				for c := 0; c < window; c++ {
					ji := rem[head+c]
					v := math.Abs(imb + tcpu[ji] - jobs[ji].Net)
					if opts.NetModel {
						scratch = append(scratch[:0], groups[gi].Jobs...)
						scratch = append(scratch, jobs[ji])
						v += collisionSeconds(scratch, m)
					}
					if v < bestImb {
						bestImb = v
						pick = c
					}
				}
			}
			groups[gi].Jobs = append(groups[gi].Jobs, jobs[rem[head+pick]])
			// Order-preserving removal: shift the skipped window prefix
			// right by one and advance the head.
			copy(rem[head+1:head+pick+1], rem[head:head+pick])
			head++
		}
	}
	return groups
}

// fineTune is the swap step of §IV-B3: repeatedly pick the most imbalanced
// group, find the group with the most complementary resource use, and swap
// the job pair that minimizes the combined imbalance. It stops when no
// swap helps (with an iteration cap as a safety net).
//
// Group imbalances are cached across rounds; a swap invalidates exactly
// the two groups it touched.
func fineTune(groups []Group, opts Options) {
	if len(groups) < 2 {
		return
	}
	maxRounds := 4 * len(groups)
	if maxRounds > 256 {
		maxRounds = 256
	}
	imb := make([]float64, len(groups))
	for i := range groups {
		imb[i] = groups[i].Imbalance()
	}
	for round := 0; round < maxRounds; round++ {
		// Most imbalanced group.
		src := 0
		for i := range imb {
			if math.Abs(imb[i]) > math.Abs(imb[src]) {
				src = i
			}
		}
		// Most complementary partner: largest imbalance of opposite sign.
		dst, found := 0, false
		srcImb := imb[src]
		var bestOpp float64
		for i := range imb {
			if i == src {
				continue
			}
			if imb[i]*srcImb < 0 && math.Abs(imb[i]) > bestOpp {
				bestOpp = math.Abs(imb[i])
				dst = i
				found = true
			}
		}
		if !found {
			return
		}
		if !trySwap(&groups[src], &groups[dst], opts) {
			return
		}
		imb[src] = groups[src].Imbalance()
		imb[dst] = groups[dst].Imbalance()
	}
}

// trySwap finds the job pair whose exchange minimizes the two groups'
// combined imbalance; it applies the swap and reports true only when it
// strictly improves. Each job's imbalance contribution at both groups'
// DoPs is computed once up front, leaving only additions inside the
// pair loop.
//
// With Options.NetModel on, the objective additionally includes each
// group's predicted collided comm seconds. The interleaving solver is too
// expensive to run per pair, so the pair loop keeps the cheapest few
// pairs by imbalance and only those finalists pay for a solve.
func trySwap(a, b *Group, opts Options) bool {
	imbA, imbB := a.Imbalance(), b.Imbalance()
	current := math.Abs(imbA) + math.Abs(imbB)
	da := make([]float64, len(a.Jobs))    // ja's contribution at a's DoP
	daInB := make([]float64, len(a.Jobs)) // ja's contribution at b's DoP
	for i := range a.Jobs {
		da[i] = a.Jobs[i].TcpuAt(a.Machines) - a.Jobs[i].Net
		daInB[i] = a.Jobs[i].TcpuAt(b.Machines) - a.Jobs[i].Net
	}
	db := make([]float64, len(b.Jobs))
	dbInA := make([]float64, len(b.Jobs))
	for j := range b.Jobs {
		db[j] = b.Jobs[j].TcpuAt(b.Machines) - b.Jobs[j].Net
		dbInA[j] = b.Jobs[j].TcpuAt(a.Machines) - b.Jobs[j].Net
	}
	pairCost := func(i, j int) float64 {
		// Swapping moves ja's contribution out of a and jb's in,
		// evaluated at each group's own DoP.
		newA := imbA - da[i] + dbInA[j]
		newB := imbB - db[j] + daInB[i]
		return math.Abs(newA) + math.Abs(newB)
	}
	if opts.NetModel {
		return trySwapNetModel(a, b, current, pairCost)
	}
	bestI, bestJ, bestCost := -1, -1, current
	for i := range a.Jobs {
		for j := range b.Jobs {
			if cost := pairCost(i, j); cost < bestCost-1e-12 {
				bestCost = cost
				bestI, bestJ = i, j
			}
		}
	}
	if bestI < 0 {
		return false
	}
	a.Jobs[bestI], b.Jobs[bestJ] = b.Jobs[bestJ], a.Jobs[bestI]
	return true
}

// swapFinalists bounds the number of candidate pairs that pay for an
// interleave solve per trySwap call under the net model.
const swapFinalists = 8

// trySwapNetModel is trySwap's net-model objective: combined imbalance
// plus both groups' predicted collided comm seconds. The best
// swapFinalists pairs by imbalance (deterministic ties: lower i, then j)
// are re-scored with the solver; the swap applies only on strict
// improvement over the current configuration's full cost.
func trySwapNetModel(a, b *Group, currentImb float64, pairCost func(i, j int) float64) bool {
	type cand struct {
		i, j int
		imb  float64
	}
	finalists := make([]cand, 0, swapFinalists+1)
	for i := range a.Jobs {
		for j := range b.Jobs {
			c := cand{i, j, pairCost(i, j)}
			at := len(finalists)
			for at > 0 && finalists[at-1].imb > c.imb+1e-12 {
				at--
			}
			if at < swapFinalists {
				finalists = append(finalists, cand{})
				copy(finalists[at+1:], finalists[at:])
				finalists[at] = c
				if len(finalists) > swapFinalists {
					finalists = finalists[:swapFinalists]
				}
			}
		}
	}
	current := currentImb + collisionSeconds(a.Jobs, a.Machines) + collisionSeconds(b.Jobs, b.Machines)
	ja := make([]JobInfo, len(a.Jobs))
	jb := make([]JobInfo, len(b.Jobs))
	bestI, bestJ, bestCost := -1, -1, current
	for _, c := range finalists {
		copy(ja, a.Jobs)
		copy(jb, b.Jobs)
		ja[c.i], jb[c.j] = jb[c.j], ja[c.i]
		cost := c.imb + collisionSeconds(ja, a.Machines) + collisionSeconds(jb, b.Machines)
		if cost < bestCost-1e-12 {
			bestCost = cost
			bestI, bestJ = c.i, c.j
		}
	}
	if bestI < 0 {
		return false
	}
	a.Jobs[bestI], b.Jobs[bestJ] = b.Jobs[bestJ], a.Jobs[bestI]
	return true
}

// allocateMachines is the machine-distribution step of §IV-B3: every
// group gets one machine, then the remaining machines go one at a time to
// the group whose iteration time shrinks the most from one more machine
// (the most computation-bound group, per Eq. 1 and Eq. 2). A max-heap on
// the marginal gain keeps the water-filling loop near O(M log G); each
// entry keeps its group's ΣT_net and Eq. 1 at Machines+1, so a machine
// handed out costs one new Eq. 1 evaluation.
func allocateMachines(groups []Group, machines int) {
	if len(groups) == 0 {
		return
	}
	type entry struct {
		gain   float64
		idx    int
		sumNet float64
		next   float64 // Eq. 1 at Machines+1
	}
	// rekey moves e's group from iteration time now to e.next and looks
	// one machine further ahead.
	rekey := func(e *entry, now float64) {
		e.next = iterSecondsAt(groups[e.idx].Jobs, groups[e.idx].Machines+1, e.sumNet)
		e.gain = (now - e.next) / math.Max(now, 1e-12)
	}
	h := make([]entry, len(groups))
	for i := range groups {
		groups[i].Machines = 1
		h[i] = entry{idx: i, sumNet: groups[i].SumNet()}
		rekey(&h[i], iterSecondsAt(groups[i].Jobs, 1, h[i].sumNet))
	}
	less := func(a, b entry) bool { return a.gain > b.gain } // max-heap
	down := func(i int) {
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
	for spare := machines - len(groups); spare > 0; spare-- {
		top := &h[0]
		if top.gain <= 1e-12 {
			// No group benefits (all network- or job-bound); spread the
			// rest round-robin so machines are not stranded.
			for i := 0; spare > 0; i, spare = (i+1)%len(groups), spare-1 {
				groups[i].Machines++
			}
			return
		}
		groups[top.idx].Machines++
		rekey(top, top.next)
		down(0)
	}
}

// iterSecondsAt is Group.IterSeconds at DoP m ≥ 1 in one walk, term for
// term and in the same order, given the group's ΣT_net.
func iterSecondsAt(jobs []JobInfo, m int, sumNet float64) float64 {
	var sumComp, maxIter float64
	for i := range jobs {
		tcpu := jobs[i].Comp/float64(m) + jobs[i].CompFloor
		sumComp += tcpu
		maxIter = fmax(maxIter, tcpu+jobs[i].Net)
	}
	return fmax(sumComp, fmax(sumNet, maxIter))
}

// fmax is math.Max, inlinable: ties, ±0 and NaN take the library's answer.
func fmax(x, y float64) float64 {
	if x > y {
		return x
	}
	if y > x {
		return y
	}
	return math.Max(x, y)
}
