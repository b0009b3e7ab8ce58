package core

// Oracle is the exhaustive search §V-F measures Algorithm 1 against. It
// searches Schedule's own space: a prefix of jobs, in the caller's
// priority order, is placed and the rest wait. For every prefix it
// enumerates every set partition into at most machines groups, gives each
// candidate machines with Schedule's allocator, drops it when Schedule's
// feasibility rule does, and keeps the best Eq. 4 score; the first
// candidate found wins ties. Schedule's plan is one of these candidates,
// so its score over the Oracle's is an optimality gap of at most 1. The
// number of candidates grows with the Bell numbers: keep inputs to about
// ten jobs.
func Oracle(jobs []JobInfo, machines int, opts Options) Plan {
	opts = opts.withDefaults()
	var best Plan
	bestScore := -1.0
	group := make([]int, len(jobs)) // group index of each placed job
	var size []int                  // jobs per group
	// Every candidate is laid out in the same two buffers; the best is
	// cloned out of them.
	groups := make([]Group, len(jobs))
	placed := make([]JobInfo, len(jobs))
	var place func(i int)
	place = func(i int) {
		if i > 0 {
			cand := Plan{Groups: groups[:len(size)]}
			off := 0
			for g, n := range size {
				cand.Groups[g].Jobs = placed[off : off : off+n]
				off += n
			}
			for k, g := range group[:i] {
				cand.Groups[g].Jobs = append(cand.Groups[g].Jobs, jobs[k])
			}
			allocateMachines(cand.Groups, machines)
			if opts.feasible(cand) {
				if score := opts.Score(cand); score > bestScore {
					best, bestScore = cand.Clone(), score
				}
			}
		}
		if i == len(jobs) {
			return
		}
		// Job i joins each group with room, then opens the next one;
		// opening only the next index enumerates each partition once.
		n := len(size)
		for g := 0; g <= n && g < machines; g++ {
			if g == n {
				size = append(size, 0)
			} else if opts.MaxJobsPerGroup > 0 && size[g] == opts.MaxJobsPerGroup {
				continue
			}
			group[i] = g
			size[g]++
			place(i + 1)
			size[g]--
		}
		size = size[:n]
	}
	place(0)
	return best
}
