package sim

import "harmony/internal/core"

// naivePlan stands in for Algorithm 1 when smart grouping is disabled
// (the "subtasks only" ablation of §V-C): jobs are chunked into groups of
// NaiveGroupSize in submission order with an even machine split — no
// performance model, no complementary-resource matching.
func (s *Simulator) naivePlan(jobs []core.JobInfo, machines int) core.Plan {
	if len(jobs) == 0 || machines <= 0 {
		return core.Plan{}
	}
	k := s.cfg.NaiveGroupSize
	if k < 1 {
		k = 2
	}
	nGroups := (len(jobs) + k - 1) / k
	if nGroups > machines {
		nGroups = machines
	}
	// Deterministic shuffle so that grouping is arbitrary rather than
	// correlated with submission order.
	shuffled := make([]core.JobInfo, len(jobs))
	copy(shuffled, jobs)
	s.rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	base := machines / nGroups
	extra := machines % nGroups
	var plan core.Plan
	next := 0
	for gi := 0; gi < nGroups; gi++ {
		m := base
		if gi < extra {
			m++
		}
		count := len(shuffled) / nGroups
		if gi < len(shuffled)%nGroups {
			count++
		}
		plan.Groups = append(plan.Groups, core.Group{
			Jobs:     shuffled[next : next+count],
			Machines: m,
		})
		next += count
	}
	return plan
}

// smallestGroup is the index of the first plan group with the fewest
// jobs: the model-free arrival rule used when smart grouping is disabled.
func smallestGroup(plan core.Plan) int {
	gi := 0
	for i, g := range plan.Groups {
		if len(g.Jobs) < len(plan.Groups[gi].Jobs) {
			gi = i
		}
	}
	return gi
}

// shrinkPlanNaive removes a finished job and back-fills waiting jobs into
// the smallest groups, without consulting the performance model.
func (s *Simulator) shrinkPlanNaive(finishedID string, waiting []core.JobInfo) core.Plan {
	p := s.plan.Clone()
	if gi, ok := p.FindJob(finishedID); ok {
		jobs := p.Groups[gi].Jobs[:0]
		for _, j := range p.Groups[gi].Jobs {
			if j.ID != finishedID {
				jobs = append(jobs, j)
			}
		}
		p.Groups[gi].Jobs = jobs
		if len(jobs) == 0 {
			p.Groups = append(p.Groups[:gi], p.Groups[gi+1:]...)
		}
	}
	for _, w := range waiting {
		if _, already := p.FindJob(w.ID); already {
			continue // placed by an earlier decision, still migrating
		}
		if len(p.Groups) > 0 {
			gi := smallestGroup(p)
			p.Groups[gi].Jobs = append(p.Groups[gi].Jobs, w)
		}
	}
	return p
}
