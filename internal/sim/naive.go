package sim

import "fmt"

// naiveArrival implements the Gandiva-style baseline (§V-A): jobs are
// packed onto shared machines with no subtask coordination, no
// performance model, and no spill. Queued jobs are admitted FIFO in
// bundles of NaiveGroupSize; each bundle shares the allocation that its
// largest member would have received alone, so co-location raises
// concurrency on the same machines — the whole point of naive packing.
// Batch submissions are shuffled first so that different seeds explore
// different groupings ("we run all possible cases, and report the best
// and the worst").
//
// Memory is not checked on admission: naive packing discovers
// out-of-memory the hard way, as in Fig. 4.
func (s *Simulator) naiveArrival(id string) {
	s.arrivalQueue = append(s.arrivalQueue, id)
	if !s.arrivalPending {
		s.arrivalPending = true
		s.eng.After(0, s.naivePlace)
	}
}

func (s *Simulator) naivePlace() {
	s.arrivalPending = false
	ids := s.arrivalQueue
	s.arrivalQueue = nil
	if len(ids) == 0 {
		return
	}
	if len(ids) > 1 {
		s.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	s.fifo = append(s.fifo, ids...)
	s.naiveAdmit()
}

// bundleMemFloor is the smallest DoP at which the bundle's combined
// working set stays under the GC overhead limit.
func (s *Simulator) bundleMemFloor(member []string) int {
	capGB := 0.85 * machineMemoryGB
	m := 1
	for ; m < s.cfg.Machines; m++ {
		var sum float64
		for _, id := range member {
			sum += s.jobs[id].run.spec.MemoryGB(m, 0)
		}
		if sum <= capGB {
			break
		}
	}
	return m
}

// naiveFinish frees a drained group's machines and admits more bundles.
// Called when a naive group closes.
func (s *Simulator) naiveFinish(g *groupRun) {
	s.freeMachines += g.machines
	s.naiveAdmit()
}

func (s *Simulator) naiveAdmit() {
	if s.inNaiveAdmit {
		return // re-entered via an admission OOM freeing machines
	}
	s.inNaiveAdmit = true
	defer func() { s.inNaiveAdmit = false }()
	for len(s.fifo) > 0 {
		k := s.cfg.NaiveGroupSize
		if k > len(s.fifo) {
			k = len(s.fifo)
		}
		member := s.fifo[:k]
		// Gandiva-style packing: the bundle shares the allocation its
		// largest member would have received alone — co-location raises
		// job concurrency on the same machines — grown as needed so the
		// combined datasets have a chance of fitting in memory (any
		// operator provisions for footprint, even without a performance
		// model). OOM remains possible: the floor leaves no headroom for
		// working-set growth, and Fig. 4-style overloads still die.
		want := 0
		for _, id := range member {
			if d := s.isolatedDoP(s.jobs[id].run); d > want {
				want = d
			}
		}
		if floor := s.bundleMemFloor(member); floor > want {
			want = floor
		}
		if want > s.cfg.Machines {
			want = s.cfg.Machines
		}
		grant := want
		if grant > s.freeMachines {
			grant = s.freeMachines
		}
		if grant < 1 || grant*3 < want*2 {
			return // head bundle waits for machines (FIFO)
		}
		s.fifo = s.fifo[k:]
		s.freeMachines -= grant
		g := s.newGroupRun(fmt.Sprintf("naive:%s", member[0]), grant, false /* no pipelining */)
		s.groups[g.id] = g
		s.noteGroupCount()
		for _, id := range member {
			if !s.startJobInGroup(id, g, jobRunning) {
				break // the group OOMed on admission
			}
		}
		// An admission OOM kills the whole bundle (Fig. 4: co-located
		// jobs die together); members that never started die with it.
		if g.closed {
			now := s.eng.Now()
			for _, id := range member {
				sj := s.jobs[id]
				if sj.state == jobQueued {
					sj.state = jobFailed
					sj.record.Finish = now
					s.failed[id] = "killed with out-of-memory group"
				}
			}
		}
	}
}
