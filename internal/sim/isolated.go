package sim

import "math"

// isolatedMemoryCap is the share of a machine's memory the isolated
// baseline lets one job's input and model fill: the dedicated allocation
// has no spill.
const isolatedMemoryCap = 0.9 * machineMemoryGB

// isolatedDoP sizes the dedicated allocation for one job: the largest DoP
// that keeps predicted CPU utilization at or above the target, because
// "in the isolated approach, we try to maximize the CPU utilization
// rates ... by reducing the network overheads that occur with lower DoP"
// (§V-A). Capped by IsolatedMaxDoP and the cluster size.
func (s *Simulator) isolatedDoP(j *jobRun) int {
	t := s.cfg.IsolatedCPUTarget
	// Tcpu(m)/(Tcpu(m)+Tnet) >= t  =>  m <= Comp*(1-t)/(t*Net).
	net := j.spec.NetSeconds
	m := int(math.Floor(j.spec.CompMachineSeconds * (1 - t) / (t * net)))
	// At least one machine, and enough that the job's input and model fit
	// in memory.
	m = max(m, s.memFloor(j))
	if m > s.cfg.IsolatedMaxDoP && j.spec.MemoryGB(s.cfg.IsolatedMaxDoP, 0) <= isolatedMemoryCap {
		m = s.cfg.IsolatedMaxDoP
	}
	if m > s.cfg.Machines {
		m = s.cfg.Machines
	}
	return m
}

// isolatedArrival queues the job FIFO and tries to admit from the head.
func (s *Simulator) isolatedArrival(id string) {
	s.fifo = append(s.fifo, id)
	s.isolatedAdmit()
}

// isolatedFinish returns a finished or failed group's machines and admits
// more queued jobs.
func (s *Simulator) isolatedFinish(g *groupRun) {
	s.freeMachines += g.machines
	s.isolatedAdmit()
}

// memFloor is the smallest DoP at which a job's full working set fits in
// memory without spill.
func (s *Simulator) memFloor(j *jobRun) int {
	m := 1
	for m < s.cfg.Machines && j.spec.MemoryGB(m, 0) > isolatedMemoryCap {
		m++
	}
	return m
}

// isolatedAdmit starts queued jobs in FIFO order while machines last. The
// head job accepts a shrunken allocation when at least two thirds of its
// preferred DoP is available (and its data still fits); otherwise it
// waits, blocking the queue (dedicated-allocation semantics).
func (s *Simulator) isolatedAdmit() {
	for len(s.fifo) > 0 {
		id := s.fifo[0]
		sj := s.jobs[id]
		want := s.isolatedDoP(sj.run)
		grant := want
		if grant > s.freeMachines {
			grant = s.freeMachines
		}
		if grant < 1 || grant*3 < want*2 || grant < s.memFloor(sj.run) {
			return
		}
		s.fifo = s.fifo[1:]
		s.freeMachines -= grant
		g := s.newGroupRun("iso:"+id, grant, s.pipelined())
		s.groups[g.id] = g
		s.noteGroupCount()
		s.startJobInGroup(id, g, jobRunning)
	}
}
