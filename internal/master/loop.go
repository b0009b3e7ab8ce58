package master

import (
	"slices"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
)

// This file is the master's one writer (DESIGN.md §15): the loop that owns
// the job table, the held queue, the workers and everything derived from
// them, the two derived values it keeps between mutations — the live plan
// with its Scorer, and the admission kernel's view — and the drain pass it
// runs at the end of each cycle. Nothing on the loop waits on the network:
// deploys, drops, pause waits, checkpoints and stats calls run on other
// goroutines and hand their results back as one more op.

// do runs f on the loop and returns once it ran. It reports false, without
// running f, once Close has stopped the loop.
func (m *Master) do(f func()) bool {
	done := make(chan struct{})
	select {
	case m.ops <- func() { f(); close(done) }:
		<-done
		return true
	case <-m.stopped:
		return false
	}
}

// read runs f on the loop or, once Close has stopped it, on the caller: the
// state is frozen then, and Close left the derived values built, so a read
// writes nothing.
func (m *Master) read(f func()) {
	if !m.do(f) {
		f()
	}
}

// loop is the master's one writer, started by New and stopped by Close. A
// cycle applies one op and then decides (decide).
func (m *Master) loop() {
	defer close(m.stopped)
	for {
		(<-m.ops)()
		if m.closed {
			return
		}
		m.decide()
	}
}

// livePlan is the scheduler's view of the running cluster: jobs sharing a
// worker set form one group whose DoP is the set size, members maps each
// group to its workers, and scorer reuses scratch space between the loop's
// placement decisions.
type livePlan struct {
	plan    core.Plan
	members [][]*workerRef
	scorer  *core.Scorer
}

// kernelView is the admission kernel's input (buildView) with the free
// workers place draws from.
type kernelView struct {
	view fair.View
	free []*workerRef
}

// invalidatePlan marks the live plan and the view of the placements stale.
// Every mutation of the running set, of a running job's profile or of a
// placement calls it.
func (m *Master) invalidatePlan() {
	m.plan, m.view = nil, nil
}

// invalidateView marks the view of the placements stale: the worker list
// changed, but no running group did.
func (m *Master) invalidateView() {
	m.view = nil
}

// currentPlan returns the live plan, building it when a mutation marked it
// stale. Callers treat it as immutable.
func (m *Master) currentPlan() *livePlan {
	if m.plan == nil {
		plan, members := m.buildLivePlan()
		m.plan = &livePlan{plan: plan, members: members, scorer: core.NewScorer(plan, m.opts)}
	}
	return m.plan
}

// currentView returns the kernel's view and the free workers, building
// the view of the placements and the held list each when a mutation
// marked it stale. View.Running is not part of it: decide fills it fresh
// for each decision (running). Callers treat both as read-only.
func (m *Master) currentView() (fair.View, []*workerRef) {
	if m.view == nil {
		v, free := m.buildView()
		m.view = &kernelView{view: v, free: free}
	}
	if m.held == nil {
		m.held = make([]fair.Held, len(m.pending))
		for i, j := range m.pending {
			m.held[i] = j.held()
		}
	}
	v := m.view.view
	v.Held = m.held
	return v, m.view.free
}

// compareWorkerSets orders worker sets sorted by registration number
// lexicographically by those numbers, a prefix first.
func compareWorkerSets(a, b []*workerRef) int {
	return slices.CompareFunc(a, b, func(x, y *workerRef) int { return x.seq - y.seq })
}

// wakeDrainer asks for a drain pass: an op that may have let a held job in
// calls it. Any number of wakes before the next decision collapse into
// one.
func (m *Master) wakeDrainer() {
	if !m.parked {
		m.wake = true
	}
}

// decide ends a cycle: when a wake is pending and the drain waits on
// nothing, it executes the admission kernel's decision over the held queue
// (DESIGN.md §13). A drain pass is a run of decisions: it goes on after
// each admission it deployed and each reclaim that suspended a victim, and
// ends on a hold, an empty queue, a failed deployment or a reclaim that
// freed nothing.
func (m *Master) decide() {
	if !m.wake || m.waiting || m.draining {
		return
	}
	m.wake = false
	if len(m.pending) == 0 {
		return
	}
	start := time.Now()
	view, free := m.currentView()
	view.Running = m.running()
	var pl placement
	d := m.fairsched.Decide(view, func(h fair.Held, limit int) (ok bool, reason string) {
		pl, ok, reason = m.place(m.jobs[h.Job], free, limit)
		return ok, reason
	})
	for _, h := range d.Holds {
		m.jobs[h.Job].holdReason = h.Reason
	}
	m.counters.DrainPasses++
	m.counters.DrainPassSeconds += time.Since(start).Seconds()
	switch d.Action {
	case fair.Admit:
		j := m.jobs[d.Job.Job]
		m.removePending(j)
		m.admit(j, pl, fromQueue, nil)
	case fair.Preempt:
		m.preempt(d)
	}
}
