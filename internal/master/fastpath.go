package master

import (
	"harmony/internal/core"
	"harmony/internal/fair"
)

// This file is the master half of the admission fast path (DESIGN.md
// §15): its two caches — the live plan with its Scorer, and the admission
// kernel's view — the pending-queue index, and the single coalescing
// drainer goroutine. The core half (incremental scoring) lives in
// internal/core/score.go.

// livePlanCache holds the derived scheduler view of the running cluster:
// only planScorerLocked stores it, under mu's write side, and
// invalidatePlanLocked drops it (never mutating it in place). Its Scorer
// reuses scratch space, so only the write side touches it.
type livePlanCache struct {
	plan    core.Plan
	members [][]string
	scorer  *core.Scorer
}

// invalidatePlanLocked drops the cached live plan and advances the
// admission epoch. Callers hold mu's write side and invoke it after any
// mutation that changes the derived plan: deploy, migrate, requeue,
// completion, cancel of a running job, a lost worker, or a profile
// observation (profiled metrics feed jobInfoLocked).
func (m *Master) invalidatePlanLocked() {
	m.planCache = nil
	m.admitEpoch++
}

// workerSetKey packs sorted worker indexes into a compact fixed-width
// big-endian byte string. Lexicographic order over these keys equals
// numeric order over the index tuples, so the group order derived from
// sorting them is deterministic for a fixed cluster state.
func workerSetKey(idxs []int) string {
	b := make([]byte, 4*len(idxs))
	for i, wi := range idxs {
		b[4*i] = byte(wi >> 24)
		b[4*i+1] = byte(wi >> 16)
		b[4*i+2] = byte(wi >> 8)
		b[4*i+3] = byte(wi)
	}
	return string(b)
}

// livePlanLocked returns the scheduler's view of the running cluster:
// jobs sharing a worker set form one group whose DoP is the set size,
// with a parallel slice mapping each group to its worker names. It is the
// cached plan when there is one, else a fresh build it does not store, so
// callers on mu's read side never write. Callers treat the returned plan
// and members as immutable.
func (m *Master) livePlanLocked() (core.Plan, [][]string) {
	if c := m.planCache; c != nil {
		return c.plan, c.members
	}
	return m.buildLivePlanLocked()
}

// planScorerLocked returns the live plan together with its Scorer,
// building and storing both when an invalidation dropped them. Callers
// hold mu's WRITE side: only the serialized mutation paths (admission,
// journal stamping) may store the cache or use the Scorer.
func (m *Master) planScorerLocked() (core.Plan, [][]string, *core.Scorer) {
	c := m.planCache
	if c == nil {
		plan, members := m.buildLivePlanLocked()
		c = &livePlanCache{plan: plan, members: members, scorer: core.NewScorer(plan, m.opts)}
		m.planCache = c
	}
	return c.plan, c.members, c.scorer
}

// viewLocked returns the admission kernel's input (fairsched.go's
// buildViewLocked) and the free-worker list, cached per admission epoch. A
// drain pass over a 10K-deep queue and a burst of arrivals between two
// plan changes read one snapshot instead of rebuilding it per decision.
// Callers hold mu's write side (the cache fields are written here); the
// returned values are read-only. View.Running is not part of the snapshot:
// drainQueue fills it fresh for each decision (runningLocked).
func (m *Master) viewLocked() (fair.View, []string) {
	if m.inputEpoch != m.admitEpoch || m.viewCache.Usage == nil {
		m.viewCache, m.freeCache = m.buildViewLocked()
		m.inputEpoch = m.admitEpoch
	}
	return m.viewCache, m.freeCache
}

// usageLocked returns View.Usage: the cached view's while it is current,
// else counted afresh. Callers hold at least mu's read side (only the
// write side stores the cache) and treat the map as read-only.
func (m *Master) usageLocked() fair.Usage {
	if m.viewCache.Usage != nil && m.inputEpoch == m.admitEpoch {
		return m.viewCache.Usage
	}
	usage := make(fair.Usage)
	for _, j := range m.jobs {
		if j.status == StatusRunning || j.status == StatusPaused {
			usage[j.queue] += len(j.workers)
		}
	}
	return usage
}

// addPendingLocked appends a held job to the queue, indexes it by name,
// and advances the admission epoch.
func (m *Master) addPendingLocked(p *pendingJob) {
	m.pending = append(m.pending, p)
	m.pendingIdx[p.spec.Name] = p
	m.admitEpoch++
	if m.viewCache.Usage != nil && m.inputEpoch == m.admitEpoch-1 {
		// The queue append is the only input this bump covers: extend the
		// held snapshot in place instead of rebuilding the view on the
		// next decision. Under an arrival flood this keeps each Enqueue
		// O(groups) instead of O(queue depth).
		m.viewCache.Held = append(m.viewCache.Held, p.held())
		m.inputEpoch = m.admitEpoch
	}
}

// wakeDrainer requests a drain pass. The 1-buffered channel coalesces
// bursts: any number of wakeups while a pass runs collapse into exactly
// one follow-up pass.
func (m *Master) wakeDrainer() {
	select {
	case m.drainCh <- struct{}{}:
	default:
	}
}

// drainLoop is the single long-lived drainer goroutine, started by New
// and stopped by Close.
func (m *Master) drainLoop() {
	for {
		select {
		case <-m.drainStop:
			return
		case <-m.drainCh:
			m.drainQueue()
		}
	}
}
