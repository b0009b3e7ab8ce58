package master

import (
	"harmony/internal/core"
	"harmony/internal/fair"
)

// This file is the master half of the admission fast path (DESIGN.md
// §15): the cached live plan and its Scorer, the epoch-versioned kernel
// view, the pending-queue index, and the single
// coalescing drainer goroutine. The core half (incremental scoring) lives
// in internal/core/score.go.

// livePlanCache holds the derived scheduler view of the running cluster.
// Guarded by Master.planMu; cleared (never mutated in place) by
// invalidatePlanLocked. The scorer is built lazily on the first admission
// against this plan and is only ever used under mu's write side — Scorer
// methods mutate internal scratch space.
type livePlanCache struct {
	plan    core.Plan
	members [][]string
	scorer  *core.Scorer
}

// invalidatePlanLocked drops the cached live plan and advances both
// epochs. Callers hold mu's write side and invoke it after any mutation
// that changes the derived plan: deploy, migrate, requeue, completion,
// cancel of a running job, a lost worker, or a profile
// observation (profiled metrics feed jobInfoLocked).
func (m *Master) invalidatePlanLocked() {
	m.planMu.Lock()
	m.planCache = nil
	m.planMu.Unlock()
	m.expireVerdictsLocked()
}

// expireVerdictsLocked advances placeEpoch, and admitEpoch with it: an
// input of placeLocked other than its limit changed, so every reject memo
// and the cached view are stale. Its callers are all that moves placeEpoch:
// invalidatePlanLocked, a worker registration, ConfigureQueues, Shutdown.
func (m *Master) expireVerdictsLocked() {
	m.placeEpoch++
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

// planCacheLocked returns the cached live plan, rebuilding it when an
// invalidation dropped it. Caller holds planMu and at least mu's read
// side: builders hold ≥RLock while storing and invalidators hold the
// write lock, so a stale build can never overwrite a newer invalidation.
func (m *Master) planCacheLocked() *livePlanCache {
	if m.planCache == nil {
		plan, members := m.buildLivePlanLocked()
		m.planCache = &livePlanCache{plan: plan, members: members}
	}
	return m.planCache
}

// livePlanLocked returns the scheduler's view of the running cluster:
// jobs sharing a worker set form one group whose DoP is the set size,
// with a parallel slice mapping each group to its worker names. Callers
// hold at least mu's read side and must treat the returned plan and
// members as immutable.
func (m *Master) livePlanLocked() (core.Plan, [][]string) {
	m.planMu.Lock()
	defer m.planMu.Unlock()
	c := m.planCacheLocked()
	return c.plan, c.members
}

// planScorerLocked returns the cached plan together with its Scorer,
// building the Scorer on first use per plan epoch. Callers hold mu's
// WRITE side: the Scorer reuses scratch space and is not safe for
// concurrent use, so only the serialized mutation paths (admission,
// journal stamping) may touch it.
func (m *Master) planScorerLocked() (core.Plan, [][]string, *core.Scorer) {
	m.planMu.Lock()
	defer m.planMu.Unlock()
	c := m.planCacheLocked()
	if c.scorer == nil {
		c.scorer = core.NewScorer(c.plan, m.opts)
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
// and advances the admission epoch. placeEpoch stays: a new hold can gate
// another queue's borrowing, but that reaches a held job's verdict as a
// different limit, which the reject memo is keyed on.
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
