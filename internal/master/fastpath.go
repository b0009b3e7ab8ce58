package master

import (
	"harmony/internal/core"
	"harmony/internal/fair"
)

// This file is the master half of the admission fast path (DESIGN.md
// §15): the cached live plan and its Scorer, the epoch-versioned
// admission-input snapshots, the pending-queue index, and the single
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

// invalidatePlanLocked drops the cached live plan and advances the
// admission epoch. Callers hold mu's write side and invoke it after any
// mutation that changes the derived plan: deploy, migrate, recover,
// completion, cancel of a running job, preemption, worker removal, or a
// profile observation (profiled metrics feed jobInfoLocked).
func (m *Master) invalidatePlanLocked() {
	m.planMu.Lock()
	m.planCache = nil
	m.planMu.Unlock()
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

// admitInputsLocked returns the fair-policy inputs of an admission
// decision — per-queue usage, the free-worker list, and the held-queue
// view — cached per admission epoch. A drain pass over a 10K-deep queue
// reuses one snapshot for every candidate instead of rebuilding all
// three per candidate. Callers hold mu's write side (the cache fields
// are written here); the returned values are read-only.
func (m *Master) admitInputsLocked() (fair.Usage, []string, []fair.Held) {
	if m.inputEpoch != m.admitEpoch || m.usageCache == nil {
		m.usageCache = m.usageLocked()
		m.freeCache = m.freeWorkersLocked()
		m.heldCache = m.heldLocked()
		m.inputEpoch = m.admitEpoch
	}
	return m.usageCache, m.freeCache, m.heldCache
}

// addPendingLocked appends a held job to the queue, indexes it by name,
// and advances the admission epoch (a new hold changes BorrowGated for
// every queue, so cached reject verdicts must expire).
func (m *Master) addPendingLocked(p *pendingJob) {
	m.pending = append(m.pending, p)
	m.pendingIdx[p.spec.Name] = p
	m.admitEpoch++
	if m.usageCache != nil && m.inputEpoch == m.admitEpoch-1 {
		// The queue append is the only input this bump covers: extend the
		// held snapshot in place instead of rebuilding all three inputs on
		// the next decision. Under an arrival flood this keeps each
		// Enqueue O(groups) instead of O(queue depth).
		m.heldCache = append(m.heldCache, fair.Held{
			Job: p.spec.Name, Queue: p.queue, Priority: p.priority,
			Seq: p.seq, Demand: p.demand(), Resumable: p.resume != nil,
		})
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
