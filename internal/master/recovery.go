package master

import (
	"fmt"
	"time"

	"harmony/internal/ps"
)

// CheckpointEvery is how often (in iterations) the master snapshots each
// job's model in the background — the paper's standard failure handling
// is "checkpointing (per epoch) and restart" (§VI).
const CheckpointEvery = 5

// maybeCheckpoint is called from the barrier handler when a group
// iteration completes; it snapshots asynchronously so the release is not
// delayed.
func (m *Master) maybeCheckpoint(j *job, iteration int) {
	if iteration == 0 || iteration%CheckpointEvery != 0 {
		return
	}
	servers := m.serverAddrsLocked(j)
	name := j.spec.Name
	size := j.spec.Config.ModelSize()
	go func() {
		client, err := ps.NewClient(servers, time.Minute)
		if err != nil {
			// Servers mid-teardown; the next checkpoint will catch up.
			// Count the loss so dropped snapshots stay visible (/metrics
			// exposes harmony_checkpoint_failures_total).
			m.checkpointFailed()
			return
		}
		defer client.Close()
		snap, err := client.Snapshot(name, size)
		if err != nil {
			m.checkpointFailed()
			return
		}
		m.mu.Lock()
		if jj, ok := m.jobs[name]; ok && jj == j && iteration > j.checkpointIter {
			j.checkpoint = snap
			j.checkpointIter = iteration
		}
		m.mu.Unlock()
	}()
}

// checkpointFailed counts a background snapshot that was dropped.
func (m *Master) checkpointFailed() {
	m.mu.Lock()
	m.counters.CheckpointFailures++
	m.mu.Unlock()
}

// Checkpoint reports the job's most recent background snapshot and the
// iteration it covers (nil before the first CheckpointEvery iterations).
func (m *Master) Checkpoint(name string) ([]float64, int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	j, ok := m.jobs[name]
	if !ok {
		return nil, 0, fmt.Errorf("master: unknown job %q", name)
	}
	if j.checkpoint == nil {
		return nil, 0, nil
	}
	out := make([]float64, len(j.checkpoint))
	copy(out, j.checkpoint)
	return out, j.checkpointIter, nil
}

// RemoveWorker unregisters a failed worker. Jobs whose groups included it
// are marked paused (their barriers are released with Stop so surviving
// workers park the job); callers then RecoverJob each one. A machine
// failure "may have an impact on all co-located jobs" (§VI) — every job
// on the worker is affected.
func (m *Master) RemoveWorker(name string) ([]string, error) {
	m.mu.Lock()
	idx := -1
	for i, w := range m.workers {
		if w.name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		m.mu.Unlock()
		return nil, fmt.Errorf("master: unknown worker %q", name)
	}
	dead := m.workers[idx]
	m.workers = append(m.workers[:idx], m.workers[idx+1:]...)

	var affected []string
	for jobName, j := range m.jobs {
		uses := false
		members := make([]int, 0, len(j.workers))
		for _, wi := range j.workers {
			switch {
			case wi == idx:
				uses = true
			case wi > idx:
				members = append(members, wi-1) // indexes shift left
			default:
				members = append(members, wi)
			}
		}
		j.workers = members
		if !uses || j.status == StatusFinished {
			continue
		}
		affected = append(affected, jobName)
		j.status = StatusPaused
		j.pauseRequested = false
		// Release any workers blocked at this job's barrier so they stop.
		j.stopBarriers()
		j.pausedCh = make(chan struct{})
	}
	// Worker indexes shifted and affected jobs left the running set: the
	// derived plan is stale in both group membership and shape.
	m.invalidatePlanLocked()
	m.mu.Unlock()
	dead.client.Close()
	return affected, nil
}

// RecoverJob restarts an affected job on the given worker group (nil =
// every surviving worker), restoring the latest background checkpoint —
// progress since that checkpoint is recomputed, as with any
// checkpoint/restart scheme.
func (m *Master) RecoverJob(name string, group []string) error {
	m.mu.Lock()
	j, ok := m.jobs[name]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("master: unknown job %q", name)
	}
	if j.status == StatusFinished {
		m.mu.Unlock()
		return nil
	}
	idxs, err := m.workerIndexesLocked(group)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	restore := j.checkpoint
	fromIter := 0
	if restore != nil {
		fromIter = j.checkpointIter + 1
	}
	oldRefs := m.workerRefsLocked(j)
	j.workers = idxs
	j.status = StatusRunning
	// A survivor that was mid-iteration when RemoveWorker released the
	// barriers may have parked at the next one since; nobody else will
	// arrive there.
	j.stopBarriers()
	j.doneFrom = make(map[string]bool)
	j.psServers = nil // deploy rebuilds model partitions on the new group
	j.epoch++         // stragglers of the failed placement are now stale
	m.counters.Recoveries++
	// The stamp below must see the restarted placement, not the cached
	// pre-failure plan.
	m.invalidatePlanLocked()
	ev := m.stampJobPlacementLocked(Event{Kind: EventRecover, Job: name,
		Group: m.workerNamesLocked(j),
		Note:  fmt.Sprintf("restart from checkpoint iteration %d", j.checkpointIter)})
	j.measIter = 0
	j.lastRelease = time.Time{}
	m.mu.Unlock()

	// Clean up on survivors that hosted the old placement.
	dropJob(oldRefs, name)
	// Journal after the deploy attempt so a failed restart is auditable
	// in place: the PS client stamps the failing server's address into
	// its fan-out errors, and that identity surfaces here.
	err = m.deploy(j, restore, fromIter)
	if err != nil {
		ev.Note += "; deploy failed: " + err.Error()
	}
	m.journal.append(ev)
	return err
}
