package master

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/ps"
)

// CheckpointEvery is how often (in iterations) the master snapshots each
// job's model in the background — the paper's standard failure handling
// is "checkpointing (per epoch) and restart" (§VI).
const CheckpointEvery = 5

// checkpointer is the master's long-lived view of one job's model: a PS
// client and a mirror (ps.Mirror) that every checkpoint brings up to date
// with one Sync, so a checkpoint moves what the job pushed since the last
// one, not the model. mu serializes the Syncs and keeps readers off a
// buffer a Sync is writing; it is taken before Master.mu, never under it
// (a Sync waits on the network).
type checkpointer struct {
	mu      sync.Mutex
	mirror  *ps.Mirror
	servers []string // what client is connected to
	// vals is the checkpoint: the frame a preempted job resumed from, then
	// the mirror's buffer from the first successful Sync on.
	vals []float64
	// client is atomic so that close can abort a Sync stuck on a dead server
	// instead of queueing behind it on mu.
	client atomic.Pointer[ps.Client]
}

// close drops the connections (the job was preempted or recovered, or the
// master is closing); the last checkpoint stays readable.
func (c *checkpointer) close() {
	if cl := c.client.Swap(nil); cl != nil {
		cl.Close()
	}
}

// release drops the connections and the checkpoint with them: the job
// finished or was canceled, so nothing will restore from it. Closing
// first aborts a Sync that holds mu. Called without Master.mu held.
func (c *checkpointer) release() {
	c.close()
	c.mu.Lock()
	c.mirror, c.vals = nil, nil
	c.mu.Unlock()
}

// checkpoint syncs the job's mirror with its servers — dialing them first,
// and afresh when the set changed (migration, recovery: the set is part of
// the job's stripe layout) — and on success labels it the state after
// iteration (negative: the job's last completed one); withCopy also
// returns a copy of the model (Pause). A Sync that fails
// midway leaves every stripe of the mirror at some version its server held
// (values and cursor change together or not at all, ps.Client.Sync) and
// the label where it was, so readers still restore a state the job passed
// through, no older than its label; the loss is counted
// (harmony_checkpoint_failures_total) unless the job's members are
// releasing its partitions (job.releasing). A job that was releasing when
// this took the checkpointer's lock is not checkpointed: the model is
// about to go, and the master's release has run or waits for the lock.
// Called without Master.mu held.
func (m *Master) checkpoint(j *job, iteration int, withCopy bool) ([]float64, error) {
	c := &j.ckpt
	c.mu.Lock()
	defer c.mu.Unlock()
	m.mu.RLock()
	servers := m.serverAddrsLocked(j)
	if iteration < 0 {
		iteration = j.iter
	}
	releasing := j.releasing()
	m.mu.RUnlock()
	if releasing {
		return nil, fmt.Errorf("master: checkpoint of %s: the job is released", j.spec.Name)
	}
	cl, err := c.client.Load(), error(nil)
	if cl != nil && !slices.Equal(c.servers, servers) {
		c.close()
		cl = nil
	}
	if cl == nil {
		if cl, err = ps.NewClient(servers, time.Minute); err == nil {
			c.client.Store(cl)
		}
	}
	if err == nil {
		if c.servers = servers; c.mirror == nil {
			c.mirror = ps.NewMirror(j.spec.Name, j.spec.Config.ModelSize())
		}
		if err = cl.Sync(c.mirror); err == nil {
			c.vals = c.mirror.Values()
		} else if c.client.CompareAndSwap(cl, nil) {
			// A PS client does not redial a broken connection: the next
			// checkpoint starts from a fresh one, and full stripes.
			cl.Close()
		}
	}
	m.mu.Lock()
	releasing = j.releasing()
	if err != nil && !releasing {
		m.counters.CheckpointFailures++
	} else if err == nil && iteration > j.checkpointIter {
		j.checkpointIter = iteration
	}
	gone := releasing || m.closed || m.jobs[j.spec.Name] != j
	m.mu.Unlock()
	if gone { // this checkpoint outlived its job's teardown, and may have redialed
		c.close()
	}
	if err != nil || !withCopy {
		return nil, err
	}
	return slices.Clone(c.vals), nil
}

// maybeCheckpoint is called from the barrier handler when a group
// iteration completes; it checkpoints asynchronously so the release is not
// delayed. The last iteration is skipped: its model is released, not
// restored.
func (m *Master) maybeCheckpoint(j *job, iteration int) {
	if iteration != 0 && iteration%CheckpointEvery == 0 && iteration < j.spec.Iterations-1 {
		go m.checkpoint(j, iteration, false)
	}
}

// readCheckpoint copies the job's latest checkpoint, nil before the first,
// with the iteration it covers. Both change only under the checkpointer's
// lock, so the pair is consistent and no Sync is writing the values.
func (m *Master) readCheckpoint(j *job) ([]float64, int) {
	j.ckpt.mu.Lock()
	defer j.ckpt.mu.Unlock()
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(j.ckpt.vals), j.checkpointIter
}

// Checkpoint reports the job's most recent background snapshot and the
// iteration it covers (nil before the first CheckpointEvery iterations).
func (m *Master) Checkpoint(name string) ([]float64, int, error) {
	m.mu.RLock()
	j, ok := m.jobs[name]
	m.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("master: unknown job %q", name)
	}
	vals, iter := m.readCheckpoint(j)
	return vals, iter, nil
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
	m.mu.RLock()
	j, ok := m.jobs[name]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("master: unknown job %q", name)
	}
	// The old placement's connections are no use to anyone, and closing
	// them fails a Sync stuck on the dead server so the read need not wait.
	j.ckpt.close()
	restore, ckptIter := m.readCheckpoint(j)
	m.mu.Lock()
	if j.ended() {
		m.mu.Unlock()
		return nil
	}
	fromIter := 0
	if restore != nil {
		fromIter = ckptIter + 1
	}
	return m.replaceJob(j, group, restore, fromIter, Event{Kind: EventRecover, Job: name,
		Note: fmt.Sprintf("restart from checkpoint iteration %d", ckptIter)})
}

// replaceJob is the one re-placement step behind Resume (migration,
// §IV-B4) and RecoverJob (restart, §VI): it moves j onto group (nil: every
// worker) and deploys it there from iteration fromIter, restoring restore.
// Every worker parked at one of the old placement's barriers is released
// (a survivor of a failure may have parked at the next one, where nobody
// else will arrive), the epoch bump makes the old placement's stragglers
// stale, the measured EWMA restarts, and ev is journaled stamped with the
// new placement's prediction. A deploy that fails leaves the job paused
// holding no workers, with the failure in ev's note, so a later Resume or
// RecoverJob can retry. Caller holds mu's write side; replaceJob
// releases it.
func (m *Master) replaceJob(j *job, group []string, restore []float64, fromIter int, ev Event) error {
	idxs, err := m.workerIndexesLocked(group)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	oldRefs := m.workerRefsLocked(j)
	j.workers = idxs
	j.status = StatusRunning
	j.pausedCh = make(chan struct{})
	j.stopBarriers()
	j.doneFrom = make(map[string]bool)
	j.epoch++
	epoch := j.epoch
	if ev.Kind == EventMigrate {
		m.counters.Migrations++
	} else {
		m.counters.Recoveries++
	}
	// The stamp must see the new placement, not the cached plan.
	m.invalidatePlanLocked()
	ev.Group = m.workerNamesLocked(j)
	ev = m.stampJobPlacementLocked(ev)
	j.measIter = 0
	j.lastRelease = time.Time{}
	m.mu.Unlock()

	// Shards and model partitions are rebuilt on the new group.
	dropJob(oldRefs, j.spec.Name)
	// Journal after the deploy attempt so a failed one is auditable in
	// place: the PS client stamps the failing server's address into its
	// fan-out errors, and that identity surfaces here.
	err = m.deploy(j, restore, fromIter)
	if err != nil {
		if ev.Note != "" {
			ev.Note += "; "
		}
		ev.Note += "deploy failed: " + err.Error()
		m.mu.Lock()
		if j.status == StatusRunning && j.epoch == epoch { // not canceled or re-placed meanwhile
			j.status = StatusPaused
			j.workers = nil
			j.stopBarriers()
			j.epoch++ // what the failed deploy started is stale too
			m.invalidatePlanLocked()
		}
		m.mu.Unlock()
	}
	m.journal.append(ev)
	// A regroup reshapes the plan and a failed one frees its workers:
	// retry held jobs (§IV-B4).
	m.wakeDrainer()
	return err
}
