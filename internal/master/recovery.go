package master

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/fair"
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
	// vals is the checkpoint: the frame a requeued job resumed from, then
	// the mirror's buffer from the first successful Sync on.
	vals []float64
	// client is atomic so that close can abort a Sync stuck on a dead server
	// instead of queueing behind it on mu.
	client atomic.Pointer[ps.Client]
}

// close drops the connections (the job was requeued, or the master is
// closing); the last checkpoint stays readable.
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
// and afresh when the set changed (migration, a lost member: the set is part of
// the job's stripe layout) — and on success labels it the state after
// iteration (negative: the job's last completed one); withCopy also
// returns a copy of the model (Pause). A Sync that fails
// midway leaves every stripe of the mirror at some version its server held
// (values and cursor change together or not at all, ps.Client.Sync) and
// the label where it was, so readers still restore a state the job passed
// through, no older than its label; the loss is counted
// (harmony_checkpoint_failures_total) unless the job's members are
// releasing its partitions (job.releasing). A job that was releasing, or
// requeued, when this took the checkpointer's lock is not checkpointed:
// the model is about to go, and the master's release has run or waits for
// the lock.
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
	releasing := j.releasing() || m.jobs[j.spec.Name] != j
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

// requeueLocked takes the paused j off its placement and back to the held
// queue; when the drainer re-places it with Decide it restores resume and
// continues from iteration resumeIter (nil: from the first iteration). It
// is the one way a job leaves a placement it cannot keep, after a reclaim
// (preemptJob) or a failure (restart). Its old members drop its shards and
// model partitions first, so the drainer cannot place it back onto a
// member whose drop is still on its way. It reports false, leaving j where
// it is, when j was canceled, resumed or restarted meanwhile, or the
// master winds down. Caller holds mu's write side, which requeueLocked
// releases for the drop and takes back.
func (m *Master) requeueLocked(j *job, resume []float64, resumeIter int) bool {
	name, epoch := j.spec.Name, j.epoch
	refs := m.workerRefsLocked(j)
	m.mu.Unlock()
	dropJob(refs, name)
	m.mu.Lock()
	if m.closed || m.draining || m.jobs[name] != j || j.status != StatusPaused || j.epoch != epoch {
		return false
	}
	p := &pendingJob{
		spec: j.spec, info: m.jobInfoLocked(name, j),
		queue: j.queue, priority: j.priority, seq: j.arrival,
		resume: resume, resumeIter: resumeIter,
		finishedCh: j.finishedCh, epoch: j.epoch,
	}
	if resume != nil {
		p.holdReason = fair.HoldPreempted
	}
	delete(m.jobs, name)
	j.workers = nil // the dropped record's indexes would go stale
	j.ckpt.close()
	m.invalidatePlanLocked()
	m.addPendingLocked(p)
	return true
}

// restart is the failure side of the requeue: j, whose placement broke at
// epoch, goes back to the queue resumable from the master's background
// checkpoint, and the progress since it is recomputed. A job that ended
// or moved on since, or a master that is closing or draining (its own
// teardown is not a failure), is left alone. Called without Master.mu
// held.
func (m *Master) restart(j *job, epoch int, cause string) {
	// The broken placement's connections are no use to anyone, and closing
	// them fails a Sync stuck on a dead server so the read need not wait.
	j.ckpt.close()
	restore, ckptIter := m.readCheckpoint(j)
	m.mu.Lock()
	if m.closed || m.draining || m.jobs[j.spec.Name] != j || j.ended() || j.epoch != epoch {
		m.mu.Unlock()
		return
	}
	resumeIter, from := 0, "the first iteration"
	if restore != nil {
		resumeIter, from = ckptIter+1, fmt.Sprintf("checkpoint iteration %d", ckptIter)
	}
	ev := m.removalEventLocked(EventRecover, j.spec.Name, j)
	ev.Note = cause + "; restart from " + from
	m.journal.append(ev)
	m.counters.Recoveries++
	if j.pauseRequested { // unpark the Pause waiting on this placement
		close(j.pausedCh)
		j.pauseRequested = false
	}
	j.status = StatusPaused
	j.stopBarriers()
	j.epoch++ // the survivors' barrier calls stop
	requeued := m.requeueLocked(j, restore, resumeIter)
	m.mu.Unlock()
	if requeued {
		m.wakeDrainer()
	}
}

// workerLost is the detector's step for a worker whose connection closed
// (handleRegister watches it): the worker leaves m.workers and every job
// it was a member of restarts, because a machine failure "may have an
// impact on all co-located jobs" (§VI). While the master closes or
// drains, a closed connection is teardown and nothing happens.
func (m *Master) workerLost(name string) {
	m.mu.Lock()
	idx := slices.IndexFunc(m.workers, func(w workerRef) bool { return w.name == name })
	if idx < 0 || m.closed || m.draining {
		m.mu.Unlock()
		return
	}
	dead := m.workers[idx]
	m.workers = slices.Delete(m.workers, idx, idx+1)
	hit := make(map[*job]int)
	for _, j := range m.jobs {
		n := len(j.workers)
		j.workers = slices.DeleteFunc(j.workers, func(wi int) bool { return wi == idx })
		for k, wi := range j.workers {
			if wi > idx {
				j.workers[k] = wi - 1 // indexes shift left
			}
		}
		if len(j.workers) < n && !j.ended() {
			// The survivors' barrier calls, parked or still to come, stop.
			j.epoch++
			j.stopBarriers()
			hit[j] = j.epoch
		}
	}
	// Worker indexes shifted: the live plan and the free list are stale.
	m.invalidatePlanLocked()
	m.mu.Unlock()
	dead.client.Close()
	// In name order, so the journal and the queue do not depend on map order.
	for _, j := range slices.SortedFunc(maps.Keys(hit), func(a, b *job) int {
		return strings.Compare(a.spec.Name, b.spec.Name)
	}) {
		m.restart(j, hit[j], fmt.Sprintf("worker %s lost", name))
	}
}
