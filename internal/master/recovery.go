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
// buffer a Sync is writing; the loop never takes it (a Sync waits on the
// network), so its holder may wait on the loop.
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
// first aborts a Sync that holds mu. Called off the loop.
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
// the lock. It runs off the loop, which it asks for the servers before the
// Sync and hands the outcome after it.
func (m *Master) checkpoint(j *job, iteration int, withCopy bool) ([]float64, error) {
	c := &j.ckpt
	c.mu.Lock()
	defer c.mu.Unlock()
	var servers []string
	releasing := true
	m.read(func() {
		// A record out of m.jobs keeps worker indexes that have gone stale.
		if releasing = j.releasing() || m.jobs[j.spec.Name] != j; !releasing {
			servers = m.serverAddrs(j)
			if iteration < 0 {
				iteration = j.iter
			}
		}
	})
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
	gone := true // the loop has stopped
	m.do(func() {
		releasing := j.releasing()
		if err != nil && !releasing {
			m.counters.CheckpointFailures++
		} else if err == nil && iteration > j.checkpointIter {
			j.checkpointIter = iteration
		}
		gone = releasing || m.jobs[j.spec.Name] != j
	})
	if gone { // this checkpoint outlived its job's teardown, and may have redialed
		c.close()
	}
	if err != nil || !withCopy {
		return nil, err
	}
	return slices.Clone(c.vals), nil
}

// maybeCheckpoint is called from the barrier handler when a group
// iteration completes; it checkpoints off the loop so the release is not
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
func (m *Master) readCheckpoint(j *job) (vals []float64, iter int) {
	j.ckpt.mu.Lock()
	defer j.ckpt.mu.Unlock()
	m.read(func() { iter = j.checkpointIter })
	return slices.Clone(j.ckpt.vals), iter
}

// retire takes j's record off its placement and out of m.jobs, and returns
// the held job it becomes (requeue), or the job Resume migrates: resumable
// from resume at resumeIter (nil: from the first iteration), with the
// arrival number, the WaitJob channel and the epoch of the record, so it
// keeps its place among its queue's arrivals and its old placement's
// stragglers stay stale.
func (m *Master) retire(j *job, resume []float64, resumeIter int) *pendingJob {
	p := &pendingJob{
		spec: j.spec, info: m.jobInfo(j.spec.Name, j),
		seq:    j.arrival,
		resume: resume, resumeIter: resumeIter,
		finishedCh: j.finishedCh, epoch: j.epoch,
	}
	if resume != nil {
		p.holdReason = fair.HoldPreempted
	}
	delete(m.jobs, j.spec.Name)
	j.workers = nil // the dropped record's indexes would go stale
	j.stopBarriers()
	j.ckpt.close()
	m.invalidatePlan()
	return p
}

// requeue is the one way a job leaves a placement it cannot keep — a
// reclaim, or a failure (restart) — from off the loop: it reads the
// checkpoint of j, paused at epoch; the members in refs drop the job's
// shards and model partitions, so that no drain can place it back onto a
// member whose drop is still on its way; then the loop moves the record
// to the held queue, resumable from the checkpoint, and runs landed with
// where it resumes from — unless j was canceled, resumed or restarted
// meanwhile, or the master drains. It reports whether j was requeued.
func (m *Master) requeue(j *job, epoch int, refs []workerRef, landed func(from string)) bool {
	restore, label := m.readCheckpoint(j)
	resumeIter, from := 0, "the first iteration"
	if restore != nil {
		resumeIter, from = label+1, fmt.Sprintf("checkpoint iteration %d", label)
	}
	dropJob(refs, j.spec.Name)
	requeued := false
	m.do(func() {
		if m.draining || m.jobs[j.spec.Name] != j || j.status != StatusPaused || j.epoch != epoch {
			return
		}
		m.addPending(m.retire(j, restore, resumeIter))
		landed(from)
		requeued = true
	})
	return requeued
}

// restart is the failure side of the requeue: j, whose placement broke at
// epoch, goes back to the queue through a recover row, resumable from the
// master's latest checkpoint, and the progress since it is recomputed. A
// job that ended or moved on since, or a master that is draining (its own
// teardown is not a failure), is left alone. It runs off the loop.
func (m *Master) restart(j *job, epoch int, cause string) {
	// The broken placement's connections are no use to anyone, and closing
	// them fails a Sync stuck on a dead server so the read need not wait.
	j.ckpt.close()
	var ev Event
	var refs []workerRef
	m.do(func() {
		if m.draining || m.jobs[j.spec.Name] != j || j.ended() || j.epoch != epoch {
			return
		}
		ev = m.removalEvent(EventRecover, j.spec.Name, j)
		j.unpark()
		j.status = StatusPaused
		j.stopBarriers()
		j.epoch++ // the survivors' barrier calls stop
		m.invalidatePlan()
		refs = m.workerRefs(j)
	})
	if refs != nil {
		m.requeue(j, epoch+1, refs, func(from string) {
			ev.Note = cause + "; restart from " + from
			m.journal.append(ev)
			m.counters.Recoveries++
			m.wakeDrainer()
		})
	}
}

// workerLost is the detector's step for a worker whose connection closed
// (handleRegister watches it): the worker leaves m.workers and every job
// it was a member of restarts, because a machine failure "may have an
// impact on all co-located jobs" (§VI). While the master closes or
// drains, a closed connection is teardown and nothing happens.
func (m *Master) workerLost(name string) {
	var dead workerRef
	hit := make(map[*job]int)
	m.do(func() {
		idx := slices.IndexFunc(m.workers, func(w workerRef) bool { return w.name == name })
		if idx < 0 || m.draining {
			return
		}
		dead = m.workers[idx]
		m.workers = slices.Delete(m.workers, idx, idx+1)
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
		m.invalidatePlan()
	})
	if dead.client == nil {
		return
	}
	dead.client.Close()
	// In name order, so the journal and the queue do not depend on map order.
	for _, j := range slices.SortedFunc(maps.Keys(hit), func(a, b *job) int {
		return strings.Compare(a.spec.Name, b.spec.Name)
	}) {
		m.restart(j, hit[j], fmt.Sprintf("worker %s lost", name))
	}
}
