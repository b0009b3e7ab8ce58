package master

import (
	"fmt"
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
	mu     sync.Mutex
	mirror *ps.Mirror
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

// deployment is one placement of a job as code off the loop holds it, read
// on the loop: the record and the placement's own fields.
type deployment struct {
	j       *job
	epoch   int
	workers []*workerRef
	ckpt    *checkpointer
	paused  chan struct{} // closed when a requested pause takes effect
}

// deployment reads the job's current placement.
func (j *job) deployment() deployment {
	return deployment{j: j, epoch: j.epoch, workers: j.workers, ckpt: j.ckpt, paused: j.pausedCh}
}

// checkpoint syncs the mirror of placement d with its servers, dialing
// them first, and on success labels it the state after iteration
// (negative: the job's last completed one); withCopy also returns a copy
// of the model (Pause). A Sync that fails
// midway leaves every stripe of the mirror at some version its server held
// (values and cursor change together or not at all, ps.Client.Sync) and
// the label where it was, so readers still restore a state the job passed
// through, no older than its label; the loss is counted
// (harmony_checkpoint_failures_total) unless the job's members are
// releasing its partitions (job.releasing). A job that was releasing, or
// had left the placement, when this took the checkpointer's lock is not
// checkpointed: the model is about to go, and the master's release has run
// or waits for the lock. It runs off the loop, which it asks for the
// servers before the Sync and hands the outcome after it.
func (m *Master) checkpoint(d deployment, iteration int, withCopy bool) ([]float64, error) {
	j, c := d.j, d.ckpt
	c.mu.Lock()
	defer c.mu.Unlock()
	releasing := true
	m.read(func() {
		if releasing = j.releasing() || j.epoch != d.epoch; !releasing && iteration < 0 {
			iteration = j.iter
		}
	})
	if releasing {
		return nil, fmt.Errorf("master: checkpoint of %s: the job is released", j.spec.Name)
	}
	// The placement's servers, and so its stripe layout, are fixed: a lost
	// member ends the placement (its epoch).
	cl, err := c.client.Load(), error(nil)
	if cl == nil {
		if cl, err = ps.NewClient(addrs(d.workers), time.Minute); err == nil {
			c.client.Store(cl)
		}
	}
	if err == nil {
		if c.mirror == nil {
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
		releasing, placed := j.releasing(), j.epoch == d.epoch
		if err != nil && !releasing {
			m.counters.CheckpointFailures++
		} else if err == nil && placed && iteration > j.checkpointIter {
			j.checkpointIter = iteration
		}
		gone = releasing || !placed
	})
	if gone { // this checkpoint outlived its job's teardown, and may have redialed
		c.close()
	}
	if err != nil || !withCopy {
		return nil, err
	}
	return slices.Clone(c.vals), nil
}

// readCheckpoint copies the latest checkpoint of placement d, nil before
// the first, with the iteration it covers. Both change only under the
// checkpointer's lock while the placement lasts, so the pair is consistent
// and no Sync is writing the values.
func (m *Master) readCheckpoint(d deployment) (vals []float64, iter int) {
	d.ckpt.mu.Lock()
	defer d.ckpt.mu.Unlock()
	m.read(func() { iter = d.j.checkpointIter })
	return slices.Clone(d.ckpt.vals), iter
}

// hold takes j off its placement as a held job resumable from resume at
// resumeIter (nil: from the first iteration), placed on the scheduler's
// view of it at this moment; it keeps its arrival number, so it keeps its
// place among its queue's arrivals, and its WaitJob channel.
func (m *Master) hold(j *job, resume []float64, resumeIter int) {
	j.prof = m.jobInfo(j.spec.Name, j)
	j.resume, j.resumeIter, j.holdReason = resume, resumeIter, ""
	if resume != nil {
		j.holdReason = fair.HoldPreempted
	}
	m.vacate(j)
}

// vacate ends j's placement: the record goes back to held, at the
// iteration it resumes from, and what the placement measured and
// checkpointed goes with it.
func (m *Master) vacate(j *job) {
	j.status, j.workers, j.epoch, j.startSeq = StatusPending, nil, j.epoch+1, 0
	j.iter, j.loss, j.checkpointIter = max(j.resumeIter-1, 0), 0, 0
	j.measIter, j.lastRelease = 0, time.Time{}
	j.stopBarriers() // members that did start may be parked at a barrier
	j.unpark()
	j.ckpt.close()
	m.invalidatePlan()
}

// requeue is the one way a job leaves a placement it cannot keep — a
// reclaim, or a failure (restart) — from off the loop: it reads the
// checkpoint of placement d, paused; the members drop the job's shards and
// model partitions, so that no drain can place it back onto a member whose
// drop is still on its way; then the loop holds the record and queues it,
// resumable from the checkpoint, and runs landed with where it resumes
// from — unless the job was canceled, resumed or restarted meanwhile, or
// the master drains. It reports whether the job was requeued.
func (m *Master) requeue(d deployment, landed func(from string)) bool {
	restore, label := m.readCheckpoint(d)
	resumeIter, from := 0, "the first iteration"
	if restore != nil {
		resumeIter, from = label+1, fmt.Sprintf("checkpoint iteration %d", label)
	}
	j := d.j
	dropJob(d.workers, j.spec.Name)
	requeued := false
	m.do(func() {
		if m.draining || j.status != StatusPaused || j.epoch != d.epoch {
			return
		}
		m.hold(j, restore, resumeIter)
		m.addPending(j)
		landed(from)
		requeued = true
	})
	return requeued
}

// restart is the failure side of the requeue: the job whose placement d
// broke goes back to the queue through a recover row, resumable from the
// master's latest checkpoint, and the progress since it is recomputed. A
// job that ended or moved on since, or a master that is draining (its own
// teardown is not a failure), is left alone. It runs off the loop.
func (m *Master) restart(d deployment, cause string) {
	// The broken placement's connections are no use to anyone, and closing
	// them fails a Sync stuck on a dead server so the read need not wait.
	d.ckpt.close()
	j := d.j
	var ev Event
	stands := false
	m.do(func() {
		if stands = !m.draining && !j.ended() && j.epoch == d.epoch; !stands {
			return
		}
		ev = m.removalEvent(EventRecover, j.spec.Name, j)
		j.unpark()
		j.status = StatusPaused
		j.stopBarriers()
		j.epoch++ // the survivors' barrier calls stop
		m.invalidatePlan()
		d = j.deployment()
	})
	if stands {
		m.requeue(d, func(from string) {
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
	var dead *workerRef
	var hit []deployment
	m.do(func() {
		i := slices.IndexFunc(m.workers, func(w *workerRef) bool { return w.name == name })
		if i < 0 || m.draining {
			return
		}
		dead = m.workers[i]
		m.workers = slices.Delete(m.workers, i, i+1)
		for _, j := range m.jobs {
			if !slices.Contains(j.workers, dead) {
				continue
			}
			j.workers = slices.DeleteFunc(slices.Clone(j.workers), func(w *workerRef) bool { return w == dead })
			if !j.ended() {
				// The survivors' barrier calls, parked or still to come, stop.
				j.epoch++
				j.stopBarriers()
				hit = append(hit, j.deployment())
			}
		}
		// The live plan and the free list lose the worker.
		m.invalidatePlan()
	})
	if dead == nil {
		return
	}
	dead.client.Close()
	// In name order, so the journal and the queue do not depend on map order.
	slices.SortFunc(hit, func(a, b deployment) int { return strings.Compare(a.j.spec.Name, b.j.spec.Name) })
	for _, d := range hit {
		m.restart(d, fmt.Sprintf("worker %s lost", name))
	}
}
