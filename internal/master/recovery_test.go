package master

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/mlapp"
	"harmony/internal/worker"
)

// checkpointOf reads the checkpoint of the named job's placement and the
// iteration it covers.
func checkpointOf(t testing.TB, m *Master, name string) ([]float64, int) {
	t.Helper()
	var d deployment
	m.read(func() {
		if j := m.jobs[name]; j != nil && j.ckpt != nil {
			d = j.deployment()
		}
	})
	if d.j == nil {
		t.Fatalf("job %q was never placed", name)
	}
	return m.readCheckpoint(d)
}

// liveWorkers starts n in-process workers named w0, w1, … against m, each
// spilling under its own directory, and returns them by name with those
// directories.
func liveWorkers(t *testing.T, m *Master, n int) (map[string]*worker.Worker, map[string]string) {
	t.Helper()
	workers, spill := make(map[string]*worker.Worker), make(map[string]string)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		spill[name] = t.TempDir()
		w, _, err := worker.New(name, "127.0.0.1:0", m.Addr(), spill[name])
		if err != nil {
			t.Fatal(err)
		}
		workers[name] = w
		t.Cleanup(w.Close)
	}
	if err := m.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return workers, spill
}

// requeuedRows returns the job's recover row and the resume row after it,
// or nil for either that the journal does not hold yet.
func requeuedRows(m *Master, job string) (recoverRow, resumeRow *Event) {
	for _, e := range m.Events() {
		switch {
		case e.Job != job:
		case e.Kind == EventRecover && recoverRow == nil:
			recoverRow = &e
		case e.Kind == EventResume && recoverRow != nil && resumeRow == nil:
			resumeRow = &e
		}
	}
	return recoverRow, resumeRow
}

// TestWorkerFailureRecovery closes one worker of a two-member gang after
// a background checkpoint landed. The master notices on its own (§VI):
// within seconds the worker is gone from the cluster, the journal holds a
// recover row naming it and the checkpoint iteration followed by a resume
// row, and the job finishes from that checkpoint on the survivors.
func TestWorkerFailureRecovery(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	workers, _ := liveWorkers(t, m, 3)
	s := spec("mlr", mlapp.MLR, 400)
	s.MinWorkers, s.MaxWorkers = 2, 2
	adm, err := m.Enqueue(s, Profile{})
	if err != nil || !adm.Admitted || len(adm.Workers) != 2 {
		t.Fatalf("admission = %+v, %v; want a two-worker gang", adm, err)
	}
	var ckIter int
	pollUntil(t, "a background checkpoint", func() bool {
		vals, at := checkpointOf(t, m, "mlr")
		ckIter = at
		return vals != nil
	})

	lost := adm.Workers[0]
	workers[lost].Close()
	deadline := time.Now().Add(10 * time.Second)
	var rec, res *Event
	for {
		rec, res = requeuedRows(m, "mlr")
		if res != nil && !slices.Contains(m.Cluster().Workers, lost) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("10 s after closing %s: recover row %+v, resume row %+v, cluster %v",
				lost, rec, res, m.Cluster().Workers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var at int
	if _, err := fmt.Sscanf(rec.Note, "worker "+lost+" lost; restart from checkpoint iteration %d", &at); err != nil || at < ckIter {
		t.Errorf("recover row note %q: want worker %s lost and a checkpoint at or after iteration %d", rec.Note, lost, ckIter)
	}
	if slices.Contains(res.Group, lost) {
		t.Errorf("resumed on %v, which includes the lost worker", res.Group)
	}
	if err := m.WaitJob("mlr", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Job("mlr"); v.State != StatusFinished.String() || v.Iteration < at || v.Loss <= 0 {
		t.Errorf("after the restart: %+v", v)
	}
	if n := m.Counters().Recoveries; n != 1 {
		t.Errorf("%d recoveries, want 1", n)
	}
}

// TestMemberFailureRequeues fails COMP on one member: its shard store's
// spill directory moves away, so the next reload of a spilled block fails.
// The member reports the error, and the job is requeued through a recover
// row and finishes, instead of staying running with no loop behind it.
func TestMemberFailureRequeues(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	_, spill := liveWorkers(t, m, 2)
	s := spec("j", mlapp.MLR, 200)
	s.Alpha = 1 // every block lives on disk and is reloaded each iteration
	if err := m.Submit(s, nil); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "the first iteration", func() bool {
		v, _ := m.Job("j")
		return v.Iteration > 0
	})
	dir := filepath.Join(spill["w0"], "w0-j")
	if err := os.Rename(dir, dir+"-gone"); err != nil {
		t.Fatal(err)
	}
	var rec *Event
	pollUntil(t, "a recover row", func() bool {
		rec, _ = requeuedRows(m, "j")
		return rec != nil
	})
	if !strings.Contains(rec.Note, "member failed: worker w0: COMP") {
		t.Errorf("recover row note %q does not name w0's COMP failure", rec.Note)
	}
	if err := m.WaitJob("j", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Job("j"); v.State != StatusFinished.String() {
		t.Errorf("status after the restart = %s, want finished", v.State)
	}
}

// TestTeardownIsNotAFailure: closing or shutting down the master closes
// its connection to every worker, and the workers' loops then fail. None
// of that restarts a job.
func TestTeardownIsNotAFailure(t *testing.T) {
	for name, stop := range map[string]func(*Master){
		"Shutdown": func(m *Master) { m.Shutdown(10 * time.Second) },
		"Close":    (*Master).Close,
	} {
		t.Run(name, func(t *testing.T) {
			m, err := New("127.0.0.1:0", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(m.Close)
			workers, _ := liveWorkers(t, m, 2)
			if err := m.Submit(spec("j", mlapp.MLR, 1<<20), nil); err != nil {
				t.Fatal(err)
			}
			pollUntil(t, "the first iteration", func() bool {
				v, _ := m.Job("j")
				return v.Iteration > 0
			})
			stop(m)
			for _, w := range workers {
				w.Close()
			}
			time.Sleep(50 * time.Millisecond) // let every detector and report land
			if rec, _ := requeuedRows(m, "j"); rec != nil || m.Counters().Recoveries != 0 {
				t.Errorf("teardown restarted the job: recover row %+v, %d recoveries", rec, m.Counters().Recoveries)
			}
		})
	}
}

// TestCheckpointsRaceReadersAndServerLoss hammers one job's checkpoints:
// one is requested as fast as they complete (not every fifth iteration)
// while another goroutine reads them, across a server loss and the
// restart it causes. Under -race no reader may see a buffer a Sync is
// writing; every read must be a whole model whose label never goes
// backwards, from one record to the next; Syncs that fail midway (a third
// of the paused job's model is dropped) must leave the last good label in
// place; and once the detector has requeued the job from that label, the
// re-admitted record must land newer checkpoints.
func TestCheckpointsRaceReadersAndServerLoss(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	workers, _ := liveWorkers(t, m, 3)
	cfg := mlapp.Config{Kind: mlapp.LDA, Features: 2048, Classes: 8, Rows: 96}
	if err := m.Submit(JobSpec{Name: "lda", Config: cfg, Iterations: 1 << 20, Seed: 5}, nil); err != nil {
		t.Fatal(err)
	}
	placed := func() (d deployment, ok bool) {
		m.read(func() {
			if j := m.jobs["lda"]; j != nil && j.status != StatusPending {
				d, ok = j.deployment(), true
			}
		})
		return d, ok
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the checkpointer, labelling each checkpoint with the job's iteration
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d, ok := placed(); ok {
				_, _ = m.checkpoint(d, -1, false)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var lastRead atomic.Int64
	go func() { // the reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d, ok := placed()
			if !ok {
				continue // held between the requeue and the re-admission
			}
			vals, iter := m.readCheckpoint(d)
			if len(vals) != 0 && len(vals) != cfg.ModelSize() {
				t.Errorf("checkpoint of %d values, want %d", len(vals), cfg.ModelSize())
				return
			}
			if int64(iter) < lastRead.Load() {
				t.Errorf("checkpoint label went back from %d to %d", lastRead.Load(), iter)
				return
			}
			lastRead.Store(int64(iter))
		}
	}()
	waitLabel := func(above int64) int64 {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) && !t.Failed() {
			if got := lastRead.Load(); got > above {
				return got
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("no checkpoint above iteration %d within the deadline", above)
		return 0
	}
	waitLabel(3)

	// Park the job and drop w0's third of its model: every Sync now fails,
	// some of them after other servers already answered.
	if _, err := m.Pause("lda", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	d, _ := placed()
	refs := d.workers
	dropJob(refs[:1], "lda")
	failed := m.Counters().CheckpointFailures
	pollUntil(t, "failed checkpoints against the dropped partition", func() bool {
		return m.Counters().CheckpointFailures >= failed+3
	})
	vals, atLoss := m.readCheckpoint(d)
	if len(vals) != cfg.ModelSize() || atLoss < 3 {
		t.Fatalf("after failed checkpoints: %d values at iteration %d", len(vals), atLoss)
	}

	// Losing w0 requeues the job from that label.
	workers[refs[0].name].Close()
	pollUntil(t, "the re-admission", func() bool {
		_, res := requeuedRows(m, "lda")
		return res != nil
	})
	rec, _ := requeuedRows(m, "lda")
	if want := fmt.Sprintf("worker %s lost; restart from checkpoint iteration %d", refs[0].name, atLoss); rec.Note != want {
		t.Errorf("recover row note %q, want %q", rec.Note, want)
	}
	waitLabel(int64(atLoss))
	close(stop)
	wg.Wait()
	d, _ = placed()
	if err := m.Cancel("lda"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.checkpoint(d, 1<<30, false); err == nil || d.ckpt.client.Load() != nil {
		t.Errorf("a checkpoint of a canceled job: err %v, and it kept its connections: %v", err, d.ckpt.client.Load() != nil)
	}
}
