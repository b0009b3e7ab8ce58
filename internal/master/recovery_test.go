package master

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/mlapp"
	"harmony/internal/worker"
)

// TestWorkerFailureRecovery kills a worker mid-training and recovers the
// job on the survivors from the latest background checkpoint (§VI).
func TestWorkerFailureRecovery(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	workers := make([]*worker.Worker, 3)
	for i := range workers {
		w, _, err := worker.New("w"+string(rune('0'+i)), "127.0.0.1:0", m.Addr(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	defer func() {
		for _, w := range workers[1:] {
			w.Close()
		}
	}()
	if err := m.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	if err := m.Submit(JobSpec{
		Name:       "mlr",
		Config:     mlapp.Config{Kind: mlapp.MLR, Features: 12, Classes: 3, Rows: 96, LearningRate: 0.2},
		Iterations: 60,
		Seed:       5,
	}, nil); err != nil {
		t.Fatal(err)
	}

	// Wait for a background checkpoint to land.
	deadline := time.Now().Add(20 * time.Second)
	var ckIter int
	for time.Now().Before(deadline) {
		snap, iter, err := m.Checkpoint("mlr")
		if err != nil {
			t.Fatal(err)
		}
		if snap != nil {
			ckIter = iter
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ckIter == 0 {
		t.Fatal("no background checkpoint within deadline")
	}

	// Kill worker 0 and recover on the survivors.
	workers[0].Close()
	affected, err := m.RemoveWorker("w0")
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || affected[0] != "mlr" {
		t.Fatalf("affected jobs = %v, want [mlr]", affected)
	}
	// Cut the remaining run short so the test stays fast.
	m.mu.Lock()
	m.jobs["mlr"].spec.Iterations = ckIter + 4
	m.mu.Unlock()
	if err := m.RecoverJob("mlr", nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("mlr", 60*time.Second); err != nil {
		t.Fatal(err)
	}
	status, iter, loss, err := m.Status("mlr")
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusFinished {
		t.Errorf("status = %v after recovery", status)
	}
	if iter < ckIter {
		t.Errorf("final iteration %d below checkpoint %d", iter, ckIter)
	}
	if loss <= 0 {
		t.Errorf("loss = %v after recovery", loss)
	}
}

func TestRemoveWorkerUnknown(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.RemoveWorker("ghost"); err == nil {
		t.Error("RemoveWorker on unknown worker succeeded")
	}
}

func TestCheckpointUnknownJob(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Checkpoint("ghost"); err == nil {
		t.Error("Checkpoint on unknown job succeeded")
	}
	if err := m.RecoverJob("ghost", nil); err == nil {
		t.Error("RecoverJob on unknown job succeeded")
	}
}

// TestCheckpointsRaceReadersAndServerLoss hammers one job's checkpointer:
// a checkpoint is requested as fast as they complete (not every fifth
// iteration) while another goroutine polls Checkpoint, and in the middle
// one of the job's servers is killed, so Syncs fail midway. Under -race
// no reader may see a buffer a Sync is writing; every read must be a whole
// model whose label never goes backwards; the failed Syncs must leave the
// last good label in place; and after RecoverJob moves the job to the
// survivors the same checkpointer must dial the new server set and land
// newer checkpoints.
func TestCheckpointsRaceReadersAndServerLoss(t *testing.T) {
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	workers := make([]*worker.Worker, 3)
	for i := range workers {
		w, _, err := worker.New("w"+string(rune('0'+i)), "127.0.0.1:0", m.Addr(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		defer w.Close()
	}
	if err := m.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := mlapp.Config{Kind: mlapp.LDA, Features: 2048, Classes: 8, Rows: 96}
	if err := m.Submit(JobSpec{Name: "lda", Config: cfg, Iterations: 1 << 20, Seed: 5}, nil); err != nil {
		t.Fatal(err)
	}
	m.mu.RLock()
	j := m.jobs["lda"]
	m.mu.RUnlock()

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
			_, _ = m.checkpoint(j, -1, false)
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
			vals, iter, err := m.Checkpoint("lda")
			if err != nil {
				t.Error(err)
				return
			}
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

	workers[0].Close()
	if _, err := m.RemoveWorker("w0"); err != nil {
		t.Fatal(err)
	}
	// The job is parked and a third of its model is gone: every Sync now
	// fails, some of them after other servers already answered.
	failed := m.Counters().CheckpointFailures
	deadline := time.Now().Add(30 * time.Second)
	for m.Counters().CheckpointFailures < failed+3 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoints against a dead server did not fail")
		}
		time.Sleep(time.Millisecond)
	}
	vals, atLoss, err := m.Checkpoint("lda")
	if err != nil || len(vals) != cfg.ModelSize() || atLoss < 3 {
		t.Fatalf("after failed checkpoints: %d values at iteration %d, err %v", len(vals), atLoss, err)
	}
	if err := m.RecoverJob("lda", nil); err != nil {
		t.Fatal(err)
	}
	waitLabel(int64(atLoss))
	close(stop)
	wg.Wait()
	if err := m.Cancel("lda"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.checkpoint(j, 1<<30, false); err == nil || j.ckpt.client.Load() != nil {
		t.Errorf("a checkpoint of a canceled job: err %v, and it kept its connections: %v", err, j.ckpt.client.Load() != nil)
	}
}
