package master

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/mlapp"
	"harmony/internal/worker"
)

// liveCluster is cluster with the workers' spill directories returned;
// a spill of "" is a regular file, so every load on that worker fails.
func liveCluster(t *testing.T, spills ...string) (*Master, []string) {
	t.Helper()
	m, err := New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	dirs := make([]string, len(spills))
	for i, spill := range spills {
		dirs[i] = t.TempDir()
		if spill == "" {
			dirs[i] = filepath.Join(dirs[i], "file")
			if err := os.WriteFile(dirs[i], nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, _, err := worker.New(fmt.Sprintf("w%d", i), "127.0.0.1:0", m.Addr(), dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	if err := m.WaitForWorkers(len(spills), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return m, dirs
}

// psJobs lists the jobs any worker's server holds a partition of.
func psJobs(t *testing.T, m *Master) []string {
	t.Helper()
	cs, err := m.PSStats()
	if err != nil {
		t.Fatal(err)
	}
	var jobs []string
	for _, srv := range cs.Servers {
		for _, js := range srv.Jobs {
			jobs = append(jobs, srv.Name+":"+js.Job)
		}
	}
	return jobs
}

// TestFinishedJobsLeaveNothingBehind runs four 1 MB LDA jobs one after
// another on two workers. Once each finishes, the workers hold no job,
// no server a partition, no spill directory survives, the goroutines are
// back to their number before the first job, and from the second job to
// the fourth the live heap grows by less than one model.
func TestFinishedJobsLeaveNothingBehind(t *testing.T) {
	m, dirs := liveCluster(t, "a", "b")
	cfg := mlapp.Config{Kind: mlapp.LDA, Features: 16384, Classes: 8, Rows: 64}
	modelBytes := uint64(8 * cfg.ModelSize())
	// A worker may accept the master's connection after its registration
	// returned; a stats pass waits until every worker serves it, so the
	// baseline counts each connection's goroutine.
	m.WorkerTotals()
	baseline := runtime.NumGoroutine()
	var heap [4]uint64
	for i := range heap {
		name := fmt.Sprintf("lda-%d", i)
		if err := m.Submit(JobSpec{Name: name, Config: cfg, Iterations: 8, Seed: int64(i)}, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.WaitJob(name, time.Minute); err != nil {
			t.Fatal(err)
		}
		pollUntil(t, name+": workers release the job", func() bool { return m.WorkerTotals().LoadedJobs == 0 })
		if jobs := psJobs(t, m); len(jobs) != 0 {
			t.Fatalf("%s: partitions left on %v", name, jobs)
		}
		// A worker closes the store, and so removes its directory, after
		// it forgot the job.
		pollUntil(t, name+": spill directories removed", func() bool {
			for _, dir := range dirs {
				if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
					return false
				}
			}
			return true
		})
		pollUntil(t, name+": goroutines back to their baseline", func() bool { return runtime.NumGoroutine() <= baseline })
		// The second collection empties the sync.Pool victim caches the
		// first one filled.
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heap[i] = ms.HeapAlloc
	}
	if heap[3] > heap[1]+modelBytes {
		t.Errorf("live heap grew from %d B after job 2 to %d B after job 4, more than one %d B model",
			heap[1], heap[3], modelBytes)
	}
}

// TestFailedDeployDropsEveryMember: the middle worker of three cannot open
// a spill directory, so the second load fails after the first seeded a
// partition on every member's server. The failed submit leaves no
// partition anywhere — the third member's included, though it was never
// sent a load — and no loaded job.
func TestFailedDeployDropsEveryMember(t *testing.T) {
	m, _ := liveCluster(t, "a", "", "c")
	if err := m.Submit(spec("j", mlapp.MLR, 10), nil); err == nil {
		t.Fatal("a deployment onto a worker that cannot spill succeeded")
	}
	if jobs := psJobs(t, m); len(jobs) != 0 {
		t.Errorf("partitions left on %v", jobs)
	}
	if n := m.WorkerTotals().LoadedJobs; n != 0 {
		t.Errorf("%d loaded jobs left", n)
	}
}

// TestCheckpointsFollowTheJob: a 16-iteration job checkpoints at
// iterations 5 and 10 but not at its last, 15; no checkpoint of it
// fails; and once it finished the master holds no checkpoint of it.
func TestCheckpointsFollowTheJob(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("j", mlapp.NMF, 16), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("j", time.Minute); err != nil {
		t.Fatal(err)
	}
	var iter int
	pollUntil(t, "the checkpoint is released", func() bool {
		vals, at := checkpointOf(t, m, "j")
		iter = at
		return vals == nil
	})
	if iter > 10 {
		t.Errorf("checkpointed at iteration %d, want at most 10", iter)
	}
	if n := m.Counters().CheckpointFailures; n != 0 {
		t.Errorf("%d checkpoint failures", n)
	}
}

// TestLoadedJobsGauge: WorkerTotals counts a two-member job twice while
// it is parked at a barrier by a pause, and not at all once it resumed on
// the same group and completed.
func TestLoadedJobsGauge(t *testing.T) {
	m := cluster(t, 2)
	if err := m.Submit(spec("j", mlapp.MLR, 40), nil); err != nil {
		t.Fatal(err)
	}
	ckpt, err := m.Pause("j", 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.WorkerTotals().LoadedJobs; n != 2 {
		t.Errorf("%d loaded jobs while paused, want 2", n)
	}
	if err := m.Resume("j", m.Workers(), ckpt); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitJob("j", time.Minute); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "the members release the job", func() bool { return m.WorkerTotals().LoadedJobs == 0 })
}

// TestReleaseRacesCancel completes jobs while canceling them, for 50
// rounds, the cancel a little later in each of ten: whichever of the member's own release and the cancel's drop
// comes second finds nothing to free, and no round leaves a loaded job or
// a partition behind.
func TestReleaseRacesCancel(t *testing.T) {
	m := cluster(t, 2)
	for r := 0; r < 50; r++ {
		name := fmt.Sprintf("j%d", r)
		if err := m.Submit(spec(name, mlapp.MLR, 2), nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(r%10) * 100 * time.Microsecond)
			_ = m.Cancel(name) // ErrJobFinished when the completion won
		}()
		if err := m.WaitJob(name, time.Minute); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		pollUntil(t, name+": released", func() bool { return m.WorkerTotals().LoadedJobs == 0 })
		if jobs := psJobs(t, m); len(jobs) != 0 {
			t.Fatalf("%s: partitions left on %v", name, jobs)
		}
	}
}
