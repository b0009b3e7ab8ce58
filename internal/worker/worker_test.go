package worker

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/mlapp"
	"harmony/internal/ps"
	"harmony/internal/rpc"
)

// fakeMaster is a minimal master endpoint for driving a worker directly:
// every barrier says Continue.
func fakeMaster(t *testing.T) string {
	return fakeMasterWith(t, func(BarrierArgs) Directive { return Continue }, func(JobDoneArgs) {})
}

// fakeMasterWith is fakeMaster with the barrier's answer and the
// job-done notification left to the test. The worker releases the job
// once done returns.
func fakeMasterWith(t *testing.T, barrier func(BarrierArgs) Directive, done func(JobDoneArgs)) string {
	t.Helper()
	srv := rpc.NewServer()
	type registerArgs struct {
		Name string
		Addr string
	}
	srv.Handle("master.register", rpc.Typed(func(a registerArgs) (Ack, error) {
		return Ack{}, nil
	}))
	srv.Handle(MethodBarrier, rpc.Typed(func(a BarrierArgs) (BarrierReply, error) {
		return BarrierReply{Directive: barrier(a)}, nil
	}))
	srv.Handle(MethodJobDone, rpc.Typed(func(a JobDoneArgs) (Ack, error) {
		done(a)
		return Ack{}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func startWorker(t *testing.T) (*Worker, *rpc.Client) {
	t.Helper()
	return startWorkerAt(t, fakeMaster(t))
}

// startWorkerAt is startWorker registered with the given master.
func startWorkerAt(t *testing.T, master string) (*Worker, *rpc.Client) {
	t.Helper()
	w, addr, err := New("unit", "127.0.0.1:0", master, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ctl, err := rpc.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	return w, ctl
}

func loadArgs(w *Worker, servers []string) LoadJobArgs {
	return LoadJobArgs{
		Job:     "j1",
		Config:  mlapp.Config{Kind: mlapp.MLR, Features: 8, Classes: 2, Rows: 64},
		Servers: servers, ShardIndex: 0, ShardCount: 1,
		Seed: 3, InitModel: true,
	}
}

func TestLoadJobValidation(t *testing.T) {
	w, ctl := startWorker(t)
	self := w.srv.Addr()

	// Unknown algorithm.
	bad := loadArgs(w, []string{self})
	bad.Config.Kind = mlapp.Kind(99)
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, bad, time.Second); err == nil {
		t.Error("unknown algorithm accepted")
	}

	// Shard index out of range, or no shards at all: refused before any
	// data is generated.
	for _, c := range [][2]int{{5, 1}, {-1, 1}, {0, 0}, {0, -1}} {
		bad = loadArgs(w, []string{self})
		bad.ShardIndex, bad.ShardCount = c[0], c[1]
		if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, bad, time.Second); err == nil ||
			!strings.Contains(err.Error(), "shard index") {
			t.Errorf("shard %d of %d: err = %v", c[0], c[1], err)
		}
	}

	// No parameter servers.
	bad = loadArgs(w, nil)
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, bad, time.Second); err == nil {
		t.Error("empty server list accepted")
	}
}

// TestLoadJobKeepsShardHeaderOnly: once the blocks are encoded the loaded
// job holds its input in the block store (and, decoded, in the cache), not
// a third time as the generated examples; the assembled view still carries
// the partition's kind and first row, and every row.
func TestLoadJobKeepsShardHeaderOnly(t *testing.T) {
	w, ctl := startWorker(t)
	args := loadArgs(w, []string{w.srv.Addr()})
	args.ShardIndex, args.ShardCount = 1, 2
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, args, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	want, err := mlapp.GenerateShards(args.Config, 2, args.Seed)
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	st := w.jobs[args.Job]
	w.mu.Unlock()
	if n := len(st.shard.Examples); n != 0 {
		t.Errorf("the loaded job retains %d generated examples, want none", n)
	}
	got, err := st.materializeShard()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want[1].Kind || got.RowOffset != want[1].RowOffset || got.RowOffset == 0 {
		t.Errorf("assembled shard is %v at row %d, want %v at row %d", got.Kind, got.RowOffset, want[1].Kind, want[1].RowOffset)
	}
	sameExamples(t, got.Examples, want[1].Examples)
}

func TestStartJobRequiresLoad(t *testing.T) {
	_, ctl := startWorker(t)
	_, err := rpc.Invoke[StartJobArgs, Ack](ctl, MethodStartJob,
		StartJobArgs{Job: "ghost", Iterations: 1}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "not loaded") {
		t.Errorf("start of unloaded job: err = %v", err)
	}
}

// TestLoadStartRunsToCompletion: a job that runs every iteration leaves
// the worker when its loop completes — its state, its partition on the
// worker's own server and its spill directory.
func TestLoadStartRunsToCompletion(t *testing.T) {
	w, ctl := startWorker(t)
	self := w.srv.Addr()
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, loadArgs(w, []string{self}), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	spill := filepath.Join(w.spillDir, w.name+"-j1")
	if _, err := os.Stat(spill); err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Invoke[StartJobArgs, Ack](ctl, MethodStartJob,
		StartJobArgs{Job: "j1", Iterations: 3}, time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := rpc.Invoke[StatsArgs, StatsReply](ctl, MethodStats, StatsArgs{}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// The store, and with it the directory, closes after the job
		// left the table.
		if _, err := os.Stat(spill); st.Jobs == 0 && os.IsNotExist(err) {
			if n := w.exec.Stats().Executed[1]; n != 3 {
				t.Errorf("%d COMP subtasks ran, want 3", n)
			}
			if jobs := w.psrv.Stats().Jobs; len(jobs) != 0 {
				t.Errorf("the worker's server still holds %d partitions", len(jobs))
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("the job never left the worker")
}

func TestSetAlphaAndDrop(t *testing.T) {
	w, ctl := startWorker(t)
	self := w.srv.Addr()
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, loadArgs(w, []string{self}), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Invoke[SetAlphaArgs, Ack](ctl, MethodSetAlpha,
		SetAlphaArgs{Job: "j1", Alpha: 0.5}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Invoke[SetAlphaArgs, Ack](ctl, MethodSetAlpha,
		SetAlphaArgs{Job: "ghost", Alpha: 0.5}, time.Second); err == nil {
		t.Error("SetAlpha on unknown job succeeded")
	}
	if _, err := rpc.Invoke[DropJobArgs, Ack](ctl, MethodDropJob,
		DropJobArgs{Job: "j1"}, time.Second); err != nil {
		t.Fatal(err)
	}
	// Dropping twice is a no-op.
	if _, err := rpc.Invoke[DropJobArgs, Ack](ctl, MethodDropJob,
		DropJobArgs{Job: "j1"}, time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := rpc.Invoke[StatsArgs, StatsReply](ctl, MethodStats, StatsArgs{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 0 {
		t.Errorf("jobs = %d after drop", st.Jobs)
	}
}

// TestStatsCarriesPSCounters: worker.stats reports the co-hosted server's
// stripes, and the server no longer answers a stats call of its own. The
// phase histograms ride the reply only once the worker traces.
func TestStatsCarriesPSCounters(t *testing.T) {
	w, ctl := startWorker(t)
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, loadArgs(w, []string{w.srv.Addr()}), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	st, err := rpc.Invoke[StatsArgs, StatsReply](ctl, MethodStats, StatsArgs{SpanAfter: SpanCursorNone}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PS.Jobs) != 1 || st.PS.Jobs[0].Job != "j1" || len(st.PS.Jobs[0].Stripes) == 0 {
		t.Errorf("stats reply's PS part = %+v, want j1's stripes", st.PS)
	}
	if st.PhaseHist != nil {
		t.Errorf("an untraced worker's reply carries phase histograms %+v", *st.PhaseHist)
	}
	w.EnableTracing(0)
	if st, err = rpc.Invoke[StatsArgs, StatsReply](ctl, MethodStats, StatsArgs{SpanAfter: SpanCursorNone}, time.Second); err != nil || st.PhaseHist == nil {
		t.Errorf("a traced worker's reply: phase histograms %v, err %v", st.PhaseHist, err)
	}
	_, err = rpc.Invoke[ps.StatsArgs, ps.StatsReply](ctl, ps.MethodStats, ps.StatsArgs{}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("ps.stats on a worker: err = %v, want unknown method", err)
	}
}

// scriptedMaster is a master endpoint that records every barrier's loss
// and answers Pause once, at iteration pauseAt (-1: never). ended
// receives a value when a run stops: at the pause, or when the worker
// reports the job done.
type scriptedMaster struct {
	addr    string
	pauseAt int
	mu      sync.Mutex
	losses  []float64
	ended   chan struct{}
}

func newScriptedMaster(t *testing.T, pauseAt int) *scriptedMaster {
	t.Helper()
	m := &scriptedMaster{pauseAt: pauseAt, ended: make(chan struct{}, 2)} // one pause + one done
	m.addr = fakeMasterWith(t, func(a BarrierArgs) Directive {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.losses = append(m.losses, float64(a.Loss))
		if a.Iteration == m.pauseAt {
			m.pauseAt = -1
			m.ended <- struct{}{}
			return Pause
		}
		return Continue
	}, func(JobDoneArgs) { m.ended <- struct{}{} })
	return m
}

// seed initializes job's model on servers with vals, as the master seeds
// a resumed job's servers from its checkpoint before any member loads it.
func (m *scriptedMaster) seed(t *testing.T, servers []string, job string, vals []float64) {
	t.Helper()
	c, err := ps.NewClient(servers, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Init(job, vals); err != nil {
		t.Fatal(err)
	}
}

func (m *scriptedMaster) waitEnded(t *testing.T) {
	t.Helper()
	select {
	case <-m.ended:
	case <-time.After(20 * time.Second):
		t.Fatal("run neither paused nor finished")
	}
}

// TestPauseResumeLossesMatchControl runs each algorithm twice on its own
// worker — once straight through, once paused mid-run and resumed on the
// same loaded job, so the resumed run syncs a mirror that still holds
// cursors from before the pause — and requires the two loss sequences to
// be float-equal. While the paused run is stopped its servers are
// checkpointed, pushed to by an outsider and seeded from the checkpoint
// by the scripted master (what the master does for a resume): the values
// are back where the mirror left them, but under a new incarnation that
// must be pulled whole, not patched.
func TestPauseResumeLossesMatchControl(t *testing.T) {
	const iterations, pauseAt = 12, 4
	for _, kind := range []mlapp.Kind{mlapp.MLR, mlapp.Lasso, mlapp.NMF, mlapp.LDA} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(pause int) []float64 {
				m := newScriptedMaster(t, pause)
				w, addr, err := New("unit", "127.0.0.1:0", m.addr, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				ctl, err := rpc.Dial(addr, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer ctl.Close()
				args := loadArgs(w, []string{addr})
				args.Config = mlapp.Config{Kind: kind, Features: 24, Classes: 4, Rows: 96}
				if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, args, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				start := StartJobArgs{Job: "j1", Iterations: iterations}
				if _, err := rpc.Invoke[StartJobArgs, Ack](ctl, MethodStartJob, start, time.Second); err != nil {
					t.Fatal(err)
				}
				m.waitEnded(t)
				if pause >= 0 {
					waitStopped(t, w, "j1")
					c, err := ps.NewClient([]string{addr}, time.Second)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					size := args.Config.ModelSize()
					checkpoint := make([]float64, size)
					if err := c.PullInto("j1", checkpoint); err != nil {
						t.Fatal(err)
					}
					scribble := make([]float64, size)
					for i := range scribble {
						scribble[i] = 1
					}
					if err := c.Push("j1", scribble); err != nil {
						t.Fatal(err)
					}
					m.seed(t, []string{addr}, "j1", checkpoint)
					start.FromIteration = pause + 1
					if _, err := rpc.Invoke[StartJobArgs, Ack](ctl, MethodStartJob, start, time.Second); err != nil {
						t.Fatal(err)
					}
					m.waitEnded(t)
				}
				m.mu.Lock()
				defer m.mu.Unlock()
				return append([]float64(nil), m.losses...)
			}
			control, paused := run(-1), run(pauseAt)
			if len(control) != iterations || len(paused) != iterations {
				t.Fatalf("%d control and %d paused losses, want %d each", len(control), len(paused), iterations)
			}
			for i := range control {
				if paused[i] != control[i] {
					t.Fatalf("iteration %d: loss %v after pause/resume, %v uninterrupted", i, paused[i], control[i])
				}
			}
		})
	}
}

// waitStopped waits for a job's drive goroutine to have returned.
func waitStopped(t *testing.T, w *Worker, job string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		w.mu.Lock()
		running := w.jobs[job].running
		w.mu.Unlock()
		if !running {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s still running", job)
}

func TestWorkerDoubleClose(t *testing.T) {
	w, _ := startWorker(t)
	w.Close()
	w.Close()
	if w.name != "unit" {
		t.Error("name lost after close")
	}
}

// TestSparseRunKeepsEveryMirrorExact is a live_comm-shaped run: two
// workers train one large-vocabulary LDA through each other's servers,
// pushing concurrently, with sparse iterations end to end (COMP told what
// the sync rewrote, PUSH walking what COMP touched), while a checkpoint
// mirror like the master's syncs every fifth iteration beside them. When
// the run ends, and before either worker releases the job, one more Sync
// of each mirror must leave both workers' and the checkpoint's equal to a
// primaries-only Snapshot by bit pattern.
func TestSparseRunKeepsEveryMirrorExact(t *testing.T) {
	const job, iterations = "j1", 20
	cfg := mlapp.Config{Kind: mlapp.LDA, Features: 16384, Classes: 8, Rows: 64}
	var (
		mu       sync.Mutex
		arrived  = map[int]chan struct{}{}
		ckptMu   sync.Mutex
		ckptWG   sync.WaitGroup
		addrs    []string
		ckpt     *ps.Client
		mirror   = ps.NewMirror(job, cfg.ModelSize())
		ended    int
		atEnd    = make(chan struct{})
		compared = make(chan struct{})
	)
	checkpoint := func() {
		defer ckptWG.Done()
		ckptMu.Lock()
		defer ckptMu.Unlock()
		if err := ckpt.Sync(mirror); err != nil {
			t.Error(err)
		}
	}
	barrier := func(a BarrierArgs) Directive {
		mu.Lock()
		ch, second := arrived[a.Iteration]
		if !second {
			ch = make(chan struct{})
			arrived[a.Iteration] = ch
		}
		mu.Unlock()
		if !second {
			<-ch
			return Continue
		}
		if a.Iteration > 0 && a.Iteration%5 == 0 {
			ckptWG.Add(1)
			go checkpoint()
		}
		close(ch)
		return Continue
	}
	// Each member's job-done call waits for the comparison below, so no
	// member has released the job while it runs.
	done := func(JobDoneArgs) {
		mu.Lock()
		ended++
		if ended == 2 {
			close(atEnd)
		}
		mu.Unlock()
		<-compared
	}
	master := fakeMasterWith(t, barrier, done)
	workers := make([]*Worker, 2)
	for i := range workers {
		w, addr, err := New(string(rune('a'+i)), "127.0.0.1:0", master, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[i], addrs = w, append(addrs, addr)
	}
	defer close(compared)
	var err error
	if ckpt, err = ps.NewClient(addrs, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	for i, w := range workers {
		if _, err := w.handleLoadJob(LoadJobArgs{Job: job, Config: cfg, Servers: addrs,
			ShardIndex: i, ShardCount: 2, Seed: 9, InitModel: i == 0}); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workers {
		if _, err := w.handleStartJob(StartJobArgs{Job: job, Iterations: iterations}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-atEnd:
	case <-time.After(60 * time.Second):
		t.Fatal("run did not finish")
	}
	ckptWG.Wait()
	want := make([]float64, cfg.ModelSize())
	if err := ckpt.PullInto(job, want); err != nil {
		t.Fatal(err)
	}
	same := func(what string, c *ps.Client, m *ps.Mirror) {
		t.Helper()
		if err := c.Sync(m); err != nil {
			t.Fatal(err)
		}
		for i, v := range m.Values() {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d is %v, the servers hold %v", what, i, v, want[i])
			}
		}
	}
	same("checkpoint mirror", ckpt, mirror)
	for _, w := range workers {
		w.mu.Lock()
		st := w.jobs[job]
		w.mu.Unlock()
		if st.lastIter != iterations-1 {
			t.Fatalf("worker %s stopped at iteration %d", w.name, st.lastIter)
		}
		if st.scratch.Touched().All() {
			t.Errorf("worker %s: the last iteration was not sparse", w.name)
		}
		same("worker "+w.name+" mirror", st.client, st.mirror)
	}
}

// TestReleaseRacesDropAndLoad: for 50 rounds one worker completes job a
// while a drop of a arrives (what a cancel sends), and completes job b
// while it loads job c. Whichever of a's release and drop comes second
// frees nothing, and b's release leaves c loaded with its partition.
func TestReleaseRacesDropAndLoad(t *testing.T) {
	w, _ := startWorker(t)
	load := func(job string) error {
		args := loadArgs(w, []string{w.srv.Addr()})
		args.Job = job
		_, err := w.handleLoadJob(args)
		return err
	}
	for r := 0; r < 50; r++ {
		a, b, c := fmt.Sprint("a", r), fmt.Sprint("b", r), fmt.Sprint("c", r)
		for _, job := range []string{a, b} {
			if err := load(job); err != nil {
				t.Fatal(err)
			}
			if _, err := w.handleStartJob(StartJobArgs{Job: job, Iterations: 1}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		var loadErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = w.handleDropJob(DropJobArgs{Job: a})
		}()
		go func() {
			defer wg.Done()
			loadErr = load(c)
		}()
		wg.Wait()
		if loadErr != nil {
			t.Fatal(loadErr)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			w.mu.Lock()
			_, loaded := w.jobs[c]
			n := len(w.jobs)
			w.mu.Unlock()
			if !loaded {
				t.Fatalf("round %d: %s was released", r, c)
			}
			if n == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d jobs still loaded", r, n)
			}
			time.Sleep(time.Millisecond)
		}
		if jobs := w.psrv.Stats().Jobs; len(jobs) != 1 || jobs[0].Job != c {
			t.Fatalf("round %d: the server holds %v, want only %s", r, jobs, c)
		}
		if _, err := w.handleDropJob(DropJobArgs{Job: c}); err != nil {
			t.Fatal(err)
		}
	}
}
