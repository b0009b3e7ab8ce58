package worker

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"harmony/internal/memstore"
	"harmony/internal/mlapp"
	"harmony/internal/rpc"
	"harmony/internal/touched"
)

// newCompState builds a jobState around a generated shard stored in
// columnar blocks, mirroring handleLoadJob's data-plane setup without the
// RPC machinery, so the COMP path can be driven directly.
func newCompState(t testing.TB, cfg mlapp.Config, rowsPerBlock int) *jobState {
	t.Helper()
	cfg = fillDefaults(cfg)
	algo, err := mlapp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := mlapp.GenerateShards(cfg, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	shard := shards[0]
	store, err := memstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cache := newBlockCache()
	store.SetNotify(cache.onEvent)
	for b := 0; b*rowsPerBlock < len(shard.Examples); b++ {
		lo := b * rowsPerBlock
		hi := minInt(lo+rowsPerBlock, len(shard.Examples))
		payload := mlapp.AppendExamples(nil, shard.Examples[lo:hi])
		if err := store.Put(&memstore.Block{ID: b, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	return &jobState{cfg: cfg, algo: algo, store: store, shard: shard, cache: cache}
}

func fillDefaults(cfg mlapp.Config) mlapp.Config {
	if cfg.Features == 0 {
		cfg.Features = 12
	}
	if cfg.Classes == 0 {
		cfg.Classes = 3
	}
	if cfg.Rows == 0 {
		cfg.Rows = 96
	}
	return cfg
}

// sameExamples compares two example slices bit-exactly.
func sameExamples(t *testing.T, got, want []mlapp.Example) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("examples: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.Y) != math.Float64bits(w.Y) {
			t.Fatalf("example %d: Y = %v, want %v", i, g.Y, w.Y)
		}
		if len(g.X) != len(w.X) || len(g.Tokens) != len(w.Tokens) {
			t.Fatalf("example %d: shape mismatch", i)
		}
		for j := range g.X {
			if math.Float64bits(g.X[j]) != math.Float64bits(w.X[j]) {
				t.Fatalf("example %d: X[%d] = %v, want %v", i, j, g.X[j], w.X[j])
			}
		}
		for j := range g.Tokens {
			if g.Tokens[j] != w.Tokens[j] {
				t.Fatalf("example %d: Tokens[%d] = %d, want %d", i, j, g.Tokens[j], w.Tokens[j])
			}
		}
	}
}

// TestMaterializeShardCacheInvalidation walks the cache through its
// lifecycle: cold decode, warm zero-decode fast path, spill-driven
// invalidation, and re-decode of the reloaded blocks with no stale data.
func TestMaterializeShardCacheInvalidation(t *testing.T) {
	st := newCompState(t, mlapp.Config{Kind: mlapp.MLR}, 16)
	blocks := st.store.Blocks()
	if blocks < 2 {
		t.Fatalf("want multiple blocks, got %d", blocks)
	}

	// Cold: every block is decoded once.
	sh, err := st.materializeShard()
	if err != nil {
		t.Fatal(err)
	}
	sameExamples(t, sh.Examples, st.shard.Examples)
	hits, misses := st.cache.stats()
	if hits != 0 || misses != int64(blocks) {
		t.Fatalf("cold pass: hits=%d misses=%d, want 0/%d", hits, misses, blocks)
	}

	// Warm: the assembled view is still valid, no decode at all.
	sh2, err := st.materializeShard()
	if err != nil {
		t.Fatal(err)
	}
	if sh2 != sh {
		t.Fatal("warm pass rebuilt the assembled shard")
	}
	hits, misses = st.cache.stats()
	if hits != int64(blocks) || misses != int64(blocks) {
		t.Fatalf("warm pass: hits=%d misses=%d, want %d/%d", hits, misses, blocks, blocks)
	}

	// Spill half the blocks: the Evict notifications must invalidate both
	// the per-block entries and the assembled fast path.
	if err := st.store.SetAlpha(0.5); err != nil {
		t.Fatal(err)
	}
	sh3, err := st.materializeShard()
	if err != nil {
		t.Fatal(err)
	}
	sameExamples(t, sh3.Examples, st.shard.Examples)
	_, misses = st.cache.stats()
	if misses == int64(blocks) {
		t.Fatal("spilled blocks were served from the cache without re-decoding")
	}
}

// TestMaterializeResidentZeroAllocs pins the fast path's contract: once a
// fully resident shard has been assembled, further COMP subtasks perform
// zero decode allocations.
func TestMaterializeResidentZeroAllocs(t *testing.T) {
	st := newCompState(t, mlapp.Config{Kind: mlapp.Lasso}, 16)
	if _, err := st.materializeShard(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.materializeShard(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("resident materialize allocates %.1f objects/op, want 0", allocs)
	}
}

// TestMaterializeShardErrorPropagates covers the bugfix: a block that
// cannot be decoded must surface an error (the seed silently truncated
// the shard and trained on partial data).
func TestMaterializeShardErrorPropagates(t *testing.T) {
	st := newCompState(t, mlapp.Config{Kind: mlapp.MLR}, 16)
	bad := st.store.Blocks()
	if err := st.store.Put(&memstore.Block{ID: bad, Payload: []byte("garbage")}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.materializeShard(); err == nil {
		t.Fatal("corrupt block did not fail materialization")
	} else if !strings.Contains(err.Error(), "materialize shard") {
		t.Fatalf("err = %v, want materialize-shard context", err)
	}
	if st.assembled != nil {
		t.Fatal("failed materialization left a partial assembled view")
	}
}

// TestCompTeardownOnCorruptBlock verifies the drive loop treats a COMP
// data failure like a PULL/PUSH failure: the job stops instead of
// training on a truncated shard, tells the master why under its epoch,
// and stays loaded until the master's dropJob.
func TestCompTeardownOnCorruptBlock(t *testing.T) {
	reported := make(chan JobDoneArgs, 1)
	w, ctl := startWorkerAt(t, fakeMasterWith(t, func(BarrierArgs) Directive { return Continue },
		func(a JobDoneArgs) { reported <- a }))
	self := w.srv.Addr()
	if _, err := rpc.Invoke[LoadJobArgs, Ack](ctl, MethodLoadJob, loadArgs(w, []string{self}), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	st := w.jobs["j1"]
	w.mu.Unlock()
	bad := st.store.Blocks()
	if err := st.store.Put(&memstore.Block{ID: bad, Payload: []byte("garbage")}); err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Invoke[StartJobArgs, Ack](ctl, MethodStartJob,
		StartJobArgs{Job: "j1", Iterations: 50, Epoch: 3}, time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-reported:
		if a.Err == "" || a.Epoch != 3 {
			t.Errorf("jobDone = %+v, want a failure under epoch 3", a)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job kept running with a corrupt input block")
	}
	var loaded bool
	for running, last := true, 0; running; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		running, last, loaded = st.running, st.lastIter, w.jobs["j1"] == st
		w.mu.Unlock()
		if last != 0 {
			t.Fatalf("job advanced to iteration %d on corrupt data", last)
		}
	}
	if !loaded {
		t.Fatal("the failed member released the job before the master dropped it")
	}
	if _, err := rpc.Invoke[DropJobArgs, Ack](ctl, MethodDropJob, DropJobArgs{Job: "j1"}, time.Second); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	_, loaded = w.jobs["j1"]
	w.mu.Unlock()
	if loaded {
		t.Fatal("job still loaded after dropJob")
	}
}

// TestCompPathRaceSmoke exercises the materialize loop against concurrent
// spill-ratio retunes (the SetAlpha RPC) and the background reloader; run
// under -race it guards the cache's generation protocol.
func TestCompPathRaceSmoke(t *testing.T) {
	st := newCompState(t, mlapp.Config{Kind: mlapp.NMF}, 8)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		alphas := []float64{0.5, 0, 0.75, 0.25}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := st.store.SetAlpha(alphas[i%len(alphas)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		sh, err := st.materializeShard()
		if err != nil {
			t.Fatal(err)
		}
		if len(sh.Examples) != len(st.shard.Examples) {
			t.Fatalf("iteration %d: %d examples, want %d", i, len(sh.Examples), len(st.shard.Examples))
		}
	}
	close(done)
	wg.Wait()
}

// TestCompNeverWritesModel pins the contract the delta-synced mirror
// rests on: COMP only reads the pulled model. A stripe nobody pushed to
// is not sent again, so a kernel that scribbled on the buffer (a clamp
// or a normalisation done in place) would silently train on its own
// scribbles from the next iteration on.
func TestCompNeverWritesModel(t *testing.T) {
	cfg := mlapp.Config{Features: 32, Classes: 8, Rows: 256}
	for _, kind := range []mlapp.Kind{mlapp.MLR, mlapp.Lasso, mlapp.NMF, mlapp.LDA} {
		cfg.Kind = kind
		t.Run(kind.String(), func(t *testing.T) {
			st := newCompState(t, cfg, 32)
			rng := rand.New(rand.NewSource(7))
			model := st.algo.InitModel(rng)
			model[1] = math.Copysign(0, -1) // a sign an in-place `+= 0` would flip
			want := append([]float64(nil), model...)
			for iter := 0; iter < 3; iter++ {
				shard, err := st.materializeShard()
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 4} {
					st.delta, _ = mlapp.ComputeFused(st.algo, st.delta, model, shard, rng, workers, &st.scratch)
					for i := range want {
						if math.Float64bits(model[i]) != math.Float64bits(want[i]) {
							t.Fatalf("iteration %d, %d workers: COMP changed model[%d] from %v to %v",
								iter, workers, i, want[i], model[i])
						}
					}
				}
			}
		})
	}
}

// BenchmarkComp measures one steady-state COMP subtask per algorithm:
// the decoded-block cache plus the fused multicore kernel. lda-512k is a
// live_comm worker's shard (its half of 64 documents over a 65536-word,
// 8-topic model): a few thousand touched elements of 512K. The four cases
// named by shape are a live_mix worker's shards (benchmarks/live.go: its
// half of each job's rows); the rest are toys. Their model stands still,
// so each pass is told, truthfully, that nothing changed — the best case
// for a sparse pass. lda-512k-moving is the same shard on a model that
// moves as in the drive loop: each pass's update is applied (walking the
// touched set) and the next pass is told exactly the elements it moved.
func BenchmarkComp(b *testing.B) {
	cases := map[string]mlapp.Config{
		"lda-512k":        {Kind: mlapp.LDA, Features: 65536, Classes: 8, Rows: 32},
		"lda-512k-moving": {Kind: mlapp.LDA, Features: 65536, Classes: 8, Rows: 32},
		"mlr-128x16":      {Kind: mlapp.MLR, Features: 128, Classes: 16, Rows: 1024},
		"lasso-2048":      {Kind: mlapp.Lasso, Features: 2048, Rows: 512},
		"nmf-128x16":      {Kind: mlapp.NMF, Features: 128, Classes: 16, Rows: 256},
		"lda-512x8":       {Kind: mlapp.LDA, Features: 512, Classes: 8, Rows: 384},
	}
	for _, kind := range []mlapp.Kind{mlapp.MLR, mlapp.Lasso, mlapp.NMF, mlapp.LDA} {
		cases[kind.String()] = mlapp.Config{Kind: kind, Features: 32, Classes: 8, Rows: 512}
	}
	for _, name := range []string{"MLR", "Lasso", "NMF", "LDA", "lda-512k", "lda-512k-moving",
		"mlr-128x16", "lasso-2048", "nmf-128x16", "lda-512x8"} {
		b.Run(name, func(b *testing.B) {
			st := newCompState(b, cases[name], 32)
			model := st.algo.InitModel(rand.New(rand.NewSource(7)))
			rng := rand.New(&st.src)
			var moved touched.List
			b.ReportAllocs()
			for i := -2; i < b.N; i++ { // two untimed passes size the arena: one dense, one sparse
				if i == 0 {
					b.ResetTimer()
				}
				shard, err := st.materializeShard()
				if err != nil {
					b.Fatal(err)
				}
				st.src.PCG.Seed(7, uint64(i)) // as the drive loop does
				st.scratch.Changed(moved.Take(len(model)))
				st.delta, _ = mlapp.ComputeFused(st.algo, st.delta, model, shard, rng, 0, &st.scratch)
				if name != "lda-512k-moving" {
					continue
				}
				set := st.scratch.Touched()
				if set.All() {
					moved.AddAll()
					for j, d := range st.delta {
						model[j] += d
					}
					continue
				}
				for _, j := range set.Indices() {
					if d := st.delta[j]; d != 0 {
						model[j] += d
						moved.Add(j)
					}
				}
			}
		})
	}
}
