package mlapp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// fusedConfig returns a shard big enough for several chunks plus a model
// and RNG with fixed seeds.
func fusedSetup(t *testing.T, kind Kind) (Algorithm, *Shard, []float64) {
	t.Helper()
	cfg := Config{Kind: kind, Features: 16, Classes: 4, Rows: 200, LearningRate: 0.2}
	algo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := GenerateShards(cfg, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	model := algo.InitModel(rand.New(rand.NewSource(7)))
	return algo, shards[0], model
}

// TestComputeFusedDeterministicAcrossParallelism is the bit-identity
// contract: the fused kernel's delta and loss must not depend on the
// worker count.
func TestComputeFusedDeterministicAcrossParallelism(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, kind := range []Kind{MLR, Lasso, NMF, LDA} {
		algo, shard, model := fusedSetup(t, kind)
		var ref []float64
		var refLoss float64
		for wi, workers := range workerCounts {
			// Fresh RNG per run: the seed stream must be consumed
			// identically at any parallelism.
			rng := rand.New(rand.NewSource(99))
			delta, loss := ComputeFused(algo, nil, model, shard, rng, workers, nil)
			if wi == 0 {
				ref = append([]float64(nil), delta...)
				refLoss = loss
				continue
			}
			if math.Float64bits(loss) != math.Float64bits(refLoss) {
				t.Errorf("%v: loss at workers=%d is %x, want %x", kind, workers,
					math.Float64bits(loss), math.Float64bits(refLoss))
			}
			if len(delta) != len(ref) {
				t.Fatalf("%v: delta length %d, want %d", kind, len(delta), len(ref))
			}
			for i := range delta {
				if math.Float64bits(delta[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("%v: delta[%d] at workers=%d is %x, want %x",
						kind, i, workers, math.Float64bits(delta[i]), math.Float64bits(ref[i]))
				}
			}
		}
	}
}

// TestComputeFusedScratchReuse proves a reused Scratch yields the same
// bits as a fresh one (the worker's steady-state configuration).
func TestComputeFusedScratchReuse(t *testing.T) {
	algo, shard, model := fusedSetup(t, MLR)
	scratch := &Scratch{}
	var first []float64
	for round := 0; round < 3; round++ {
		rng := rand.New(rand.NewSource(5))
		delta, _ := ComputeFused(algo, nil, model, shard, rng, 4, scratch)
		if round == 0 {
			first = append([]float64(nil), delta...)
			continue
		}
		for i := range delta {
			if math.Float64bits(delta[i]) != math.Float64bits(first[i]) {
				t.Fatalf("round %d: delta[%d] changed with scratch reuse", round, i)
			}
		}
	}
}

// TestComputeFusedDstReuse: passing a dirty dst must not leak stale
// values into the result.
func TestComputeFusedDstReuse(t *testing.T) {
	algo, shard, model := fusedSetup(t, Lasso)
	rng := rand.New(rand.NewSource(5))
	clean, _ := ComputeFused(algo, nil, model, shard, rng, 4, nil)
	dirty := make([]float64, len(model))
	for i := range dirty {
		dirty[i] = 1e9
	}
	rng = rand.New(rand.NewSource(5))
	reused, _ := ComputeFused(algo, dirty, model, shard, rng, 4, nil)
	for i := range clean {
		if math.Float64bits(reused[i]) != math.Float64bits(clean[i]) {
			t.Fatalf("delta[%d] polluted by dirty dst", i)
		}
	}
}

// TestComputeFusedLossMatchesSerialLoss: for the deterministic algorithms
// the fused objective must equal the two-pass Loss at the same model.
func TestComputeFusedLossMatchesSerialLoss(t *testing.T) {
	for _, kind := range []Kind{MLR, Lasso, NMF, LDA} {
		algo, shard, model := fusedSetup(t, kind)
		rng := rand.New(rand.NewSource(99))
		_, fusedLoss := ComputeFused(algo, nil, model, shard, rng, 4, nil)
		serial := algo.Loss(model, shard)
		// Chunked summation reorders float additions, so compare within a
		// tight relative tolerance rather than bit-exactly.
		diff := math.Abs(fusedLoss - serial)
		if diff > 1e-9*math.Max(1, math.Abs(serial)) {
			t.Errorf("%v: fused loss %v, serial loss %v", kind, fusedLoss, serial)
		}
	}
}

// TestComputeFusedInvariants: the nonlinear finalizers must uphold the
// model's sign invariants after the chunk reduction.
func TestComputeFusedInvariants(t *testing.T) {
	// NMF: applying the delta keeps factors non-negative.
	algo, shard, model := fusedSetup(t, NMF)
	rng := rand.New(rand.NewSource(3))
	delta, _ := ComputeFused(algo, nil, model, shard, rng, 4, nil)
	for i := range delta {
		if model[i]+delta[i] < 0 {
			t.Fatalf("NMF factor %d negative after update: %v", i, model[i]+delta[i])
		}
	}
	// LDA: counts keep the 0.01 floor.
	algo, shard, model = fusedSetup(t, LDA)
	rng = rand.New(rand.NewSource(3))
	delta, _ = ComputeFused(algo, nil, model, shard, rng, 4, nil)
	for i := range delta {
		if model[i]+delta[i] < 0.01-1e-12 {
			t.Fatalf("LDA count %d below floor after update: %v", i, model[i]+delta[i])
		}
	}
}

// TestComputeFusedTrainingReducesLoss drives a few fused iterations and
// checks the objective falls — the kernels must be genuine gradients, not
// just deterministic ones.
func TestComputeFusedTrainingReducesLoss(t *testing.T) {
	for _, kind := range []Kind{MLR, Lasso, NMF, LDA} {
		cfg := Config{Kind: kind, Features: 16, Classes: 4, Rows: 120, LearningRate: 0.2}
		algo, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shards, err := GenerateShards(cfg, 1, 21)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		model := algo.InitModel(rng)
		scratch := &Scratch{}
		var delta []float64
		var firstLoss, lastLoss float64
		iters := 12
		for it := 0; it < iters; it++ {
			var loss float64
			delta, loss = ComputeFused(algo, delta, model, shards[0], rng, 0, scratch)
			if it == 0 {
				firstLoss = loss
			}
			lastLoss = loss
			for i := range model {
				model[i] += delta[i]
			}
		}
		if lastLoss >= firstLoss {
			t.Errorf("%v: fused training did not reduce loss: %.6f -> %.6f", kind, firstLoss, lastLoss)
		}
	}
}

func TestFusedChunkGeometry(t *testing.T) {
	cases := []struct{ n, chunks int }{
		{0, 1}, {1, 1}, {16, 1}, {17, 2}, {200, 13}, {100000, fusedMaxChunks},
	}
	for _, c := range cases {
		if got := fusedChunks(c.n); got != c.chunks {
			t.Errorf("fusedChunks(%d) = %d, want %d", c.n, got, c.chunks)
		}
	}
	// Bounds must partition [0,n) exactly, in order.
	for _, n := range []int{1, 17, 200, 12345} {
		chunks := fusedChunks(n)
		prev := 0
		for i := 0; i < chunks; i++ {
			lo, hi := fusedBounds(n, chunks, i)
			if lo != prev || hi < lo {
				t.Fatalf("n=%d chunk %d: bounds [%d,%d) after %d", n, i, lo, hi, prev)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: chunks cover %d rows", n, prev)
		}
	}
}
