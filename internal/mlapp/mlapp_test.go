package mlapp

import (
	"math"
	"math/rand"
	"testing"
)

func configFor(k Kind) Config {
	return Config{Kind: k, Features: 16, Classes: 3, Rows: 120, LearningRate: 0.2}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{MLR: "MLR", Lasso: "Lasso", NMF: "NMF", LDA: "LDA", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d) = %q, want %q", int(k), got, want)
		}
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Config{Kind: Kind(42)}); err == nil {
		t.Error("New with unknown kind succeeded")
	}
}

func TestGenerateShards(t *testing.T) {
	c := configFor(MLR)
	shards, err := GenerateShards(c, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("got %d shards", len(shards))
	}
	total := 0
	lastOffset := -1
	for _, s := range shards {
		total += len(s.Examples)
		if s.RowOffset <= lastOffset {
			t.Error("row offsets not increasing")
		}
		lastOffset = s.RowOffset
		for _, ex := range s.Examples {
			if len(ex.X) != c.Features {
				t.Fatalf("example has %d features, want %d", len(ex.X), c.Features)
			}
			if y := int(ex.Y); y < 0 || y >= c.Classes {
				t.Fatalf("label %d out of range", y)
			}
		}
	}
	if total < c.Rows {
		t.Errorf("generated %d rows, want >= %d", total, c.Rows)
	}
	if _, err := GenerateShards(c, 0, 7); err == nil {
		t.Error("zero shards accepted")
	}
}

func TestGenerateShardsDeterministic(t *testing.T) {
	c := configFor(Lasso)
	a, _ := GenerateShards(c, 2, 3)
	b, _ := GenerateShards(c, 2, 3)
	if len(a[0].Examples) != len(b[0].Examples) {
		t.Fatal("shard sizes differ")
	}
	for i := range a[0].Examples {
		if a[0].Examples[i].Y != b[0].Examples[i].Y {
			t.Fatal("same seed produced different data")
		}
	}
}

// computeDelta is one COMP subtask's update at model.
func computeDelta(algo Algorithm, model []float64, shard *Shard, rng *rand.Rand) []float64 {
	delta, _ := ComputeFused(algo, nil, model, shard, rng, 0, nil)
	return delta
}

// TestTrainingReducesLoss is the core sanity check for every algorithm:
// iterating ComputeFused/apply must reduce the objective on the planted
// data.
func TestTrainingReducesLoss(t *testing.T) {
	for _, kind := range []Kind{MLR, Lasso, NMF, LDA} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c := configFor(kind)
			algo, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			shards, err := GenerateShards(c, 2, 11)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			model := algo.InitModel(rng)
			if len(model) != c.ModelSize() {
				t.Fatalf("model size %d, want %d", len(model), c.ModelSize())
			}
			lossBefore := algo.Loss(model, shards[0]) + algo.Loss(model, shards[1])
			iters := 30
			if kind == LDA {
				iters = 10
			}
			for it := 0; it < iters; it++ {
				for _, s := range shards {
					delta := computeDelta(algo, model, s, rng)
					if len(delta) != len(model) {
						t.Fatalf("delta size %d, want %d", len(delta), len(model))
					}
					for i := range model {
						model[i] += delta[i]
					}
				}
			}
			lossAfter := algo.Loss(model, shards[0]) + algo.Loss(model, shards[1])
			if math.IsNaN(lossAfter) || math.IsInf(lossAfter, 0) {
				t.Fatalf("loss diverged to %v", lossAfter)
			}
			if lossAfter >= lossBefore {
				t.Errorf("loss did not decrease: %.4f -> %.4f", lossBefore, lossAfter)
			}
		})
	}
}

func TestNMFModelStaysNonNegative(t *testing.T) {
	c := configFor(NMF)
	algo, _ := New(c)
	shards, _ := GenerateShards(c, 1, 2)
	rng := rand.New(rand.NewSource(1))
	model := algo.InitModel(rng)
	for it := 0; it < 10; it++ {
		delta := computeDelta(algo, model, shards[0], rng)
		for i := range model {
			model[i] += delta[i]
		}
	}
	for i, v := range model {
		if v < -1e-9 {
			t.Fatalf("model[%d] = %v, want non-negative factors", i, v)
		}
	}
}

func TestLassoProducesSparseModel(t *testing.T) {
	c := configFor(Lasso)
	c.Lambda = 0.05
	algo, _ := New(c)
	shards, _ := GenerateShards(c, 1, 9)
	rng := rand.New(rand.NewSource(1))
	model := algo.InitModel(rng)
	for it := 0; it < 200; it++ {
		delta := computeDelta(algo, model, shards[0], rng)
		for i := range model {
			model[i] += delta[i]
		}
	}
	zeros := 0
	for _, w := range model {
		if w == 0 {
			zeros++
		}
	}
	// The planted model uses only 4 features; L1 should zero out many of
	// the remaining 12.
	if zeros < 4 {
		t.Errorf("only %d exact zeros in lasso model, want sparsity", zeros)
	}
}

func TestLDAKeepsCountsPositive(t *testing.T) {
	c := configFor(LDA)
	algo, _ := New(c)
	shards, _ := GenerateShards(c, 1, 4)
	rng := rand.New(rand.NewSource(2))
	model := algo.InitModel(rng)
	for it := 0; it < 5; it++ {
		delta := computeDelta(algo, model, shards[0], rng)
		for i := range model {
			model[i] += delta[i]
		}
	}
	for i, v := range model {
		if v <= 0 {
			t.Fatalf("model[%d] = %v, want positive topic-word counts", i, v)
		}
	}
}

func TestModelSize(t *testing.T) {
	tests := []struct {
		kind Kind
		want int
	}{
		{MLR, 3 * 16},
		{Lasso, 16},
		{NMF, 3 * 16},
		{LDA, 3 * 16},
	}
	for _, tt := range tests {
		c := configFor(tt.kind)
		if got := c.ModelSize(); got != tt.want {
			t.Errorf("%s ModelSize = %d, want %d", tt.kind, got, tt.want)
		}
	}
}
