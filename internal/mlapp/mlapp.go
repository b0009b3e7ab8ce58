// Package mlapp implements the four classical ML training algorithms of
// Table I — multinomial logistic regression, lasso regression,
// non-negative matrix factorization and latent Dirichlet allocation —
// with synthetic dataset generators.
//
// These are real implementations (genuine gradients, coordinate updates
// and Gibbs sampling), scaled to laptop-size problems: the live Harmony
// runtime trains them through the Parameter-Server push/pull path to
// demonstrate that subtask decomposition works on actual computation, as
// the substitution notes in DESIGN.md §2 describe.
package mlapp

import (
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"strings"

	"harmony/internal/parallel"
)

// Kind names an algorithm.
type Kind int

// Algorithms of Table I.
const (
	MLR Kind = iota + 1
	Lasso
	NMF
	LDA
)

func (k Kind) String() string {
	switch k {
	case MLR:
		return "MLR"
	case Lasso:
		return "Lasso"
	case NMF:
		return "NMF"
	case LDA:
		return "LDA"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps an algorithm name ("mlr", "Lasso", "NMF", "lda" — case
// insensitive) to its Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "mlr":
		return MLR, nil
	case "lasso":
		return Lasso, nil
	case "nmf":
		return NMF, nil
	case "lda":
		return LDA, nil
	default:
		return 0, fmt.Errorf("mlapp: unknown algorithm %q", s)
	}
}

// Example is one training row: a dense feature vector with a label
// (class index for MLR, regression target for Lasso). NMF reuses X as a
// row of the ratings matrix; LDA uses Tokens instead.
type Example struct {
	X      []float64
	Y      float64
	Tokens []int
}

// Shard is one worker's partition of the input data.
type Shard struct {
	Kind     Kind
	Examples []Example
	// RowOffset is the shard's first global row index (NMF needs it to
	// address per-row factors).
	RowOffset int
}

// Config sizes a synthetic problem.
type Config struct {
	Kind Kind
	// Features is the input dimension (vocabulary size for LDA).
	Features int
	// Classes is the class count for MLR, the factorization rank for
	// NMF, and the topic count for LDA; ignored by Lasso.
	Classes int
	// Rows is the total number of examples across all shards.
	Rows int
	// Lambda is the L1 penalty for Lasso.
	Lambda float64
	// LearningRate scales gradient steps.
	LearningRate float64
}

func (c Config) withDefaults() Config {
	if c.Features <= 0 {
		c.Features = 32
	}
	if c.Classes <= 0 {
		c.Classes = 4
	}
	if c.Rows <= 0 {
		c.Rows = 256
	}
	if c.Lambda <= 0 {
		c.Lambda = 0.01
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	return c
}

// Model dimensions per algorithm.
//
//	MLR:   Classes × Features weight matrix (row-major)
//	Lasso: Features weights
//	NMF:   Classes × Features item-factor matrix (row-major); per-row
//	       user factors are worker-local state
//	LDA:   Features × Classes word-topic counts (row-major): word w's
//	       Classes counts sit together at [w·Classes, (w+1)·Classes), so
//	       a token's walk reads them at unit stride
func (c Config) ModelSize() int {
	c = c.withDefaults()
	switch c.Kind {
	case Lasso:
		return c.Features
	default:
		return c.Classes * c.Features
	}
}

// Algorithm trains one model kind: ComputeFused derives an additive
// model update and the objective from a shard (the COMP subtask) through
// the algorithm's fused chunk kernel. The implementations are the four
// New returns.
type Algorithm interface {
	// Kind identifies the algorithm.
	Kind() Kind
	// InitModel returns the initial parameter vector.
	InitModel(rng *rand.Rand) []float64
	// Loss evaluates the objective on the shard (lower is better; LDA
	// reports negative log-likelihood).
	Loss(model []float64, shard *Shard) float64
	// fusedPass returns the chunk and finalize functions of one fused
	// gradient+loss pass over shard at model (fused.go); s backs whatever
	// the pass shares across chunks.
	fusedPass(shard *Shard, model []float64, s *Scratch) (chunk chunkFn, finalize finalizeFn)
}

// New constructs the algorithm for a configuration.
func New(c Config) (Algorithm, error) {
	c = c.withDefaults()
	switch c.Kind {
	case MLR:
		return &mlr{cfg: c}, nil
	case Lasso:
		return &lasso{cfg: c}, nil
	case NMF:
		return &nmf{cfg: c}, nil
	case LDA:
		return &lda{cfg: c}, nil
	default:
		return nil, fmt.Errorf("mlapp: unknown kind %d", int(c.Kind))
	}
}

// GenerateShards builds synthetic training data split into n shards: shard
// i is GenerateShard(c, n, i, seed). The data is drawn from a planted model
// so training demonstrably reduces the objective.
func GenerateShards(c Config, n int, seed int64) ([]*Shard, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mlapp: %d shards, need > 0", n)
	}
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i], _ = GenerateShard(c, n, i, seed) // 0 <= i < n: no error
	}
	return shards, nil
}

// GenerateShard builds shard i of the n that GenerateShards splits the
// data into, and nothing else. Row r is drawn from its own stream, seeded
// from (seed, r), so a row has the same bits whatever the shard count, and
// the shard's rows are built in chunks on all cores with the same bits at
// any parallelism.
func GenerateShard(c Config, n, i int, seed int64) (*Shard, error) {
	return generateShard(c, n, i, seed, 0)
}

// genChunkRows is how many rows one unit of generateShard's pool draws.
const genChunkRows = 32

// generateShard is GenerateShard on at most workers goroutines (values
// below 1 select GOMAXPROCS).
func generateShard(c Config, n, i int, seed int64, workers int) (*Shard, error) {
	c = c.withDefaults()
	if n <= 0 || i < 0 || i >= n {
		return nil, fmt.Errorf("mlapp: shard %d of %d", i, n)
	}
	// The split: ceil(Rows/n) rows a shard, the remainder in the last one
	// that reaches Rows, and one row (past Rows) for each shard after it.
	per, offset, count := (c.Rows+n-1)/n, 0, 0
	for k := 0; k <= i; k++ {
		offset += count
		count = max(min(per, c.Rows-offset), 1)
	}
	// The planted parameters depend on neither the row nor the generator:
	// one table per shard, not a sine per (row, class, feature).
	var planted []float64
	if c.Kind == MLR || c.Kind == NMF {
		planted = plantedTable(c.Classes, c.Features)
	}
	shard := &Shard{Kind: c.Kind, RowOffset: offset, Examples: make([]Example, count)}
	parallel.Run((count+genChunkRows-1)/genChunkRows, parallel.Workers(workers), func(chunk int) {
		var src randv2.PCG
		rng := randv2.New(&src)
		lo := chunk * genChunkRows
		for r := lo; r < min(lo+genChunkRows, count); r++ {
			// (seed, row) go through splitmix64's finalizer first, so that
			// neighbouring rows do not start from neighbouring PCG states.
			src.Seed(mix64(uint64(seed)), mix64(uint64(seed)+uint64(offset+r+1)*0x9e3779b97f4a7c15))
			shard.Examples[r] = genExample(c, rng, planted)
		}
	})
	return shard, nil
}

// mix64 is splitmix64's output function, a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genExample draws one row; planted is plantedTable for the kinds whose
// ground truth is a parameter matrix (MLR, NMF).
func genExample(c Config, rng *randv2.Rand, planted []float64) Example {
	switch c.Kind {
	case LDA:
		// Documents with topic-skewed token distributions.
		topic := rng.IntN(c.Classes)
		nTokens := 20 + rng.IntN(20)
		tokens := make([]int, nTokens)
		for t := range tokens {
			if rng.Float64() < 0.7 {
				// Token from the planted topic's preferred band.
				band := c.Features / c.Classes
				tokens[t] = topic*band + rng.IntN(maxInt(band, 1))
			} else {
				tokens[t] = rng.IntN(c.Features)
			}
		}
		return Example{Tokens: tokens}
	case NMF:
		// A ratings row generated from planted low-rank factors.
		x := make([]float64, c.Features)
		u := make([]float64, c.Classes)
		for k := range u {
			u[k] = rng.Float64()
		}
		for f := range x {
			var v float64
			for k := 0; k < c.Classes; k++ {
				v += u[k] * planted[k*c.Features+f]
			}
			x[f] = v + 0.05*rng.NormFloat64()
			if x[f] < 0 {
				x[f] = 0
			}
		}
		return Example{X: x}
	default:
		x := make([]float64, c.Features)
		for f := range x {
			x[f] = rng.NormFloat64()
		}
		if c.Kind == Lasso {
			// Sparse planted weights: only the first few features matter.
			var y float64
			for f := 0; f < minInt(4, c.Features); f++ {
				y += float64(f+1) * x[f]
			}
			return Example{X: x, Y: y + 0.01*rng.NormFloat64()}
		}
		// MLR: class from a planted linear model.
		best, bestScore := 0, math.Inf(-1)
		for cl := 0; cl < c.Classes; cl++ {
			var score float64
			for f := range x {
				score += planted[cl*c.Features+f] * x[f]
			}
			if score > bestScore {
				bestScore = score
				best = cl
			}
		}
		return Example{X: x, Y: float64(best)}
	}
}

// plantedFactor is a deterministic pseudo-random ground-truth parameter.
func plantedFactor(k, f, features int) float64 {
	v := math.Sin(float64(k*features+f)*12.9898) * 43758.5453
	return v - math.Floor(v)
}

// plantedTable is plantedFactor for every (k, f), row-major.
func plantedTable(classes, features int) []float64 {
	t := make([]float64, classes*features)
	for i := range t {
		t[i] = plantedFactor(i/features, i%features, features)
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
