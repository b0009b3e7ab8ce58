package mlapp

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"harmony/internal/parallel"
	"harmony/internal/touched"
)

// referenceComputeFused is the dense pass ComputeFused replaced, kept as
// the oracle the sparse pass is compared against bit for bit: dst and
// every chunk's scratch are zero-filled whole, the reduce copies chunk 0
// and adds the others over the whole model, and the clamp visits every
// element. It shares only the kernels it is handed (an Algorithm's
// fusedPass, or perElementPass), which TestComputeFusedMatchesParent pins
// separately.
func referenceComputeFused(pass passFn, model []float64, shard *Shard, rng *rand.Rand, workers int) ([]float64, float64) {
	n := len(shard.Examples)
	chunks := fusedChunks(n)
	chunk, finalize := pass(shard, model, &Scratch{})
	dst := make([]float64, len(model))
	cs := make([]chunkScratch, chunks)
	for i := range cs {
		cs[i].rng = rand.New(&fusedSource{})
	}
	for i := range cs {
		seed := int64(i + 1)
		if rng != nil {
			seed = rng.Int63()
		}
		cs[i].rng.Seed(seed)
	}
	if chunks == 1 {
		lossSum, lossN := chunk(0, n, dst, &cs[0])
		return dst, finalize(dst, touched.Set{}, lossSum, lossN)
	}
	parallel.Run(chunks, parallel.Workers(workers), func(i int) {
		cs[i].delta = make([]float64, len(model))
		lo, hi := fusedBounds(n, chunks, i)
		cs[i].loss, cs[i].count = chunk(lo, hi, cs[i].delta, &cs[i])
	})
	copy(dst, cs[0].delta)
	lossSum, lossN := cs[0].loss, cs[0].count
	for c := 1; c < chunks; c++ {
		for j := range dst {
			dst[j] += cs[c].delta[j]
		}
		lossSum += cs[c].loss
		lossN += cs[c].count
	}
	return dst, finalize(dst, touched.Set{}, lossSum, lossN)
}

// passFn is the shape of Algorithm.fusedPass.
type passFn func(shard *Shard, model []float64, s *Scratch) (chunkFn, finalizeFn)

// perElementPass is algo's pass with the chunk kernel its arithmetic was
// first written as, kept as the oracle the fast kernels are compared
// against (TestKernelsMatchPerElementReference): every logit and numerator
// one chain of dependent adds, the learning-rate scale divided by the row
// count inside the innermost loop, and NMF's user factors solved by
// predicting every rating again for each (sweep, factor, rating). The
// finalize steps are the pass's own. LDA's is topicMajorPass with each
// topic's total summed in ascending word order: its arithmetic is the
// parent's, and its model and delta are topic-major.
func perElementPass(algo Algorithm) passFn {
	return func(shard *Shard, model []float64, s *Scratch) (chunkFn, finalizeFn) {
		chunk, finalize := algo.fusedPass(shard, model, s)
		n := float64(maxInt(len(shard.Examples), 1))
		switch a := algo.(type) {
		case *mlr:
			c := a.cfg.withDefaults()
			chunk = func(lo, hi int, grad []float64, cs *chunkScratch) (float64, int) {
				probs := cs.floats(c.Classes)
				var lossSum float64
				for _, ex := range shard.Examples[lo:hi] {
					perElementSoftmax(model, ex.X, c, probs)
					y := int(ex.Y)
					lossSum -= math.Log(math.Max(probs[y], 1e-12))
					for cl := 0; cl < c.Classes; cl++ {
						coef := probs[cl]
						if cl == y {
							coef -= 1
						}
						row := cl * c.Features
						for f, x := range ex.X {
							grad[row+f] -= c.LearningRate * coef * x / n
						}
					}
				}
				return lossSum, hi - lo
			}
		case *lasso:
			c := a.cfg.withDefaults()
			chunk = func(lo, hi int, grad []float64, _ *chunkScratch) (float64, int) {
				var lossSum float64
				for _, ex := range shard.Examples[lo:hi] {
					resid := dot(model, ex.X) - ex.Y
					lossSum += resid * resid / 2
					for f, x := range ex.X {
						grad[f] -= c.LearningRate * resid * x / n
					}
				}
				return lossSum, hi - lo
			}
		case *nmf:
			c := a.cfg.withDefaults()
			chunk = func(lo, hi int, grad []float64, cs *chunkScratch) (float64, int) {
				buf := cs.floats(c.Classes + c.Features)
				u, preds := buf[:c.Classes], buf[c.Classes:]
				var lossSum float64
				var lossN int
				for _, ex := range shard.Examples[lo:hi] {
					perElementSolveUser(model, ex.X, u, c)
					for f, x := range ex.X {
						preds[f] = perElementPredict(model, u, f, c)
						r := preds[f] - x
						lossSum += r * r
						lossN++
					}
					for k := 0; k < c.Classes; k++ {
						row := k * c.Features
						for f, x := range ex.X {
							g := -c.LearningRate * (preds[f] - x) * u[k] / n
							next := model[row+f] + grad[row+f] + g
							if next < 0 {
								g = -(model[row+f] + grad[row+f])
							}
							grad[row+f] += g
						}
					}
				}
				return lossSum, lossN
			}
		case *lda:
			return topicMajorPass(a.cfg, ascendingTotals)(shard, model, s)
		}
		return chunk, finalize
	}
}

// topicMajorPass is the LDA pass over a topic-major model — topic k's
// counts of the words at [k·Features, (k+1)·Features), the layout before
// the counts went word by word — with its topic totals taken by totals.
// It draws what the word-major pass draws and writes the same values at
// the transposed indices, so the two must agree bit for bit when totals
// sums in the order the word-major pass does (blockedTotals,
// TestLDAWordMajorMatchesTopicMajor).
func topicMajorPass(cfg Config, totals func(model []float64, features int, sums []float64)) passFn {
	c := cfg.withDefaults()
	return func(shard *Shard, model []float64, _ *Scratch) (chunkFn, finalizeFn) {
		const alphaDirichlet = 0.1
		base, invBase := make([]float64, c.Classes), make([]float64, c.Classes)
		totals(model, c.Features, base)
		for k, t := range base {
			invBase[k] = 1 / (t + 1)
		}
		chunk := func(lo, hi int, delta []float64, cs *chunkScratch) (float64, int) {
			probs, docCounts := make([]float64, c.Classes), make([]float64, c.Classes)
			topicTotals := append([]float64(nil), base...)
			invTotals := append([]float64(nil), invBase...)
			var lossSum float64
			var tokens int
			logProd := 1.0
			flushLog := func() {
				if logProd != 1.0 {
					lossSum -= math.Log(logProd)
					logProd = 1.0
				}
			}
			for _, doc := range shard.Examples[lo:hi] {
				clear(docCounts)
				assignments := make([]int, len(doc.Tokens))
				for ti, w := range doc.Tokens {
					var p float64
					for k := 0; k < c.Classes; k++ {
						probs[k] = model[k*c.Features+w] * invTotals[k]
						p += model[k*c.Features+w] * invBase[k]
					}
					p /= float64(c.Classes)
					logProd *= math.Max(p, 1e-12)
					if logProd < 1e-250 {
						flushLog()
					}
					tokens++
					assignments[ti] = sample(probs, cs.rng)
					docCounts[assignments[ti]]++
				}
				for ti, w := range doc.Tokens {
					old := assignments[ti]
					docCounts[old]--
					for k := 0; k < c.Classes; k++ {
						wordMass := model[k*c.Features+w] + delta[k*c.Features+w]
						probs[k] = (docCounts[k] + alphaDirichlet) * wordMass * invTotals[k]
					}
					next := sample(probs, cs.rng)
					assignments[ti] = next
					docCounts[next]++
					if next != old {
						delta[old*c.Features+w]--
						delta[next*c.Features+w]++
						topicTotals[old]--
						topicTotals[next]++
						invTotals[old] = 1 / (topicTotals[old] + 1)
						invTotals[next] = 1 / (topicTotals[next] + 1)
					}
				}
			}
			flushLog()
			return lossSum, tokens
		}
		finalize := func(delta []float64, _ touched.Set, lossSum float64, lossN int) float64 {
			for i := range delta {
				if model[i]+delta[i] < 0.01 {
					delta[i] = 0.01 - model[i]
				}
			}
			return lossSum / float64(maxInt(lossN, 1))
		}
		return chunk, finalize
	}
}

// ascendingTotals stores in sums[k] the sum of row k of the topic-major
// model, added in ascending word order from +0.
func ascendingTotals(model []float64, features int, sums []float64) {
	for k := range sums {
		var t float64
		for _, v := range model[k*features : (k+1)*features] {
			t += v
		}
		sums[k] = t
	}
}

// blockedTotals stores in sums[k] the total of row k of the topic-major
// model summed the way the word-major pass sums it (topicTotals): blocks of
// totalBlockWords words, groups of totalGroupBlocks blocks, then the
// groups, each in ascending order from +0.
func blockedTotals(model []float64, features int, sums []float64) {
	const groupWords = totalBlockWords * totalGroupBlocks
	for k := range sums {
		row := model[k*features : (k+1)*features]
		var total float64
		for g := 0; g < len(row); g += groupWords {
			var group float64
			for b := g; b < min(g+groupWords, len(row)); b += totalBlockWords {
				var block float64
				for _, v := range row[b:min(b+totalBlockWords, len(row))] {
					block += v
				}
				group += block
			}
			total += group
		}
		sums[k] = total
	}
}

// transpose returns the rows×cols row-major m as a cols×rows matrix.
func transpose(m []float64, rows, cols int) []float64 {
	t := make([]float64, len(m))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t[c*rows+r] = m[r*cols+c]
		}
	}
	return t
}

// TestLDAWordMajorMatchesTopicMajor trains every LDA case for ten
// iterations on a moving model — the pass's own update and a second
// pusher's, some of it below the floor — and at each compares the
// word-major pass ComputeFused runs, told what changed and not, with the
// topic-major oracle on the transposed model: the delta, transposed back,
// and the loss must agree by bit pattern at one worker and at four.
func TestLDAWordMajorMatchesTopicMajor(t *testing.T) {
	for _, cfg := range fusedCases {
		if cfg.Kind != LDA {
			continue
		}
		c := cfg.withDefaults()
		for _, workers := range []int{1, 4} {
			algo, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shards, err := GenerateShards(cfg, 1, 43)
			if err != nil {
				t.Fatal(err)
			}
			model := algo.InitModel(nil)
			rng, refRNG, other := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5)), rand.New(rand.NewSource(6))
			oracle := topicMajorPass(cfg, blockedTotals)
			scratch := &Scratch{}
			var delta []float64
			var changed touched.List
			for iter := 0; iter < 10; iter++ {
				if set := changed.Take(len(model)); iter%3 != 0 {
					scratch.Changed(set)
				}
				want, wantLoss := referenceComputeFused(oracle, transpose(model, c.Features, c.Classes), shards[0], refRNG, workers)
				want = transpose(want, c.Classes, c.Features)
				var loss float64
				delta, loss = ComputeFused(algo, delta, model, shards[0], rng, workers, scratch)
				if math.Float64bits(loss) != math.Float64bits(wantLoss) {
					t.Fatalf("%v workers %d iter %d: loss %v, topic-major %v", cfg, workers, iter, loss, wantLoss)
				}
				for i, d := range delta {
					if math.Float64bits(d) != math.Float64bits(want[i]) {
						t.Fatalf("%v workers %d iter %d: delta[%d] = %v, topic-major %v", cfg, workers, iter, i, d, want[i])
					}
					if d != 0 {
						model[i] += d
						changed.Add(uint32(i))
					}
				}
				for k := 0; k < 1+len(model)/200; k++ {
					i := other.Intn(len(model))
					model[i] -= other.Float64() * (model[i] + 0.5)
					changed.Add(uint32(i))
				}
			}
		}
	}
}

func perElementSoftmax(model, x []float64, c Config, out []float64) {
	maxLogit := math.Inf(-1)
	for cl := 0; cl < c.Classes; cl++ {
		var logit float64
		row := cl * c.Features
		for f, xv := range x {
			logit += model[row+f] * xv
		}
		out[cl] = logit
		if logit > maxLogit {
			maxLogit = logit
		}
	}
	var sum float64
	for cl := range out {
		out[cl] = math.Exp(out[cl] - maxLogit)
		sum += out[cl]
	}
	for cl := range out {
		out[cl] /= sum
	}
}

// perElementSolveUser is the solve without the Gram matrix: in-place
// multiplicative updates whose denominator predicts every rating from the
// current u.
func perElementSolveUser(model, x, u []float64, c Config) {
	for k := range u {
		u[k] = 0.5
	}
	for it := 0; it < 5; it++ {
		for k := 0; k < c.Classes; k++ {
			var num, den float64
			row := k * c.Features
			for f, xv := range x {
				num += model[row+f] * xv
				den += model[row+f] * perElementPredict(model, u, f, c)
			}
			if den > 1e-12 {
				u[k] *= num / den
			}
		}
	}
}

func perElementPredict(model, u []float64, f int, c Config) float64 {
	var p float64
	for k := 0; k < c.Classes; k++ {
		p += u[k] * model[k*c.Features+f]
	}
	return p
}

// fusedCases are the shapes the equivalence tests run: the four kernels
// at a model too small to be sparse, and LDA at a vocabulary large enough
// that an iteration touches under 1/16 of it — over one chunk, over
// several, with so many tokens that chunks overflow their record, and a
// live_comm worker's shard (half of 64 documents over 65536 words).
var fusedCases = []Config{
	{Kind: MLR, Features: 16, Classes: 4, Rows: 200, LearningRate: 0.2},
	{Kind: Lasso, Features: 16, Classes: 4, Rows: 200, LearningRate: 0.2},
	{Kind: NMF, Features: 16, Classes: 4, Rows: 200, LearningRate: 0.2},
	{Kind: LDA, Features: 16, Classes: 4, Rows: 200},
	{Kind: LDA, Features: 4096, Classes: 8, Rows: 40},
	{Kind: LDA, Features: 4096, Classes: 8, Rows: 12},
	{Kind: LDA, Features: 1024, Classes: 8, Rows: 64},
	{Kind: LDA, Features: 65536, Classes: 8, Rows: 32},
}

// TestComputeFusedMatchesDenseReference drives every case for ten
// iterations beside the dense oracle, on one shared model that the pass's
// own update and a second, simulated pusher change in between — the
// second pusher drives elements below LDA's floor, the undershoot the
// clamp must heal exactly where the dense clamp would. Deltas and losses
// must agree by bit pattern, the touched set must cover every element that
// is not +0, and an LDA pass over 4096 words or more that was not told what
// changed (the first, and every fourth: a full reply) must report a sparse
// set all the same.
func TestComputeFusedMatchesDenseReference(t *testing.T) {
	for _, cfg := range fusedCases {
		wantSparse := cfg.Kind == LDA && cfg.Features >= 4096
		sparsePasses := 0
		for _, seed := range []int64{1, 2, 3} {
			for _, workers := range []int{1, 4} {
				algo, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				shards, err := GenerateShards(cfg, 1, 40+seed)
				if err != nil {
					t.Fatal(err)
				}
				model := algo.InitModel(rand.New(rand.NewSource(seed)))
				size := len(model)
				rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				other := rand.New(rand.NewSource(100 + seed))
				scratch := &Scratch{}
				var delta []float64
				var changed touched.List
				for iter := 0; iter < 10; iter++ {
					told := iter%4 != 0
					if told {
						scratch.Changed(changed.Take(size))
					} else {
						changed.Take(size)
					}
					want, wantLoss := referenceComputeFused(algo.fusedPass, model, shards[0], refRNG, workers)
					var loss float64
					delta, loss = ComputeFused(algo, delta, model, shards[0], rng, workers, scratch)
					if math.Float64bits(loss) != math.Float64bits(wantLoss) {
						t.Fatalf("%v seed %d workers %d iter %d: loss %x, want %x", cfg, seed, workers, iter,
							math.Float64bits(loss), math.Float64bits(wantLoss))
					}
					set := scratch.Touched()
					if !told && wantSparse && set.All() {
						t.Fatalf("%v iter %d: an untold pass reported every element touched", cfg, iter)
					}
					if !set.All() {
						sparsePasses++
					}
					next := set.Indices()
					for i := range delta {
						if math.Float64bits(delta[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%v seed %d workers %d iter %d: delta[%d] = %v, want %v", cfg, seed, workers, iter, i, delta[i], want[i])
						}
						if len(next) > 0 && int(next[0]) == i {
							if len(next) > 1 && next[1] <= next[0] {
								t.Fatalf("%v iter %d: touched set not ascending at %d", cfg, iter, i)
							}
							next = next[1:]
						} else if !set.All() && math.Float64bits(delta[i]) != 0 {
							t.Fatalf("%v iter %d: delta[%d] = %v is not in the touched set", cfg, iter, i, delta[i])
						}
					}
					if len(next) > 0 {
						t.Fatalf("%v iter %d: touched set names %d beyond the model", cfg, iter, next[0])
					}
					// Apply the update the way the servers would, logging the
					// elements that travelled, then the other pusher's: a few
					// elements, some of them pushed below the floor.
					for i := range model {
						if math.Float64bits(delta[i]) != 0 {
							model[i] += delta[i]
							changed.Add(uint32(i))
						}
					}
					for k := 0; k < 1+size/200; k++ {
						i := other.Intn(size)
						model[i] -= other.Float64() * (model[i] + 0.5)
						changed.Add(uint32(i))
					}
				}
			}
		}
		if (sparsePasses > 0) != wantSparse {
			t.Errorf("%v: %d sparse passes, want sparse passes: %v", cfg, sparsePasses, wantSparse)
		}
	}
}

// fusedDigest hashes six training iterations of loss and delta bits, each
// pass computed by step at the model the previous updates left.
func fusedDigest(t *testing.T, cfg Config, step func(algo Algorithm, model []float64, shard *Shard, rng *rand.Rand) ([]float64, float64)) uint64 {
	t.Helper()
	algo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := GenerateShards(cfg, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	model := algo.InitModel(rng)
	h := fnv.New64a()
	for iter := 0; iter < 6; iter++ {
		delta, loss := step(algo, model, shards[0], rng)
		hashUint64(h, math.Float64bits(loss))
		for i, d := range delta {
			hashUint64(h, math.Float64bits(d))
			model[i] += d
		}
	}
	return h.Sum64()
}

// TestComputeFusedMatchesParent pins the kernels themselves by digest.
// parent is the digest of the arithmetic of the commit before the touched
// set existed (dense reduce, per-call buffers, per-element kernels). Every
// kernel has it through the per-element oracle only — the oracle reproduced
// that commit's digests, which proves it is that commit's arithmetic — and
// the kernels ComputeFused runs are pinned by now, moved for these reasons:
//
//	MLR   the step lr·coef/n is rounded once per (example, class) and then
//	      multiplied by x, where the parent rounded lr·coef·x and then
//	      divided; the logits (four chains, each in its own order) kept
//	      their bits.
//	Lasso the same hoist, lr·resid/n per example.
//	NMF   the hoist, −lr·u_k/rows per (example, factor), and the solve's
//	      denominators: G_k·u sums K products of Gram entries where the
//	      parent summed F products of predictions, the same real number
//	      rounded along another path (numerators and predictions kept
//	      their bits).
//	LDA   the counts went word-major: the same values at transposed
//	      indices, so the digest, which hashes them in index order, moved;
//	      and each topic total became a sum of group sums of block sums,
//	      the same real number rounded along another path
//	      (TestLDAWordMajorMatchesTopicMajor holds the pass to the
//	      topic-major oracle, summing in that order, bit for bit).
//
// Both columns were re-taken, with the kernels and the oracle untouched,
// when the generator moved to one stream per row: the data they train on
// changed then, and with it every digest.
func TestComputeFusedMatchesParent(t *testing.T) {
	golden := []struct{ parent, now uint64 }{
		{0xd0e024b84921cbef, 0xc942d1795f1eaee7},
		{0x7c469b442f912e09, 0xd33f3584f95d3bac},
		{0x62296cdd799a68cd, 0xd9b6ced57d8133d9},
		{0xed5ba1fca879d47c, 0x45ddd4eb29f1eb9},
		{0xa1aac93716dec7d, 0xcd25f48a40a2ba81},
		{0x29eba6d87badd2dd, 0xdb7359c5e6699754},
	}
	for c, cfg := range fusedCases[:len(golden)] {
		for _, workers := range []int{1, 4} {
			scratch := &Scratch{}
			var delta []float64
			got := fusedDigest(t, cfg, func(algo Algorithm, model []float64, shard *Shard, rng *rand.Rand) ([]float64, float64) {
				var loss float64
				delta, loss = ComputeFused(algo, delta, model, shard, rng, workers, scratch)
				return delta, loss
			})
			if got != golden[c].now {
				t.Errorf("%v workers %d: digest %#x, want %#x", cfg, workers, got, golden[c].now)
			}
			oracle := fusedDigest(t, cfg, func(algo Algorithm, model []float64, shard *Shard, rng *rand.Rand) ([]float64, float64) {
				return referenceComputeFused(perElementPass(algo), model, shard, rng, workers)
			})
			if oracle != golden[c].parent {
				t.Errorf("%v workers %d: per-element oracle digest %#x, want the parent's %#x", cfg, workers, oracle, golden[c].parent)
			}
		}
	}
}

// kernelCases are the shapes the fast kernels are compared with the
// per-element oracle on: one live_mix worker's shard of MLR, Lasso and NMF
// (benchmarks/live.go: half the job's rows); an NMF whose rank is not a
// multiple of four, so rowDots' single-chain tail runs too; and the three
// 200-row fusedCases, because the live shards' row counts are powers of two
// and dividing by one of those rounds nothing — there the hoisted MLR and
// Lasso steps have the per-element kernels' bits.
var kernelCases = append([]Config{
	{Kind: MLR, Features: 128, Classes: 16, Rows: 1024},
	{Kind: Lasso, Features: 2048, Rows: 512},
	{Kind: NMF, Features: 128, Classes: 16, Rows: 256},
	{Kind: NMF, Features: 33, Classes: 7, Rows: 100, LearningRate: 0.2},
}, fusedCases[:3]...)

// TestKernelsMatchPerElementReference trains every case for ten iterations
// and at each compares the pass ComputeFused runs, at one worker and at
// four, with the per-element oracle started from the same model. The two
// differ in rounding only, so deltas and loss must agree to 1e-12 relative
// (1e-15 absolute near zero). What the nonlinear steps promise holds
// exactly, not within a tolerance: an NMF factor is never pushed below zero,
// and Lasso's soft threshold zeroes the same weights on both sides unless
// the weight is within the tolerance of the threshold.
func TestKernelsMatchPerElementReference(t *testing.T) {
	const rel, abs = 1e-12, 1e-15
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))+abs
	}
	for _, cfg := range kernelCases {
		for _, seed := range []int64{1, 2, 3} {
			algo, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shards, err := GenerateShards(cfg, 1, 40+seed)
			if err != nil {
				t.Fatal(err)
			}
			model := algo.InitModel(rand.New(rand.NewSource(seed)))
			var scratch [2]Scratch
			var deltas [2][]float64
			for iter := 0; iter < 10; iter++ {
				want, wantLoss := referenceComputeFused(perElementPass(algo), model, shards[0], nil, 4)
				for w, workers := range []int{1, 4} {
					var loss float64
					deltas[w], loss = ComputeFused(algo, deltas[w], model, shards[0], nil, workers, &scratch[w])
					if !near(loss, wantLoss) {
						t.Fatalf("%v seed %d workers %d iter %d: loss %v, per-element %v", cfg, seed, workers, iter, loss, wantLoss)
					}
					for i, d := range deltas[w] {
						if !near(d, want[i]) {
							t.Fatalf("%v seed %d workers %d iter %d: delta[%d] = %v, per-element %v (off by %g)",
								cfg, seed, workers, iter, i, d, want[i], d-want[i])
						}
						next, wantNext := model[i]+d, model[i]+want[i]
						if cfg.Kind == NMF && next < 0 {
							t.Fatalf("%v iter %d: factor %d pushed to %v, below zero", cfg, iter, i, next)
						}
						if cfg.Kind == Lasso && (next == 0) != (wantNext == 0) && math.Abs(next-wantNext) > abs {
							t.Fatalf("%v iter %d: weight %d thresholded to %v, per-element %v", cfg, iter, i, next, wantNext)
						}
					}
				}
				for i := range model {
					model[i] += deltas[0][i]
				}
			}
		}
	}
}

// TestSolveUserIsGaussSeidel pins the update order the Gram identity rests
// on: a factor updated in a sweep is what the next factor's denominator in
// the same sweep reads. The in-place per-element solve is the reference; a
// Jacobi solve (every denominator of a sweep from the factors the sweep
// started with) on the same input lands far outside the tolerance, so a
// rewrite that hoisted G·u out of the inner loop would fail here.
func TestSolveUserIsGaussSeidel(t *testing.T) {
	cfg := Config{Kind: NMF, Features: 24, Classes: 6, Rows: 8}.withDefaults()
	shards, err := GenerateShards(cfg, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	model := (&nmf{cfg: cfg}).InitModel(rand.New(rand.NewSource(3)))
	k := cfg.Classes
	g := make([]float64, k*k)
	gram(model, k, g)
	u, num, want, jacobi := make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, k)
	for r, ex := range shards[0].Examples {
		solveUser(model, g, ex.X, u, num)
		perElementSolveUser(model, ex.X, want, cfg)
		for j := range jacobi {
			jacobi[j] = 0.5
		}
		for it := 0; it < 5; it++ {
			prev := append([]float64(nil), jacobi...)
			for j := range jacobi {
				jacobi[j] *= num[j] / dot(g[j*k:(j+1)*k], prev)
			}
		}
		var apart float64
		for j := range u {
			if math.Abs(u[j]-want[j]) > 1e-12*math.Abs(want[j]) {
				t.Errorf("row %d: u[%d] = %v, in-place per-element solve %v", r, j, u[j], want[j])
			}
			apart = math.Max(apart, math.Abs(jacobi[j]-want[j])/want[j])
		}
		if apart < 1e-3 {
			t.Errorf("row %d: a Jacobi solve is within %g of the in-place one; the input cannot tell them apart", r, apart)
		}
	}
}

// TestComputeFusedSteadyStateAllocs: with a reused Scratch and dst a pass
// allocates a constant handful of objects — the kernel's closures and the
// worker pool's goroutines — whatever the model size and chunk count.
func TestComputeFusedSteadyStateAllocs(t *testing.T) {
	for _, cfg := range []Config{
		{Kind: MLR, Features: 16, Classes: 4, Rows: 64},
		{Kind: Lasso, Features: 16, Rows: 64},
		{Kind: NMF, Features: 16, Classes: 4, Rows: 64},
		{Kind: LDA, Features: 16, Classes: 4, Rows: 64},
		{Kind: MLR, Features: 64, Classes: 8, Rows: 1024},
		{Kind: Lasso, Features: 512, Rows: 1024},
		{Kind: NMF, Features: 64, Classes: 4, Rows: 1024},
		{Kind: LDA, Features: 8192, Classes: 8, Rows: 1024},
	} {
		algo, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shards, err := GenerateShards(cfg, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		model := algo.InitModel(rng)
		for _, workers := range []int{1, 4} {
			scratch := &Scratch{}
			var delta []float64
			pass := func() {
				scratch.Changed(scratch.Touched())
				delta, _ = ComputeFused(algo, delta, model, shards[0], rng, workers, scratch)
			}
			pass()
			pass()
			// Two kernel closures and the pool's body, plus two objects a
			// pool goroutine.
			if allocs, limit := testing.AllocsPerRun(5, pass), float64(1+2*workers); allocs > limit {
				t.Errorf("%v rows=%d workers=%d: %.0f allocations a pass, want at most %.0f", cfg.Kind, cfg.Rows, workers, allocs, limit)
			}
		}
	}
}

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

// TestTopicTotalsRefreshMatchesFreshSum: totals a Scratch keeps up to date
// from sparse change sets must have the bits of a fresh sum of the same
// model, and of the two-level sum written out per topic — over shapes whose
// last block and last group are partial — and a new buffer, or an untold
// call, must be summed again whatever it is told.
func TestTopicTotalsRefreshMatchesFreshSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const groupWords = totalBlockWords * totalGroupBlocks
	for _, shape := range []struct{ words, topics int }{
		{3*groupWords + 2*totalBlockWords + 5, 3}, // partial block and group
		{groupWords, 8}, // one whole group
		{5, 4},          // one partial block
		{4096, 8},
	} {
		model := make([]float64, shape.words*shape.topics)
		for i := range model {
			model[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))
		}
		var s Scratch
		got, want := make([]float64, shape.topics), make([]float64, shape.topics)
		check := func(what string, changed touched.Set) {
			t.Helper()
			s.topicTotals(model, changed, got)
			new(Scratch).topicTotals(model, touched.Set{}, want)
			blocked := make([]float64, shape.topics)
			blockedTotals(transpose(model, shape.words, shape.topics), shape.words, blocked)
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) || math.Float64bits(want[k]) != math.Float64bits(blocked[k]) {
					t.Fatalf("%d×%d %s: total %d is %v, fresh sum %v, two-level sum %v", shape.words, shape.topics, what, k, got[k], want[k], blocked[k])
				}
			}
		}
		check("first call", touched.Set{})
		var changed touched.List
		for round := 0; round < 20; round++ {
			for n := rng.Intn(1 + len(model)/touched.Fraction); n > 0; n-- {
				i := rng.Intn(len(model))
				if n == 1 {
					i = len(model) - 1 // the last, partial block
				}
				model[i] += rng.NormFloat64() * 1e3
				changed.Add(uint32(i))
			}
			check("told", changed.Take(len(model)))
		}
		model = append([]float64(nil), model...)
		model[0]++
		check("a new buffer, told nothing", new(touched.List).Take(len(model)))
		model[len(model)-1]++
		check("untold", touched.Set{})
	}
}

// TestRowDotsKeepsEachRowsOrder: four chains advancing together must give
// every row the bits of its own single-chain dot product, for row counts on
// both sides of the group of four — and so must the Gram matrix built from
// them, which is also symmetric to the bit.
func TestRowDotsKeepsEachRowsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, rows := range []int{1, 3, 4, 7, 8, 16} {
		const width = 257
		m, x := make([]float64, rows*width), make([]float64, width)
		for i := range m {
			m[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))
		}
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)))
		}
		got := make([]float64, rows)
		rowDots(m, width, x, got)
		for k := range got {
			var want float64
			for f, v := range x {
				want += m[k*width+f] * v
			}
			if math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Errorf("%d rows: row %d dots to %v, want %v", rows, k, got[k], want)
			}
		}
		g := make([]float64, rows*rows)
		gram(m, rows, g)
		for a := 0; a < rows; a++ {
			for b := 0; b < rows; b++ {
				var want float64
				lo, hi := minInt(a, b), maxInt(a, b)
				for f := 0; f < width; f++ {
					want += m[hi*width+f] * m[lo*width+f]
				}
				if math.Float64bits(g[a*rows+b]) != math.Float64bits(want) {
					t.Errorf("%d rows: gram[%d][%d] = %v, want %v", rows, a, b, g[a*rows+b], want)
				}
			}
		}
	}
}
