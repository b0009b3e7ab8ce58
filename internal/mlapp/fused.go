package mlapp

import (
	"math"
	"math/rand"

	"harmony/internal/parallel"
)

// This file is the multicore COMP kernel: one fused pass over the shard
// computes the model update and the objective together, chunked across a
// bounded core pool. The executor runs one COMP subtask at a time
// (§IV-A) precisely because a COMP subtask is assumed to saturate the
// machine — this kernel makes that assumption true.
//
// Determinism contract (same as internal/parallel): chunk boundaries and
// per-chunk RNG seeds are pure functions of the shard size and the
// caller's RNG stream, each chunk accumulates into its own scratch delta,
// and the partials are reduced on one goroutine in ascending chunk
// order. Results are therefore bit-identical at any parallelism.
//
// The chunked kernels are the unit of semantics: per-example work reads
// only the pulled model (never the partially-accumulated delta),
// nonlinear steps (Lasso's proximal update, NMF's and LDA's
// non-negativity floors) run once per pass on the reduced delta, and LDA
// runs an independent collapsed-Gibbs sweep per chunk from per-chunk
// seeds (the standard approximate distributed Gibbs formulation). The
// serial Loss methods are the reference for the fused objective.

const (
	// fusedChunkRows is the minimum chunk granularity: chunks never get
	// smaller than this, so tiny shards stay on the sequential path.
	fusedChunkRows = 16
	// fusedMaxChunks bounds the scratch arena at fusedMaxChunks×modelSize
	// floats. Both constants depend only on the shard size, never on the
	// worker count — chunk geometry is part of the determinism contract.
	fusedMaxChunks = 64
)

// fusedChunks reports the chunk count for an n-example shard.
func fusedChunks(n int) int {
	if n <= fusedChunkRows {
		return 1
	}
	c := (n + fusedChunkRows - 1) / fusedChunkRows
	if c > fusedMaxChunks {
		c = fusedMaxChunks
	}
	return c
}

// fusedBounds returns chunk i's half-open example range, splitting n rows
// as evenly as possible (the first n%chunks chunks take one extra row).
func fusedBounds(n, chunks, i int) (lo, hi int) {
	base := n / chunks
	extra := n % chunks
	lo = i*base + minInt(i, extra)
	hi = lo + base
	if i < extra {
		hi++
	}
	return lo, hi
}

// chunkFn computes one chunk's contribution: the additive update for
// examples [lo,hi) accumulated into delta (pre-zeroed), plus the chunk's
// unnormalized loss sum and term count.
type chunkFn func(lo, hi int, delta []float64, rng *rand.Rand) (lossSum float64, lossN int)

// finalizeFn runs once on the reduced delta (nonlinear steps, clamps) and
// turns the summed loss terms into the objective value.
type finalizeFn func(delta []float64, lossSum float64, lossN int) float64

// Scratch is the reusable arena for ComputeFused: per-chunk partial
// deltas, loss terms, and reusable per-chunk RNGs. The zero value is
// ready to use; a caller that iterates (the live worker) keeps one
// Scratch per job so the steady-state pass allocates nothing.
type Scratch struct {
	deltas [][]float64
	loss   []float64
	count  []int
	rngs   []*rand.Rand
}

// ensure sizes the arena for chunks×modelSize without shrinking capacity.
func (s *Scratch) ensure(chunks, modelSize int) {
	if cap(s.deltas) < chunks {
		s.deltas = make([][]float64, chunks)
	}
	s.deltas = s.deltas[:chunks]
	for i := range s.deltas {
		if cap(s.deltas[i]) < modelSize {
			s.deltas[i] = make([]float64, modelSize)
		}
		s.deltas[i] = s.deltas[i][:modelSize]
	}
	if cap(s.loss) < chunks {
		s.loss = make([]float64, chunks)
		s.count = make([]int, chunks)
	}
	s.loss = s.loss[:chunks]
	s.count = s.count[:chunks]
}

// rng returns the i-th cached generator seeded to seed.
func (s *Scratch) rng(i int, seed int64) *rand.Rand {
	for len(s.rngs) <= i {
		s.rngs = append(s.rngs, rand.New(&fusedSource{}))
	}
	s.rngs[i].Seed(seed)
	return s.rngs[i]
}

// fusedSource is the chunk generator: splitmix64, chosen for its O(1)
// seeding. math/rand's default source initializes a ~600-word table on
// every Seed, and the kernel reseeds one generator per chunk per
// iteration — with the default source that tax showed up as ~10% of an
// LDA COMP subtask. Chunk randomness is part of the fused kernel's own
// semantics (the chunked Gibbs sweep), so it owes no stream
// compatibility to math/rand's source.
type fusedSource struct{ state uint64 }

func (s *fusedSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *fusedSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *fusedSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// ComputeFused runs the fused gradient+loss pass over the shard on at
// most workers goroutines (values below 1 select GOMAXPROCS) and returns
// the update written into dst (grown when needed) together with the
// objective at model. scratch may be nil for one-shot callers; iterating
// callers pass a reused Scratch. The delta and loss are bit-identical at
// any workers setting.
func ComputeFused(algo Algorithm, dst, model []float64, shard *Shard, rng *rand.Rand, workers int, scratch *Scratch) ([]float64, float64) {
	n := len(shard.Examples)
	chunks := fusedChunks(n)
	chunk, finalize, usesRNG := algo.fusedPass(shard, model)
	dst = deltaBuf(dst, len(model))
	if usesRNG && scratch == nil {
		scratch = &Scratch{}
	}

	if chunks == 1 {
		// Single-chunk fast path: compute straight into dst. Bit-identical
		// to the scratch path because reduction copies (not adds) chunk 0.
		var crng *rand.Rand
		if usesRNG {
			seed := int64(1)
			if rng != nil {
				seed = rng.Int63()
			}
			crng = scratch.rng(0, seed)
		}
		lossSum, lossN := chunk(0, n, dst, crng)
		return dst, finalize(dst, lossSum, lossN)
	}

	if scratch == nil {
		scratch = &Scratch{}
	}
	scratch.ensure(chunks, len(model))
	// Per-chunk generators are seeded sequentially from the caller's RNG
	// before the parallel region, so the stream consumed per iteration is
	// independent of the worker count (and Scratch is not mutated
	// concurrently). Deterministic kernels skip RNG setup entirely.
	if usesRNG {
		for i := 0; i < chunks; i++ {
			seed := int64(i + 1)
			if rng != nil {
				seed = rng.Int63()
			}
			scratch.rng(i, seed)
		}
	}
	parallel.Run(chunks, parallel.Workers(workers), func(i int) {
		d := scratch.deltas[i]
		for j := range d {
			d[j] = 0
		}
		lo, hi := fusedBounds(n, chunks, i)
		var crng *rand.Rand
		if usesRNG {
			crng = scratch.rngs[i]
		}
		scratch.loss[i], scratch.count[i] = chunk(lo, hi, d, crng)
	})
	// Deterministic reduction: ascending chunk order on this goroutine.
	// Chunk 0 is copied, not added, so the single-chunk fast path above
	// produces the same bits (0 + -0 would flip the sign bit).
	copy(dst, scratch.deltas[0])
	lossSum, lossN := scratch.loss[0], scratch.count[0]
	for c := 1; c < chunks; c++ {
		d := scratch.deltas[c]
		for j := range dst {
			dst[j] += d[j]
		}
		lossSum += scratch.loss[c]
		lossN += scratch.count[c]
	}
	return dst, finalize(dst, lossSum, lossN)
}

// --- per-algorithm fused kernels ---------------------------------------

func (m *mlr) fusedPass(shard *Shard, model []float64) (chunkFn, finalizeFn, bool) {
	c := m.cfg.withDefaults()
	n := float64(maxInt(len(shard.Examples), 1))
	chunk := func(lo, hi int, grad []float64, _ *rand.Rand) (float64, int) {
		probs := make([]float64, c.Classes)
		var lossSum float64
		for _, ex := range shard.Examples[lo:hi] {
			softmax(model, ex.X, c, probs)
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
	finalize := func(_ []float64, lossSum float64, lossN int) float64 {
		return lossSum / float64(maxInt(lossN, 1))
	}
	return chunk, finalize, false
}

func (l *lasso) fusedPass(shard *Shard, model []float64) (chunkFn, finalizeFn, bool) {
	c := l.cfg.withDefaults()
	n := float64(maxInt(len(shard.Examples), 1))
	chunk := func(lo, hi int, grad []float64, _ *rand.Rand) (float64, int) {
		var lossSum float64
		for _, ex := range shard.Examples[lo:hi] {
			pred := dot(model, ex.X)
			resid := pred - ex.Y
			lossSum += resid * resid / 2
			for f, x := range ex.X {
				grad[f] -= c.LearningRate * resid * x / n
			}
		}
		return lossSum, hi - lo
	}
	finalize := func(delta []float64, lossSum float64, lossN int) float64 {
		// The proximal step is nonlinear, so it runs once on the reduced
		// gradient, expressed as an additive delta so servers can apply it
		// with a plain +=.
		for f := range delta {
			next := softThreshold(model[f]+delta[f], c.LearningRate*c.Lambda)
			delta[f] = next - model[f]
		}
		var l1 float64
		for _, w := range model {
			l1 += math.Abs(w)
		}
		return lossSum/float64(maxInt(lossN, 1)) + c.Lambda*l1
	}
	return chunk, finalize, false
}

func (nm *nmf) fusedPass(shard *Shard, model []float64) (chunkFn, finalizeFn, bool) {
	c := nm.cfg.withDefaults()
	rows := float64(maxInt(len(shard.Examples), 1))
	chunk := func(lo, hi int, grad []float64, _ *rand.Rand) (float64, int) {
		u := make([]float64, c.Classes)
		preds := make([]float64, c.Features)
		var lossSum float64
		var lossN int
		for _, ex := range shard.Examples[lo:hi] {
			nm.solveUser(model, ex.X, u)
			// Fused objective: the residual at the solved user factors,
			// priced before this example's gradient contribution (the
			// serial Loss also evaluates at the pulled model). The
			// prediction depends only on (model, u, f), so the values
			// computed here feed every topic row of the gradient below.
			for f, x := range ex.X {
				preds[f] = predictNMF(model, u, f, c)
				r := preds[f] - x
				lossSum += r * r
				lossN++
			}
			for k := 0; k < c.Classes; k++ {
				row := k * c.Features
				for f, x := range ex.X {
					g := -c.LearningRate * (preds[f] - x) * u[k] / rows
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
	finalize := func(delta []float64, lossSum float64, lossN int) float64 {
		// Per-chunk projections kept each partial non-negative against the
		// model; their sum can still undershoot, so clamp once after the
		// reduction to restore V ≥ 0.
		for i := range delta {
			if model[i]+delta[i] < 0 {
				delta[i] = -model[i]
			}
		}
		return lossSum / float64(maxInt(lossN, 1))
	}
	return chunk, finalize, false
}

func (l *lda) fusedPass(shard *Shard, model []float64) (chunkFn, finalizeFn, bool) {
	c := l.cfg.withDefaults()
	const alphaDirichlet = 0.1
	// Topic totals at the pulled model, computed once and shared read-only
	// across chunks; each chunk evolves its own copy during its sweep.
	base := make([]float64, c.Classes)
	for k := 0; k < c.Classes; k++ {
		var t float64
		for f := 0; f < c.Features; f++ {
			t += model[k*c.Features+f]
		}
		base[k] = t
	}
	chunk := func(lo, hi int, delta []float64, rng *rand.Rand) (float64, int) {
		probs := make([]float64, c.Classes)
		topicTotals := make([]float64, c.Classes)
		copy(topicTotals, base)
		// Reciprocal caches: the column walks below would otherwise pay one
		// FP division per (token, topic). invTotals tracks topicTotals —
		// only the two entries a Gibbs move touches are refreshed.
		invBase := make([]float64, c.Classes)
		invTotals := make([]float64, c.Classes)
		for k := range invBase {
			invBase[k] = 1 / (base[k] + 1)
			invTotals[k] = 1 / (topicTotals[k] + 1)
		}
		// Per-document state reused across the chunk's documents.
		docCounts := make([]float64, c.Classes)
		var assignments []int
		var lossSum float64
		var tokens int
		// Batched objective: Σ log p_i = log Π p_i, with the running
		// product flushed well before it can underflow (each factor is
		// clamped to ≥1e-12, so a flush threshold of 1e-250 keeps the
		// product out of the denormal range).
		logProd := 1.0
		flushLog := func() {
			if logProd != 1.0 {
				lossSum -= math.Log(logProd)
				logProd = 1.0
			}
		}
		for _, doc := range shard.Examples[lo:hi] {
			for k := range docCounts {
				docCounts[k] = 0
			}
			if cap(assignments) < len(doc.Tokens) {
				assignments = make([]int, len(doc.Tokens))
			}
			assignments = assignments[:len(doc.Tokens)]
			// Initialize assignments proportional to current word-topic
			// mass; the objective — token likelihood at the pulled model —
			// falls out of the same column walk, which is the fusion win.
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
				assignments[ti] = sample(probs, rng)
				docCounts[assignments[ti]]++
			}
			// One Gibbs sweep against the chunk-local state.
			for ti, w := range doc.Tokens {
				old := assignments[ti]
				docCounts[old]--
				for k := 0; k < c.Classes; k++ {
					wordMass := model[k*c.Features+w] + delta[k*c.Features+w]
					probs[k] = (docCounts[k] + alphaDirichlet) * wordMass * invTotals[k]
				}
				next := sample(probs, rng)
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
	finalize := func(delta []float64, lossSum float64, lossN int) float64 {
		// Keep counts non-negative when applied (once, on the reduced
		// delta).
		for i := range delta {
			if model[i]+delta[i] < 0.01 {
				delta[i] = 0.01 - model[i]
			}
		}
		return lossSum / float64(maxInt(lossN, 1))
	}
	return chunk, finalize, true
}
