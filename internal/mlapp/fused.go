package mlapp

import (
	"math"
	"math/rand"

	"harmony/internal/parallel"
	"harmony/internal/touched"
)

// This file is the multicore COMP kernel: one fused pass over the shard
// computes the model update and the objective together, chunked across a
// bounded core pool. The executor runs one COMP subtask at a time
// (§IV-A) precisely because a COMP subtask is assumed to saturate the
// machine — this kernel makes that assumption true.
//
// Determinism contract (same as internal/parallel): chunk boundaries and
// per-chunk RNG seeds are pure functions of the shard size and the
// caller's RNG stream, each chunk accumulates into its own delta (chunk 0
// into the result, the others into scratch), and the partials are reduced
// on one goroutine in ascending chunk order. Results are therefore
// bit-identical at any parallelism.
//
// The chunked kernels are the unit of semantics: per-example work reads
// only the pulled model (never the partially-accumulated delta),
// nonlinear steps (Lasso's proximal update, NMF's and LDA's
// non-negativity floors) run once per pass on the reduced delta, and LDA
// runs an independent collapsed-Gibbs sweep per chunk from per-chunk
// seeds (the standard approximate distributed Gibbs formulation). The
// serial Loss methods are the reference for the fused objective.
//
// Arithmetic (DESIGN.md §9): a kernel does each multiply once. What does
// not depend on the innermost index is computed outside it — the step
// lr·coef/n, NMF's numerators and its Gram matrix — and sums that are one
// chain of dependent adds advance four chains together, each in its own
// order (rowDots, sumRows). The per-element form of the same updates lives
// in fused_test.go as the oracle the kernels are compared against.

const (
	// fusedChunkRows is the minimum chunk granularity: chunks never get
	// smaller than this, so tiny shards stay on the sequential path.
	fusedChunkRows = 16
	// fusedMaxChunks bounds the scratch arena at (fusedMaxChunks-1)×modelSize
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
// examples [lo,hi) accumulated into delta (all +0 on entry), plus the
// chunk's unnormalized loss sum and term count. c is the chunk's own
// scratch: its generator, its temporaries and its record of writes.
type chunkFn func(lo, hi int, delta []float64, c *chunkScratch) (lossSum float64, lossN int)

// finalizeFn runs once on the reduced delta (nonlinear steps, clamps) and
// turns the summed loss terms into the objective value. cand holds every
// element where the delta is not +0 or the model is not what the previous
// pass on this Scratch read. Given All, a finalize that lifts an element of
// the delta off +0 adds it to the Scratch's list (LDA's clamp).
type finalizeFn func(delta []float64, cand touched.Set, lossSum float64, lossN int) float64

// chunkScratch is one chunk's reusable state.
type chunkScratch struct {
	// delta is the chunk's partial update; chunk 0 has none, it accumulates
	// straight into dst. Between passes delta is all +0 unless all is set.
	delta []float64
	// wrote is where a recording kernel (LDA) lists the elements of delta it
	// writes, in any order, repeats allowed, up to limit of them (0: do not
	// record). all is set before a chunk runs and cleared by a kernel that
	// recorded every write; left set, delta may hold anything anywhere.
	wrote []uint32
	limit int
	all   bool
	loss  float64
	count int
	rng   *rand.Rand
	buf   []float64 // the kernel's temporaries
	ints  []int
}

// floats returns n reusable floats with whatever the last pass left in them.
func (c *chunkScratch) floats(n int) []float64 {
	if cap(c.buf) < n {
		c.buf = make([]float64, n)
	}
	return c.buf[:n]
}

// Scratch is the reusable arena for ComputeFused: per-chunk partial
// deltas, temporaries, loss terms and RNGs, and the touched sets and LDA's
// partial topic sums that let a sparse pass skip the rest of the model.
// The zero value is ready to use; a caller that iterates (the live worker)
// keeps one Scratch per job, and the steady-state pass then allocates only
// its two kernel closures and the worker pool's goroutines.
type Scratch struct {
	chunks []chunkScratch
	// pass is what a pass derives from the pulled model before the parallel
	// region for its chunks to read: LDA's topic totals, NMF's Gram matrix.
	pass []float64
	// out is the update the last pass returned and wrote the elements of it
	// that may be other than +0. changed is what Changed was told, for the
	// next pass only.
	out     []float64
	wrote   touched.Set
	changed touched.Set
	list    touched.List
	// sums holds LDA's group and block sums of summed, the model the last
	// pass read (topicTotals).
	sums, summed []float64
}

// Changed tells the next ComputeFused on s, and only that one, which
// elements of its model differ from the model the previous ComputeFused on
// s read (the same buffer, synced in between: ps.Mirror.Changed). Untold,
// a pass assumes every element does.
func (s *Scratch) Changed(set touched.Set) { s.changed = set }

// Touched reports which elements of the update the last ComputeFused on s
// returned may be other than +0. It is valid until the next pass.
func (s *Scratch) Touched() touched.Set { return s.wrote }

// shared returns n reusable floats for what the chunks of one pass share.
func (s *Scratch) shared(n int) []float64 {
	if cap(s.pass) < n {
		s.pass = make([]float64, n)
	}
	return s.pass[:n]
}

// ensure sizes the arena for chunks×modelSize without shrinking capacity.
func (s *Scratch) ensure(chunks, modelSize int) {
	for len(s.chunks) < chunks {
		s.chunks = append(s.chunks, chunkScratch{rng: rand.New(&fusedSource{})})
	}
	for i := 1; i < chunks; i++ {
		if c := &s.chunks[i]; len(c.delta) != modelSize {
			if c.all = cap(c.delta) >= modelSize; !c.all { // a new buffer is all +0
				c.delta = make([]float64, modelSize)
			}
			c.delta = c.delta[:modelSize]
		}
	}
}

// fusedSource is the chunk generator: splitmix64, chosen for its O(1)
// seeding. math/rand's default source initializes a ~600-word table on
// every Seed, and the kernel reseeds one generator per chunk per
// iteration — with the default source that tax showed up as ~10% of an
// LDA COMP subtask. Chunk randomness is part of the fused kernel's own
// semantics (the chunked Gibbs sweep), so it owes no stream
// compatibility to math/rand's source. Every draw writes the state, so each
// source fills a cache line of its own (a 64-byte object is allocated
// 64-byte aligned) that no other chunk's core writes.
type fusedSource struct {
	state uint64
	_     [56]byte
}

func (s *fusedSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *fusedSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

func (s *fusedSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// ComputeFused runs the fused gradient+loss pass over the shard on at
// most workers goroutines (values below 1 select GOMAXPROCS) and returns
// the update written into dst (grown when needed) together with the
// objective at model. scratch may be nil for one-shot callers; iterating
// callers pass a reused Scratch, and dst as the previous pass returned it.
// The delta and loss are bit-identical at any workers setting, and whether
// or not the pass was told what changed (Scratch.Changed): a sparse pass
// skips only work whose result is known to be +0 or kept from the last.
func ComputeFused(algo Algorithm, dst, model []float64, shard *Shard, rng *rand.Rand, workers int, scratch *Scratch) ([]float64, float64) {
	s := scratch
	if s == nil {
		s = &Scratch{}
	}
	n, size := len(shard.Examples), len(model)
	chunks := fusedChunks(n)
	s.ensure(chunks, size)
	chunk, finalize := algo.fusedPass(shard, model, s)
	cand := s.changed
	s.changed = touched.Set{}

	// Chunk 0 accumulates into dst, so dst starts all +0. When it is the
	// update the last pass returned, only the elements written then are not.
	if size > 0 && len(dst) == size && len(s.out) == size && &dst[0] == &s.out[0] && !s.wrote.All() {
		for _, i := range s.wrote.Indices() {
			dst[i] = 0
		}
	} else if cap(dst) < size {
		dst = make([]float64, size)
	} else {
		dst = dst[:size]
		clear(dst)
	}
	// Chunks record their writes, told what changed or not. Per-chunk
	// generators are seeded sequentially from the caller's RNG before the
	// parallel region, so the stream consumed per iteration is independent
	// of the worker count.
	limit := size / touched.Fraction
	for i := range s.chunks[:chunks] {
		seed := int64(i + 1)
		if rng != nil {
			seed = rng.Int63()
		}
		s.chunks[i].rng.Seed(seed)
		s.chunks[i].limit = limit
	}
	parallel.Run(chunks, parallel.Workers(workers), func(i int) {
		c := &s.chunks[i]
		d := dst
		if i > 0 {
			if d = c.delta; c.all {
				clear(d)
			}
		}
		c.wrote, c.all = c.wrote[:0], true
		lo, hi := fusedBounds(n, chunks, i)
		c.loss, c.count = chunk(lo, hi, d, c)
	})

	// Deterministic reduction: ascending chunk order on this goroutine. When
	// every chunk recorded its writes, only those elements are added (an
	// element a chunk did not write holds +0, and x + +0 is x for every x a
	// recording kernel produces: sums of ±1 are never -0) and swept back to
	// +0 in the same walk; a repeat in a list then adds the +0 just stored.
	sparse := true
	for i := range s.chunks[:chunks] {
		sparse = sparse && !s.chunks[i].all
	}
	lossSum, lossN := s.chunks[0].loss, s.chunks[0].count
	if sparse {
		s.list.Add(s.chunks[0].wrote...)
	}
	for i := 1; i < chunks; i++ {
		c := &s.chunks[i]
		if sparse {
			for _, j := range c.wrote {
				dst[j] += c.delta[j]
				c.delta[j] = 0
			}
			s.list.Add(c.wrote...)
		} else {
			for j, v := range c.delta[:len(dst)] {
				dst[j] += v
			}
			c.all = true
		}
		lossSum += c.loss
		lossN += c.count
	}
	// The clamp may lift an element the sync changed off +0, so those count
	// as touched from here on; a clamp over every element (an untold pass,
	// or more candidates than a set holds) adds those it lifts to the list.
	if !sparse {
		s.list.AddAll()
	}
	if !cand.All() {
		s.list.Add(cand.Indices()...)
		if cand = s.list.Take(size); cand.All() {
			s.list.AddAll()
		}
	}
	s.out = dst
	loss := finalize(dst, cand, lossSum, lossN)
	if s.wrote = cand; cand.All() {
		s.wrote = s.list.Take(size)
	}
	return dst, loss
}

// --- per-algorithm fused kernels ---------------------------------------

func (m *mlr) fusedPass(shard *Shard, model []float64, _ *Scratch) (chunkFn, finalizeFn) {
	c := m.cfg.withDefaults()
	n := float64(maxInt(len(shard.Examples), 1))
	chunk := func(lo, hi int, grad []float64, cs *chunkScratch) (float64, int) {
		probs := cs.floats(c.Classes)
		var lossSum float64
		for _, ex := range shard.Examples[lo:hi] {
			softmax(model, ex.X, c.Features, probs)
			y := int(ex.Y)
			lossSum -= math.Log(math.Max(probs[y], 1e-12))
			for cl := 0; cl < c.Classes; cl++ {
				coef := probs[cl]
				if cl == y {
					coef -= 1
				}
				// One division per (example, class), not per element.
				step := c.LearningRate * coef / n
				row := grad[cl*c.Features:]
				for f, x := range ex.X {
					row[f] -= step * x
				}
			}
		}
		return lossSum, hi - lo
	}
	finalize := func(_ []float64, _ touched.Set, lossSum float64, lossN int) float64 {
		return lossSum / float64(maxInt(lossN, 1))
	}
	return chunk, finalize
}

func (l *lasso) fusedPass(shard *Shard, model []float64, _ *Scratch) (chunkFn, finalizeFn) {
	c := l.cfg.withDefaults()
	n := float64(maxInt(len(shard.Examples), 1))
	chunk := func(lo, hi int, grad []float64, _ *chunkScratch) (float64, int) {
		var lossSum float64
		for _, ex := range shard.Examples[lo:hi] {
			pred := dot(model, ex.X)
			resid := pred - ex.Y
			lossSum += resid * resid / 2
			step := c.LearningRate * resid / n // one division per example
			for f, x := range ex.X {
				grad[f] -= step * x
			}
		}
		return lossSum, hi - lo
	}
	finalize := func(delta []float64, _ touched.Set, lossSum float64, lossN int) float64 {
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
	return chunk, finalize
}

func (nm *nmf) fusedPass(shard *Shard, model []float64, s *Scratch) (chunkFn, finalizeFn) {
	c := nm.cfg.withDefaults()
	rows := float64(maxInt(len(shard.Examples), 1))
	// The Gram matrix of the pulled item factors, shared read-only across
	// chunks: every row's solve takes its denominators from it.
	vvt := s.shared(c.Classes * c.Classes)
	gram(model, c.Classes, vvt)
	chunk := func(lo, hi int, grad []float64, cs *chunkScratch) (float64, int) {
		buf := cs.floats(2*c.Classes + c.Features)
		u, num, resid := buf[:c.Classes], buf[c.Classes:2*c.Classes], buf[2*c.Classes:]
		var lossSum float64
		var lossN int
		for _, ex := range shard.Examples[lo:hi] {
			solveUser(model, vvt, ex.X, u, num)
			// Fused objective: the residual at the solved user factors,
			// priced before this example's gradient contribution (the
			// serial Loss also evaluates at the pulled model). It depends
			// only on (model, u, f), so the values stored here feed every
			// topic row of the gradient below.
			predictRow(model, u, resid)
			for f, x := range ex.X {
				r := resid[f] - x
				resid[f] = r
				lossSum += r * r
				lossN++
			}
			for k := 0; k < c.Classes; k++ {
				// One division per (example, topic), not per element.
				step := -c.LearningRate * u[k] / rows
				row := k * c.Features
				for f, r := range resid[:len(ex.X)] {
					g := step * r
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
	finalize := func(delta []float64, _ touched.Set, lossSum float64, lossN int) float64 {
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
	return chunk, finalize
}

// rowDots stores in out[k] the dot product of x with row k of the
// width-column matrix m, each summed left to right from zero. A row's dot
// product is one chain of dependent adds, so four rows advance together to
// overlap their latencies; no row's order of additions changes, so every
// out[k] has the bits of dot(row k, x).
func rowDots(m []float64, width int, x, out []float64) {
	k := 0
	for ; k+4 <= len(out); k += 4 {
		r0, r1 := m[k*width:][:len(x)], m[(k+1)*width:][:len(x)]
		r2, r3 := m[(k+2)*width:][:len(x)], m[(k+3)*width:][:len(x)]
		var t0, t1, t2, t3 float64
		for f, v := range x {
			t0, t1, t2, t3 = t0+r0[f]*v, t1+r1[f]*v, t2+r2[f]*v, t3+r3[f]*v
		}
		out[k], out[k+1], out[k+2], out[k+3] = t0, t1, t2, t3
	}
	for ; k < len(out); k++ {
		out[k] = dot(m[k*width:], x)
	}
}

// sumRows stores in sums[t] the sum of column t of the row-major matrix m
// with len(sums) columns, each column added in ascending row order from
// +0. A column's sum is one chain of dependent adds, so four columns
// advance together in registers, a span of rows at a time that stays in
// cache while the next four columns walk it; no column's order changes.
func sumRows(m, sums []float64) {
	k, span := len(sums), 64 // span: rows walked per four columns
	clear(sums)
	for lo := 0; lo < len(m); lo += span * k {
		rows := m[lo:min(lo+span*k, len(m))]
		t := 0
		for ; t+4 <= k; t += 4 {
			s0, s1, s2, s3 := sums[t], sums[t+1], sums[t+2], sums[t+3]
			for r := t; r+4 <= len(rows); r += k {
				row := rows[r : r+4 : r+4]
				s0, s1, s2, s3 = s0+row[0], s1+row[1], s2+row[2], s3+row[3]
			}
			sums[t], sums[t+1], sums[t+2], sums[t+3] = s0, s1, s2, s3
		}
		for ; t < k; t++ {
			for r := t; r < len(rows); r += k {
				sums[t] += rows[r]
			}
		}
	}
}

// A topic total is a fixed two-level sum over the words: each block of
// totalBlockWords words is summed, each group of totalGroupBlocks blocks,
// then the groups, every sum in ascending order from +0. The shape depends
// on the model's shape alone, so a total is a function of the model.
const (
	totalBlockWords  = 8
	totalGroupBlocks = 8
)

// topicTotals stores in totals the topic totals of the word-major model
// with len(totals) topics. changed names the elements that differ from the
// model the last call on s summed: only the blocks that hold one, their
// groups and the groups' sum are summed again — everything when changed is
// All or model is another buffer or shape.
func (s *Scratch) topicTotals(model []float64, changed touched.Set, totals []float64) {
	k := len(totals)
	blockLen, groupLen := totalBlockWords*k, totalGroupBlocks*k
	blocks := (len(model) + blockLen - 1) / blockLen
	groups := (blocks + totalGroupBlocks - 1) / totalGroupBlocks
	n := (groups + blocks) * k
	fresh := changed.All() || len(s.sums) != n || len(s.summed) != len(model) || n > 0 && &s.summed[0] != &model[0]
	if fresh && cap(s.sums) < n {
		s.sums = make([]float64, n)
	}
	s.sums = s.sums[:n]
	gsums, bsums := s.sums[:groups*k], s.sums[groups*k:]
	block := func(b int) { sumRows(model[b*blockLen:min((b+1)*blockLen, len(model))], bsums[b*k:(b+1)*k]) }
	group := func(g int) { sumRows(bsums[g*groupLen:min((g+1)*groupLen, len(bsums))], gsums[g*k:(g+1)*k]) }
	if fresh {
		for b := range blocks {
			block(b)
		}
		for g := range groups {
			group(g)
		}
	} else {
		// idx ascends: a block is summed at its first index, a group after
		// its last.
		idx := changed.Indices()
		for i, at := range idx {
			if b := int(at) / blockLen; i == 0 || b != int(idx[i-1])/blockLen {
				block(b)
			}
			if g := int(at) / (blockLen * totalGroupBlocks); i+1 == len(idx) || g != int(idx[i+1])/(blockLen*totalGroupBlocks) {
				group(g)
			}
		}
	}
	s.summed = model
	sumRows(gsums, totals)
}

func (l *lda) fusedPass(shard *Shard, model []float64, s *Scratch) (chunkFn, finalizeFn) {
	c := l.cfg.withDefaults()
	const alphaDirichlet = 0.1
	topics := c.Classes
	// Topic totals at the pulled model and their reciprocals, computed once
	// and shared read-only across chunks; each chunk evolves its own copy
	// during its sweep. A sparse pass re-sums only what its sync changed
	// (topicTotals; s.changed is what this pass was told).
	totals := s.shared(2 * topics)
	base, invBase := totals[:topics], totals[topics:]
	s.topicTotals(model, s.changed, base)
	for k, t := range base {
		invBase[k] = 1 / (t + 1)
	}
	chunk := func(lo, hi int, delta []float64, cs *chunkScratch) (float64, int) {
		rng := cs.rng
		buf := cs.floats(4 * topics)
		probs, topicTotals := buf[:topics], buf[topics:2*topics]
		// Reciprocal cache: the walks below would otherwise pay one FP
		// division per (token, topic). invTotals tracks topicTotals — only
		// the two entries a Gibbs move touches are refreshed.
		invTotals := buf[2*topics : 3*topics]
		// Per-document state reused across the chunk's documents.
		docCounts := buf[3*topics:]
		copy(topicTotals, base)
		copy(invTotals, invBase)
		assignments := cs.ints
		wrote, record := cs.wrote, cs.limit > 0
		most := 0 // two writes a move and a move a token at most: the record never grows
		for _, doc := range shard.Examples[lo:hi] {
			most += 2 * len(doc.Tokens)
		}
		if most = min(most, cs.limit+2); record && cap(wrote) < most {
			wrote = make([]uint32, 0, most)
		}
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
			// falls out of the same walk over the word's counts, which is
			// the fusion win.
			for ti, w := range doc.Tokens {
				var p float64
				for k, m := range model[w*topics : (w+1)*topics] {
					probs[k] = m * invTotals[k]
					p += m * invBase[k]
				}
				p /= float64(topics)
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
				moved := delta[w*topics : (w+1)*topics]
				for k, m := range model[w*topics : (w+1)*topics] {
					probs[k] = (docCounts[k] + alphaDirichlet) * (m + moved[k]) * invTotals[k]
				}
				next := sample(probs, rng)
				assignments[ti] = next
				docCounts[next]++
				if next != old {
					moved[old]--
					moved[next]++
					if record {
						wrote = append(wrote, uint32(w*topics+old), uint32(w*topics+next))
						record = len(wrote) <= cs.limit
					}
					topicTotals[old]--
					topicTotals[next]++
					invTotals[old] = 1 / (topicTotals[old] + 1)
					invTotals[next] = 1 / (topicTotals[next] + 1)
				}
			}
		}
		flushLog()
		cs.ints, cs.wrote, cs.all = assignments, wrote, !record
		return lossSum, tokens
	}
	finalize := func(delta []float64, cand touched.Set, lossSum float64, lossN int) float64 {
		// Keep counts non-negative when applied (once, on the reduced
		// delta). Outside cand the delta is +0 and the model is what the
		// last pass read, so the floor it left there still holds.
		if cand.All() {
			for i := range delta {
				if model[i]+delta[i] < 0.01 {
					if delta[i] == 0 {
						s.list.Add(uint32(i))
					}
					delta[i] = 0.01 - model[i]
				}
			}
		} else {
			for _, i := range cand.Indices() {
				if model[i]+delta[i] < 0.01 {
					delta[i] = 0.01 - model[i]
				}
			}
		}
		return lossSum / float64(maxInt(lossN, 1))
	}
	return chunk, finalize
}
