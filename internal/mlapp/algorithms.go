package mlapp

import (
	"math"
	"math/rand"
)

// mlr is multinomial logistic regression trained by mini-batch gradient
// descent on the softmax cross-entropy loss.
type mlr struct {
	cfg Config
}

func (m *mlr) Kind() Kind { return MLR }

func (m *mlr) InitModel(rng *rand.Rand) []float64 {
	w := make([]float64, m.cfg.ModelSize())
	for i := range w {
		w[i] = 0.01 * rng.NormFloat64()
	}
	return w
}

func (m *mlr) Loss(model []float64, shard *Shard) float64 {
	c := m.cfg.withDefaults()
	probs := make([]float64, c.Classes)
	var loss float64
	for _, ex := range shard.Examples {
		softmax(model, ex.X, c.Features, probs)
		p := probs[int(ex.Y)]
		loss -= math.Log(math.Max(p, 1e-12))
	}
	return loss / float64(maxInt(len(shard.Examples), 1))
}

// softmax stores in out the class probabilities of x under the
// len(out)-row weight matrix model.
func softmax(model, x []float64, features int, out []float64) {
	rowDots(model, features, x, out)
	maxLogit := math.Inf(-1)
	for _, logit := range out {
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

// lasso is L1-regularized linear regression trained by proximal gradient
// steps (soft thresholding).
type lasso struct {
	cfg Config
}

func (l *lasso) Kind() Kind { return Lasso }

func (l *lasso) InitModel(rng *rand.Rand) []float64 {
	return make([]float64, l.cfg.ModelSize())
}

func (l *lasso) Loss(model []float64, shard *Shard) float64 {
	c := l.cfg.withDefaults()
	var loss float64
	for _, ex := range shard.Examples {
		r := dot(model, ex.X) - ex.Y
		loss += r * r / 2
	}
	loss /= float64(maxInt(len(shard.Examples), 1))
	var l1 float64
	for _, w := range model {
		l1 += math.Abs(w)
	}
	return loss + c.Lambda*l1
}

func softThreshold(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range b {
		s += a[i] * b[i]
	}
	return s
}

// nmf factorizes the ratings matrix X ≈ Uᵀ·V with non-negative factors;
// the item-factor matrix V lives in the parameter servers while per-row
// user factors U are recomputed locally (the standard PS formulation).
type nmf struct {
	cfg Config
}

func (n *nmf) Kind() Kind { return NMF }

func (n *nmf) InitModel(rng *rand.Rand) []float64 {
	v := make([]float64, n.cfg.ModelSize())
	for i := range v {
		v[i] = 0.1 + 0.1*rng.Float64()
	}
	return v
}

// gram stores G = V·Vᵀ (k×k, row-major) in g for the k-row item-factor
// matrix v: G_ab = Σ_f V_af·V_bf, the upper triangle computed and mirrored.
func gram(v []float64, k int, g []float64) {
	width := len(v) / k
	for a := 0; a < k; a++ {
		rowDots(v[a*width:], width, v[a*width:(a+1)*width], g[a*k+a:(a+1)*k])
		for b := a + 1; b < k; b++ {
			g[b*k+a] = g[a*k+b]
		}
	}
}

// solveUser fits the user factors u of one ratings row x by five sweeps of
// multiplicative updates u_k ← u_k·(V_k·x)/(V_k·Vᵀu), each applied in place
// so the next denominator of the same sweep reads it (Gauss–Seidel order).
// The numerators do not depend on u and are computed once, into num. The
// denominator is G_k·u with g = gram(model): Σ_f V_kf·(Σ_j u_j·V_jf) =
// Σ_j u_j·(V·Vᵀ)_kj, the number that predicting every rating and dotting
// the row with V_k gives, for K multiply-adds instead of K·F.
func solveUser(model, g, x, u, num []float64) {
	k := len(u)
	rowDots(model, len(model)/k, x, num)
	for j := range u {
		u[j] = 0.5
	}
	for it := 0; it < 5; it++ {
		for j := range u {
			if den := dot(g[j*k:(j+1)*k], u); den > 1e-12 {
				u[j] *= num[j] / den
			}
		}
	}
}

// predictRow stores in preds the row Uᵀ·V predicted from user factors u:
// preds[f] = Σ_k u_k·V_kf, each summed over ascending k from zero, walked
// row-major so every access is unit stride.
func predictRow(model, u, preds []float64) {
	clear(preds)
	for k, uk := range u {
		for f, v := range model[k*len(preds) : (k+1)*len(preds)] {
			preds[f] += uk * v
		}
	}
}

func (n *nmf) Loss(model []float64, shard *Shard) float64 {
	c := n.cfg.withDefaults()
	g, preds := make([]float64, c.Classes*c.Classes), make([]float64, c.Features)
	u, num := make([]float64, c.Classes), make([]float64, c.Classes)
	gram(model, c.Classes, g)
	var loss float64
	var count int
	for _, ex := range shard.Examples {
		solveUser(model, g, ex.X, u, num)
		predictRow(model, u, preds)
		for f, x := range ex.X {
			r := preds[f] - x
			loss += r * r
			count++
		}
	}
	return loss / float64(maxInt(count, 1))
}

// lda is latent Dirichlet allocation trained by one collapsed-Gibbs sweep
// per COMP subtask; the global word-topic counts are the PS model, word by
// word (Config.ModelSize).
type lda struct {
	cfg Config
}

func (l *lda) Kind() Kind { return LDA }

func (l *lda) InitModel(rng *rand.Rand) []float64 {
	// Topic-word counts start at a small smoothing mass.
	m := make([]float64, l.cfg.ModelSize())
	for i := range m {
		m[i] = 0.1
	}
	return m
}

func (l *lda) Loss(model []float64, shard *Shard) float64 {
	c := l.cfg.withDefaults()
	topicTotals := make([]float64, c.Classes)
	sumRows(model, topicTotals)
	var ll float64
	var tokens int
	for _, doc := range shard.Examples {
		for _, w := range doc.Tokens {
			var p float64
			for k, m := range model[w*c.Classes : (w+1)*c.Classes] {
				p += (m / (topicTotals[k] + 1)) / float64(c.Classes)
			}
			ll -= math.Log(math.Max(p, 1e-12))
			tokens++
		}
	}
	return ll / float64(maxInt(tokens, 1))
}

func sample(weights []float64, rng *rand.Rand) int {
	var sum float64
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 {
		return rng.Intn(len(weights))
	}
	r := rng.Float64() * sum
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r <= 0 {
			return i
		}
	}
	return len(weights) - 1
}
