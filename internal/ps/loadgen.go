package ps

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// SkewConfig drives RunSkewLoad: a closed-loop pull/push workload with a
// hot set — HotFrac of the stripes receive HotShare of the traffic
// (defaults model the classic 10%/80% skew). The same generator backs
// BenchmarkPSRebalance and `harmony-bench -run ps-rebalance`, so the
// in-repo number and the CLI number measure the same thing.
type SkewConfig struct {
	Addrs       []string
	Job         string
	Stripes     int
	StripeElems int
	Workers     int
	HotFrac     float64
	HotShare    float64
	Duration    time.Duration
	Seed        int64
	Timeout     time.Duration
}

func (c SkewConfig) withDefaults() SkewConfig {
	if c.Job == "" {
		c.Job = "skew"
	}
	if c.Stripes <= 0 {
		c.Stripes = 40
	}
	if c.StripeElems <= 0 {
		c.StripeElems = 1024
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.HotFrac <= 0 || c.HotFrac > 1 {
		c.HotFrac = 0.1
	}
	if c.HotShare <= 0 || c.HotShare > 1 {
		c.HotShare = 0.8
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// ModelSize is the total element count the config implies.
func (c SkewConfig) ModelSize() int { return c.Stripes * c.StripeElems }

// SkewResult reports one load run. PushesPerStripe counts applied pushes
// per stripe index, which pins down the exact expected model state: the
// load pushes all-ones deltas, so element e of stripe s must equal
// PushesPerStripe[s] — verified by VerifyState.
type SkewResult struct {
	Pulls           int64
	Pushes          int64
	PushesPerStripe []int64
}

// Ops is the total operation count of the run.
func (r SkewResult) Ops() int64 { return r.Pulls + r.Pushes }

// InitSkewModel deploys the zero model for the skew workload through cl.
func InitSkewModel(cl *Client, cfg SkewConfig) error {
	cfg = cfg.withDefaults()
	cl.SetStripeElems(cfg.StripeElems)
	return cl.Init(cfg.Job, make([]float64, cfg.ModelSize()))
}

// RunSkewLoad hammers the servers with stripe-granular pulls and pushes
// until Duration elapses. Every worker runs its own client (its own
// connections), so per-server service capacity — not a shared conn — is
// the bottleneck under test. Stripes keep running while the caller
// migrates them; the moved-retry path is exercised for real.
func RunSkewLoad(cfg SkewConfig) (SkewResult, error) {
	cfg = cfg.withDefaults()
	hot := int(float64(cfg.Stripes)*cfg.HotFrac + 0.5)
	if hot < 1 {
		hot = 1
	}
	res := SkewResult{PushesPerStripe: make([]int64, cfg.Stripes)}
	var pulls, pushes atomic.Int64
	perStripe := make([]atomic.Int64, cfg.Stripes)
	deadline := time.Now().Add(cfg.Duration)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := NewClient(cfg.Addrs, cfg.Timeout)
			if err != nil {
				errs[w] = err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			buf := make([]float64, cfg.StripeElems)
			ones := make([]float64, cfg.StripeElems)
			for i := range ones {
				ones[i] = 1
			}
			for time.Now().Before(deadline) {
				var s int
				if rng.Float64() < cfg.HotShare {
					s = rng.Intn(hot)
				} else {
					s = hot + rng.Intn(cfg.Stripes-hot)
				}
				lo := s * cfg.StripeElems
				if rng.Intn(2) == 0 {
					if err := cl.PullRange(cfg.Job, lo, buf); err != nil {
						errs[w] = err
						return
					}
					pulls.Add(1)
				} else {
					if err := cl.PushRange(cfg.Job, lo, ones); err != nil {
						errs[w] = err
						return
					}
					pushes.Add(1)
					perStripe[s].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	res.Pulls = pulls.Load()
	res.Pushes = pushes.Load()
	for s := range perStripe {
		res.PushesPerStripe[s] = perStripe[s].Load()
	}
	return res, nil
}

// VerifyState pulls the model and checks it bit-exactly against the
// push counts: all-ones integer deltas sum exactly in float64 regardless
// of application order or placement, so any divergence means a push was
// lost or double-applied (e.g. by a botched migration).
func VerifyState(cl *Client, cfg SkewConfig, res SkewResult) error {
	cfg = cfg.withDefaults()
	model, err := cl.Pull(cfg.Job, cfg.ModelSize())
	if err != nil {
		return err
	}
	for s := 0; s < cfg.Stripes; s++ {
		want := float64(res.PushesPerStripe[s])
		for e := 0; e < cfg.StripeElems; e++ {
			if got := model[s*cfg.StripeElems+e]; got != want {
				return fmt.Errorf("ps: stripe %d elem %d = %v, want %v (pushes lost or double-applied)",
					s, e, got, want)
			}
		}
	}
	return nil
}
