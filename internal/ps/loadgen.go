package ps

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// skewResult reports one load run. PushesPerStripe counts applied pushes
// per stripe index, which pins down the exact expected model state: the
// load pushes all-ones deltas, so element e of stripe s must equal
// PushesPerStripe[s] — verified by verifySkewState.
type skewResult struct {
	Pulls           int64
	Pushes          int64
	PushesPerStripe []int64
}

func (r skewResult) ops() int64 { return r.Pulls + r.Pushes }

// runSkewLoad hammers the servers at addrs with stripe-granular pulls and
// pushes of the skew job for skewDuration. Every worker runs its own
// client (its own connections), so per-server service capacity — not a
// shared conn — is the bottleneck under test. Stripes keep running while
// the caller migrates them; the moved-retry path is exercised for real.
func runSkewLoad(addrs []string, seed int64) (skewResult, error) {
	res := skewResult{PushesPerStripe: make([]int64, skewStripes)}
	var pulls, pushes atomic.Int64
	perStripe := make([]atomic.Int64, skewStripes)
	deadline := time.Now().Add(skewDuration)
	errs := make([]error, skewWorkers)
	var wg sync.WaitGroup
	for w := 0; w < skewWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := NewClient(addrs, skewTimeout)
			if err != nil {
				errs[w] = err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			buf := make([]float64, skewStripeElems)
			ones := make([]float64, skewStripeElems)
			for i := range ones {
				ones[i] = 1
			}
			for time.Now().Before(deadline) {
				var s int
				if rng.Float64() < skewHotShare {
					s = rng.Intn(skewHot)
				} else {
					s = skewHot + rng.Intn(skewStripes-skewHot)
				}
				lo := s * skewStripeElems
				if rng.Intn(2) == 0 {
					if err := cl.PullRange(skewJob, lo, buf); err != nil {
						errs[w] = err
						return
					}
					pulls.Add(1)
				} else {
					if err := cl.PushRange(skewJob, lo, ones); err != nil {
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

// verifySkewState pulls the model and checks it bit-exactly against the
// push counts: all-ones integer deltas sum exactly in float64 regardless
// of application order or placement, so any divergence means a push was
// lost or double-applied (e.g. by a botched migration).
func verifySkewState(cl *Client, res skewResult) error {
	model, err := cl.Pull(skewJob, skewStripes*skewStripeElems)
	if err != nil {
		return err
	}
	for s := 0; s < skewStripes; s++ {
		want := float64(res.PushesPerStripe[s])
		for e := 0; e < skewStripeElems; e++ {
			if got := model[s*skewStripeElems+e]; got != want {
				return fmt.Errorf("ps: stripe %d elem %d = %v, want %v (pushes lost or double-applied)",
					s, e, got, want)
			}
		}
	}
	return nil
}
