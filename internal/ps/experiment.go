package ps

import (
	"fmt"
	"sync"
	"time"

	"harmony/internal/metrics"
	"harmony/internal/rpc"
)

// RebalanceExperiment is the skewed-access A/B harness behind
// BenchmarkPSRebalance and `harmony-bench -run ps-rebalance`: it brings up
// an in-process PS cluster with a bounded per-server service rate, runs
// the skew load with rebalancing off or on, and reports throughput plus
// the p99 of per-op stripe wait. Placement starts even, so the hot
// stripes all land on server 0 — the saturation the balancer must
// dissolve. The sizes are the skew* constants.
type RebalanceExperiment struct {
	Seed      int64
	Rebalance bool
}

// The experiment's sizing. Offered load (skewWorkers closed-loop workers
// at skewServiceDelay each) sits between one server's capacity and the
// cluster's, the regime where placement is the bottleneck.
const (
	skewServers = 4
	// skewServiceLimit bounds concurrent stripe service per server: the
	// finite capacity that makes placement matter.
	skewServiceLimit = 1
	// skewServiceDelay is the modeled per-op service time each op holds
	// its slot for. In-process servers share the host CPU, so real service
	// cost cannot distinguish placements; the delay restores per-server
	// capacity as the bottleneck the way a per-server NIC would be.
	skewServiceDelay = time.Millisecond
	// skewInterval is the scrape-plan-execute cadence.
	skewInterval = 75 * time.Millisecond
	// skewStripes stripes of skewStripeElems elements; the first skewHot
	// of them (10%) take skewHotShare of the traffic.
	skewStripes     = 40
	skewStripeElems = 128
	skewHot         = skewStripes / 10
	skewHotShare    = 0.8
	skewWorkers     = 5
	skewDuration    = 800 * time.Millisecond
	// skewWarmup excludes the run's opening phase from the lock-wait
	// distribution: with rebalancing on, the first intervals measure the
	// pre-convergence placement, which is exactly what the off-run
	// measures. Throughput still covers the whole run — convergence time
	// is part of the cost of rebalancing.
	skewWarmup  = skewDuration / 3
	skewJob     = "skew"
	skewTimeout = 30 * time.Second
)

// RebalanceResult is one experiment run's outcome.
type RebalanceResult struct {
	Ops       int64
	Pulls     int64
	Pushes    int64
	Duration  time.Duration
	OpsPerSec float64
	// P99LockWaitSeconds is the p99 of per-op wait (service gate + stripe
	// lock) aggregated across servers.
	P99LockWaitSeconds float64
	// Moves counts executed migrations (0 when off).
	Moves int
	// Verified is true when the final model matched the push counts
	// bit-exactly.
	Verified bool
}

// Run executes the experiment on fresh in-process servers.
func (e RebalanceExperiment) Run() (RebalanceResult, error) {
	var res RebalanceResult
	servers := make([]*Server, skewServers)
	rpcs := make([]*rpc.Server, skewServers)
	addrs := make([]string, skewServers)
	defer func() {
		for i := range servers {
			if servers[i] != nil {
				servers[i].Close()
			}
			if rpcs[i] != nil {
				rpcs[i].Close()
			}
		}
	}()
	for i := range servers {
		servers[i] = NewServer()
		servers[i].SetServiceLimit(skewServiceLimit)
		servers[i].SetServiceDelay(skewServiceDelay)
		rpcs[i] = rpc.NewServer()
		servers[i].Register(rpcs[i])
		addr, err := rpcs[i].Listen("127.0.0.1:0")
		if err != nil {
			return res, err
		}
		addrs[i] = addr
	}
	boot, err := NewClient(addrs, skewTimeout)
	if err != nil {
		return res, err
	}
	defer boot.Close()
	boot.SetStripeElems(skewStripeElems)
	if err := boot.Init(skewJob, make([]float64, skewStripes*skewStripeElems)); err != nil {
		return res, err
	}

	stop := make(chan struct{})
	var balWG sync.WaitGroup
	moves := 0
	if e.Rebalance {
		conns := make(map[string]*rpc.Client)
		defer func() {
			for _, cl := range conns {
				cl.Close()
			}
		}()
		conn := func(addr string) (*rpc.Client, error) {
			if cl, ok := conns[addr]; ok {
				return cl, nil
			}
			cl, err := rpc.Dial(addr, skewTimeout)
			if err != nil {
				return nil, err
			}
			conns[addr] = cl
			return cl, nil
		}
		bal := NewBalancer()
		balWG.Add(1)
		go func() {
			defer balWG.Done()
			ticker := time.NewTicker(skewInterval)
			defer ticker.Stop()
			for {
				select {
				case <-stop:
					return
				case <-ticker.C:
				}
				var cs ClusterStats
				for i, srv := range servers {
					cs.Servers = append(cs.Servers, ServerStats{
						Name: addrs[i], Addr: addrs[i], StatsReply: srv.Stats(),
					})
				}
				bal.Observe(cs)
				executed, _ := ExecuteMoves(conn, bal.Plan(addrs), skewTimeout)
				bal.CommitMoves(executed)
				moves += len(executed)
			}
		}()
	}

	// Snapshot each server's wait histogram at the end of the warmup so
	// the reported distribution covers only the steady-state window.
	warm := make([]metrics.HistSnapshot, len(servers))
	var warmWG sync.WaitGroup
	warmWG.Add(1)
	go func() {
		defer warmWG.Done()
		time.Sleep(skewWarmup)
		for i, srv := range servers {
			warm[i] = srv.Stats().LockWait
		}
	}()

	start := time.Now()
	load, err := runSkewLoad(addrs, e.Seed)
	elapsed := time.Since(start)
	close(stop)
	balWG.Wait()
	warmWG.Wait()
	if err != nil {
		return res, err
	}
	if err := verifySkewState(boot, load); err != nil {
		return res, fmt.Errorf("state verification: %w", err)
	}

	var lockWait metrics.HistSnapshot
	for i, srv := range servers {
		lockWait = lockWait.Add(srv.Stats().LockWait.Sub(warm[i]))
	}
	res = RebalanceResult{
		Ops: load.ops(), Pulls: load.Pulls, Pushes: load.Pushes,
		Duration:           elapsed,
		OpsPerSec:          float64(load.ops()) / elapsed.Seconds(),
		P99LockWaitSeconds: lockWait.Quantile(0.99),
		Moves:              moves,
		Verified:           true,
	}
	return res, nil
}
