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
// stripes (the first HotFrac of indices) all land on server 0 — the
// saturation the balancer must dissolve.
type RebalanceExperiment struct {
	SkewConfig
	Servers int
	// ServiceLimit bounds concurrent stripe service per server (default
	// 1): the finite capacity that makes placement matter.
	ServiceLimit int
	// ServiceDelay is the modeled per-op service time each op holds its
	// slot for. In-process servers share the host CPU, so real service
	// cost cannot distinguish placements; the delay restores per-server
	// capacity as the bottleneck the way a per-server NIC would be.
	ServiceDelay time.Duration
	Rebalance    bool
	// Interval is the scrape-plan-execute cadence (default 100ms).
	Interval time.Duration
	MaxMoves int
	// Warmup excludes the run's opening phase from the lock-wait
	// distribution (default Duration/3): with rebalancing on, the first
	// intervals measure the pre-convergence placement, which is exactly
	// what the off-run measures. Throughput still covers the whole run —
	// convergence time is part of the cost of rebalancing.
	Warmup time.Duration
}

func (e RebalanceExperiment) withDefaults() RebalanceExperiment {
	e.SkewConfig = e.SkewConfig.withDefaults()
	if e.Servers <= 0 {
		e.Servers = 4
	}
	if e.ServiceLimit <= 0 {
		e.ServiceLimit = 1
	}
	if e.Interval <= 0 {
		e.Interval = 100 * time.Millisecond
	}
	if e.MaxMoves <= 0 {
		e.MaxMoves = 2
	}
	if e.Warmup <= 0 {
		e.Warmup = e.Duration / 3
	}
	if e.Warmup >= e.Duration {
		e.Warmup = e.Duration / 2
	}
	return e
}

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
	e = e.withDefaults()
	var res RebalanceResult
	servers := make([]*Server, e.Servers)
	rpcs := make([]*rpc.Server, e.Servers)
	addrs := make([]string, e.Servers)
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
		servers[i].SetServiceLimit(e.ServiceLimit)
		servers[i].SetServiceDelay(e.ServiceDelay)
		rpcs[i] = rpc.NewServer()
		servers[i].Register(rpcs[i])
		addr, err := rpcs[i].Listen("127.0.0.1:0")
		if err != nil {
			return res, err
		}
		addrs[i] = addr
	}
	e.Addrs = addrs
	boot, err := NewClient(addrs, e.Timeout)
	if err != nil {
		return res, err
	}
	defer boot.Close()
	if err := InitSkewModel(boot, e.SkewConfig); err != nil {
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
			cl, err := rpc.Dial(addr, e.Timeout)
			if err != nil {
				return nil, err
			}
			conns[addr] = cl
			return cl, nil
		}
		bal := NewBalancer(0.5)
		balWG.Add(1)
		go func() {
			defer balWG.Done()
			ticker := time.NewTicker(e.Interval)
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
				plan := bal.Plan(addrs, PlanOptions{MaxMoves: e.MaxMoves})
				executed, _ := ExecuteMoves(conn, plan, e.Timeout)
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
		time.Sleep(e.Warmup)
		for i, srv := range servers {
			warm[i] = srv.Stats().LockWait
		}
	}()

	start := time.Now()
	load, err := RunSkewLoad(e.SkewConfig)
	elapsed := time.Since(start)
	close(stop)
	balWG.Wait()
	warmWG.Wait()
	if err != nil {
		return res, err
	}
	if err := VerifyState(boot, e.SkewConfig, load); err != nil {
		return res, fmt.Errorf("state verification: %w", err)
	}

	var lockWait metrics.HistSnapshot
	for i, srv := range servers {
		lockWait = lockWait.Add(srv.Stats().LockWait.Sub(warm[i]))
	}
	res = RebalanceResult{
		Ops: load.Ops(), Pulls: load.Pulls, Pushes: load.Pushes,
		Duration:           elapsed,
		OpsPerSec:          float64(load.Ops()) / elapsed.Seconds(),
		P99LockWaitSeconds: lockWait.Quantile(0.99),
		Moves:              moves,
		Verified:           true,
	}
	return res, nil
}
