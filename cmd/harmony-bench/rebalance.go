package main

import (
	"fmt"
	"strings"

	"harmony/internal/ps"
)

// The PS-rebalance experiment (-run ps-rebalance) is the skewed-access
// comparison of DESIGN.md §12 on loopback servers, in wall-clock time. A
// fixed skew (hot 10% of stripes taking 80% of traffic) lands every hot
// stripe on one server; with rebalancing off that server is the
// bottleneck, with rebalancing on the hot stripes live-migrate apart.
// Offered load sits between one server's capacity and the cluster's, the
// regime where placement is the bottleneck.
const rebalanceRounds = 3

// rebalanceModeResult is one mode's aggregate over the rounds.
type rebalanceModeResult struct {
	mode    string
	ops     int64
	seconds float64
	// p99LockWaitMicros is the worst round's p99 per-op stripe wait.
	p99LockWaitMicros float64
	moves             int
}

func (m rebalanceModeResult) opsPerSec() float64 { return float64(m.ops) / m.seconds }

type rebalanceResult struct {
	off, on rebalanceModeResult
}

func psRebalance(seed int64) (fmt.Stringer, error) {
	measure := func(on bool) (rebalanceModeResult, error) {
		out := rebalanceModeResult{mode: "off"}
		if on {
			out.mode = "on"
		}
		for i := int64(0); i < rebalanceRounds; i++ {
			res, err := ps.RebalanceExperiment{Seed: seed + i, Rebalance: on}.Run()
			if err != nil {
				return out, fmt.Errorf("rebalance %s round %d: %w", out.mode, i, err)
			}
			if !res.Verified {
				return out, fmt.Errorf("rebalance %s round %d: final state not verified", out.mode, i)
			}
			out.ops += res.Ops
			out.seconds += res.Duration.Seconds()
			if p99 := res.P99LockWaitSeconds * 1e6; p99 > out.p99LockWaitMicros {
				out.p99LockWaitMicros = p99
			}
			out.moves += res.Moves
		}
		return out, nil
	}

	r := &rebalanceResult{}
	var err error
	if r.off, err = measure(false); err != nil {
		return nil, err
	}
	if r.on, err = measure(true); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *rebalanceResult) String() string {
	var b strings.Builder
	// The sizes are ps.RebalanceExperiment's constants (DESIGN.md §12).
	fmt.Fprintf(&b, "DESIGN.md §12 — PS hot-stripe rebalancing: 40 stripes, hot 10%% take 80%% of traffic, 4 servers, %d rounds per mode\n",
		rebalanceRounds)
	fmt.Fprintf(&b, "  %-4s %12s %16s %7s\n", "MODE", "OPS/S", "P99_LOCK_WAIT", "MOVES")
	for _, m := range []rebalanceModeResult{r.off, r.on} {
		fmt.Fprintf(&b, "  %-4s %12.0f %15.0fµs %7d\n", m.mode, m.opsPerSec(), m.p99LockWaitMicros, m.moves)
	}
	fmt.Fprintf(&b, "  throughput on/off: %.2fx", r.on.opsPerSec()/r.off.opsPerSec())
	if r.off.p99LockWaitMicros > 0 {
		fmt.Fprintf(&b, "   p99 lock-wait on/off: %.2fx", r.on.p99LockWaitMicros/r.off.p99LockWaitMicros)
	}
	b.WriteString("\n")
	return b.String()
}
