package metrics

import (
	"sync/atomic"
	"time"
)

// CompCounters aggregates the live compute path's health: decoded-block
// cache hits and misses in the workers' COMP fast path, and the wall time
// COMP subtasks stalled on synchronous block reloads (the §IV-C stall the
// background reloader tries to hide). Counters are atomic so every
// worker job in the process records without coordination, mirroring
// CommCounters on the data plane.
type CompCounters struct {
	blockHits   atomic.Int64
	blockMisses atomic.Int64
	stallNanos  atomic.Int64
}

// Comp is the process-wide compute-path counter set; the worker's block
// cache and the memstore reload path record into it and the control
// plane's /metrics endpoint exposes it.
var Comp CompCounters

// ObserveBlockHits records n COMP block accesses served from the
// decoded-block cache without touching the store payload.
func (c *CompCounters) ObserveBlockHits(n int64) {
	c.blockHits.Add(n)
}

// ObserveBlockMiss records one COMP block access that had to decode the
// stored payload (first touch, or re-decode after a spill evicted it).
func (c *CompCounters) ObserveBlockMiss() {
	c.blockMisses.Add(1)
}

// ObserveReloadStall records wall time a COMP subtask spent blocked on a
// synchronous reload of a spilled block.
func (c *CompCounters) ObserveReloadStall(d time.Duration) {
	c.stallNanos.Add(int64(d))
}

// CompSnapshot is a point-in-time copy of the compute-path counters.
type CompSnapshot struct {
	BlockHits          int64
	BlockMisses        int64
	ReloadStallSeconds float64
}

// Snapshot copies the counters; like CommCounters.Snapshot, a read taken
// mid-operation may be skewed by one in-flight op.
func (c *CompCounters) Snapshot() CompSnapshot {
	return CompSnapshot{
		BlockHits:          c.blockHits.Load(),
		BlockMisses:        c.blockMisses.Load(),
		ReloadStallSeconds: time.Duration(c.stallNanos.Load()).Seconds(),
	}
}

// Add accumulates another snapshot (cross-process aggregation).
func (s CompSnapshot) Add(o CompSnapshot) CompSnapshot {
	return CompSnapshot{
		BlockHits:          s.BlockHits + o.BlockHits,
		BlockMisses:        s.BlockMisses + o.BlockMisses,
		ReloadStallSeconds: s.ReloadStallSeconds + o.ReloadStallSeconds,
	}
}

// CompSamples renders a (possibly aggregated) snapshot in the same
// Prometheus families as CompCounters.Samples.
func CompSamples(s CompSnapshot) []Sample {
	return []Sample{
		{Name: `harmony_comp_block_cache_total{result="hit"}`,
			Help: "COMP input-block accesses, by decoded-block cache outcome.",
			Type: PromCounter, Value: float64(s.BlockHits)},
		{Name: `harmony_comp_block_cache_total{result="miss"}`,
			Type: PromCounter, Value: float64(s.BlockMisses)},
		{Name: "harmony_comp_reload_stall_seconds_total",
			Help: "Wall time COMP subtasks spent blocked on synchronous reloads of spilled input blocks.",
			Type: PromCounter, Value: s.ReloadStallSeconds},
	}
}
