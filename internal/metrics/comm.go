package metrics

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// CommCounters aggregates live data-plane traffic: operation counts,
// bytes moved and cumulative latency for the PULL and PUSH subtasks, how
// the servers answered the pulled stripes (whole, as a delta, or "not
// modified"). Counters are atomic so every ps.Client in the process (one
// per loaded job per worker) can record without coordination.
type CommCounters struct {
	pulls        atomic.Int64
	pushes       atomic.Int64
	pullBytes    atomic.Int64
	pushBytes    atomic.Int64
	pullNanos    atomic.Int64
	pushNanos    atomic.Int64
	fullReplies  atomic.Int64
	deltaReplies atomic.Int64
	sameReplies  atomic.Int64
}

// Comm is the process-wide data-plane counter set; ps.Client records
// into it and the control plane's /metrics endpoint exposes it.
var Comm CommCounters

// processID distinguishes counter-owning processes so an aggregator
// (the master summing worker stats) can dedupe: in-process workers all
// report the same global Comm and must be counted once, while separate
// worker processes each contribute their own.
var processID = fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano())

// ProcessID identifies this process's Comm counters; see CommSnapshot
// aggregation in the master.
func ProcessID() string { return processID }

// ObservePull records one completed pull: the reply bytes that actually
// moved and wall-clock latency across the server fan-out.
func (c *CommCounters) ObservePull(bytes int64, d time.Duration) {
	c.pulls.Add(1)
	c.pullBytes.Add(bytes)
	c.pullNanos.Add(int64(d))
}

// ObservePush records one completed push: the request bytes that
// actually moved (nothing for stripes the delta left unchanged).
func (c *CommCounters) ObservePush(bytes int64, d time.Duration) {
	c.pushes.Add(1)
	c.pushBytes.Add(bytes)
	c.pushNanos.Add(int64(d))
}

// ObservePullReplies records how one pull's stripes were answered: sent
// whole, as the elements changed since the caller's cursor, or as "not
// modified".
func (c *CommCounters) ObservePullReplies(full, delta, notModified int64) {
	c.fullReplies.Add(full)
	c.deltaReplies.Add(delta)
	c.sameReplies.Add(notModified)
}

// CommSnapshot is a point-in-time copy of the data-plane counters.
type CommSnapshot struct {
	Pulls       int64
	Pushes      int64
	PullBytes   int64
	PushBytes   int64
	PullSeconds float64
	PushSeconds float64
	// Per-stripe pull outcomes (fields a peer does not know decode as
	// zero).
	FullReplies        int64
	DeltaReplies       int64
	NotModifiedReplies int64
}

// Snapshot copies the counters. The fields are read independently, so a
// snapshot taken mid-operation may be skewed by one in-flight op — fine
// for monitoring.
func (c *CommCounters) Snapshot() CommSnapshot {
	return CommSnapshot{
		Pulls:       c.pulls.Load(),
		Pushes:      c.pushes.Load(),
		PullBytes:   c.pullBytes.Load(),
		PushBytes:   c.pushBytes.Load(),
		PullSeconds: time.Duration(c.pullNanos.Load()).Seconds(),
		PushSeconds: time.Duration(c.pushNanos.Load()).Seconds(),

		FullReplies:        c.fullReplies.Load(),
		DeltaReplies:       c.deltaReplies.Load(),
		NotModifiedReplies: c.sameReplies.Load(),
	}
}

// Add accumulates another snapshot (cross-process aggregation).
func (s CommSnapshot) Add(o CommSnapshot) CommSnapshot {
	return CommSnapshot{
		Pulls:       s.Pulls + o.Pulls,
		Pushes:      s.Pushes + o.Pushes,
		PullBytes:   s.PullBytes + o.PullBytes,
		PushBytes:   s.PushBytes + o.PushBytes,
		PullSeconds: s.PullSeconds + o.PullSeconds,
		PushSeconds: s.PushSeconds + o.PushSeconds,

		FullReplies:        s.FullReplies + o.FullReplies,
		DeltaReplies:       s.DeltaReplies + o.DeltaReplies,
		NotModifiedReplies: s.NotModifiedReplies + o.NotModifiedReplies,
	}
}

// CommSamples renders an (possibly aggregated) snapshot in the same
// Prometheus families as CommCounters.Samples.
func CommSamples(s CommSnapshot) []Sample {
	return []Sample{
		{Name: `harmony_comm_ops_total{op="pull"}`,
			Help: "Completed data-plane operations, by op (pull or push).",
			Type: PromCounter, Value: float64(s.Pulls)},
		{Name: `harmony_comm_ops_total{op="push"}`,
			Type: PromCounter, Value: float64(s.Pushes)},
		{Name: `harmony_comm_bytes_total{op="pull"}`,
			Help: "Model payload bytes moved through the data plane, by op.",
			Type: PromCounter, Value: float64(s.PullBytes)},
		{Name: `harmony_comm_bytes_total{op="push"}`,
			Type: PromCounter, Value: float64(s.PushBytes)},
		{Name: `harmony_comm_seconds_total{op="pull"}`,
			Help: "Cumulative data-plane operation latency in seconds, by op.",
			Type: PromCounter, Value: s.PullSeconds},
		{Name: `harmony_comm_seconds_total{op="push"}`,
			Type: PromCounter, Value: s.PushSeconds},
		{Name: `harmony_ps_pull_replies_total{kind="full"}`,
			Help: "Stripes answered to pulls, by kind: sent whole, as a delta since the caller's cursor, or not modified.",
			Type: PromCounter, Value: float64(s.FullReplies)},
		{Name: `harmony_ps_pull_replies_total{kind="delta"}`,
			Type: PromCounter, Value: float64(s.DeltaReplies)},
		{Name: `harmony_ps_pull_replies_total{kind="not_modified"}`,
			Type: PromCounter, Value: float64(s.NotModifiedReplies)},
	}
}
