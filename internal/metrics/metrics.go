// Package metrics accumulates resource-utilization time series and job
// completion statistics for simulated and live runs.
//
// Utilization is recorded the way the paper measures it (§V-B): busy time
// per resource, averaged over one-minute intervals, relative to the whole
// cluster.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"harmony/internal/simtime"
)

// Resource identifies which resource a busy interval used.
type Resource int

// Resources tracked by the recorder.
const (
	CPU Resource = iota + 1
	Net
	Disk
)

// String names the resource.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "CPU"
	case Net:
		return "Network"
	case Disk:
		return "Disk"
	default:
		return fmt.Sprintf("Resource(%d)", int(r))
	}
}

const numResources = 3

// UtilRecorder bins busy machine-time per resource into fixed sampling
// intervals, normalized by total cluster size.
type UtilRecorder struct {
	interval    simtime.Duration
	clusterSize int
	busy        [numResources][]float64 // machine-seconds per bucket
	maxTime     simtime.Time
}

// NewUtilRecorder creates a recorder for a cluster of the given size,
// sampling at the given interval (the paper uses one minute).
func NewUtilRecorder(clusterSize int, interval simtime.Duration) *UtilRecorder {
	if clusterSize < 1 {
		clusterSize = 1
	}
	if interval <= 0 {
		interval = simtime.Minute
	}
	return &UtilRecorder{interval: interval, clusterSize: clusterSize}
}

// AddBusy records that n machines kept the resource busy from 'from' to
// 'to'. Overlapping calls accumulate, so concurrent busy jobs on disjoint
// machines sum correctly.
func (u *UtilRecorder) AddBusy(r Resource, from, to simtime.Time, n int) {
	u.AddBusyWeighted(r, from, to, float64(n))
}

// AddBusyWeighted records fractionally-busy machine time: weight is the
// number of machines multiplied by the busy fraction that held over the
// interval (fluid-flow resources are often partially busy).
func (u *UtilRecorder) AddBusyWeighted(r Resource, from, to simtime.Time, weight float64) {
	if to <= from || weight <= 0 {
		return
	}
	idx := int(r) - 1
	if idx < 0 || idx >= numResources {
		return
	}
	if to > u.maxTime {
		u.maxTime = to
	}
	firstBucket := int(int64(from) / int64(u.interval))
	lastBucket := int(int64(to-1) / int64(u.interval))
	if need := lastBucket + 1; need > len(u.busy[idx]) {
		cur := u.busy[idx]
		if need <= cap(cur) {
			// Slots past len were zeroed at allocation and never written.
			cur = cur[:need]
		} else {
			// Grow geometrically: busy time extends one bucket at a time
			// over a whole run, and exact-size reallocation would copy the
			// entire series each minute.
			newCap := 2 * cap(cur)
			if newCap < need {
				newCap = need
			}
			grown := make([]float64, need, newCap)
			copy(grown, cur)
			cur = grown
		}
		u.busy[idx] = cur
	}
	for b := firstBucket; b <= lastBucket; b++ {
		bStart := simtime.Time(int64(b) * int64(u.interval))
		bEnd := bStart.Add(u.interval)
		s, e := from, to
		if s < bStart {
			s = bStart
		}
		if e > bEnd {
			e = bEnd
		}
		u.busy[idx][b] += e.Sub(s).Seconds() * weight
	}
}

// Series returns the utilization fraction per sampling interval for the
// resource, truncated at the last recorded activity.
func (u *UtilRecorder) Series(r Resource) []float64 {
	idx := int(r) - 1
	if idx < 0 || idx >= numResources {
		return nil
	}
	capacity := u.interval.Seconds() * float64(u.clusterSize)
	out := make([]float64, len(u.busy[idx]))
	for i, b := range u.busy[idx] {
		out[i] = b / capacity
	}
	return out
}

// Mean returns the average utilization of the resource between time zero
// and the given end (typically the makespan).
func (u *UtilRecorder) Mean(r Resource, end simtime.Time) float64 {
	idx := int(r) - 1
	if idx < 0 || idx >= numResources || end <= 0 {
		return 0
	}
	var busy float64
	lastBucket := int(int64(end-1) / int64(u.interval))
	for b, v := range u.busy[idx] {
		if b > lastBucket {
			break
		}
		busy += v
	}
	return busy / (end.Seconds() * float64(u.clusterSize))
}

// WindowMean returns the mean utilization of the resource over the
// sampling intervals [from, to) overlaps, up to the last one recorded: each
// interval's Series value, summed in ascending order and divided by their
// count. It is 0 when to <= from or no such interval is recorded.
func (u *UtilRecorder) WindowMean(r Resource, from, to simtime.Time) float64 {
	idx := int(r) - 1
	if idx < 0 || idx >= numResources || to <= from {
		return 0
	}
	busy, n := u.busy[idx], len(u.busy[idx])
	busy = busy[min(int(int64(from)/int64(u.interval)), n):min(int(int64(to-1)/int64(u.interval))+1, n)]
	sum, capacity := 0.0, u.interval.Seconds()*float64(u.clusterSize)
	for _, b := range busy {
		sum += b / capacity
	}
	return sum / float64(max(len(busy), 1))
}

// JobRecord captures the lifecycle timestamps of one finished job.
type JobRecord struct {
	ID     string
	Submit simtime.Time
	Start  simtime.Time
	Finish simtime.Time
}

// JCT returns the job completion time: submission to termination (§V-C).
func (j JobRecord) JCT() simtime.Duration { return j.Finish.Sub(j.Submit) }

// Summary aggregates the outcome of one scheduling run.
type Summary struct {
	// MeanJCT is the average job completion time across all jobs.
	MeanJCT simtime.Duration
	// Makespan is the time from the first submission to the last finish.
	Makespan simtime.Duration
	// CPUUtil and NetUtil are mean utilizations over the makespan.
	CPUUtil float64
	NetUtil float64
}

// Summarize computes run statistics from job records and the recorder.
func Summarize(records []JobRecord, util *UtilRecorder) Summary {
	var s Summary
	if len(records) == 0 {
		return s
	}
	var total simtime.Duration
	var firstSubmit simtime.Time = math.MaxInt64
	var lastFinish simtime.Time
	for _, r := range records {
		total += r.JCT()
		if r.Submit < firstSubmit {
			firstSubmit = r.Submit
		}
		if r.Finish > lastFinish {
			lastFinish = r.Finish
		}
	}
	s.MeanJCT = total / simtime.Duration(len(records))
	s.Makespan = lastFinish.Sub(firstSubmit)
	if util != nil {
		s.CPUUtil = util.Mean(CPU, lastFinish)
		s.NetUtil = util.Mean(Net, lastFinish)
	}
	return s
}

// CDF returns the sorted copy of values, ready to print as an empirical
// cumulative distribution (the i-th value has cumulative probability
// (i+1)/n).
func CDF(values []float64) []float64 {
	out := make([]float64, len(values))
	copy(out, values)
	sort.Float64s(out)
	return out
}

// Percentile returns the p-th percentile (0..100) of values using
// nearest-rank on a sorted copy. It returns 0 for empty input.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := CDF(values)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Mean returns the arithmetic mean of values, or 0 for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
