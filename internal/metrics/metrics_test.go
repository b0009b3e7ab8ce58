package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"harmony/internal/simtime"
)

func TestResourceString(t *testing.T) {
	if CPU.String() != "CPU" || Net.String() != "Network" || Disk.String() != "Disk" {
		t.Error("resource names wrong")
	}
	if Resource(9).String() != "Resource(9)" {
		t.Error("unknown resource name wrong")
	}
}

func TestUtilRecorderSingleInterval(t *testing.T) {
	u := NewUtilRecorder(10, simtime.Minute)
	// 5 machines busy for 30s within the first minute: 150/600 = 0.25.
	u.AddBusy(CPU, 0, simtime.Time(30*simtime.Second), 5)
	series := u.Series(CPU)
	if len(series) != 1 {
		t.Fatalf("series length %d, want 1", len(series))
	}
	if math.Abs(series[0]-0.25) > 1e-9 {
		t.Errorf("utilization = %v, want 0.25", series[0])
	}
}

func TestUtilRecorderSpansBuckets(t *testing.T) {
	u := NewUtilRecorder(1, simtime.Minute)
	// Busy from 30s to 90s: half of bucket 0 and half of bucket 1.
	u.AddBusy(Net, simtime.Time(30*simtime.Second), simtime.Time(90*simtime.Second), 1)
	series := u.Series(Net)
	if len(series) != 2 {
		t.Fatalf("series length %d, want 2", len(series))
	}
	for i, v := range series {
		if math.Abs(v-0.5) > 1e-9 {
			t.Errorf("bucket %d = %v, want 0.5", i, v)
		}
	}
}

func TestUtilRecorderAccumulates(t *testing.T) {
	u := NewUtilRecorder(2, simtime.Minute)
	end := simtime.Time(simtime.Minute)
	u.AddBusy(CPU, 0, end, 1)
	u.AddBusy(CPU, 0, end, 1)
	if got := u.Series(CPU)[0]; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("two disjoint machines = %v, want 1.0", got)
	}
}

func TestUtilRecorderIgnoresBadInput(t *testing.T) {
	u := NewUtilRecorder(1, simtime.Minute)
	u.AddBusy(CPU, simtime.Time(simtime.Second), 0, 1) // to <= from
	u.AddBusy(CPU, 0, simtime.Time(simtime.Second), 0) // n == 0
	u.AddBusy(Resource(99), 0, simtime.Time(simtime.Second), 1)
	if len(u.Series(CPU)) != 0 {
		t.Error("bad input recorded busy time")
	}
	if u.Series(Resource(99)) != nil {
		t.Error("unknown resource returned a series")
	}
}

func TestUtilMean(t *testing.T) {
	u := NewUtilRecorder(4, simtime.Minute)
	// 4 machines fully busy for 2 minutes, then idle for 2 minutes.
	u.AddBusy(CPU, 0, simtime.Time(2*simtime.Minute), 4)
	got := u.Mean(CPU, simtime.Time(4*simtime.Minute))
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Mean = %v, want 0.5", got)
	}
	if u.Mean(CPU, 0) != 0 {
		t.Error("Mean over empty window should be 0")
	}
}

// TestUtilWindowMean: the mean over a window is the mean of the Series
// values of the intervals it overlaps, to the bit, and stops at the last
// recorded interval.
func TestUtilWindowMean(t *testing.T) {
	u := NewUtilRecorder(3, simtime.Minute)
	u.AddBusy(CPU, 0, simtime.Time(150*simtime.Second), 2)
	u.AddBusyWeighted(CPU, simtime.Time(70*simtime.Second), simtime.Time(200*simtime.Second), 0.7)
	series := u.Series(CPU)
	at := func(sec int) simtime.Time { return simtime.Time(simtime.Duration(sec) * simtime.Second) }
	for _, w := range []struct {
		from, to    int
		first, last int // the intervals averaged
	}{{0, 60, 0, 0}, {30, 61, 0, 1}, {61, 200, 1, 3}, {0, 3600, 0, 3}, {130, 140, 2, 2}} {
		var want float64
		for _, v := range series[w.first : w.last+1] {
			want += v
		}
		want /= float64(w.last - w.first + 1)
		if got := u.WindowMean(CPU, at(w.from), at(w.to)); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("[%ds, %ds): %v, want %v", w.from, w.to, got, want)
		}
	}
	if u.WindowMean(CPU, at(60), at(60)) != 0 || u.WindowMean(CPU, at(600), at(700)) != 0 || u.WindowMean(Net, 0, at(60)) != 0 {
		t.Error("an empty window, one past the record or an unrecorded resource must be 0")
	}
}

// TestUtilConservation checks by property that total recorded busy time is
// preserved across bucket boundaries.
func TestUtilConservation(t *testing.T) {
	f := func(startSec, durSec uint16, n uint8) bool {
		u := NewUtilRecorder(100, simtime.Minute)
		from := simtime.Time(simtime.Duration(startSec) * simtime.Second)
		to := from.Add(simtime.Duration(durSec+1) * simtime.Second)
		machines := int(n%10) + 1
		u.AddBusy(CPU, from, to, machines)
		var sum float64
		for _, v := range u.Series(CPU) {
			sum += v * 60 * 100 // back to machine-seconds
		}
		want := to.Sub(from).Seconds() * float64(machines)
		return math.Abs(sum-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJobRecordJCT(t *testing.T) {
	r := JobRecord{
		Submit: simtime.Time(simtime.Minute),
		Finish: simtime.Time(10 * simtime.Minute),
	}
	if got := r.JCT(); got != 9*simtime.Minute {
		t.Errorf("JCT = %v, want 9m", got)
	}
}

func TestSummarize(t *testing.T) {
	recs := []JobRecord{
		{ID: "a", Submit: 0, Finish: simtime.Time(10 * simtime.Minute)},
		{ID: "b", Submit: simtime.Time(2 * simtime.Minute), Finish: simtime.Time(22 * simtime.Minute)},
	}
	s := Summarize(recs, nil)
	if s.MeanJCT != 15*simtime.Minute {
		t.Errorf("MeanJCT = %v, want 15m", s.MeanJCT)
	}
	if s.Makespan != 22*simtime.Minute {
		t.Errorf("Makespan = %v, want 22m", s.Makespan)
	}
	if empty := Summarize(nil, nil); empty.Makespan != 0 || empty.MeanJCT != 0 {
		t.Error("empty summarize should be zero")
	}
}

func TestCDFAndPercentile(t *testing.T) {
	vals := []float64{3, 1, 2}
	cdf := CDF(vals)
	if cdf[0] != 1 || cdf[1] != 2 || cdf[2] != 3 {
		t.Errorf("CDF = %v, want sorted", cdf)
	}
	if vals[0] != 3 {
		t.Error("CDF mutated its input")
	}
	if got := Percentile(vals, 50); got != 2 {
		t.Errorf("P50 = %v, want 2", got)
	}
	if got := Percentile(vals, 100); got != 3 {
		t.Errorf("P100 = %v, want 3", got)
	}
	if got := Percentile(vals, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("P50(empty) = %v, want 0", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}
