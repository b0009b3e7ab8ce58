package metrics

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

// count is the total number of observations in the snapshot.
func count(s HistSnapshot) int64 {
	n := s.Inf
	for _, c := range s.Counts {
		n += c
	}
	return n
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	h.Observe(0)      // at or below the first bound
	h.Observe(1e-6)   // exactly the first bound (inclusive)
	h.Observe(1.5e-6) // second bucket
	h.Observe(1.0)    // somewhere in the middle
	h.Observe(1e9)    // beyond the last finite bound
	s := h.Snapshot()
	if s.Counts[0] != 2 {
		t.Errorf("bucket 0 = %d, want 2 (0 and 1e-6 are both ≤ 1µs)", s.Counts[0])
	}
	if s.Counts[1] != 1 {
		t.Errorf("bucket 1 = %d, want 1", s.Counts[1])
	}
	if s.Inf != 1 {
		t.Errorf("+Inf bucket = %d, want 1", s.Inf)
	}
	if count(s) != 5 {
		t.Errorf("count = %d, want 5", count(s))
	}
	if math.Abs(s.Sum-(1e-6+1.5e-6+1.0+1e9)) > 1e9*1e-9 {
		t.Errorf("sum = %v", s.Sum)
	}
	// The 1.0s observation must land in a bucket whose bound covers it
	// and whose predecessor does not.
	found := -1
	for i := 0; i < HistBuckets; i++ {
		if i >= 2 && s.Counts[i] == 1 {
			found = i
		}
	}
	if found < 0 || histBounds[found] < 1.0 || (found > 0 && histBounds[found-1] >= 1.0) {
		t.Errorf("1.0s observation in bucket %d (bound %v)", found, histBounds[found])
	}
}

func TestHistogramSnapshotAdd(t *testing.T) {
	var a, b Histogram
	a.Observe(0.5)
	b.Observe(0.5)
	b.Observe(1e12)
	sum := a.Snapshot().Add(b.Snapshot())
	if count(sum) != 3 || sum.Inf != 1 {
		t.Errorf("aggregated snapshot = %+v", sum)
	}
}

// TestHistogramPrometheusRendering pins the exposition-format contract:
// one TYPE histogram line per family, cumulative buckets ending in
// le="+Inf", and _sum/_count rows whose count equals the +Inf bucket.
func TestHistogramPrometheusRendering(t *testing.T) {
	var h Histogram
	h.Observe(1e-6) // bucket 0
	h.Observe(1e-6) // bucket 0
	h.Observe(2e-6) // bucket 1
	h.Observe(1e9)  // +Inf

	var samples []Sample
	samples = AppendHistogram(samples, "harmony_phase_seconds",
		"Phase latency.", `phase="comp"`, h.Snapshot())
	samples = AppendHistogram(samples, "harmony_phase_seconds",
		"", `phase="pull"`, HistSnapshot{})
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, samples); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	if n := strings.Count(out, "# TYPE harmony_phase_seconds histogram"); n != 1 {
		t.Errorf("TYPE lines = %d, want exactly 1:\n%s", n, out)
	}
	for _, want := range []string{
		`harmony_phase_seconds_bucket{phase="comp",le="1e-06"} 2`,
		`harmony_phase_seconds_bucket{phase="comp",le="2e-06"} 3`, // cumulative
		`harmony_phase_seconds_bucket{phase="comp",le="+Inf"} 4`,
		`harmony_phase_seconds_count{phase="comp"} 4`,
		`harmony_phase_seconds_bucket{phase="pull",le="+Inf"} 0`,
		`harmony_phase_seconds_count{phase="pull"} 0`,
		`harmony_phase_seconds_sum{phase="pull"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in rendering:\n%s", want, out)
		}
	}
	// _sum carries the observed seconds (1e-6+1e-6+2e-6+1e9 ≈ 1e9).
	sumOK := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `harmony_phase_seconds_sum{phase="comp"}`) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			sumOK = math.Abs(v-1e9) < 1
		}
	}
	if !sumOK {
		t.Errorf("missing comp _sum near 1e9:\n%s", out)
	}
	// Buckets must be monotonically non-decreasing within one series set.
	var prev float64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `harmony_phase_seconds_bucket{phase="comp"`) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Errorf("bucket cumulativity violated at %q (prev %v)", line, prev)
		}
		prev = v
	}
}
