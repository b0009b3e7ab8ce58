package trace

import (
	"sort"
	"testing"

	"harmony/internal/simtime"
)

func TestBatch(t *testing.T) {
	arr := Batch(5)
	if len(arr) != 5 {
		t.Fatalf("Batch(5) returned %d arrivals", len(arr))
	}
	for i, a := range arr {
		if a != 0 {
			t.Errorf("arrival %d = %v, want 0", i, a)
		}
	}
}

func TestPoissonMean(t *testing.T) {
	mean := 4 * simtime.Minute
	arr := Poisson(2000, mean, 7)
	if len(arr) != 2000 {
		t.Fatalf("returned %d arrivals", len(arr))
	}
	got := arr[len(arr)-1].Sub(arr[0]) / simtime.Duration(len(arr)-1)
	ratio := got.Seconds() / mean.Seconds()
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("mean interarrival = %v, want within 10%% of %v", got, mean)
	}
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i] < arr[j] }) {
		t.Error("arrivals not monotone")
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := Poisson(50, simtime.Minute, 42)
	b := Poisson(50, simtime.Minute, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := Poisson(50, simtime.Minute, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical arrivals")
	}
}

func TestPoissonZeroMeanIsBatch(t *testing.T) {
	arr := Poisson(10, 0, 1)
	for _, a := range arr {
		if a != 0 {
			t.Fatal("zero-mean Poisson should collapse to batch arrivals")
		}
	}
}

func TestBurstyProperties(t *testing.T) {
	arr := Bursty(500, 60, 11)
	if len(arr) != 500 {
		t.Fatalf("returned %d arrivals", len(arr))
	}
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i] < arr[j] }) {
		t.Error("arrivals not monotone")
	}
	// Burstier than Poisson: the gaps' second moment over their squared
	// mean is 1 + CV², 2 for Poisson.
	moment := func(arr []simtime.Time) float64 {
		var sum, sq float64
		for i := 1; i < len(arr); i++ {
			g := arr[i].Sub(arr[i-1]).Seconds()
			sum, sq = sum+g, sq+g*g
		}
		return sq * float64(len(arr)-1) / (sum * sum)
	}
	bb, bp := moment(arr), moment(Poisson(500, simtime.Minute, 11))
	if bb <= bp {
		t.Errorf("bursty 1+CV² %.2f <= poisson 1+CV² %.2f, want burstier", bb, bp)
	}
	// Contains at least one same-instant spike.
	spikes := 0
	for i := 1; i < len(arr); i++ {
		if arr[i] == arr[i-1] {
			spikes++
		}
	}
	if spikes == 0 {
		t.Error("no submission spikes in bursty trace")
	}
}

func TestBurstyEdgeCases(t *testing.T) {
	if got := Bursty(0, 60, 1); got != nil {
		t.Errorf("Bursty(0) = %v, want nil", got)
	}
	if got := Bursty(3, -5, 1); len(got) != 3 {
		t.Errorf("Bursty with bad rate returned %d arrivals, want fallback to default", len(got))
	}
}
