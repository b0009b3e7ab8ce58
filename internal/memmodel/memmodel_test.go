package memmodel

import (
	"testing"
	"testing/quick"
)

func TestGCFactorBelowKnee(t *testing.T) {
	for _, occ := range []float64{0, 0.1, 0.3, GCKneeOccupancy} {
		if got := GCFactor(occ); got != 0 {
			t.Errorf("GCFactor(%v) = %v, want 0 below knee", occ, got)
		}
	}
}

func TestGCFactorGrowth(t *testing.T) {
	// Strictly increasing past the knee, and steep near full occupancy.
	prev := 0.0
	for _, occ := range []float64{0.65, 0.75, 0.85, 0.92, 0.97, 0.99} {
		got := GCFactor(occ)
		if got <= prev {
			t.Errorf("GCFactor(%v) = %v, not increasing (prev %v)", occ, got, prev)
		}
		prev = got
	}
	if f := GCFactor(0.85); f < 0.1 || f > 0.4 {
		t.Errorf("GCFactor(0.85) = %v, want moderate slowdown in [0.1, 0.4]", f)
	}
	if f := GCFactor(0.99); f < 2 {
		t.Errorf("GCFactor(0.99) = %v, want severe slowdown >= 2", f)
	}
	if f := GCFactor(1.0); f != 100 {
		t.Errorf("GCFactor(1.0) = %v, want stall value 100", f)
	}
}

func TestOccupancy(t *testing.T) {
	tests := []struct {
		used, cap, want float64
	}{
		{16, 32, 0.5},
		{0, 32, 0},
		{-5, 32, 0},
		{10, 0, 1},
		{48, 32, 1.5},
	}
	for _, tt := range tests {
		if got := Occupancy(tt.used, tt.cap); got != tt.want {
			t.Errorf("Occupancy(%v, %v) = %v, want %v", tt.used, tt.cap, got, tt.want)
		}
	}
}

// TestGCFactorMonotone checks by property that more occupancy never means
// less GC overhead.
func TestGCFactorMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x := float64(a) / 65535
		y := float64(b) / 65535
		if x > y {
			x, y = y, x
		}
		return GCFactor(x) <= GCFactor(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
