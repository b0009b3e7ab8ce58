package profile

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestObserveFirstSample(t *testing.T) {
	s := NewStore(0.3)
	if err := s.Observe("j1", 8, 10, 5); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Metrics("j1")
	if !ok {
		t.Fatal("Metrics() not found after Observe")
	}
	if m.CompMachineSeconds != 80 {
		t.Errorf("CompMachineSeconds = %v, want 80 (10s at DoP 8)", m.CompMachineSeconds)
	}
	if m.NetSeconds != 5 || m.DoP != 8 || m.Samples != 1 {
		t.Errorf("metrics = %+v, want net 5, dop 8, samples 1", m)
	}
	if m.Profiled() {
		t.Error("Profiled() = true after 1 sample, want false")
	}
}

func TestObserveEWMA(t *testing.T) {
	s := NewStore(0.5)
	mustObserve(t, s, "j", 4, 10, 2) // comp 40
	mustObserve(t, s, "j", 4, 20, 4) // comp 80
	m, _ := s.Metrics("j")
	if math.Abs(m.CompMachineSeconds-60) > 1e-9 {
		t.Errorf("comp = %v, want 60 (EWMA of 40, 80 with alpha 0.5)", m.CompMachineSeconds)
	}
	if math.Abs(m.NetSeconds-3) > 1e-9 {
		t.Errorf("net = %v, want 3", m.NetSeconds)
	}
}

func TestObserveDoPNormalization(t *testing.T) {
	// Observations of the same job at different DoPs converge to the same
	// normalized comp cost thanks to Eq. 2.
	s := NewStore(0.3)
	mustObserve(t, s, "j", 4, 25, 5)  // 100 machine-seconds
	mustObserve(t, s, "j", 10, 10, 5) // 100 machine-seconds
	m, _ := s.Metrics("j")
	if math.Abs(m.CompMachineSeconds-100) > 1e-9 {
		t.Errorf("comp = %v, want 100 independent of observation DoP", m.CompMachineSeconds)
	}
}

func TestObserveErrors(t *testing.T) {
	s := NewStore(0.3)
	if err := s.Observe("j", 0, 1, 1); err == nil {
		t.Error("Observe with DoP 0 succeeded")
	}
	if err := s.Observe("j", 1, -1, 1); err == nil {
		t.Error("Observe with negative tcpu succeeded")
	}
	if err := s.Observe("j", 1, 1, -1); err == nil {
		t.Error("Observe with negative tnet succeeded")
	}
	if s.Len() != 0 {
		t.Error("failed observes were recorded")
	}
}

func TestProfiledThreshold(t *testing.T) {
	s := NewStore(0.3)
	for i := 0; i < MinSamples; i++ {
		m, _ := s.Metrics("j")
		if m.Profiled() {
			t.Fatalf("Profiled() = true after %d samples", i)
		}
		mustObserve(t, s, "j", 2, 1, 1)
	}
	m, _ := s.Metrics("j")
	if !m.Profiled() {
		t.Errorf("Profiled() = false after %d samples", MinSamples)
	}
}

func TestForget(t *testing.T) {
	s := NewStore(0.3)
	mustObserve(t, s, "j", 1, 1, 1)
	s.Forget("j")
	if _, ok := s.Metrics("j"); ok {
		t.Error("Metrics() found after Forget")
	}
	if s.Len() != 0 {
		t.Errorf("Len() = %d after Forget, want 0", s.Len())
	}
}

func TestNewStoreBadAlphaFallsBack(t *testing.T) {
	for _, alpha := range []float64{-1, 0, 1.5} {
		s := NewStore(alpha)
		if s.alpha != DefaultEWMAAlpha {
			t.Errorf("NewStore(%v) alpha = %v, want default", alpha, s.alpha)
		}
	}
}

// TestEWMAConvergence checks by property that repeated observations of a
// constant signal converge to that signal.
func TestEWMAConvergence(t *testing.T) {
	f := func(comp16, net16 uint16) bool {
		comp, net := float64(comp16)+1, float64(net16)+1
		s := NewStore(0.3)
		for i := 0; i < 60; i++ {
			if err := s.Observe("j", 4, comp/4, net); err != nil {
				return false
			}
		}
		m, _ := s.Metrics("j")
		return math.Abs(m.CompMachineSeconds-comp) < comp*1e-6 &&
			math.Abs(m.NetSeconds-net) < net*1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(0.3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := string(rune('a' + g%4))
			for i := 0; i < 100; i++ {
				_ = s.Observe(id, 2, 1, 1)
				s.Metrics(id)
				s.Len()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Errorf("Len() = %d, want 4", s.Len())
	}
}

func mustObserve(t *testing.T, s *Store, id string, dop int, tcpu, tnet float64) {
	t.Helper()
	if err := s.Observe(id, dop, tcpu, tnet); err != nil {
		t.Fatal(err)
	}
}
