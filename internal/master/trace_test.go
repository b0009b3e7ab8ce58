package master

import (
	"testing"
	"time"
)

// TestTelemetryReadsTakeReadLock pins DESIGN.md §15's "status surfaces
// take the read side" for the trace scrapes: with a reader already holding
// mu, each of them completes instead of queueing as a writer.
func TestTelemetryReadsTakeReadLock(t *testing.T) {
	m := &Master{}
	m.EnableTracing(0)
	m.mu.RLock()
	defer m.mu.RUnlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !m.TracingEnabled() {
			t.Error("TracingEnabled = false after EnableTracing")
		}
		if spans := m.CollectSpans(); len(spans) != 0 {
			t.Errorf("CollectSpans with no workers = %d spans, want 0", len(spans))
		}
		if _, ok := m.PhaseStats(); !ok {
			t.Error("PhaseStats ok = false with tracing enabled")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a telemetry read blocked behind a held read lock")
	}
}
