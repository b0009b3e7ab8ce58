package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDurationConversions(t *testing.T) {
	tests := []struct {
		name string
		d    Duration
		want float64
	}{
		{name: "second", d: Second, want: 1},
		{name: "minute", d: Minute, want: 60},
		{name: "hour", d: Hour, want: 3600},
		{name: "millisecond", d: Millisecond, want: 0.001},
		{name: "zero", d: 0, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.d.Seconds(); got != tt.want {
				t.Errorf("Seconds() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(ms int32) bool {
		s := float64(ms) / 1000.0
		d := FromSeconds(s)
		return d == Duration(ms)*Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromStd(t *testing.T) {
	if got := FromStd(3 * time.Second); got != 3*Second {
		t.Errorf("FromStd(3s) = %v, want %v", got, 3*Second)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0)
	t1 := t0.Add(90 * Second)
	if got := t1.Seconds(); got != 90 {
		t.Errorf("Seconds() = %v, want 90", got)
	}
	if got := t1.Sub(t0); got != 90*Second {
		t.Errorf("Sub = %v, want 90s", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(Time(30*Second), func() { got = append(got, 3) })
	e.At(Time(10*Second), func() { got = append(got, 1) })
	e.At(Time(20*Second), func() { got = append(got, 2) })
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events fired in order %v, want %v", got, want)
		}
	}
	if e.Now() != Time(30*Second) {
		t.Errorf("Now() = %v, want 30s", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(Second), func() { got = append(got, i) })
	}
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestEngineAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(Second, func() {
		fired = append(fired, e.Now())
		e.After(2*Second, func() {
			fired = append(fired, e.Now())
		})
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Time(Second) || fired[1] != Time(3*Second) {
		t.Errorf("fired at %v, want [1s 3s]", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.After(Second, func() { fired = true })
	e.Cancel(ev)
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
	if !ev.canceled {
		t.Error("canceled = false after Cancel")
	}
	// Double-cancel is a no-op.
	e.Cancel(ev)
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var got []int
	var evs []*Event
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, e.At(Time(Duration(i+1)*Second), func() { got = append(got, i) }))
	}
	e.Cancel(evs[2])
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineRunDeadline(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(Time(Second), func() { count++ })
	e.At(Time(10*Second), func() { count++ })
	if err := e.Run(Time(5 * Second)); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("fired %d events before deadline, want 1", count)
	}
	if e.Now() != Time(5*Second) {
		t.Errorf("Now() = %v, want deadline 5s", e.Now())
	}
	if e.Len() != 1 {
		t.Errorf("Len() = %d, want 1 pending", e.Len())
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	count := 0
	e.At(Time(Second), func() { count++; e.Halt() })
	e.At(Time(2*Second), func() { count++ })
	if err := e.RunAll(); err != ErrHalted {
		t.Fatalf("RunAll() = %v, want ErrHalted", err)
	}
	if count != 1 {
		t.Errorf("fired %d events, want 1", count)
	}
}

func TestEnginePastEventClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(Time(10*Second), func() {
		e.At(Time(Second), func() { at = e.Now() })
	})
	if err := e.RunAll(); err != nil {
		t.Fatal(err)
	}
	if at != Time(10*Second) {
		t.Errorf("past-scheduled event fired at %v, want clamp to 10s", at)
	}
}

func TestEngineStep(t *testing.T) {
	e := NewEngine()
	e.At(Time(Second), func() {})
	if !e.Step() {
		t.Fatal("Step() = false with pending event")
	}
	if e.Step() {
		t.Fatal("Step() = true with empty queue")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var log []Time
		var tick func(n int)
		tick = func(n int) {
			log = append(log, e.Now())
			if n < 20 {
				e.After(Duration(n%3+1)*Second, func() { tick(n + 1) })
				if n%4 == 0 {
					e.After(500*Millisecond, func() { log = append(log, e.Now()) })
				}
			}
		}
		e.After(0, func() { tick(0) })
		if err := e.RunAll(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic run lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic event at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
