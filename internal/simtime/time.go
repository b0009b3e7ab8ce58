// Package simtime provides a virtual clock and a deterministic
// discrete-event queue used by the cluster simulator.
//
// Virtual time is tracked as an integer number of microseconds so that
// event ordering is exact and runs are reproducible across platforms.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Time is an instant on the virtual time line, in microseconds since the
// start of the simulation.
type Time int64

// Duration is a span of virtual time, in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// MaxTime is the largest representable virtual instant.
const MaxTime Time = math.MaxInt64

// FromSeconds converts a floating-point number of seconds to a Duration,
// rounding to the nearest microsecond and saturating instead of
// overflowing for absurdly large inputs.
func FromSeconds(s float64) Duration {
	us := math.Round(s * 1e6)
	if us >= math.MaxInt64 {
		return Duration(math.MaxInt64)
	}
	if us <= math.MinInt64 {
		return Duration(math.MinInt64)
	}
	return Duration(us)
}

// FromStd converts a time.Duration to a virtual Duration.
func FromStd(d time.Duration) Duration {
	return Duration(d / time.Microsecond)
}

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e6 }

// Std converts the virtual duration to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// String formats the duration using time.Duration notation.
func (d Duration) String() string { return d.Std().String() }

// Add returns the instant d after t, saturating at MaxTime on overflow.
func (t Time) Add(d Duration) Time {
	sum := t + Time(d)
	if d > 0 && sum < t {
		return MaxTime
	}
	return sum
}

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports the instant as seconds since the simulation start.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// String formats the instant as an offset from the simulation start.
func (t Time) String() string {
	return fmt.Sprintf("t+%s", (time.Duration(t) * time.Microsecond).String())
}
