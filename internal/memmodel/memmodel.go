// Package memmodel is the analytical memory-pressure model used by the
// cluster simulator in place of a real managed runtime.
//
// The paper's system runs on the JVM, where co-locating jobs inflates heap
// occupancy and triggers garbage-collection overheads well before memory
// exhaustion, and out-of-memory errors once the working set exceeds
// capacity (§II-B, Fig. 4). This package reproduces both cliffs:
//
//   - OOM when resident heap exceeds machine capacity;
//   - a GC slowdown factor that is negligible below ~60% occupancy and
//     grows super-linearly as occupancy approaches 100%, matching the
//     "GC explodes" behaviour reported for low spill ratios in §V-G.
package memmodel

import "errors"

// ErrOOM reports that the combined working set of co-located jobs exceeds
// machine memory; in the paper this kills every co-located job (§VI).
var ErrOOM = errors.New("memmodel: out of memory")

// GCKneeOccupancy is the heap occupancy below which garbage collection is
// effectively free: generational collectors reclaim the young generation
// without touching the bulk of the heap.
const GCKneeOccupancy = 0.60

// GCOverheadLimitOccupancy is the occupancy at which the JVM gives up:
// nearly all CPU goes to collection and the runtime throws
// "GC overhead limit exceeded", which kills the process just like a hard
// allocation failure. The simulator treats this as OOM.
const GCOverheadLimitOccupancy = 0.97

// gcSteepness calibrates how quickly GC overhead grows past the knee. At
// 85% occupancy the factor is ~0.21 (21% slowdown), at 95% ~1.2, diverging
// toward full stalls as occupancy approaches 1.
const gcSteepness = 0.5

// maxGCFactor caps the GC slowdown at a full stall: a 100x-slower job is
// operationally dead, and unbounded factors would overflow virtual time.
const maxGCFactor = 100

// GCFactor returns the fraction of extra CPU time spent in garbage
// collection at the given heap occupancy: compute time is stretched by
// (1 + GCFactor). Occupancy at or above 1.0 is an OOM condition and
// reports a very large factor; the simulator reports ErrOOM first.
func GCFactor(occupancy float64) float64 {
	if occupancy <= GCKneeOccupancy {
		return 0
	}
	if occupancy >= 1 {
		return maxGCFactor // effectively stalled; ErrOOM comes before this matters
	}
	over := occupancy - GCKneeOccupancy
	f := gcSteepness * over * over / (1 - occupancy)
	if f > maxGCFactor {
		// The hyperbola diverges as occupancy approaches 1; cap it at the
		// stall value so downstream durations stay finite.
		f = maxGCFactor
	}
	return f
}

// Occupancy returns usedGB/capacityGB clamped to [0, ∞); a capacity of
// zero or less reports full occupancy.
func Occupancy(usedGB, capacityGB float64) float64 {
	if capacityGB <= 0 {
		return 1
	}
	if usedGB < 0 {
		return 0
	}
	return usedGB / capacityGB
}
