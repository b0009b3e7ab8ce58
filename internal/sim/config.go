// Package sim is the discrete-event cluster simulator that stands in for
// the paper's 100-machine EC2 testbed. It executes workloads under three
// scheduling regimes — Harmony, dedicated isolation, and naive
// co-location — at subtask granularity, modelling CPU, network, disk and
// memory exactly as DESIGN.md §2 describes.
//
// Each job group is simulated through its representative machine: with
// input data balanced across a group's machines, every machine runs the
// same subtask pipeline in lockstep, so one pipeline per group plus a
// machine-count weight reproduces whole-cluster behaviour.
package sim

import (
	"fmt"

	"harmony/internal/core"
	"harmony/internal/simtime"
	"harmony/internal/workload"
)

// Mode selects the scheduling regime to simulate.
type Mode int

// Scheduling regimes compared in the evaluation (§V-A).
const (
	// ModeHarmony runs the full system: subtask pipelining, dynamic
	// grouping via Algorithm 1, and dynamic data reloading.
	ModeHarmony Mode = iota + 1
	// ModeIsolated gives every job a dedicated set of machines sized to
	// keep CPU utilization high (the Optimus/SLAQ-style baseline).
	ModeIsolated
	// ModeNaive co-locates jobs with no subtask coordination, no
	// performance model and no spill (the Gandiva-style baseline).
	ModeNaive
)

func (m Mode) String() string {
	switch m {
	case ModeHarmony:
		return "harmony"
	case ModeIsolated:
		return "isolated"
	case ModeNaive:
		return "naive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// The simulation's constants, and the defaults of Config's fields.
const (
	// DefaultNetBusyFraction is the share of a COMM subtask during which
	// the link actually carries bytes; the rest is server-side request
	// handling that a secondary COMM subtask can overlap (§IV-A).
	DefaultNetBusyFraction = 0.85
	// DefaultJitterFrac is the relative per-iteration noise applied to
	// subtask durations.
	DefaultJitterFrac = 0.04
	// DefaultContentionPenalty is the extra slowdown per additional
	// uncoordinated co-located task in the naive baseline.
	DefaultContentionPenalty = 0.05
	// DefaultProfileIters is how many iterations a new job runs before
	// its metrics count as profiled (profile.MinSamples).
	DefaultProfileIters = 3
	// DefaultDeserSecPerGB is the CPU cost of deserializing reloaded
	// input blocks, added to the COMP subtask (§IV-C).
	DefaultDeserSecPerGB = 3.0
	// DefaultMigrationBaseSeconds is the fixed cost of pausing and
	// migrating one job: checkpointing control state and re-registering
	// with the target group's servers.
	DefaultMigrationBaseSeconds = 20.0
	// DefaultMigrationSecPerModelGB adds the cost of checkpointing and
	// restoring model partitions, which is what Harmony actually moves
	// (§IV-B4: input data is reloaded, not migrated).
	DefaultMigrationSecPerModelGB = 2.0
	// DefaultMemoryTargetLow and ...High bound the heap-occupancy band
	// the α hill-climbing controller steers toward (§IV-C): below the
	// band it reloads less (smaller α), above it spills more.
	DefaultMemoryTargetLow  = 0.55
	DefaultMemoryTargetHigh = 0.70
	// DefaultAlphaStep is the hill-climbing step for α adjustments.
	DefaultAlphaStep = 0.05
)

// Config parameterizes one simulation run.
type Config struct {
	// Machines is the cluster size.
	Machines int
	// Mode selects the scheduling regime.
	Mode Mode
	// Seed drives all stochastic elements (jitter, naive grouping).
	Seed int64

	// Pipelining and SmartGrouping gate two of Harmony's techniques for
	// the ablation study (§V-C); the third, adaptive reload, is ablated
	// through DisableAlphaTuning below. Both are implied by ModeHarmony
	// unless explicitly disabled.
	DisablePipelining    bool
	DisableSmartGrouping bool

	// DisableSecondaryComm keeps subtask pipelining but runs only one
	// COMM subtask at a time (no secondary filling the primary's idle
	// gaps), for the §IV-A design ablation.
	DisableSecondaryComm bool

	// DisableAlphaTuning keeps spill/reload (jobs still get an
	// occupancy-based initial α and emergency spill escalation) but turns
	// the hill-climbing optimization off — the "no dynamic reloading"
	// rung of the §V-C ablation ladder.
	DisableAlphaTuning bool

	// FixedAlpha, when set, pins every job's disk-block ratio α to the
	// same constant in [0, 1] (the §V-G baseline); nil selects the
	// hill-climbing controller.
	FixedAlpha *float64

	// MetricErrorFrac injects multiplicative error into the profiled
	// metrics the scheduler sees, for the model-accuracy sensitivity
	// experiment (Fig. 13a). Zero means faithful profiling.
	MetricErrorFrac float64

	// LinkContention enables the non-work-conserving shared-link physics
	// (netmodel.go): comm subtasks of different jobs that drive the link
	// concurrently lose collisionLoss of aggregate goodput. Off by
	// default — the primary/secondary discipline of §IV-A applies and
	// existing runs are bit-identical.
	LinkContention bool

	// NaiveGroupSize is the number of jobs per group in ModeNaive
	// (default 2).
	NaiveGroupSize int

	// IsolatedCPUTarget is the CPU-utilization floor the isolated
	// baseline sizes DoP for (default 0.7), and IsolatedMaxDoP caps the
	// machines per job (default 32).
	IsolatedCPUTarget float64
	IsolatedMaxDoP    int

	// SchedOpts tunes the Harmony scheduler.
	SchedOpts core.Options
}

// The shape of every simulated machine, an AWS m4.2xlarge (§V-B): its
// memory, and the gp2-class EBS throughput block reloads contend for
// (§IV-C).
const (
	machineMemoryGB float64 = 32
	machineDiskMBps float64 = 120
)

// maxVirtualTime aborts runs that exceed this much simulated time, a
// safety net against pathological configurations.
const maxVirtualTime = 365 * 24 * simtime.Hour

func (c Config) withDefaults() Config {
	if c.NaiveGroupSize <= 0 {
		c.NaiveGroupSize = 2
	}
	if c.IsolatedCPUTarget <= 0 || c.IsolatedCPUTarget >= 1 {
		c.IsolatedCPUTarget = 0.7
	}
	if c.IsolatedMaxDoP <= 0 {
		c.IsolatedMaxDoP = 32
	}
	if c.SchedOpts.MemoryCapGB == 0 {
		// Plan groups against the GC-safe watermark, not raw capacity:
		// a group that only fits at ~100% heap occupancy would spend
		// most of its CPU in garbage collection (§IV-C).
		c.SchedOpts.MemoryCapGB = DefaultMemoryTargetHigh * machineMemoryGB
	}
	if c.SchedOpts.MaxJobsPerGroup == 0 {
		// The paper prefers "a smaller number of jobs in a job group for
		// shorter JCTs and lower memory pressure" (§IV-B2); Fig. 12b
		// shows groups of mostly 2-6 jobs.
		c.SchedOpts.MaxJobsPerGroup = 3
	}
	return c
}

// Job couples a workload spec with its submission time.
type Job struct {
	Spec    workload.Spec
	Arrival simtime.Time
}

// Jobs builds a Job list from specs and arrival offsets; missing arrivals
// default to time zero.
func Jobs(specs []workload.Spec, arrivals []simtime.Time) []Job {
	out := make([]Job, len(specs))
	for i, s := range specs {
		out[i] = Job{Spec: s}
		if i < len(arrivals) {
			out[i].Arrival = arrivals[i]
		}
	}
	return out
}
