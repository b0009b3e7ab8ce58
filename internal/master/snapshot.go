package master

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"harmony/internal/profile"
	"harmony/internal/ps"
)

// This file is the capture half of the snapshot/replay pipeline
// (DESIGN.md §16): a versioned, schema-checked serialization of the
// master's complete scheduler-visible state. internal/replay re-executes
// the journaled decision sequence against it; GET /v1/snapshot and
// `harmonyctl snapshot` expose it to operators.

// SnapshotSchemaVersion is the wire version of Snapshot. Any change to
// the snapshot's JSON shape — a new field, a renamed tag, a type change —
// must bump this constant and add a new schema golden
// (internal/replay/testdata/schema_v<N>.json); the golden round-trip
// fixture fails on unversioned changes.
const SnapshotSchemaVersion = 1

// Snapshot is the master's complete scheduler-visible state at one
// moment: the live plan with group placements, every deployed and held
// job with the cost metrics the model sees, the fair-queue policy and
// usage, best-effort PS stripe placement, and the decision journal.
// Field order is fixed and every collection is sorted, so marshaling a
// snapshot is deterministic for fixed state.
type Snapshot struct {
	SchemaVersion int       `json:"schema_version"`
	CapturedAt    time.Time `json:"captured_at"`
	// Options are the scheduler options the captured decisions ran
	// under; replay applies the same model gates (NetModel above all).
	Options SnapshotOptions `json:"options"`
	// Workers are the registered worker names in registration order.
	Workers []string `json:"workers"`
	// Groups is the live plan: jobs sharing a worker set form one group.
	Groups []SnapshotGroup `json:"groups,omitempty"`
	// Jobs covers every job the master knows — deployed, held, finished,
	// canceled — sorted by name.
	Jobs []SnapshotJob `json:"jobs,omitempty"`
	// Queues is the fair-scheduler policy plus live usage per queue.
	Queues []QueueView `json:"queues,omitempty"`
	// PS is the per-stripe parameter-server placement, scraped best
	// effort (absent when no worker answered).
	PS *ps.ClusterStats `json:"ps,omitempty"`
	// Journal is the decision ring, oldest first, enriched with the
	// measured values current at capture time.
	Journal []Event `json:"journal,omitempty"`
}

// SnapshotOptions mirrors core.Options with stable JSON tags.
type SnapshotOptions struct {
	CPUWeight         float64 `json:"cpu_weight,omitempty"`
	MemoryCapGB       float64 `json:"memory_cap_gb,omitempty"`
	MinImprovement    float64 `json:"min_improvement,omitempty"`
	MaxJobsPerGroup   int     `json:"max_jobs_per_group,omitempty"`
	DisableSwapTuning bool    `json:"disable_swap_tuning,omitempty"`
	NetModel          bool    `json:"net_model,omitempty"`
}

// SnapshotGroup is one live co-location group.
type SnapshotGroup struct {
	Workers []string `json:"workers"`
	Jobs    []string `json:"jobs"`
}

// SnapshotJob is one job's scheduler-visible state: lifecycle, fair
// coordinates, placement, the Eq. 1 cost inputs (profiled metrics when
// enough samples accumulated, submission hints before), the sensitivity
// fit with its per-DoP evidence, and measured iteration time.
type SnapshotJob struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// Algorithm, Seed, Alpha and the worker band reconstruct the spec on
	// the replay side (scenario conversion needs the app kind and the
	// iteration budget).
	Algorithm  string  `json:"algorithm,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	MinWorkers int     `json:"min_workers,omitempty"`
	MaxWorkers int     `json:"max_workers,omitempty"`
	// Fair-scheduler coordinates.
	Queue      string `json:"queue,omitempty"`
	Priority   int    `json:"priority,omitempty"`
	ArrivalSeq uint64 `json:"arrival_seq,omitempty"`
	StartSeq   uint64 `json:"start_seq,omitempty"`
	// Live progress and placement.
	Iteration           int      `json:"iteration,omitempty"`
	Workers             []string `json:"workers,omitempty"`
	CheckpointIteration int      `json:"checkpoint_iteration,omitempty"`
	// Scheduler cost view (§IV-B1 units). CompFloorSeconds is the fitted
	// serial floor recorded whenever the sensitivity fit converged,
	// regardless of Options.NetModel; replay applies the same gate
	// jobInfo does.
	CompSeconds      float64 `json:"comp_seconds,omitempty"`
	NetSeconds       float64 `json:"net_seconds,omitempty"`
	InputGB          float64 `json:"input_gb,omitempty"`
	ModelGB          float64 `json:"model_gb,omitempty"`
	WorkGB           float64 `json:"work_gb,omitempty"`
	JVMHeapFactor    float64 `json:"jvm_heap_factor,omitempty"`
	PullFrac         float64 `json:"pull_frac,omitempty"`
	CompFloorSeconds float64 `json:"comp_floor_seconds,omitempty"`
	// Profiling state: whether live metrics supersede the hints, how
	// many samples back them, and the per-DoP evidence of the fit.
	Profiled        bool               `json:"profiled,omitempty"`
	ProfileSamples  int                `json:"profile_samples,omitempty"`
	ProfilePoints   []profile.DoPPoint `json:"profile_points,omitempty"`
	SensitivityDoPs int                `json:"sensitivity_dops,omitempty"`
	// MeasuredIterSeconds is the EWMA of wall time between barrier
	// releases — the measured counterpart of the Eq. 1 prediction.
	MeasuredIterSeconds float64 `json:"measured_iter_seconds,omitempty"`
	// Hold state for pending jobs.
	HoldReason      string `json:"hold_reason,omitempty"`
	Resumable       bool   `json:"resumable,omitempty"`
	ResumeIteration int    `json:"resume_iteration,omitempty"`
}

// Snapshot captures the master's state. The PS stripe scrape runs first
// (it fans out RPCs, off the loop); everything else — workers, plan, jobs,
// queues, journal — is captured in one read on the loop, so the core
// scheduler state is internally consistent.
func (m *Master) Snapshot() (Snapshot, error) {
	s := Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		CapturedAt:    time.Now().UTC(),
	}
	if cs, err := m.PSStats(); err == nil && len(cs.Servers) > 0 {
		s.PS = &cs
	}

	m.read(func() { m.capture(&s) })
	return s, nil
}

// capture fills s with everything but the PS scrape.
func (m *Master) capture(s *Snapshot) {
	s.Options = SnapshotOptions{
		CPUWeight:         m.opts.CPUWeight,
		MemoryCapGB:       m.opts.MemoryCapGB,
		MinImprovement:    m.opts.MinImprovement,
		MaxJobsPerGroup:   m.opts.MaxJobsPerGroup,
		DisableSwapTuning: m.opts.DisableSwapTuning,
		NetModel:          m.opts.NetModel,
	}
	cv := m.cluster()
	s.Workers = cv.Workers
	for _, g := range cv.Groups {
		s.Groups = append(s.Groups, SnapshotGroup(g))
	}

	for _, name := range slices.Sorted(maps.Keys(m.jobs)) {
		s.Jobs = append(s.Jobs, m.snapshotJob(name, m.jobs[name]))
	}

	s.Queues = m.queues()

	s.Journal = m.journal.snapshotSince(0, "")
	m.enrichEvents(s.Journal)
}

// snapshotJob serializes one job: a held one with the scheduler's view it
// is placed on and its hold state, a placed or ended one with its
// placement, progress and profile.
func (m *Master) snapshotJob(name string, j *job) SnapshotJob {
	sj := SnapshotJob{
		Name:      name,
		State:     j.status.String(),
		Algorithm: j.spec.Config.Kind.String(),
		Seed:      j.spec.Seed, Alpha: j.spec.Alpha,
		Iterations: j.spec.Iterations,
		MinWorkers: j.spec.MinWorkers, MaxWorkers: j.spec.MaxWorkers,
		Queue: j.spec.Queue, Priority: j.spec.Priority,
		ArrivalSeq: j.arrival,
	}
	info := j.prof
	if j.status == StatusPending {
		sj.HoldReason, sj.Resumable, sj.ResumeIteration = j.holdReason, j.resume != nil, j.resumeIter
	} else {
		info = m.jobInfo(name, j)
		sj.StartSeq, sj.Iteration, sj.Workers = j.startSeq, j.iter, names(j.workers)
		sj.CheckpointIteration, sj.MeasuredIterSeconds = j.checkpointIter, j.measIter
		if met, ok := m.profiles.Metrics(name); ok {
			sj.Profiled = met.Profiled()
			sj.ProfileSamples = met.Samples
			sj.ProfilePoints = m.profiles.Points(name)
		}
		if sens, ok := m.profiles.Sensitivity(name); ok && sens.Fitted() {
			sj.CompFloorSeconds = sens.CompFloorSeconds
			sj.SensitivityDoPs = sens.DoPs
		}
	}
	sj.CompSeconds, sj.NetSeconds = info.Comp, info.Net
	sj.InputGB, sj.ModelGB, sj.WorkGB = info.InputGB, info.ModelGB, info.WorkGB
	sj.JVMHeapFactor, sj.PullFrac = info.JVMHeapFactor, info.PullFrac
	return sj
}

// Validate schema-checks a decoded snapshot: the version must match this
// build, references must resolve, and the journal must be seq-monotone.
// Replay refuses snapshots that fail validation.
func (s *Snapshot) Validate() error {
	if s.SchemaVersion != SnapshotSchemaVersion {
		return fmt.Errorf("master: snapshot schema version %d, this build reads %d",
			s.SchemaVersion, SnapshotSchemaVersion)
	}
	known := make(map[string]bool, len(s.Workers))
	for _, w := range s.Workers {
		if known[w] {
			return fmt.Errorf("master: snapshot lists worker %q twice", w)
		}
		known[w] = true
	}
	jobs := make(map[string]bool, len(s.Jobs))
	for _, j := range s.Jobs {
		if j.Name == "" {
			return fmt.Errorf("master: snapshot job with empty name")
		}
		if jobs[j.Name] {
			return fmt.Errorf("master: snapshot lists job %q twice", j.Name)
		}
		jobs[j.Name] = true
		for _, w := range j.Workers {
			if !known[w] {
				return fmt.Errorf("master: job %q placed on unknown worker %q", j.Name, w)
			}
		}
	}
	for gi, g := range s.Groups {
		for _, w := range g.Workers {
			if !known[w] {
				return fmt.Errorf("master: group %d uses unknown worker %q", gi, w)
			}
		}
		for _, jn := range g.Jobs {
			if !jobs[jn] {
				return fmt.Errorf("master: group %d lists unknown job %q", gi, jn)
			}
		}
	}
	var prev uint64
	for i, e := range s.Journal {
		if e.Seq <= prev {
			return fmt.Errorf("master: journal seq not monotone at index %d (%d after %d)",
				i, e.Seq, prev)
		}
		prev = e.Seq
	}
	return nil
}
