// Package profile collects the runtime metrics that drive Harmony's
// scheduling decisions (§IV-B1 of the paper): per-job moving averages of
// COMP and COMM subtask times and the DoP they were observed at.
//
// Observed COMP times are normalized to aggregate machine-seconds using
// Eq. 2 (T_cpu ∝ 1/m), so the store can predict COMP times at any DoP.
package profile

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultEWMAAlpha is the weight given to the newest observation in the
// moving average. The paper updates profiled metrics "using moving
// averages"; 0.3 responds to drift within a few iterations while smoothing
// per-iteration jitter.
const DefaultEWMAAlpha = 0.3

// MinSamples is the number of observations needed before a job counts as
// profiled and becomes schedulable by the grouping algorithm.
const MinSamples = 3

// Metrics is the profiled summary for one job, in the shape consumed by
// the performance model: (T_cpu_j, T_net_j, m_g) from §IV-B1.
type Metrics struct {
	// CompMachineSeconds is the DoP-normalized COMP cost: the estimated
	// COMP subtask time at DoP m is CompMachineSeconds / m.
	CompMachineSeconds float64
	// NetSeconds is the per-machine COMM (PULL+PUSH) subtask time.
	NetSeconds float64
	// DoP is the group DoP of the most recent observation.
	DoP int
	// Samples is the number of observations folded into the averages.
	Samples int
}

// Profiled reports whether enough observations have accumulated for the
// scheduler to trust the metrics.
func (m Metrics) Profiled() bool { return m.Samples >= MinSamples }

// Store keeps exponentially weighted moving averages of per-job metrics.
// It is safe for concurrent use: the live runtime updates it from worker
// report handlers while the scheduler reads it.
type Store struct {
	mu    sync.RWMutex
	alpha float64
	jobs  map[string]Metrics
	// byDoP retains a moving average per (job, DoP) so the sensitivity
	// fit (sensitivity.go) can compare COMP times across the DoPs the
	// job actually ran at, not just the latest one.
	byDoP map[string]map[int]dopStat
}

// NewStore creates a store with the given EWMA weight for new samples;
// alpha outside (0, 1] falls back to DefaultEWMAAlpha.
func NewStore(alpha float64) *Store {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	return &Store{
		alpha: alpha,
		jobs:  make(map[string]Metrics),
		byDoP: make(map[string]map[int]dopStat),
	}
}

// Observe folds one iteration's measurements into the job's averages:
// tcpu and tnet are the observed COMP and COMM subtask seconds at DoP m.
func (s *Store) Observe(jobID string, dop int, tcpu, tnet float64) error {
	if dop < 1 {
		return fmt.Errorf("profile: observe %s at DoP %d, need >= 1", jobID, dop)
	}
	if tcpu < 0 || tnet < 0 {
		return fmt.Errorf("profile: observe %s with negative times (%.3f, %.3f)", jobID, tcpu, tnet)
	}
	comp := tcpu * float64(dop) // normalize to machine-seconds via Eq. 2
	s.mu.Lock()
	defer s.mu.Unlock()
	perDoP := s.byDoP[jobID]
	if perDoP == nil {
		perDoP = make(map[int]dopStat)
		s.byDoP[jobID] = perDoP
	}
	if st, ok := perDoP[dop]; ok {
		st.Tcpu = s.alpha*tcpu + (1-s.alpha)*st.Tcpu
		st.Samples++
		perDoP[dop] = st
	} else {
		perDoP[dop] = dopStat{Tcpu: tcpu, Samples: 1}
	}
	m, ok := s.jobs[jobID]
	if !ok {
		s.jobs[jobID] = Metrics{CompMachineSeconds: comp, NetSeconds: tnet, DoP: dop, Samples: 1}
		return nil
	}
	m.CompMachineSeconds = s.alpha*comp + (1-s.alpha)*m.CompMachineSeconds
	m.NetSeconds = s.alpha*tnet + (1-s.alpha)*m.NetSeconds
	m.DoP = dop
	m.Samples++
	s.jobs[jobID] = m
	return nil
}

// Metrics returns the job's profiled summary; ok is false when the job has
// never been observed.
func (s *Store) Metrics(jobID string) (Metrics, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.jobs[jobID]
	return m, ok
}

// Forget drops a job's metrics, typically after it finishes.
func (s *Store) Forget(jobID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, jobID)
	delete(s.byDoP, jobID)
}

// Len reports the number of jobs with at least one observation.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.jobs)
}

// DoPPoint is one per-DoP observation average — the raw input of the
// sensitivity fit, exported so snapshots can carry the fit's evidence
// (not just its result) across a capture/replay boundary.
type DoPPoint struct {
	DoP int `json:"dop"`
	// CompSeconds is the averaged COMP subtask seconds observed at this
	// DoP (per machine, not normalized to machine-seconds).
	CompSeconds float64 `json:"comp_seconds"`
	Samples     int     `json:"samples"`
}

// Points returns the job's per-DoP observation averages sorted by DoP;
// nil when the job has never been observed.
func (s *Store) Points(jobID string) []DoPPoint {
	s.mu.RLock()
	defer s.mu.RUnlock()
	perDoP := s.byDoP[jobID]
	if len(perDoP) == 0 {
		return nil
	}
	out := make([]DoPPoint, 0, len(perDoP))
	for dop, st := range perDoP {
		out = append(out, DoPPoint{DoP: dop, CompSeconds: st.Tcpu, Samples: st.Samples})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DoP < out[j].DoP })
	return out
}
