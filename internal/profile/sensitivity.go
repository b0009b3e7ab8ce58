// Synergy-style resource sensitivity (PAPERS.md): instead of assuming
// Eq. 2's perfect 1/m scaling, fit each job's COMP time against the DoPs
// it has actually been observed at. The fit T_cpu(m) = a/m + b separates
// the scalable machine-seconds (a) from a serial floor (b) that no amount
// of extra machines removes. Jobs with a large floor are insensitive to
// machines; the water-filling allocation then hands their marginal
// machines to jobs that still benefit, under the group-total invariant
// (the same total machine count is distributed, only the split changes).
package profile

// sensMinDoPSamples is the number of observations at a DoP before that
// DoP participates in the sensitivity fit; a single noisy iteration at a
// fresh DoP must not swing the floor estimate.
const sensMinDoPSamples = 2

// dopStat is the per-DoP moving average of observed COMP subtask seconds.
type dopStat struct {
	Tcpu    float64
	Samples int
}

// Sensitivity is the fitted resource-sensitivity summary for one job.
type Sensitivity struct {
	// CompScalable is a in T_cpu(m) = a/m + b: machine-seconds that
	// divide across workers.
	CompScalable float64
	// CompFloorSeconds is b: serial seconds per iteration that persist
	// at any DoP. Zero until observations at two or more distinct DoPs
	// disagree with pure 1/m scaling.
	CompFloorSeconds float64
	// NetSeconds is the per-machine COMM seconds, carried over from the
	// profile for marginal-bandwidth queries.
	NetSeconds float64
	// DoPs is the number of distinct DoPs folded into the fit.
	DoPs int
}

// Fitted reports whether the job has been observed at enough distinct
// DoPs for the floor estimate to be meaningful.
func (s Sensitivity) Fitted() bool { return s.DoPs >= 2 }

// Sensitivity fits the job's multi-DoP observations; ok is false when the
// job has never been observed. With observations at fewer than two
// distinct DoPs the fit degenerates to Eq. 2 (floor zero).
func (s *Store) Sensitivity(jobID string) (Sensitivity, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.jobs[jobID]
	if !ok {
		return Sensitivity{}, false
	}
	out := Sensitivity{CompScalable: m.CompMachineSeconds, NetSeconds: m.NetSeconds}
	var xs, ys []float64
	for dop, st := range s.byDoP[jobID] {
		if st.Samples >= sensMinDoPSamples {
			xs = append(xs, 1/float64(dop))
			ys = append(ys, st.Tcpu)
		}
	}
	if len(xs) < 2 {
		return out, true
	}
	// Least squares of tcpu against 1/m: slope a, intercept b.
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	n := float64(len(xs))
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for i := range xs {
		sxx += (xs[i] - mx) * (xs[i] - mx)
		sxy += (xs[i] - mx) * (ys[i] - my)
	}
	if sxx < 1e-12 {
		return out, true
	}
	a := sxy / sxx
	if a < 0 {
		a = 0
	}
	b := my - a*mx
	if b < 0 {
		// Superlinear scaling observed; attribute everything to the
		// scalable term rather than a negative floor.
		b = 0
		a = my / mx
	}
	out.CompScalable = a
	out.CompFloorSeconds = b
	out.DoPs = len(xs)
	return out, true
}
