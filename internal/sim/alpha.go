package sim

// initAlpha sets a job's initial disk-block ratio when it joins a group.
// The paper determines the initial value "by estimating the memory use
// for accommodating input data and model data" (§IV-C); we solve for the
// α that brings the group to the middle of the memory target band.
func (s *Simulator) initAlpha(j *jobRun, g *groupRun) {
	j.alphaDir = 0
	j.alphaProbePeriods = j.alphaProbePeriods[:0]
	j.alphaPrevPeriod = 0
	if !s.reloadEnabled() {
		j.alpha = 0
		return
	}
	if s.cfg.FixedAlpha != nil {
		j.alpha = clampAlpha(*s.cfg.FixedAlpha)
		return
	}
	capGB := machineMemoryGB
	var others float64
	for _, jj := range g.jobs {
		if jj != j {
			others += jj.memoryGB(g.machines)
		}
	}
	j.alpha = 0
	full := others + j.memoryGB(g.machines)
	target := (DefaultMemoryTargetLow + DefaultMemoryTargetHigh) / 2 * capGB
	if full <= DefaultMemoryTargetHigh*capGB {
		return
	}
	// Resident input shrinks by JVMHeapFactor * α * input/m; solve for
	// the α that lands on the target.
	perAlpha := 2.2 * j.spec.Data.InputGB / float64(g.machines)
	if perAlpha <= 0 {
		return
	}
	j.alpha = clampAlpha((full - target) / perAlpha)
}

// alphaProbeLen is how many iteration periods are averaged per
// hill-climbing probe; short enough to adapt, long enough to smooth
// per-iteration jitter.
const alphaProbeLen = 3

// adjustAlpha is the hill-climbing controller of §IV-C: each job probes
// its iteration period for a few iterations, then steps α in the
// direction that made iterations faster — balancing GC pressure (low α)
// against reload and deserialization cost (high α) with no explicit
// model of either. A memory guard overrides the probe when the group
// approaches the occupancy ceiling.
func (s *Simulator) adjustAlpha(g *groupRun, j *jobRun, periodSeconds float64) {
	occ := g.occupancy()
	if occ > DefaultMemoryTargetHigh {
		// Safety: spill more of the largest resident input before GC
		// overheads spike; probing resumes afterwards.
		var pick *jobRun
		var most float64
		for _, jj := range g.jobs {
			resident := (1 - jj.alpha) * jj.spec.Data.InputGB / float64(g.machines)
			if jj.alpha < 1 && resident > most {
				most = resident
				pick = jj
			}
		}
		if pick != nil {
			pick.alpha = clampAlpha(pick.alpha + DefaultAlphaStep)
			pick.alphaProbePeriods = pick.alphaProbePeriods[:0]
			pick.alphaPrevPeriod = 0
		} else {
			// Inputs fully spilled: fall back to model spill.
			g.resolveMemory()
		}
		return
	}
	if j.spec.Data.InputGB <= 0 || periodSeconds <= 0 {
		return
	}

	j.alphaProbePeriods = append(j.alphaProbePeriods, periodSeconds)
	if len(j.alphaProbePeriods) < alphaProbeLen {
		return
	}
	var mean float64
	for _, p := range j.alphaProbePeriods {
		mean += p
	}
	mean /= float64(len(j.alphaProbePeriods))
	j.alphaProbePeriods = j.alphaProbePeriods[:0]

	if j.alphaPrevPeriod == 0 {
		// First probe: start exploring downward — α should be "as low as
		// possible" when memory allows (§IV-C), since reloading costs
		// deserialization work.
		j.alphaPrevPeriod = mean
		j.alphaDir = -DefaultAlphaStep
		j.alpha = clampAlpha(j.alpha + j.alphaDir)
		return
	}
	if mean > j.alphaPrevPeriod*1.01 {
		// The last step hurt: reverse direction.
		j.alphaDir = -j.alphaDir
	}
	j.alphaPrevPeriod = mean
	next := clampAlpha(j.alpha + j.alphaDir)
	// Never step into memory territory the guard would immediately undo.
	delta := 2.2 * (j.alpha - next) * j.spec.Data.InputGB / float64(g.machines)
	capGB := machineMemoryGB
	if occ+delta/capGB <= DefaultMemoryTargetHigh {
		j.alpha = next
	}
}

func clampAlpha(a float64) float64 {
	if a < 0 {
		return 0
	}
	if a > 1 {
		return 1
	}
	return a
}
