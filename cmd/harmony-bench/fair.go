package main

import (
	"fmt"
	"strings"

	"harmony/internal/fair"
)

// The fair-share experiment (-run fair-share) is the two-tenant
// contention comparison of DESIGN.md §13. tenantB floods the cluster with
// long single-worker jobs at tick 0; tenantA's gang jobs arrive one tick
// later under a 70/30 quota split. FIFO makes tenantA wait for the flood
// to drain; the fair policy preempts tenantB back toward its quota, so
// the headline metric is ticks until tenantA reaches its fair share,
// alongside preemption-to-resume latency.
const (
	fairSeeds   = 5
	fairWorkers = 10
)

// fairModeResult aggregates one policy over the seeds.
type fairModeResult struct {
	mode string
	// meanTimeToShareA / B average ticks-to-quota over the seeds where
	// the queue attained its share; attained counts those seeds.
	meanTimeToShareA, meanTimeToShareB float64
	attainedA, attainedB               int
	preemptions                        int
	meanResumeTicks                    float64
	meanMakespan                       float64
}

type fairShareResult struct {
	quotaA, quotaB float64
	fifo, fair     fairModeResult
}

// fairShare runs both policies over fairSeeds workloads seeded from
// seed-1, so the default seed reproduces the figures EXPERIMENTS.md
// records.
func fairShare(seed int64) (fmt.Stringer, error) {
	queues := fair.TwoTenantQueues()
	measure := func(fairMode bool) (fairModeResult, error) {
		out := fairModeResult{mode: "fifo"}
		if fairMode {
			out.mode = "fair"
		}
		var makespans, resumes float64
		var resumeRuns int
		for i := int64(0); i < fairSeeds; i++ {
			res, err := fair.Experiment{
				Workers: fairWorkers, Queues: queues,
				Seed: seed - 1 + i, Fair: fairMode,
			}.Run()
			if err != nil {
				return out, fmt.Errorf("%s seed %d: %w", out.mode, seed-1+i, err)
			}
			if t := res.TimeToQuota["tenantA"]; t >= 0 {
				out.meanTimeToShareA += float64(t)
				out.attainedA++
			}
			if t := res.TimeToQuota["tenantB"]; t >= 0 {
				out.meanTimeToShareB += float64(t)
				out.attainedB++
			}
			out.preemptions += res.Preemptions
			if res.Preemptions > 0 {
				resumes += res.MeanResumeTicks
				resumeRuns++
			}
			makespans += float64(res.Makespan)
		}
		if out.attainedA > 0 {
			out.meanTimeToShareA /= float64(out.attainedA)
		}
		if out.attainedB > 0 {
			out.meanTimeToShareB /= float64(out.attainedB)
		}
		if resumeRuns > 0 {
			out.meanResumeTicks = resumes / float64(resumeRuns)
		}
		out.meanMakespan = makespans / fairSeeds
		return out, nil
	}

	r := &fairShareResult{quotaA: queues[0].Quota, quotaB: queues[1].Quota}
	var err error
	if r.fifo, err = measure(false); err != nil {
		return nil, err
	}
	if r.fair, err = measure(true); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *fairShareResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DESIGN.md §13 — two-tenant fair share: %d workers, quotas %.0f/%.0f, tenantB flood vs tenantA gangs, %d seeds per mode\n",
		fairWorkers, r.quotaA*100, r.quotaB*100, fairSeeds)
	fmt.Fprintf(&b, "  %-4s %16s %16s %9s %13s %10s\n",
		"MODE", "T_SHARE(A)", "T_SHARE(B)", "PREEMPTS", "RESUME_TICKS", "MAKESPAN")
	for _, m := range []fairModeResult{r.fifo, r.fair} {
		fmt.Fprintf(&b, "  %-4s %11.1f %1d/%-2d %11.1f %1d/%-2d %9d %13.1f %10.1f\n",
			m.mode, m.meanTimeToShareA, m.attainedA, fairSeeds,
			m.meanTimeToShareB, m.attainedB, fairSeeds,
			m.preemptions, m.meanResumeTicks, m.meanMakespan)
	}
	if r.fair.meanTimeToShareA > 0 && r.fifo.attainedA > 0 {
		fmt.Fprintf(&b, "  tenantA time-to-share fifo/fair: %.1fx\n",
			r.fifo.meanTimeToShareA/r.fair.meanTimeToShareA)
	}
	return b.String()
}
