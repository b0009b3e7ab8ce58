package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"harmony/internal/core"
)

// ScalePoint is one row of the §V-F scalability emulation.
type ScalePoint struct {
	Jobs     int
	Machines int
	Latency  time.Duration
}

// ScaleResult reproduces the §V-F scalability claim: Harmony schedules
// 8K jobs onto 10K machines within seconds.
type ScaleResult struct {
	Points []ScalePoint
}

// ScaleSched emulates large-scale scheduling by generating synthetic
// profiled jobs (drawn from the base workload's distribution) and timing
// Algorithm 1.
func ScaleSched(seed int64) *ScaleResult {
	rng := rand.New(rand.NewSource(seed))
	out := &ScaleResult{}
	cases := []struct{ jobs, machines int }{
		{80, 100},
		{1000, 1000},
		{4000, 10000},
		{8000, 10000},
	}
	for _, c := range cases {
		jobs := syntheticJobs(rng, c.jobs)
		opts := core.Options{MemoryCapGB: 25, MaxJobsPerGroup: 4}
		start := time.Now()
		core.Schedule(jobs, c.machines, opts)
		out.Points = append(out.Points, ScalePoint{
			Jobs: c.jobs, Machines: c.machines, Latency: time.Since(start),
		})
	}
	return out
}

func syntheticJobs(rng *rand.Rand, n int) []core.JobInfo {
	jobs := make([]core.JobInfo, n)
	for i := range jobs {
		jobs[i] = core.JobInfo{
			ID:   fmt.Sprintf("s%d", i),
			Comp: 500 + rng.Float64()*10000,
			Net:  30 + rng.Float64()*400,
		}
	}
	return jobs
}

func (r *ScaleResult) String() string {
	rows := make([][]string, len(r.Points))
	for i, p := range r.Points {
		rows[i] = []string{
			fmt.Sprintf("%d", p.Jobs),
			fmt.Sprintf("%d", p.Machines),
			p.Latency.Round(time.Millisecond).String(),
		}
	}
	var b strings.Builder
	b.WriteString("§V-F — scheduling-algorithm scalability (paper: 8K jobs / 10K machines < 5 s)\n")
	b.WriteString(table([]string{"jobs", "machines", "Algorithm 1 latency"}, rows))
	return b.String()
}
