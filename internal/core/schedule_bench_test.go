package core

import (
	"fmt"
	"math/rand"
	"testing"

	"harmony/internal/workload"
)

// benchJobs mirrors the synthetic workload internal/exp/scale.go uses for
// the §V-F scalability experiment.
func benchJobs(n int) []JobInfo {
	rng := rand.New(rand.NewSource(42))
	jobs := make([]JobInfo, n)
	for i := range jobs {
		jobs[i] = JobInfo{
			ID:   fmt.Sprintf("j%04d", i),
			Comp: 500 + rng.Float64()*10000,
			Net:  30 + rng.Float64()*400,
		}
	}
	return jobs
}

// BenchmarkScheduleLarge measures the Algorithm 1 search over 1K jobs on
// 1K machines.
func BenchmarkScheduleLarge(b *testing.B) {
	benchSchedule(b, benchJobs(1000), 1000, Options{})
}

func benchSchedule(b *testing.B, jobs []JobInfo, machines int, opts Options) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Schedule(jobs, machines, opts)
	}
}

// paperJobs is the paper's 80-job workload as the scheduler sees it.
func paperJobs() []JobInfo {
	specs := workload.Base()
	jobs := make([]JobInfo, len(specs))
	for i, s := range specs {
		jobs[i] = JobInfo{ID: s.ID, Comp: s.CompMachineSeconds, Net: s.NetSeconds,
			InputGB: s.Data.InputGB, ModelGB: s.Data.ModelGB, WorkGB: s.WorkGB,
			JVMHeapFactor: workload.JVMHeapFactor, PullFrac: s.PullFrac}
	}
	return jobs
}

// BenchmarkSchedulePaper measures one Algorithm 1 search over the paper's
// 80-job workload on 100 machines, with Eq. 1's network view and with the
// link-contention model: the call behind the benchmark harness's step_ms
// and core.schedule_paper_ms.
func BenchmarkSchedulePaper(b *testing.B) {
	jobs := paperJobs()
	b.Run("plain", func(b *testing.B) {
		benchSchedule(b, jobs, 100, Options{MemoryCapGB: 25})
	})
	b.Run("netmodel", func(b *testing.B) {
		benchSchedule(b, jobs, 100, Options{MemoryCapGB: 25, NetModel: true})
	})
}
