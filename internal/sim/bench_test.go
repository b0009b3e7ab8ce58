package sim

import (
	"testing"

	"harmony/internal/trace"
	"harmony/internal/workload"
)

// BenchmarkRunHarmonyBase drives the full discrete-event loop over the
// 80-job base workload — the hot path every experiment exercises. Run
// with -benchmem to track the allocation reductions from task pooling and
// slice reuse in resource.go / harmony.go.
func BenchmarkRunHarmonyBase(b *testing.B) {
	specs := workload.Small(24)
	jobs := Jobs(specs, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Machines: 40, Mode: ModeHarmony, Seed: 1}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPaper runs Harmony mode over the paper's 80-job workload on
// 100 machines, submitted as one batch and in bursts: the two slowest
// simulator runs of the benchmark's offline pass, and the ones whose
// arrival queue outgrows the profiling slots.
func BenchmarkRunPaper(b *testing.B) {
	base := workload.Base()
	for _, bc := range []struct {
		name string
		jobs []Job
	}{
		{"batch", Jobs(base, trace.Batch(len(base)))},
		{"bursty", Jobs(base, trace.Bursty(len(base), 0, 1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{Machines: 100, Mode: ModeHarmony, Seed: 1}, bc.jobs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
