package sim

import (
	"fmt"
	"os"
	"testing"

	"harmony/internal/workload"
)

// TestCalibration runs the full 80-job / 100-machine experiment under all
// three modes and prints headline numbers for manual calibration checks.
// Gated behind HARMONY_SIM_CALIB=1 because it is an inspection aid, not
// an assertion.
func TestCalibration(t *testing.T) {
	if os.Getenv("HARMONY_SIM_CALIB") == "" {
		t.Skip("set HARMONY_SIM_CALIB=1 to run")
	}
	jobs := Jobs(workload.Base(), nil)
	for _, mode := range []Mode{ModeIsolated, ModeNaive, ModeHarmony} {
		res, err := Run(Config{Machines: 100, Mode: mode, Seed: 1}, jobs)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		fmt.Printf("%-9s meanJCT=%8.1fmin makespan=%8.1fmin cpu=%.3f net=%.3f finished=%d failed=%d concJobs=%.1f groups=%.1f gc=%.0fs paused=%.0fs poolWait=%.0fs\n",
			mode, res.Summary.MeanJCT.Seconds()/60, res.Summary.Makespan.Seconds()/60,
			res.Summary.CPUUtil, res.Summary.NetUtil, len(res.Records), len(res.Failed),
			res.MeanConcurrentJobs, res.MeanGroups, res.GCSeconds, res.PausedSeconds, res.PoolWaitSeconds)
	}
}
