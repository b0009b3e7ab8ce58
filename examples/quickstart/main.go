// Quickstart: schedule a small mix of ML training jobs with Harmony and
// compare the simulated outcome against dedicated per-job allocations.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"harmony"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Eight jobs drawn from the paper's evaluation workload (the
	// simulation finishes in milliseconds of wall time regardless).
	jobs := harmony.SmallWorkload(8)
	for i := range jobs {
		jobs[i].Iterations = 24
	}

	// First look at a pure scheduling decision: which jobs does Harmony
	// co-locate, and what utilization does the model predict?
	var profiles []harmony.Job
	for _, j := range jobs {
		profiles = append(profiles, j.Job)
	}
	plan := harmony.Schedule(profiles, 32)
	fmt.Println("Harmony's grouping decision for 32 machines:")
	for i, g := range plan.Groups {
		fmt.Printf("  group %d: %d machines, predicted iteration %.0fs, CPU %.0f%%, net %.0f%%\n",
			i, g.Machines, g.PredictedIterSeconds, g.CPUUtil*100, g.NetUtil*100)
		for _, j := range g.Jobs {
			fmt.Printf("    %-24s comp %.0f machine-s/iter, comm %.0f s/iter\n",
				j.ID, j.CompSeconds, j.NetSeconds)
		}
	}
	fmt.Printf("  predicted cluster utilization: CPU %.0f%%, network %.0f%%\n\n",
		plan.CPUUtil*100, plan.NetUtil*100)

	// Then execute the workload under both schedulers.
	iso, err := harmony.Simulate(harmony.SimConfig{
		Machines: 32, Scheduler: harmony.IsolatedScheduler, Seed: 1}, jobs)
	if err != nil {
		return err
	}
	har, err := harmony.Simulate(harmony.SimConfig{
		Machines: 32, Scheduler: harmony.HarmonyScheduler, Seed: 1}, jobs)
	if err != nil {
		return err
	}

	fmt.Println("Executing the 8-job workload on 32 machines:")
	fmt.Printf("  isolated: mean JCT %-12s makespan %-12s CPU %.0f%%  net %.0f%%\n",
		iso.MeanJCT.Round(1e9), iso.Makespan.Round(1e9), iso.CPUUtil*100, iso.NetUtil*100)
	fmt.Printf("  harmony:  mean JCT %-12s makespan %-12s CPU %.0f%%  net %.0f%%\n",
		har.MeanJCT.Round(1e9), har.Makespan.Round(1e9), har.CPUUtil*100, har.NetUtil*100)
	fmt.Printf("  speedup: %.2fx JCT, %.2fx makespan\n",
		iso.MeanJCT.Seconds()/har.MeanJCT.Seconds(),
		iso.Makespan.Seconds()/har.Makespan.Seconds())
	return nil
}
