// harmony-sim runs one simulated execution of an ML training workload on
// a modelled cluster under a chosen scheduler, or deterministically
// replays a live cluster snapshot (`harmonyctl snapshot`) and reports
// model drift.
//
//	harmony-sim -machines 100 -scheduler harmony -jobs 80
//	harmony-sim -machines 50 -scheduler isolated -jobs 20 -arrival 4m
//	harmony-sim -replay snap.json
//	harmony-sim -replay snap.json -machines 8 -queues 'prod:quota=0.75;dev'
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"harmony"
	"harmony/internal/replay"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "harmony-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("harmony-sim", flag.ContinueOnError)
	machines := fs.Int("machines", 100, "cluster size")
	schedName := fs.String("scheduler", "harmony", "harmony | isolated | naive")
	nJobs := fs.Int("jobs", 80, "number of jobs from the paper workload (max 80)")
	arrival := fs.Duration("arrival", 0, "mean inter-arrival time (0 = batch submission)")
	seed := fs.Int64("seed", 1, "random seed")
	replayFile := fs.String("replay", "", "replay a harmonyctl snapshot instead of simulating")
	queues := fs.String("queues", "", "replay what-if: queue policy (e.g. 'prod:quota=0.7;dev:weight=1')")
	netModel := fs.String("net-model", "", "replay what-if: on or off (empty = as captured)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replayFile != "" {
		// -machines keeps its simulate-mode default; only an explicit
		// value becomes a what-if override.
		explicitMachines := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "machines" {
				explicitMachines = *machines
			}
		})
		return runReplay(*replayFile, explicitMachines, *queues, *netModel)
	}

	var scheduler harmony.Scheduler
	switch *schedName {
	case "harmony":
		scheduler = harmony.HarmonyScheduler
	case "isolated":
		scheduler = harmony.IsolatedScheduler
	case "naive":
		scheduler = harmony.NaiveScheduler
	default:
		return fmt.Errorf("unknown scheduler %q", *schedName)
	}

	jobs := harmony.PaperWorkload()
	if *nJobs < len(jobs) {
		jobs = harmony.SmallWorkload(*nJobs)
	}
	if *arrival > 0 {
		for i := range jobs {
			jobs[i].Arrival = time.Duration(i) * *arrival
		}
	}

	start := time.Now()
	rep, err := harmony.Simulate(harmony.SimConfig{
		Machines:  *machines,
		Scheduler: scheduler,
		Seed:      *seed,
	}, jobs)
	if err != nil {
		return err
	}
	fmt.Printf("scheduler=%s machines=%d jobs=%d (simulated in %s)\n",
		*schedName, *machines, len(jobs), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  mean JCT:          %s\n", rep.MeanJCT.Round(time.Second))
	fmt.Printf("  makespan:          %s\n", rep.Makespan.Round(time.Second))
	fmt.Printf("  CPU utilization:   %.1f%%\n", rep.CPUUtil*100)
	fmt.Printf("  net utilization:   %.1f%%\n", rep.NetUtil*100)
	fmt.Printf("  finished/failed:   %d/%d\n", rep.Finished, rep.Failed)
	fmt.Printf("  avg running jobs:  %.1f in %.1f groups\n", rep.MeanConcurrentJobs, rep.MeanGroups)
	return nil
}

// runReplay loads a snapshot, re-executes its decision journal through
// internal/replay, and prints the calibration report. The replay is
// deterministic: the same snapshot bytes and overrides always produce
// byte-identical output.
func runReplay(file string, machines int, queues, netModel string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	snap, err := replay.Load(data)
	if err != nil {
		return err
	}
	ov := replay.Overrides{Machines: machines, Queues: queues}
	switch netModel {
	case "":
	case "on", "off":
		v := netModel == "on"
		ov.NetModel = &v
	default:
		return fmt.Errorf("-net-model must be on or off")
	}
	rep, err := replay.Run(snap, ov)
	if err != nil {
		return err
	}
	b, err := rep.Encode()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}
