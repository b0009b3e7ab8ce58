// Liveps runs the real Harmony runtime in one process: a master and three
// workers over loopback TCP train two co-located Parameter-Server jobs
// (multinomial logistic regression and lasso) with genuine gradient
// computation, subtask multiplexing, and a mid-run pause/checkpoint/
// migrate of one job to a smaller worker group (§IV-B4).
//
//	go run ./examples/liveps
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"harmony"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	master, err := harmony.StartMaster("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer master.Close()

	spill, err := os.MkdirTemp("", "harmony-liveps")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spill)

	for _, name := range []string{"alpha", "beta", "gamma"} {
		w, err := harmony.StartWorker(name, "127.0.0.1:0", master.Addr(), spill)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	if err := master.WaitForWorkers(3, 5*time.Second); err != nil {
		return err
	}
	fmt.Printf("master at %s with workers %v\n\n", master.Addr(), master.Workers())

	// Two co-located jobs: a computation-heavy classifier and a
	// communication-light regression.
	if err := master.Submit(harmony.Training{
		Name:       "mlr",
		Config:     harmony.TrainingConfig{Algorithm: "mlr", Features: 24, Classes: 4, Rows: 384},
		Iterations: 30,
		Alpha:      0.3, // keep 30% of input blocks spilled
		Seed:       11,
	}); err != nil {
		return err
	}
	if err := master.Submit(harmony.Training{
		Name:       "lasso",
		Config:     harmony.TrainingConfig{Algorithm: "lasso", Features: 24, Rows: 256, Lambda: 0.02},
		Iterations: 30,
		Seed:       12,
	}); err != nil {
		return err
	}

	// Watch a few iterations, then migrate the lasso job to two workers.
	waitForIteration(master, "lasso", 4)
	checkpoint, err := master.Pause("lasso", 30*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("paused lasso with a %d-parameter checkpoint; migrating to 2 workers\n",
		len(checkpoint))
	if err := master.Resume("lasso", []string{"alpha", "beta"}, checkpoint); err != nil {
		return err
	}
	// Only jobs still holding machines are planned, so ask before they finish.
	if groups, err := master.PlanGroups(); err == nil {
		fmt.Println("Algorithm 1 over the live profiles would place:")
		for job, members := range groups {
			fmt.Printf("  %-6s -> %v\n", job, members)
		}
	}

	for _, job := range []string{"mlr", "lasso"} {
		if err := master.Wait(job, 2*time.Minute); err != nil {
			return err
		}
		iter, loss, _, err := master.Progress(job)
		if err != nil {
			return err
		}
		prof, _ := master.ProfiledJob(job)
		fmt.Printf("%-6s converged after iteration %2d, final loss %.4f "+
			"(profiled comp %.1fms/machine-iter, comm %.1fms)\n",
			job, iter, loss, prof.CompSeconds*1000, prof.NetSeconds*1000)
	}

	cpu, net, err := master.Utilization()
	if err != nil {
		return err
	}
	fmt.Printf("\nworker executors: CPU busy %.0f%%, network lanes busy %.0f%%\n",
		cpu*100, net*100)
	return nil
}

func waitForIteration(m *harmony.Master, job string, iter int) {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		got, _, finished, err := m.Progress(job)
		if err == nil && (got >= iter || finished) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
