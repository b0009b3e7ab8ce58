// harmony-master runs the live Harmony master: it waits for workers to
// register, serves the HTTP control plane for online job submission
// (harmonyctl speaks it), and shuts down cleanly on SIGINT/SIGTERM —
// draining the admission queue, checkpointing running jobs, and closing
// the master. With -demo it submits a small co-located training mix
// itself and reports progress.
//
//	harmony-master -listen 127.0.0.1:7070 -api 127.0.0.1:8080 -workers 3
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"harmony"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "harmony-master:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("harmony-master", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "address to serve workers on")
	api := fs.String("api", "127.0.0.1:8080", "address to serve the HTTP control plane on (empty disables)")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof/ on the control plane")
	traceOn := fs.Bool("trace", false, "collect subtask spans from tracing workers; serves /v1/trace and phase histograms")
	workers := fs.Int("workers", 2, "number of workers to wait for")
	wait := fs.Duration("wait", 5*time.Minute, "how long to wait for workers")
	drain := fs.Duration("drain", 30*time.Second, "per-job checkpoint budget during shutdown")
	queues := fs.String("queues", "", `fair-scheduler queues, e.g. "tenantA:quota=0.7;tenantB:quota=0.3" (empty = single default queue)`)
	demo := fs.Bool("demo", false, "submit a demo workload once workers join")
	iterations := fs.Int("iterations", 20, "demo job iterations")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := harmony.StartMaster(*listen)
	if err != nil {
		return err
	}
	defer m.Close()
	if *queues != "" {
		cfgs, err := harmony.ParseQueues(*queues)
		if err != nil {
			return fmt.Errorf("-queues: %w", err)
		}
		if err := m.ConfigureQueues(cfgs...); err != nil {
			return fmt.Errorf("-queues: %w", err)
		}
		for _, q := range m.Queues() {
			fmt.Printf("queue %s: share %.0f%%\n", q.Name, q.Share*100)
		}
	}
	if *traceOn {
		m.EnableTracing()
	}
	fmt.Printf("master listening on %s, waiting for %d workers...\n", m.Addr(), *workers)
	if err := m.WaitForWorkers(*workers, *wait); err != nil {
		return err
	}
	fmt.Printf("workers registered: %v\n", m.Workers())

	var cp *harmony.ControlPlane
	if *api != "" {
		var apiOpts []harmony.APIOption
		if *pprofOn {
			apiOpts = append(apiOpts, harmony.WithPprof())
		}
		cp, err = m.ServeAPI(*api, apiOpts...)
		if err != nil {
			return err
		}
		defer cp.Close()
		fmt.Printf("control plane on http://%s (try: harmonyctl -addr http://%s cluster)\n",
			cp.Addr(), cp.Addr())
		if *pprofOn {
			fmt.Printf("pprof on http://%s/debug/pprof/\n", cp.Addr())
		}
		if *traceOn {
			fmt.Printf("tracing on (workers need -trace too): harmonyctl -addr http://%s trace -o trace.json\n", cp.Addr())
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *demo {
		if err := runDemo(m, *iterations, sig); err != nil {
			return err
		}
		shutdown(m, cp, *drain)
		return nil
	}

	fmt.Println("running; submit jobs with harmonyctl, stop with SIGINT/SIGTERM")
	<-sig
	fmt.Println("signal received, shutting down")
	shutdown(m, cp, *drain)
	return nil
}

// shutdown closes the control plane (no new admissions), checkpoints
// running jobs, and closes the master.
func shutdown(m *harmony.Master, cp *harmony.ControlPlane, drain time.Duration) {
	if cp != nil {
		_ = cp.Close()
	}
	saved := m.Shutdown(drain)
	if len(saved) > 0 {
		fmt.Printf("checkpointed before exit: %v\n", saved)
	}
	fmt.Println("master closed")
}

func runDemo(m *harmony.Master, iterations int, sig <-chan os.Signal) error {
	specs := []harmony.Training{
		{
			Name:       "mlr",
			Config:     harmony.TrainingConfig{Algorithm: "mlr", Features: 32, Classes: 4, Rows: 512},
			Iterations: iterations,
			Alpha:      0.3,
			Seed:       1,
		},
		{
			Name:       "lasso",
			Config:     harmony.TrainingConfig{Algorithm: "lasso", Features: 32, Rows: 384, Lambda: 0.02},
			Iterations: iterations,
			Seed:       2,
		},
		{
			Name:       "lda",
			Config:     harmony.TrainingConfig{Algorithm: "lda", Features: 48, Classes: 4, Rows: 256},
			Iterations: iterations,
			Seed:       3,
		},
	}
	for _, s := range specs {
		if err := m.Submit(s); err != nil {
			return err
		}
		fmt.Printf("submitted %s (%s)\n", s.Name, s.Config.Algorithm)
	}
	done := make(chan error, 1)
	go func() {
		for _, s := range specs {
			if err := m.Wait(s.Name, 10*time.Minute); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			return err
		}
	case <-sig:
		fmt.Println("signal received during demo, shutting down")
		return nil
	}
	for _, s := range specs {
		iter, loss, _, err := m.Progress(s.Name)
		if err != nil {
			return err
		}
		prof, _ := m.ProfiledJob(s.Name)
		fmt.Printf("%-6s finished at iteration %d, loss %.4f, profiled comp/comm %.1f/%.1f ms\n",
			s.Name, iter, loss, prof.CompSeconds*1000, prof.NetSeconds*1000)
	}
	cpu, net, err := m.Utilization()
	if err == nil {
		fmt.Printf("worker executors: CPU %.0f%%, network %.0f%%\n", cpu*100, net*100)
	}
	return nil
}
