// Package harmony is a Go reproduction of "Harmony: A Scheduling
// Framework Optimized for Multiple Distributed Machine Learning Jobs"
// (ICDCS 2021).
//
// Harmony co-locates Parameter-Server ML training jobs with complementary
// resource usage on a shared cluster, multiplexes their computation and
// communication subtasks to keep CPUs and links busy simultaneously, and
// relieves the resulting memory pressure by spilling and reloading input
// blocks.
//
// The package exposes three layers:
//
//   - the scheduler: the performance model and grouping algorithm of the
//     paper (Schedule, Plan) — pure functions over profiled job metrics;
//   - the simulator: full executions of workloads on a modelled cluster
//     under Harmony or the paper's baseline schedulers (Simulate);
//   - the live runtime: a real master/worker Parameter-Server system over
//     TCP that trains the paper's four ML applications with subtask
//     multiplexing (StartMaster, StartWorker).
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for how every
// table and figure of the paper maps onto this repository.
package harmony

import (
	"fmt"
	"time"

	"harmony/internal/core"
	"harmony/internal/metrics"
	"harmony/internal/mlapp"
	"harmony/internal/sim"
	"harmony/internal/simtime"
	"harmony/internal/workload"
)

// Job is the scheduler's view of one training job: its identity and
// profiled per-iteration costs (§IV-B1 of the paper).
type Job struct {
	// ID uniquely names the job.
	ID string
	// CompSeconds is the aggregate computation cost of one iteration in
	// machine-seconds; at a degree of parallelism m the COMP subtask
	// takes CompSeconds/m (Eq. 2).
	CompSeconds float64
	// NetSeconds is the per-machine communication (PULL+PUSH) time of
	// one iteration.
	NetSeconds float64
	// InputGB, ModelGB and WorkGB parameterize memory feasibility
	// checks; zero values disable them.
	InputGB, ModelGB, WorkGB float64
}

// Group is a set of co-located jobs sharing Machines machines.
type Group struct {
	Jobs     []Job
	Machines int
	// PredictedIterSeconds is the modelled group iteration time (Eq. 1).
	PredictedIterSeconds float64
	// CPUUtil and NetUtil are the modelled utilizations (Eq. 3).
	CPUUtil, NetUtil float64
}

// Plan is a complete scheduling decision.
type Plan struct {
	Groups []Group
	// CPUUtil and NetUtil are the machine-weighted cluster utilizations
	// (Eq. 4).
	CPUUtil, NetUtil float64
}

// Schedule runs the paper's Algorithm 1: it groups jobs with
// complementary resource usage and allocates machines so that cluster
// utilization is maximized. Jobs beyond the utilization-optimal prefix
// are left out of the plan (they wait). The score prefers CPU
// utilization and regrouping needs a 5% gain, the paper's defaults.
func Schedule(jobs []Job, machines int) Plan {
	infos := make([]core.JobInfo, len(jobs))
	for i, j := range jobs {
		infos[i] = core.JobInfo{
			ID: j.ID, Comp: j.CompSeconds, Net: j.NetSeconds,
			InputGB: j.InputGB, ModelGB: j.ModelGB, WorkGB: j.WorkGB,
			JVMHeapFactor: workload.JVMHeapFactor,
		}
	}
	return fromInternalPlan(core.Schedule(infos, machines, core.Options{}))
}

func fromInternalPlan(p core.Plan) Plan {
	var out Plan
	for _, g := range p.Groups {
		jobs := make([]Job, len(g.Jobs))
		for i, j := range g.Jobs {
			jobs[i] = Job{
				ID: j.ID, CompSeconds: j.Comp, NetSeconds: j.Net,
				InputGB: j.InputGB, ModelGB: j.ModelGB, WorkGB: j.WorkGB,
			}
		}
		uc, un := g.Util()
		out.Groups = append(out.Groups, Group{
			Jobs:                 jobs,
			Machines:             g.Machines,
			PredictedIterSeconds: g.IterSeconds(),
			CPUUtil:              uc,
			NetUtil:              un,
		})
	}
	out.CPUUtil, out.NetUtil = p.Util()
	return out
}

// Scheduler selects the scheduling regime for simulations.
type Scheduler int

// Schedulers compared in the paper's evaluation (§V-A).
const (
	// HarmonyScheduler is the full system: subtask pipelining, dynamic
	// grouping and dynamic data reloading.
	HarmonyScheduler Scheduler = iota + 1
	// IsolatedScheduler dedicates machines per job (Optimus/SLAQ-like).
	IsolatedScheduler
	// NaiveScheduler co-locates without coordination (Gandiva-like).
	NaiveScheduler
)

// WorkloadJob describes one job for simulation: a cost profile plus a
// convergence length and an arrival time.
type WorkloadJob struct {
	Job
	// Iterations until convergence.
	Iterations int
	// Arrival is the submission offset from the simulation start.
	Arrival time.Duration
	// PullFraction splits NetSeconds into PULL and PUSH (default 0.5).
	PullFraction float64
}

// SimConfig parameterizes a simulated execution.
type SimConfig struct {
	// Machines is the cluster size (m4.2xlarge-shaped machines).
	Machines int
	// Scheduler picks the regime; default HarmonyScheduler.
	Scheduler Scheduler
	// Seed drives all randomness.
	Seed int64
}

// SimReport summarizes a simulated execution.
type SimReport struct {
	// MeanJCT is the average job completion time.
	MeanJCT time.Duration
	// Makespan is the time to finish all jobs.
	Makespan time.Duration
	// CPUUtil and NetUtil are mean cluster utilizations.
	CPUUtil, NetUtil float64
	// Finished and Failed count outcomes (failures are out-of-memory
	// kills, §II-B).
	Finished, Failed int
	// MeanConcurrentJobs and MeanGroups are time-averaged (§V-C).
	MeanConcurrentJobs, MeanGroups float64
	// CPUSeries and NetSeries are per-minute utilization samples
	// (Fig. 11).
	CPUSeries, NetSeries []float64
}

// Simulate executes the workload on the modelled cluster and reports the
// paper's evaluation metrics.
func Simulate(cfg SimConfig, jobs []WorkloadJob) (*SimReport, error) {
	mode := sim.ModeHarmony
	switch cfg.Scheduler {
	case 0, HarmonyScheduler:
	case IsolatedScheduler:
		mode = sim.ModeIsolated
	case NaiveScheduler:
		mode = sim.ModeNaive
	default:
		return nil, fmt.Errorf("harmony: unknown scheduler %d", int(cfg.Scheduler))
	}
	simJobs := make([]sim.Job, len(jobs))
	for i, j := range jobs {
		pull := j.PullFraction
		if pull <= 0 || pull >= 1 {
			pull = 0.5
		}
		simJobs[i] = sim.Job{
			Spec: workload.Spec{
				ID:                 j.ID,
				App:                workload.MLR, // cost profile is what matters
				Data:               workload.Dataset{Name: j.ID, InputGB: j.InputGB, ModelGB: j.ModelGB},
				Hyper:              "custom",
				CompMachineSeconds: j.CompSeconds,
				NetSeconds:         j.NetSeconds,
				PullFrac:           pull,
				Iterations:         j.Iterations,
				WorkGB:             j.WorkGB,
			},
			Arrival: simtime.Time(simtime.FromStd(j.Arrival)),
		}
	}
	res, err := sim.Run(sim.Config{Machines: cfg.Machines, Mode: mode, Seed: cfg.Seed}, simJobs)
	if err != nil {
		return nil, err
	}
	report := &SimReport{
		MeanJCT:            res.Summary.MeanJCT.Std(),
		Makespan:           res.Summary.Makespan.Std(),
		CPUUtil:            res.Summary.CPUUtil,
		NetUtil:            res.Summary.NetUtil,
		Finished:           len(res.Records),
		Failed:             len(res.Failed),
		MeanConcurrentJobs: res.MeanConcurrentJobs,
		MeanGroups:         res.MeanGroups,
	}
	if res.Util != nil {
		report.CPUSeries = res.Util.Series(metrics.CPU)
		report.NetSeries = res.Util.Series(metrics.Net)
	}
	return report, nil
}

// PaperWorkload returns the 80-job evaluation workload of the paper
// (Table I crossed with ten hyper-parameters, §V-B), as simulation jobs
// submitted at time zero.
func PaperWorkload() []WorkloadJob {
	return fromSpecs(workload.Base())
}

// SmallWorkload returns n jobs drawn from the paper workload with
// interleaved applications — handy for quick experiments.
func SmallWorkload(n int) []WorkloadJob {
	return fromSpecs(workload.Small(n))
}

func fromSpecs(specs []workload.Spec) []WorkloadJob {
	out := make([]WorkloadJob, len(specs))
	for i, s := range specs {
		out[i] = WorkloadJob{
			Job: Job{
				ID:          s.ID,
				CompSeconds: s.CompMachineSeconds,
				NetSeconds:  s.NetSeconds,
				InputGB:     s.Data.InputGB,
				ModelGB:     s.Data.ModelGB,
				WorkGB:      s.WorkGB,
			},
			Iterations:   s.Iterations,
			PullFraction: s.PullFrac,
		}
	}
	return out
}

// TrainingConfig sizes a live training job for the runtime (real
// Parameter-Server training of the paper's applications on synthetic
// data).
type TrainingConfig struct {
	// Algorithm is one of "mlr", "lasso", "nmf", "lda".
	Algorithm string
	// Features, Classes and Rows size the synthetic problem.
	Features, Classes, Rows int
	// LearningRate scales updates; Lambda is Lasso's L1 penalty.
	LearningRate, Lambda float64
}

func (c TrainingConfig) internal() (mlapp.Config, error) {
	kind, err := mlapp.ParseKind(c.Algorithm)
	if err != nil {
		return mlapp.Config{}, fmt.Errorf("harmony: unknown algorithm %q", c.Algorithm)
	}
	return mlapp.Config{
		Kind: kind, Features: c.Features, Classes: c.Classes, Rows: c.Rows,
		LearningRate: c.LearningRate, Lambda: c.Lambda,
	}, nil
}
