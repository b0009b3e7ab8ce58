package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/fair"
	"harmony/internal/master"
	"harmony/internal/metrics"
	"harmony/internal/mlapp"
	"harmony/internal/obs"
	"harmony/internal/trace"
)

// jobShape is one synthetic learning problem plus the profile hints the
// submitter hands the arrival rule (scheduler units, §IV-B1).
type jobShape struct {
	Algo     string
	Features int
	Classes  int
	Rows     int
	// CompSeconds is the aggregate COMP machine-seconds per iteration,
	// NetSeconds the per-machine COMM seconds per iteration.
	CompSeconds float64
	NetSeconds  float64
	// Monotone marks shapes whose objective the live system reduces on every
	// seed tried, so "final loss below the iteration-0 loss" is a sound check.
	// mlapp's NMF and small-vocabulary LDA objectives are not monotone when
	// two workers push concurrently (they rise above the initial value on
	// part of the seeds on correct code); those jobs are checked for
	// completion and a finite loss only.
	Monotone bool
}

func (s jobShape) config() (mlapp.Config, error) {
	kind, err := mlapp.ParseKind(s.Algo)
	if err != nil {
		return mlapp.Config{}, err
	}
	return mlapp.Config{Kind: kind, Features: s.Features, Classes: s.Classes, Rows: s.Rows}, nil
}

// liveSizes fixes one round of a live workload. The seed changes the data,
// the arrival times and nothing about the amount of work.
type liveSizes struct {
	Workers    int
	Jobs       int
	Iterations int
	Shapes     []jobShape
	// WindowSeconds is the span the bursty arrival process is compressed
	// into (open loop); 0 submits everything at t=0 (closed batch).
	WindowSeconds float64
	// MaxJobsPerGroup caps co-location (core.Options); 0 leaves it to the
	// arrival rule alone.
	MaxJobsPerGroup int
	// SpillEvery gives every n-th job alpha=0.5 so memstore spill/reload is
	// live; 0 disables.
	SpillEvery int
	// TwoTenants alternates jobs between tenantA (quota 0.6) and tenantB
	// (0.4); otherwise every job goes to the default queue. Under two quotas
	// on two workers the fair scheduler places some drained jobs on one
	// worker only, so the gang width of a job is the scheduler's choice.
	TwoTenants bool
}

// The four live_mix shapes are comp-heavy: models of at most 4K parameters,
// rows in the thousands, so the fused kernel dominates an iteration and a
// PULL/PUSH moves a few KB.
var liveMixShapes = []jobShape{
	{Algo: "mlr", Features: 128, Classes: 16, Rows: 2048, CompSeconds: 0.012, NetSeconds: 0.002, Monotone: true},
	{Algo: "lasso", Features: 2048, Classes: 0, Rows: 1024, CompSeconds: 0.010, NetSeconds: 0.002, Monotone: true},
	{Algo: "nmf", Features: 128, Classes: 16, Rows: 512, CompSeconds: 0.020, NetSeconds: 0.002},
	{Algo: "lda", Features: 512, Classes: 8, Rows: 768, CompSeconds: 0.008, NetSeconds: 0.002},
}

// live_comm is a large-vocabulary LDA: 64K words x 8 topics = 512K parameters
// (4 MB per PULL and per PUSH) over 64 documents, so COMM outweighs COMP.
var liveCommShapes = []jobShape{
	{Algo: "lda", Features: 65536, Classes: 8, Rows: 64, CompSeconds: 0.010, NetSeconds: 0.050, Monotone: true},
}

func liveMixSizes(smoke bool) liveSizes {
	s := liveSizes{Workers: 2, Jobs: 12, Iterations: 16, Shapes: liveMixShapes,
		WindowSeconds: 1.2, MaxJobsPerGroup: 2, SpillEvery: 4, TwoTenants: true}
	if smoke {
		s.Jobs, s.Iterations, s.WindowSeconds = 4, 8, 0.4
	}
	return s
}

func liveCommSizes(smoke bool) liveSizes {
	s := liveSizes{Workers: 2, Jobs: 8, Iterations: 40, Shapes: liveCommShapes}
	if smoke {
		s.Jobs, s.Iterations = 2, 4
	}
	return s
}

func (s liveSizes) describe() map[string]any {
	shapes := make([]string, len(s.Shapes))
	for i, sh := range s.Shapes {
		cfg, _ := sh.config()
		shapes[i] = fmt.Sprintf("%s %dx%d rows=%d params=%d", sh.Algo, sh.Features, sh.Classes, sh.Rows, cfg.ModelSize())
	}
	return map[string]any{"workers": s.Workers, "jobs_per_round": s.Jobs, "iterations": s.Iterations,
		"shapes": shapes, "arrival_window_s": s.WindowSeconds, "spill_every": s.SpillEvery,
		"max_jobs_per_group": s.MaxJobsPerGroup, "two_tenants": s.TwoTenants}
}

// liveJob is one generated submission.
type liveJob struct {
	req   ctl.SubmitRequest
	shape jobShape
	// due is the offset from the round's first due time.
	due time.Duration
	// loss0 is the reference for the output check of a Monotone job: the
	// objective of its initial model (see initialLoss).
	loss0 float64
}

// generateLiveJobs builds a round's inputs. Which shape each job has is fixed
// (equal parts, in rotation) and the seed draws every job's data. The arrival
// trace belongs to the workload, not to the seed: round r replays the same
// bursty trace on every seed, the way the paper replays one cluster trace.
// Job times are measured from due times, so a trace drawn from the seed moves
// the mean job time by the trace's own mean offset (15% from seed to seed,
// measured) and would hide a real change of that size.
func generateLiveJobs(sizes liveSizes, seed int64, round int) []liveJob {
	rng := rand.New(rand.NewSource(seed*7919 + int64(round)))
	offsets := make([]time.Duration, sizes.Jobs)
	if sizes.WindowSeconds > 0 && sizes.Jobs > 1 {
		arr := trace.Bursty(sizes.Jobs, 0, int64(round)+1)
		last := arr[len(arr)-1].Seconds()
		for i, a := range arr {
			frac := float64(i) / float64(sizes.Jobs-1)
			if last > 0 {
				frac = a.Seconds() / last
			}
			offsets[i] = time.Duration(frac * sizes.WindowSeconds * float64(time.Second))
		}
	}
	jobs := make([]liveJob, sizes.Jobs)
	for i := range jobs {
		sh := sizes.Shapes[i%len(sizes.Shapes)]
		queue := ""
		if sizes.TwoTenants {
			queue = churnQueue(i)
		}
		req := ctl.SubmitRequest{
			Name: fmt.Sprintf("r%d-j%02d-%s", round, i, sh.Algo), Algorithm: sh.Algo,
			Features: sh.Features, Classes: sh.Classes, Rows: sh.Rows,
			Iterations: sizes.Iterations, Seed: 1 + rng.Int63n(1<<30), Queue: queue,
			Profile: &ctl.ProfileHints{CompSeconds: sh.CompSeconds, NetSeconds: sh.NetSeconds},
		}
		if sizes.SpillEvery > 0 && i%sizes.SpillEvery == sizes.SpillEvery-1 {
			req.Alpha = 0.5
		}
		jobs[i] = liveJob{req: req, shape: sh, due: offsets[i]}
	}
	return jobs
}

type liveWorkload struct {
	spec  workloadSpec
	sizes liveSizes
	seed  int64
	tr    *tracer // harness tracer for traced rounds; nil when the run is untraced
	// system collects the workers' own spans of traced rounds for the trace file.
	system []obs.TaggedSpan
}

func (w *liveWorkload) tailPercentile() float64 { return 75 }

func (w *liveWorkload) describe() map[string]any { return w.sizes.describe() }

func (w *liveWorkload) systemSpans() []obs.TaggedSpan { return w.system }

type submitRecord struct {
	status  int
	sentAt  time.Time // when the POST actually left
	elapsed time.Duration
	err     error
}

// round boots a fresh cluster, runs one fixed set of jobs to completion and
// checks every job's output.
func (w *liveWorkload) round(idx int, traced bool) (*roundOut, error) {
	out := &roundOut{outcomes: newOutcomes()}
	var tr *tracer
	if traced {
		tr = w.tr
	}
	bootStart := time.Now()
	rig, err := bootLive(core.Options{MaxJobsPerGroup: w.sizes.MaxJobsPerGroup}, w.sizes.Workers, traced, fmt.Sprintf("%s-%d", w.spec.Name, idx))
	if err != nil {
		return nil, err
	}
	defer rig.close()
	if w.sizes.TwoTenants {
		if err := rig.m.ConfigureQueues(
			fair.QueueConfig{Name: "tenantA", Quota: 0.6},
			fair.QueueConfig{Name: "tenantB", Quota: 0.4}); err != nil {
			return nil, fmt.Errorf("%s: configure queues: %w", w.spec.Name, err)
		}
	}
	// Generating the inputs and the reference outputs the checks compare
	// against is part of set-up: it happens before the first measured op.
	jobs := generateLiveJobs(w.sizes, w.seed, idx)
	for i := range jobs {
		if jobs[i].shape.Monotone {
			if jobs[i].loss0, err = initialLoss(jobs[i], w.sizes.Workers); err != nil {
				return nil, fmt.Errorf("%s: reference loss of %s: %w", w.spec.Name, jobs[i].req.Name, err)
			}
		}
	}
	client := newAPIClient(rig.base(), tr)
	defer client.close()
	commBefore := rig.m.CommStats()
	scoreBefore := core.FullScoreCalls()

	start := time.Now()
	out.setup = start.Sub(bootStart)
	records := make([]submitRecord, len(jobs))
	submit := func(i int) {
		sent := time.Now()
		status, elapsed, err := client.do(spanRef{}, http.MethodPost, "/v1/jobs", jobs[i].req, nil)
		records[i] = submitRecord{status: status, sentAt: sent, elapsed: elapsed, err: err}
	}
	if w.sizes.WindowSeconds > 0 {
		// Open loop: the generator fires each POST at its due time whether or
		// not earlier ones have returned (an admitted submit blocks for the
		// whole deploy), so a slow system cannot slow its own arrivals.
		var wg sync.WaitGroup
		for i := range jobs {
			if d := time.Until(start.Add(jobs[i].due)); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				submit(i)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range jobs {
			submit(i)
		}
	}
	for i, rec := range records {
		if rec.err != nil {
			return nil, fmt.Errorf("%s: submit %s: %w", w.spec.Name, jobs[i].req.Name, rec.err)
		}
		switch rec.status {
		case http.StatusCreated:
			out.outcomes.note(outcomeAdmitted)
		case http.StatusAccepted:
			out.outcomes.note(outcomeHeld)
		default:
			out.outcomes.noteUnexpected("POST /v1/jobs "+jobs[i].req.Name, rec.status)
		}
	}

	// Wait for every job. A held job is briefly in neither of the master's
	// tables while a drain pass moves it to deployed, so an unknown name is
	// retried until the deadline.
	deadline := time.Now().Add(3 * time.Minute)
	for _, j := range jobs {
		for {
			err := rig.m.WaitJob(j.req.Name, time.Until(deadline))
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return nil, infra(errRPCTimeout, "%s: %s did not finish: %v", w.spec.Name, j.req.Name, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitedUntil := time.Now()

	// Job timing comes from the master's decision journal: the admit or
	// drain stamp is when the job started running, the complete stamp when
	// its last worker reported done.
	admitted := make(map[string]time.Time)
	finished := make(map[string]time.Time)
	gangSum := 0 // workers summed over jobs: the scheduler chose each gang's width
	events := rig.m.Events()
	for _, e := range events {
		switch e.Kind {
		case master.EventAdmitInitial, master.EventAdmitArrival, master.EventQueueDrain:
			admitted[e.Job] = e.Time
			gangSum += len(e.Group)
		case master.EventComplete:
			finished[e.Job] = e.Time
		}
	}
	var last time.Time
	var jct, iter []float64
	open := w.sizes.WindowSeconds > 0
	out.attempted = len(jobs)
	for i, j := range jobs {
		name := j.req.Name
		due := start.Add(j.due)
		fin, ok := finished[name]
		if !ok {
			out.fail("%s: no complete event in the journal", name)
			continue
		}
		if fin.After(last) {
			last = fin
		}
		// Timed from the due time: a late generator counts against the system
		// the way a late user request would.
		jct = append(jct, ms(fin.Sub(due)))
		if adm, ok := admitted[name]; ok {
			iter = append(iter, ms(fin.Sub(adm))/float64(w.sizes.Iterations))
			out.addExtra("master.admit_wait_p50_s", "s", adm.Sub(due).Seconds())
		}
		rec := records[i]
		out.addExtra("submit_p50_ms", "ms", ms(rec.sentAt.Add(rec.elapsed).Sub(due)))
		if open {
			out.addExtra("gen_late_p99_ms", "ms", ms(rec.sentAt.Sub(due)))
		}
		if rec.status == http.StatusCreated {
			out.addExtra("deploy_submit_p50_ms", "ms", ms(rec.elapsed))
		}
		w.checkJob(out, rig.m, j)
	}
	if last.IsZero() {
		last = waitedUntil
	}
	makespan := last.Sub(start)
	out.makespans = []float64{makespan.Seconds()}
	out.measured = waitedUntil.Sub(start)
	// A job-time median sits in the gap between the waves jobs finish in and
	// jumps from run to run; the round's mean (the paper's mean JCT) does not.
	out.op = []float64{metrics.Mean(jct)}
	out.tail = jct
	out.step = []float64{metrics.Mean(iter)}
	out.addExtra("jct_p50_s", "s", scaled(jct, 1e-3)...)
	out.addExtra("iter_ms", "ms", iter...)

	if open {
		// Open-loop hygiene: a generator that ran late offered a lighter load
		// than the workload describes.
		if late := percentile(out.extra["gen_late_p99_ms"].xs, 99); late > w.sizes.WindowSeconds*1000 {
			return nil, infra(errGenerator, "%s: generator ran %.0f ms late (p99), longer than the whole %.0f ms arrival window",
				w.spec.Name, late, w.sizes.WindowSeconds*1000)
		}
	}
	if traced {
		w.observeLayers(out, rig, makespan, commBefore, scoreBefore, len(events), gangSum)
	}
	return out, nil
}

// checkJob verifies one job's output: it finished all iterations with a
// finite loss below the loss of its initial model.
func (w *liveWorkload) checkJob(out *roundOut, m *master.Master, j liveJob) {
	view, ok := m.Job(j.req.Name)
	switch {
	case !ok:
		out.fail("%s: unknown to the master after the run", j.req.Name)
	case view.State != master.StatusFinished.String():
		out.fail("%s: state %s, want finished", j.req.Name, view.State)
	case view.Iteration != j.req.Iterations-1:
		out.fail("%s: stopped at iteration %d of %d", j.req.Name, view.Iteration, j.req.Iterations)
	case math.IsNaN(view.Loss) || math.IsInf(view.Loss, 0):
		out.fail("%s: loss %v is not finite", j.req.Name, view.Loss)
	case j.shape.Monotone && !(view.Loss < j.loss0):
		out.fail("%s: final loss %.6g not below iteration-0 loss %.6g", j.req.Name, view.Loss, j.loss0)
	}
}

// initialLoss evaluates the objective of the job's initial model on its
// shards, the way worker 0 seeds that model (worker.handleLoadJob), and
// returns the largest shard loss: the final loss the master reports comes
// from whichever worker reached the last barrier last.
func initialLoss(j liveJob, shards int) (float64, error) {
	cfg, err := j.shape.config()
	if err != nil {
		return 0, err
	}
	algo, err := mlapp.New(cfg)
	if err != nil {
		return 0, err
	}
	data, err := mlapp.GenerateShards(cfg, shards, j.req.Seed)
	if err != nil {
		return 0, err
	}
	model := algo.InitModel(rand.New(rand.NewSource(j.req.Seed ^ 1)))
	worst := math.Inf(-1)
	for _, sh := range data {
		if l := algo.Loss(model, sh); l > worst {
			worst = l
		}
	}
	return worst, nil
}

// observeLayers reads the workload-derived per-layer metrics of a traced
// round off what the system exports: phase histograms, executor utilization,
// comm counters, PS stripe stats, control-plane counters and collected spans.
func (w *liveWorkload) observeLayers(out *roundOut, rig *liveRig, makespan time.Duration,
	commBefore metrics.CommSnapshot, scoreBefore int64, journalEvents, gangSum int) {
	layer := make(map[string]float64)
	out.layer = layer
	machineSeconds := float64(w.sizes.Workers) * makespan.Seconds()
	if hist, ok := rig.m.PhaseStats(); ok && machineSeconds > 0 {
		layer["worker.comp_share"] = hist[obs.PhaseComp].Sum / machineSeconds
		layer["worker.pull_share"] = hist[obs.PhasePull].Sum / machineSeconds
		layer["worker.push_share"] = hist[obs.PhasePush].Sum / machineSeconds
		layer["subtask.wait_cpu_share"] = hist[obs.PhaseWaitCPU].Sum / machineSeconds
		layer["subtask.wait_net_share"] = hist[obs.PhaseWaitNet].Sum / machineSeconds
		layer["master.barrier_share"] = hist[obs.PhaseBarrier].Sum / machineSeconds
	}
	if cpu, net, err := rig.m.WorkerStats(); err == nil {
		layer["subtask.cpu_busy_frac"] = cpu
		layer["subtask.net_busy_frac"] = net
	}
	comm := rig.m.CommStats()
	iters := float64(w.sizes.Jobs * w.sizes.Iterations)
	layer["ps.bytes_per_iter"] = float64(comm.PullBytes+comm.PushBytes-commBefore.PullBytes-commBefore.PushBytes) / iters
	layer["ps.ops_per_iter"] = float64(comm.Pulls+comm.Pushes-commBefore.Pulls-commBefore.Pushes) / iters
	if cs, err := rig.m.PSStats(); err == nil {
		var lockWait float64
		for _, srv := range cs.Servers {
			for _, job := range srv.Jobs {
				for _, st := range job.Stripes {
					lockWait += st.LockWaitSeconds
				}
			}
		}
		if opSeconds := comm.PullSeconds + comm.PushSeconds - commBefore.PullSeconds - commBefore.PushSeconds; opSeconds > 0 {
			layer["ps.lock_wait_share"] = lockWait / opSeconds
		}
	}
	c := rig.m.Counters()
	layer["master.admitted"] = float64(c.AdmittedInitial + c.AdmittedArrival)
	layer["master.held"] = float64(c.HeldPending)
	layer["master.queue_drained"] = float64(c.QueueDrained)
	layer["master.canceled"] = float64(c.Canceled)
	layer["master.preemptions"] = float64(c.Preempted)
	layer["master.journal_events"] = float64(journalEvents)
	layer["core.full_score_calls"] = float64(core.FullScoreCalls() - scoreBefore)
	_, unexpected := out.outcomes.snapshot()
	layer["ctl.unexpected_status"] = float64(unexpected)

	spans := rig.m.CollectSpans()
	w.system = append(w.system, spans...)
	// Each worker of each job records seven spans an iteration: PULL, COMP and
	// PUSH with their slot waits, and the barrier.
	expected := float64(gangSum * w.sizes.Iterations * 7)
	layer["obs.span_loss_frac"] = 1 - float64(len(spans))/expected
	if overlap := rig.m.MeasuredOverlap(); len(overlap) > 0 {
		var sum float64
		for _, r := range overlap {
			sum += r
		}
		layer["worker.overlap_ratio"] = sum / float64(len(overlap))
	}
	out.addExtra("worker.iter_ms_p50", "ms", iterationTimes(spans)...)
	out.addExtra("worker.iter_ms_p99", "ms", iterationTimes(spans)...)
}

// iterationTimes derives barrier-to-barrier iteration times (ms) from
// collected spans: per machine and job, the distance between the ends of
// consecutive barrier spans. The slowest member sets a group's iteration, so
// the tail of this sample is what a gang's iteration time follows.
func iterationTimes(spans []obs.TaggedSpan) []float64 {
	type key struct{ machine, job string }
	ends := make(map[key]map[int]int64)
	for _, s := range spans {
		if s.Phase != obs.PhaseBarrier {
			continue
		}
		k := key{s.Machine, s.Job}
		if ends[k] == nil {
			ends[k] = make(map[int]int64)
		}
		ends[k][s.Iter] = s.End
	}
	var out []float64
	for _, byIter := range ends {
		for iter, end := range byIter {
			if prev, ok := byIter[iter-1]; ok {
				out = append(out, float64(end-prev)/1e6)
			}
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func scaled(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}
