package main

// This file is the single list of what the benchmark measures. BENCHMARK.json
// at the repository root repeats it for the driver; spec_test.go fails when
// the two disagree.

// Workload names are fixed: later issues refer to them.
const (
	wlLiveMix  = "live_mix"
	wlLiveComm = "live_comm"
	wlCtlChurn = "ctl_churn"
	wlSimPaper = "sim_paper"
)

type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json "why").
	Why string
	// Loop and Clients state the load model, as the guide asks.
	Loop    string
	Clients int
}

var workloads = []workloadSpec{
	{wlLiveMix, "comp-heavy job mix on the real master+ctl+2 workers stack: mlapp kernel, worker loop, subtask executor and barrier do the work; ps/rpc move few bytes",
		"open loop, bursty arrivals timed from due time", 1},
	{wlLiveComm, "512K-parameter models on the same stack: PS stripes, rpc float framing and stripe locks do the work and COMP little; a ps/rpc gain shows here, not in live_mix",
		"closed batch, all jobs submitted at t=0", 1},
	{wlCtlChurn, "HTTP submit/cancel/complete/read churn against a master with 256 stub workers and 256 held jobs: admission, drain, fair order, Scorer and ctl JSON; ps/mlapp/worker do nothing",
		"closed loop", 2},
	{wlSimPaper, "offline passes over the paper's 80-job workload: core.Schedule, sim.Run in three regimes, fair experiment and snapshot replay; no sockets, no master/rpc/ps/mlapp",
		"closed loop, in-process calls", 1},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse; per-layer metrics have none.
	Bound float64
}

// The driver's contract wants every end-to-end metric from every workload,
// so each name is a role and the workload fixes what fills it. Every value is
// a median: over the rounds of a run for per-round figures, over all samples
// of the run otherwise. The issue's workload-specific names (jct_p50_s,
// submit_p99_ms, ops_per_s, sim_pass_ms, ...) are printed beside them.
//
//	              live_mix / live_comm            ctl_churn                      sim_paper
//	makespan_s    first due -> last job finished  wall time of one round's ops   one pass (sim_pass_ms / 1000)
//	op_ms         a round's mean job completion   POST /v1/jobs (submit_p50_ms)  the four sim.Run of one pass
//	              time, due -> finished (the                                     (Fig. 10's three regimes and
//	              paper's mean JCT)                                              the bursty run) together
//	op_tail_ms    job completion time, p75        POST /v1/jobs, p99             one sim.Run of any of the four
//	                                                                             regimes, p75
//	step_ms       a round's mean time per         GET /v1/jobs/{name}            one core.Schedule of the
//	              iteration, (finished-admitted)  (read_p50_ms)                  paper workload
//	              / iterations (iter_ms)
//
// Every bound is the largest the driver takes. The box the benchmark was
// sized on runs one fixed single-threaded kernel loop anywhere between 3.7 and
// 5.2 s from one minute to the next, so the run-to-run spread of any time
// measured over 20 s is 5-8% whatever is measured, and a tighter bound would
// reject changes for the weather.
//
// The issue's hold_to_run_p50_ms (ctl_churn) and submit_p50_ms (live) are
// printed as extra rows but are not end-to-end metrics here: they are 3 ms
// and 10-100 ms single-shot latencies whose medians spread 12-23% from run to
// run, at or above the largest bound, and the issue's rule for a metric that
// cannot be steadied is to demote it.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"makespan_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"step_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// Per-layer metrics come from the traced run only. Probe metrics time one
// layer's exported functions in isolation at sizes taken from a named
// workload and mean the same in every workload's traced run; workload
// metrics (shares, fractions, counts) are read from the traced rounds of the
// workload itself and are 0 where its layer does no work.
var perLayer = []metricSpec{
	// core
	{"core.schedule_paper_ms", "ms", "lower", 0},
	{"core.schedule_1k_ms", "ms", "lower", 0},
	{"core.solve_interleave_us", "us", "lower", 0},
	{"core.scorer_best_addition_us", "us", "lower", 0},
	{"core.regroup_after_finish_us", "us", "lower", 0},
	{"core.full_score_calls", "count", "lower", 0},
	// fair
	{"fair.order_us", "us", "lower", 0},
	{"fair.experiment_ms", "ms", "lower", 0},
	// master
	{"master.enqueue_us_p50", "us", "lower", 0},
	{"master.enqueue_us_p99", "us", "lower", 0},
	{"master.job_status_us", "us", "lower", 0},
	{"master.list_jobs_ms", "ms", "lower", 0},
	{"master.snapshot_ms", "ms", "lower", 0},
	{"master.admitted", "count", "higher", 0},
	{"master.held", "count", "lower", 0},
	{"master.queue_drained", "count", "higher", 0},
	{"master.canceled", "count", "lower", 0},
	{"master.preemptions", "count", "lower", 0},
	{"master.journal_events", "count", "lower", 0},
	{"master.barrier_share", "ratio", "lower", 0},
	// ctl
	{"ctl.submit_self_us", "us", "lower", 0},
	{"ctl.healthz_us", "us", "lower", 0},
	{"ctl.metrics_scrape_ms", "ms", "lower", 0},
	{"ctl.unexpected_status", "count", "lower", 0},
	// rpc
	{"rpc.call_64b_us", "us", "lower", 0},
	{"rpc.call_4mb_ms", "ms", "lower", 0},
	{"rpc.float_codec_gbps", "GB/s", "higher", 0},
	// ps
	{"ps.pull_ms_p50", "ms", "lower", 0},
	{"ps.push_ms_p50", "ms", "lower", 0},
	{"ps.pull_push_contended_ms", "ms", "lower", 0},
	{"ps.lock_wait_share", "ratio", "lower", 0},
	{"ps.bytes_per_iter", "B", "lower", 0},
	{"ps.ops_per_iter", "count", "lower", 0},
	// worker
	{"worker.comp_share", "ratio", "lower", 0},
	{"worker.pull_share", "ratio", "lower", 0},
	{"worker.push_share", "ratio", "lower", 0},
	{"worker.overlap_ratio", "ratio", "higher", 0},
	{"worker.deploy_ms", "ms", "lower", 0},
	// subtask
	{"subtask.cpu_busy_frac", "ratio", "higher", 0},
	{"subtask.net_busy_frac", "ratio", "higher", 0},
	{"subtask.wait_cpu_share", "ratio", "lower", 0},
	{"subtask.wait_net_share", "ratio", "lower", 0},
	{"subtask.submit_noop_us", "us", "lower", 0},
	// mlapp
	{"mlapp.compute_fused_us.mlr", "us", "lower", 0},
	{"mlapp.compute_fused_us.lasso", "us", "lower", 0},
	{"mlapp.compute_fused_us.nmf", "us", "lower", 0},
	{"mlapp.compute_fused_us.lda", "us", "lower", 0},
	{"mlapp.decode_examples_mbps", "MB/s", "higher", 0},
	{"mlapp.generate_shards_ms", "ms", "lower", 0},
	// memstore
	{"memstore.get_resident_us", "us", "lower", 0},
	{"memstore.get_spilled_us", "us", "lower", 0},
	// sim, replay
	{"sim.run_harmony_ms", "ms", "lower", 0},
	{"sim.run_isolated_ms", "ms", "lower", 0},
	{"sim.run_naive_ms", "ms", "lower", 0},
	{"sim.run_bursty_ms", "ms", "lower", 0},
	{"sim.mallocs_per_run", "count", "lower", 0},
	{"replay.load_run_us", "us", "lower", 0},
	// obs
	{"obs.trace_overhead_frac", "ratio", "lower", 0},
	{"obs.span_loss_frac", "ratio", "lower", 0},
}

func findMetric(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
