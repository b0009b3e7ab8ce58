package ctl

import (
	"net/http"
	"sort"
	"strings"
	"time"

	"harmony/internal/master"
	"harmony/internal/metrics"
	"harmony/internal/obs"
	"harmony/internal/ps"
)

// psStripeTopK bounds per-stripe series cardinality on /metrics: the K
// hottest stripes cluster-wide get individual series, the rest fold
// into a per-server stripe="other" aggregate.
const psStripeTopK = 16

// processStart anchors the /healthz uptime report.
var processStart = time.Now()

// jobStates is the fixed label set of harmony_jobs; every state is
// always emitted so dashboards see zeros instead of gaps.
var jobStates = []master.JobStatus{
	master.StatusPending,
	master.StatusRunning,
	master.StatusPaused,
	master.StatusFinished,
	master.StatusCanceled,
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cv := s.b.Cluster()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Workers:       len(cv.Workers),
		Version:       obs.Version,
		UptimeSeconds: time.Since(processStart).Seconds(),
	})
}

// handleEvents serves the scheduler decision journal: every admission,
// hold, regroup, recovery and completion with the model's predicted
// T_itr/U beside the measured values. ?since=<seq> returns only events
// after that sequence number (incremental polling pays for its delta,
// not the whole ring); ?kind= filters to one decision kind.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	since, kind, ok := parseEventsQuery(w, r)
	if !ok {
		return
	}
	evs := s.b.EventsSince(since, kind)
	if evs == nil {
		evs = []master.Event{}
	}
	writeJSON(w, http.StatusOK, EventsResponse{Events: evs})
}

// handleTrace collects spans from the workers (best effort: a worker
// mid-restart is skipped, never an error) and renders them as Chrome
// trace-event JSON loadable in Perfetto. With tracing disabled the body
// is a valid empty trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	spans := s.b.CollectSpans()
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, spans)
}

// handlePSStats serves the merged per-stripe parameter-server view
// (`harmonyctl ps-stats` renders it as a table).
func (s *Server) handlePSStats(w http.ResponseWriter, r *http.Request) {
	cs, err := s.b.PSStats()
	if err != nil {
		writeBackendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cs)
}

// handleMetrics renders the control-plane inventory in the Prometheus
// text exposition format: job counts by state, queue depth, live groups,
// admission/migration/checkpoint counters, per-resource worker
// utilization, and API request counts.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	jobs := s.b.ListJobs()
	cv := s.b.Cluster()
	c := s.b.Counters()

	byState := make(map[string]int)
	for _, j := range jobs {
		byState[j.State]++
	}
	samples := make([]metrics.Sample, 0, 32)
	for _, st := range jobStates {
		samples = append(samples, metrics.Sample{
			Name:  `harmony_jobs{state="` + st.String() + `"}`,
			Help:  "Jobs known to the master, by lifecycle state.",
			Type:  metrics.PromGauge,
			Value: float64(byState[st.String()]),
		})
	}
	samples = append(samples,
		metrics.Sample{Name: "harmony_workers",
			Help: "Registered live workers.",
			Type: metrics.PromGauge, Value: float64(len(cv.Workers))},
		metrics.Sample{Name: "harmony_groups",
			Help: "Live co-location groups derived from running jobs.",
			Type: metrics.PromGauge, Value: float64(len(cv.Groups))},
		metrics.Sample{Name: `harmony_admissions_total{path="initial"}`,
			Help: "Jobs admitted, by path: initial (idle cluster) or arrival (placed into a running group by the IV-B4 rule).",
			Type: metrics.PromCounter, Value: float64(c.AdmittedInitial)},
		metrics.Sample{Name: `harmony_admissions_total{path="arrival"}`,
			Type: metrics.PromCounter, Value: float64(c.AdmittedArrival)},
		metrics.Sample{Name: "harmony_admissions_held_total",
			Help: "Submissions the arrival rule held pending.",
			Type: metrics.PromCounter, Value: float64(c.HeldPending)},
		metrics.Sample{Name: "harmony_queue_drained_total",
			Help: "Pending jobs later admitted by a queue drain.",
			Type: metrics.PromCounter, Value: float64(c.QueueDrained)},
		metrics.Sample{Name: "harmony_jobs_canceled_total",
			Help: "Jobs canceled through the control plane.",
			Type: metrics.PromCounter, Value: float64(c.Canceled)},
		metrics.Sample{Name: "harmony_migrations_total",
			Help: "Pause/resume group migrations (regroup decisions applied).",
			Type: metrics.PromCounter, Value: float64(c.Migrations)},
		metrics.Sample{Name: "harmony_recoveries_total",
			Help: "Failure-triggered job restarts from background checkpoints.",
			Type: metrics.PromCounter, Value: float64(c.Recoveries)},
		metrics.Sample{Name: "harmony_preemptions_total",
			Help: "Running jobs the fair scheduler reclaimed and requeued as resumable held jobs.",
			Type: metrics.PromCounter, Value: float64(c.Preempted)},
		metrics.Sample{Name: "harmony_checkpoint_failures_total",
			Help: "Background model snapshots that failed and were dropped.",
			Type: metrics.PromCounter, Value: float64(c.CheckpointFailures)},
		metrics.Sample{Name: "harmony_admission_placements_total",
			Help: "Admission placement attempts: each arrival and each held job a drain pass reaches.",
			Type: metrics.PromCounter, Value: float64(c.Placements)},
		metrics.Sample{Name: "harmony_drain_passes_total",
			Help: "Admission-kernel decisions the drain passes made over the held queue.",
			Type: metrics.PromCounter, Value: float64(c.DrainPasses)},
		metrics.Sample{Name: "harmony_drain_pass_seconds_total",
			Help: "Time the master's loop spent deciding over the held queue.",
			Type: metrics.PromCounter, Value: c.DrainPassSeconds},
		metrics.Sample{Name: "harmony_journal_evicted_total",
			Help: "Decision-journal events overwritten by the bounded ring.",
			Type: metrics.PromCounter, Value: float64(c.JournalEvicted)},
		metrics.Sample{Name: "harmony_trace_spans_lost_total",
			Help: "Worker spans evicted before collection or trimmed by the master's retention.",
			Type: metrics.PromCounter, Value: float64(c.SpansLost)},
	)
	// Per-queue fair-scheduler families (DESIGN.md §13). A single-tenant
	// deployment reports everything under queue="default", which is the
	// compatibility view of the pre-fair aggregate gauges.
	for _, q := range s.b.Queues() {
		l := `{queue="` + q.Name + `"}`
		samples = append(samples,
			metrics.Sample{Name: "harmony_queue_depth" + l,
				Help: "Jobs held pending in the admission queue, by queue.",
				Type: metrics.PromGauge, Value: float64(q.Depth)},
			metrics.Sample{Name: "harmony_queue_share" + l,
				Help: "Resolved fraction of the cluster guaranteed to the queue.",
				Type: metrics.PromGauge, Value: q.Share},
			metrics.Sample{Name: "harmony_queue_quota_workers" + l,
				Help: "Queue guarantee in whole workers on the current cluster.",
				Type: metrics.PromGauge, Value: float64(q.QuotaWorkers)},
			metrics.Sample{Name: "harmony_queue_usage_workers" + l,
				Help: "Workers occupied by the queue's deployed jobs.",
				Type: metrics.PromGauge, Value: float64(q.UsageWorkers)},
			metrics.Sample{Name: "harmony_queue_running" + l,
				Help: "Deployed jobs per queue.",
				Type: metrics.PromGauge, Value: float64(q.Running)},
			metrics.Sample{Name: "harmony_queue_admitted_total" + l,
				Help: "Jobs admitted per queue (initial, arrival, and drain paths).",
				Type: metrics.PromCounter, Value: float64(q.Admitted)},
			metrics.Sample{Name: "harmony_queue_held_total" + l,
				Help: "Submissions held pending, by queue.",
				Type: metrics.PromCounter, Value: float64(q.Held)},
			metrics.Sample{Name: "harmony_queue_preempted_total" + l,
				Help: "Jobs preempted out of the queue's running set.",
				Type: metrics.PromCounter, Value: float64(q.Preempted)},
		)
	}
	// One pass over the workers feeds every worker-side family below.
	// It is best effort: a scrape must not fail because a worker is
	// mid-restart.
	totals := s.b.WorkerTotals()
	samples = append(samples, metrics.Sample{Name: "harmony_worker_loaded_jobs",
		Help: "Jobs loaded on the workers that answered, counted once per member.",
		Type: metrics.PromGauge, Value: float64(totals.LoadedJobs)})
	if totals.UtilErr == nil {
		samples = append(samples,
			metrics.Sample{
				Name: `harmony_utilization{resource="` + strings.ToLower(metrics.CPU.String()) + `"}`,
				Help: "Mean worker executor busy fraction per resource.",
				Type: metrics.PromGauge, Value: totals.CPUUtil},
			metrics.Sample{
				Name: `harmony_utilization{resource="` + strings.ToLower(metrics.Net.String()) + `"}`,
				Type: metrics.PromGauge, Value: totals.NetUtil},
		)
	}
	// Data-plane traffic (pull/push ops, bytes, latency) and compute-path
	// health (block-cache hit/miss, reload-stall seconds), aggregated
	// across the cluster: this process plus every worker process.
	samples = append(samples, metrics.CommSamples(totals.Comm)...)
	samples = append(samples, metrics.CompSamples(totals.Comp)...)
	// Per-stripe PS load of the servers that answered, bounded to the
	// hottest stripes plus per-server aggregates.
	samples = append(samples, ps.StripeSamples(totals.PS, psStripeTopK)...)
	samples = append(samples,
		metrics.Sample{Name: `harmony_build_info{version="` + obs.Version + `"}`,
			Help: "Build metadata; the value is always 1.",
			Type: metrics.PromGauge, Value: 1},
		metrics.Sample{Name: "harmony_uptime_seconds",
			Help: "Seconds since this control plane started.",
			Type: metrics.PromGauge, Value: time.Since(processStart).Seconds()},
	)
	// Phase latency histograms and measured COMP/COMM overlap, present
	// only when the master collects traces (-trace).
	if totals.Traced {
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			samples = metrics.AppendHistogram(samples, "harmony_phase_seconds",
				"Latency of worker subtask phases, by phase.",
				`phase="`+p.String()+`"`, totals.PhaseHist[p])
		}
		overlap := obs.OverlapByGroup(totals.Spans)
		groups := make([]string, 0, len(overlap))
		for g := range overlap {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		for _, g := range groups {
			samples = append(samples, metrics.Sample{
				Name: `harmony_group_overlap_ratio{group="` + g + `"}`,
				Help: "Measured fraction of machine busy time where COMP and COMM subtasks overlapped, per co-location group.",
				Type: metrics.PromGauge, Value: overlap[g],
			})
		}
	}
	// Model calibration gauges from the last POST /v1/replay: the mean
	// |predicted − measured| / measured iteration-time error per
	// (worker set, decision kind), from re-running the §IV-B2 model over
	// the journaled decision sequence (DESIGN.md §16). Absent until the
	// first self-replay.
	s.mu.Lock()
	rep := s.lastReplay
	s.mu.Unlock()
	if rep != nil {
		for _, g := range rep.Groups {
			samples = append(samples, metrics.Sample{
				Name: `harmony_model_error_ratio{group="` + g.Group + `",kind="` + g.Kind + `"}`,
				Help: "Mean relative iteration-time prediction error per co-location group and decision kind, from the last journal self-replay.",
				Type: metrics.PromGauge, Value: g.MeanIterErrRatio,
			})
		}
		samples = append(samples, metrics.Sample{
			Name: "harmony_model_drift_ratio",
			Help: "Mean relative drift between decision-time predictions and the current model's replayed predictions.",
			Type: metrics.PromGauge, Value: rep.Overall.MeanDriftRatio,
		})
	}
	s.mu.Lock()
	for _, route := range routes {
		samples = append(samples, metrics.Sample{
			Name:  `harmony_api_requests_total{route="` + route + `"}`,
			Help:  "Control-plane API requests served, by route.",
			Type:  metrics.PromCounter,
			Value: float64(s.requests[route]),
		})
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WritePrometheus(w, samples)
}
