// harmonyctl drives a live harmony-master through its HTTP control
// plane: submit jobs into the online admission queue, inspect job and
// cluster status, and cancel work.
//
//	harmonyctl [-addr http://127.0.0.1:8080] <command> [flags]
//
// Commands:
//
//	submit   submit a job (admitted by the §IV-B4 arrival rule or held pending)
//	jobs     list all jobs
//	status   show one job
//	cancel   cancel a pending or running job
//	cluster  show workers, groups and the admission queue
//	queues   show fair-scheduler queues: shares, quotas, usage, depth
//	events   show the scheduler decision journal (predicted vs measured T_itr/U)
//	snapshot capture the master's full state (-o snap.json; replay with harmony-sim -replay)
//	replay   self-replay the decision journal server-side, print the drift report
//	trace    fetch the Chrome trace-event JSON (-o trace.json; load in Perfetto)
//	ps-stats show per-stripe parameter-server load, hottest stripes first
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"harmony/internal/ctl"
	"harmony/internal/ps"
	"harmony/internal/replay"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "harmonyctl:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: harmonyctl [-addr URL] {submit|jobs|status|cancel|cluster|queues|events|snapshot|replay|trace|ps-stats} [flags]")
}

func run(args []string) error {
	fs := flag.NewFlagSet("harmonyctl", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "control-plane base URL")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return usage()
	}
	c := &client{base: strings.TrimRight(*addr, "/"), hc: &http.Client{Timeout: *timeout}}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(c, rest)
	case "jobs":
		return cmdJobs(c)
	case "status":
		if len(rest) != 1 {
			return fmt.Errorf("usage: harmonyctl status <name>")
		}
		return cmdStatus(c, rest[0])
	case "cancel":
		if len(rest) != 1 {
			return fmt.Errorf("usage: harmonyctl cancel <name>")
		}
		return cmdCancel(c, rest[0])
	case "cluster":
		return cmdCluster(c)
	case "queues":
		return cmdQueues(c)
	case "events":
		return cmdEvents(c, rest)
	case "snapshot":
		return cmdSnapshot(c, rest)
	case "replay":
		return cmdReplay(c, rest)
	case "trace":
		return cmdTrace(c, rest)
	case "ps-stats":
		return cmdPSStats(c, rest)
	default:
		return usage()
	}
}

type client struct {
	base string
	hc   *http.Client
}

// do issues the request and decodes the JSON response into out,
// surfacing the API's structured errors as Go errors.
func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e ctl.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error.Message != "" {
			return fmt.Errorf("%s (%s)", e.Error.Message, e.Error.Code)
		}
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// raw fetches a path and returns the response body verbatim, for
// endpoints whose payload is passed through rather than rendered
// (/v1/trace).
func (c *client) raw(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func cmdSubmit(c *client, args []string) error {
	fs := flag.NewFlagSet("harmonyctl submit", flag.ContinueOnError)
	name := fs.String("name", "", "job name (required)")
	algo := fs.String("algo", "mlr", "algorithm: mlr, lasso, nmf or lda")
	features := fs.Int("features", 0, "feature count (0 = default)")
	classes := fs.Int("classes", 0, "classes / rank / topics (0 = default)")
	rows := fs.Int("rows", 0, "training rows (0 = default)")
	lr := fs.Float64("lr", 0, "learning rate (0 = default)")
	lambda := fs.Float64("lambda", 0, "lasso L1 penalty (0 = default)")
	iters := fs.Int("iterations", 20, "iterations until convergence")
	alpha := fs.Float64("alpha", 0, "initial disk-spill ratio in [0, 1]")
	seed := fs.Int64("seed", 1, "data-generation seed")
	queue := fs.String("queue", "", "fair-scheduler queue (empty = default)")
	priority := fs.Int("priority", 0, "priority within the queue (higher first)")
	minWorkers := fs.Int("min-workers", 0, "gang size: the full set places atomically or the job holds")
	maxWorkers := fs.Int("max-workers", 0, "placement size cap (0 = no cap)")
	workersCSV := fs.String("workers", "", "comma-separated worker names to pin the job (bypasses admission)")
	comp := fs.Float64("comp", 0, "profile hint: COMP machine-seconds per iteration")
	netSec := fs.Float64("net", 0, "profile hint: COMM seconds per iteration")
	inputGB := fs.Float64("input-gb", 0, "profile hint: input size in GB")
	modelGB := fs.Float64("model-gb", 0, "profile hint: model size in GB")
	workGB := fs.Float64("work-gb", 0, "profile hint: working memory in GB")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("submit: -name is required")
	}
	req := ctl.SubmitRequest{
		Name: *name, Algorithm: *algo,
		Features: *features, Classes: *classes, Rows: *rows,
		LearningRate: *lr, Lambda: *lambda,
		Iterations: *iters, Alpha: *alpha, Seed: *seed,
		Queue: *queue, Priority: *priority,
		MinWorkers: *minWorkers, MaxWorkers: *maxWorkers,
	}
	if *workersCSV != "" {
		req.Workers = strings.Split(*workersCSV, ",")
	}
	if *comp > 0 || *netSec > 0 || *inputGB > 0 || *modelGB > 0 || *workGB > 0 {
		req.Profile = &ctl.ProfileHints{
			CompSeconds: *comp, NetSeconds: *netSec,
			InputGB: *inputGB, ModelGB: *modelGB, WorkGB: *workGB,
		}
	}
	var resp ctl.SubmitResponse
	if err := c.do(http.MethodPost, "/v1/jobs", req, &resp); err != nil {
		return err
	}
	switch resp.State {
	case "running":
		fmt.Printf("%s admitted, running on %s\n", resp.Name, strings.Join(resp.Workers, ","))
	default:
		fmt.Printf("%s held pending in the admission queue\n", resp.Name)
	}
	return nil
}

// cmdQueues renders the fair-scheduler surface: each queue's resolved
// share, quota and usage in workers, held depth, and cumulative
// admission/preemption counters.
func cmdQueues(c *client) error {
	var resp ctl.QueuesResponse
	if err := c.do(http.MethodGet, "/v1/queues", nil, &resp); err != nil {
		return err
	}
	if len(resp.Queues) == 0 {
		fmt.Println("no queues")
		return nil
	}
	fmt.Printf("%-16s %-12s %6s %6s %6s %6s %6s %6s %9s %10s\n",
		"QUEUE", "PARENT", "SHARE", "QUOTA", "USAGE", "RUN", "DEPTH", "ADMIT", "PREEMPTED", "CANCELED")
	for _, q := range resp.Queues {
		fmt.Printf("%-16s %-12s %5.1f%% %6d %6d %6d %6d %6d %9d %10d\n",
			q.Name, q.Parent, q.Share*100, q.QuotaWorkers, q.UsageWorkers,
			q.Running, q.Depth, q.Admitted, q.Preempted, q.Canceled)
	}
	return nil
}

func cmdJobs(c *client) error {
	var resp ctl.JobListResponse
	if err := c.do(http.MethodGet, "/v1/jobs", nil, &resp); err != nil {
		return err
	}
	if len(resp.Jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	fmt.Printf("%-20s %-10s %9s %12s %8s  %s\n",
		"NAME", "STATE", "ITERATION", "LOSS", "PROFILED", "WORKERS")
	for _, j := range resp.Jobs {
		fmt.Printf("%-20s %-10s %9d %12.4f %8v  %s\n",
			j.Name, j.State, j.Iteration, j.Loss, j.Profiled, strings.Join(j.Workers, ","))
	}
	return nil
}

func cmdStatus(c *client, name string) error {
	var j ctl.JobResponse
	if err := c.do(http.MethodGet, "/v1/jobs/"+name, nil, &j); err != nil {
		return err
	}
	fmt.Printf("name:        %s\n", j.Name)
	fmt.Printf("state:       %s\n", j.State)
	if j.Queue != "" {
		fmt.Printf("queue:       %s (priority %d)\n", j.Queue, j.Priority)
	}
	if j.State == "pending" {
		// A held job is distinguishable from a stuck one: why it waits
		// and where it stands in the fair admission order.
		fmt.Printf("hold:        %s (position %d in queue)\n", holdText(j.HoldReason), j.QueuePosition)
		if j.Resumable {
			fmt.Printf("resumable:   from checkpoint iteration %d\n", j.ResumeIteration-1)
		}
	}
	fmt.Printf("iteration:   %d\n", j.Iteration)
	fmt.Printf("loss:        %.6f\n", j.Loss)
	fmt.Printf("workers:     %s\n", strings.Join(j.Workers, ","))
	fmt.Printf("profiled:    %v (comp %.3fs, net %.3fs)\n", j.Profiled, j.CompSeconds, j.NetSeconds)
	fmt.Printf("checkpoint:  iteration %d\n", j.CheckpointIteration)
	return nil
}

// holdText expands a hold-reason code into an operator-readable phrase.
func holdText(reason string) string {
	switch reason {
	case "slowdown_bound":
		return "slowdown_bound (no placement improves the Eq. 1 scheduling score)"
	case "no_gang_capacity":
		return "no_gang_capacity (no feasible worker set of the gang size)"
	case "quota_exhausted":
		return "quota_exhausted (queue at quota while an under-quota queue waits)"
	case "preempted":
		return "preempted (reclaimed; resumes from its checkpoint)"
	case "":
		return "unknown"
	}
	return reason
}

func cmdCancel(c *client, name string) error {
	if err := c.do(http.MethodDelete, "/v1/jobs/"+name, nil, nil); err != nil {
		return err
	}
	fmt.Printf("%s canceled\n", name)
	return nil
}

// cmdEvents prints the scheduler decision journal: one line per
// decision with the model's predicted T_itr/U beside the measured
// values, so prediction error is visible per decision. -since polls
// incrementally from a sequence number; -kind filters one decision kind.
func cmdEvents(c *client, args []string) error {
	fs := flag.NewFlagSet("harmonyctl events", flag.ContinueOnError)
	since := fs.Uint64("since", 0, "only events after this sequence number")
	kind := fs.String("kind", "", "only events of this kind (e.g. admit_arrival, hold, migrate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := "/v1/events"
	q := url.Values{}
	if *since > 0 {
		q.Set("since", strconv.FormatUint(*since, 10))
	}
	if *kind != "" {
		q.Set("kind", *kind)
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var resp ctl.EventsResponse
	if err := c.do(http.MethodGet, path, nil, &resp); err != nil {
		return err
	}
	if len(resp.Events) == 0 {
		fmt.Println("no events")
		return nil
	}
	fmt.Printf("%4s %-8s %-14s %-16s %10s %10s %12s %12s  %s\n",
		"SEQ", "TIME", "KIND", "JOB", "PRED_TITR", "MEAS_TITR", "PRED_U", "MEAS_U", "GROUP/NOTE")
	for _, e := range resp.Events {
		detail := strings.Join(e.Group, ",")
		if e.Note != "" {
			if detail != "" {
				detail += " — "
			}
			detail += e.Note
		}
		fmt.Printf("%4d %-8s %-14s %-16s %10s %10s %12s %12s  %s\n",
			e.Seq, e.Time.Format("15:04:05"), e.Kind, e.Job,
			fmtSeconds(e.PredictedIterSeconds), fmtSeconds(e.MeasuredIterSeconds),
			fmtUtil(e.PredictedCPUUtil, e.PredictedNetUtil),
			fmtUtil(e.MeasuredCPUUtil, e.MeasuredNetUtil),
			detail)
	}
	return nil
}

// fmtSeconds renders an iteration time, blank when unmeasured.
func fmtSeconds(s float64) string {
	if s == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fms", s*1000)
}

// fmtUtil renders a (cpu, net) utilization pair, blank when unmodeled.
func fmtUtil(cpu, net float64) string {
	if cpu == 0 && net == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%/%.0f%%", cpu*100, net*100)
}

// cmdSnapshot captures the master's full state — plan, jobs, queues,
// profiles, PS placement, decision journal — as a versioned JSON
// document replayable with `harmony-sim -replay`.
func cmdSnapshot(c *client, args []string) error {
	fs := flag.NewFlagSet("harmonyctl snapshot", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := c.raw("/v1/snapshot")
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(body)
		return err
	}
	if err := os.WriteFile(*out, body, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d bytes to %s (replay with: harmony-sim -replay %s)\n",
		len(body), *out, *out)
	return nil
}

// cmdReplay asks the master to self-replay its decision journal and
// prints the calibration summary; the full report lands on /metrics as
// harmony_model_error_ratio gauges and is printed with -v.
func cmdReplay(c *client, args []string) error {
	fs := flag.NewFlagSet("harmonyctl replay", flag.ContinueOnError)
	machines := fs.Int("machines", 0, "what-if cluster size (0 = as captured)")
	queues := fs.String("queues", "", "what-if queue policy (e.g. 'prod:quota=0.7;dev:weight=1')")
	netModel := fs.String("net-model", "", "what-if net model: on or off (empty = as captured)")
	verbose := fs.Bool("v", false, "print the full JSON report instead of the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := ctl.ReplayRequest{Machines: *machines, Queues: *queues}
	switch *netModel {
	case "":
	case "on", "off":
		v := *netModel == "on"
		req.NetModel = &v
	default:
		return fmt.Errorf("replay: -net-model must be on or off")
	}
	var rep replay.Report
	if err := c.do(http.MethodPost, "/v1/replay", req, &rep); err != nil {
		return err
	}
	if *verbose {
		b, err := rep.Encode()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	fmt.Printf("replayed %d events (%d modeled, %d with measurements) on %d machines\n",
		rep.Overall.Events, rep.Overall.Modeled, rep.Overall.Measured, rep.Machines)
	fmt.Printf("mean prediction error: %.1f%%   replay error: %.1f%%   drift: %.1f%%\n",
		rep.Overall.MeanIterErrRatio*100, rep.Overall.MeanReplayErrRatio*100,
		rep.Overall.MeanDriftRatio*100)
	for _, g := range rep.Groups {
		fmt.Printf("  group=[%s] kind=%s decisions=%d err=%.1f%% drift=%.1f%%\n",
			g.Group, g.Kind, g.Decisions, g.MeanIterErrRatio*100, g.MeanDriftRatio*100)
	}
	if rep.WhatIf != nil {
		fmt.Printf("what-if: machines=%d holds_lifted=%d admits_gated=%d\n",
			rep.WhatIf.Machines, rep.WhatIf.HoldsLifted, rep.WhatIf.AdmitsGated)
	}
	for _, sk := range rep.Skipped {
		fmt.Printf("  skipped: %s\n", sk)
	}
	return nil
}

// cmdTrace saves the cluster's Chrome trace-event JSON; open the file at
// https://ui.perfetto.dev to see COMP/PULL/PUSH/barrier spans per
// machine and resource track.
func cmdTrace(c *client, args []string) error {
	fs := flag.NewFlagSet("harmonyctl trace", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := c.raw("/v1/trace")
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(body)
		return err
	}
	if err := os.WriteFile(*out, body, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d bytes to %s (load in https://ui.perfetto.dev)\n", len(body), *out)
	return nil
}

// cmdPSStats renders per-stripe parameter-server load (the counters of
// GET /v1/ps), hottest stripes first.
func cmdPSStats(c *client, args []string) error {
	fs := flag.NewFlagSet("harmonyctl ps-stats", flag.ContinueOnError)
	top := fs.Int("top", 20, "show the N hottest stripes (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cs ps.ClusterStats
	if err := c.do(http.MethodGet, "/v1/ps", nil, &cs); err != nil {
		return err
	}
	type row struct {
		server string
		job    string
		st     ps.StripeStat
	}
	var rows []row
	for _, srv := range cs.Servers {
		for _, js := range srv.Jobs {
			for _, st := range js.Stripes {
				rows = append(rows, row{server: srv.Name, job: js.Job, st: st})
			}
		}
	}
	if len(rows) == 0 {
		fmt.Println("no stripes")
		return nil
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].st.Ops() > rows[j].st.Ops() })
	if *top > 0 && len(rows) > *top {
		rows = rows[:*top]
	}
	fmt.Printf("%-12s %-16s %7s %8s %8s %10s %10s %12s\n",
		"SERVER", "JOB", "STRIPE", "PULLS", "PUSHES", "PULL_B", "PUSH_B", "LOCK_WAIT")
	for _, r := range rows {
		fmt.Printf("%-12s %-16s %7d %8d %8d %10d %10d %11.3fs\n",
			r.server, r.job, r.st.Index, r.st.PullOps, r.st.PushOps,
			r.st.PullBytes, r.st.PushBytes, r.st.LockWaitSeconds)
	}
	return nil
}

func cmdCluster(c *client) error {
	var resp ctl.ClusterResponse
	if err := c.do(http.MethodGet, "/v1/cluster", nil, &resp); err != nil {
		return err
	}
	fmt.Printf("workers (%d): %s\n", len(resp.Workers), strings.Join(resp.Workers, ","))
	if len(resp.Groups) == 0 {
		fmt.Println("groups: none (cluster idle)")
	}
	for i, g := range resp.Groups {
		fmt.Printf("group %d: workers=[%s] jobs=[%s]\n",
			i, strings.Join(g.Workers, ","), strings.Join(g.Jobs, ","))
	}
	if len(resp.Pending) > 0 {
		fmt.Printf("pending (%d): %s\n", len(resp.Pending), strings.Join(resp.Pending, ","))
	} else {
		fmt.Println("pending: none")
	}
	return nil
}
