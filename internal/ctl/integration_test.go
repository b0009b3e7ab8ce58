package ctl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/master"
	"harmony/internal/mlapp"
	"harmony/internal/obs"
	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// startCluster boots a live master with n workers and mounts the control
// plane on an ephemeral port, returning the API base URL.
func startCluster(t *testing.T, n int, opts core.Options) string {
	t.Helper()
	m, err := master.New("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	for i := 0; i < n; i++ {
		w, _, err := worker.New(
			fmt.Sprintf("w%d", i), "127.0.0.1:0", m.Addr(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	if err := m.WaitForWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s := ctl.New(m)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return "http://" + s.Addr()
}

func httpJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 400 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func submitBody(name, algo string, iters int, hints *ctl.ProfileHints) ctl.SubmitRequest {
	return ctl.SubmitRequest{
		Name: name, Algorithm: algo,
		Features: 12, Classes: 3, Rows: 96, LearningRate: 0.2,
		Iterations: iters, Seed: 7, Profile: hints,
	}
}

func pollJob(t *testing.T, base, name string, timeout time.Duration, ok func(ctl.JobResponse) bool) ctl.JobResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var j ctl.JobResponse
		code := httpJSON(t, http.MethodGet, base+"/v1/jobs/"+name, nil, &j)
		if code == http.StatusOK && ok(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach the expected state (last: code %d, %+v)", name, code, j)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestOnlineArrivalOverHTTP drives the full §IV-B4 online story through
// the HTTP API against a live master with real workers: an initial admit
// on the idle cluster, an arrival-rule admit of a complementary job into
// the running group, hold-pending for memory-infeasible jobs, pending and
// running cancellation, and the queue drain once the cluster idles.
func TestOnlineArrivalOverHTTP(t *testing.T) {
	// MemoryCapGB 2 makes any job hinting work_gb=50 infeasible in every
	// non-empty group, forcing the hold-pending path.
	base := startCluster(t, 2, core.Options{MemoryCapGB: 2})

	// Job a: long-running, admitted on the idle cluster (initial path).
	var adm ctl.SubmitResponse
	code := httpJSON(t, http.MethodPost, base+"/v1/jobs",
		submitBody("a", "mlr", 100000, nil), &adm)
	if code != http.StatusCreated {
		t.Fatalf("submit a: code %d", code)
	}
	if adm.State != "running" || len(adm.Workers) != 2 {
		t.Fatalf("submit a: %+v, want running on both workers", adm)
	}

	// Wait for the master to profile a, then read its measured costs so
	// job b can be shaped as a's complement regardless of machine speed.
	prof := pollJob(t, base, "a", 30*time.Second, func(j ctl.JobResponse) bool {
		return j.Profiled && j.CompSeconds > 0 && j.NetSeconds > 0
	})

	// Job b mirrors a (comp per machine = a's net and vice versa), so
	// co-locating them drives both utilizations toward 1 and the arrival
	// rule must place b into a's running group. Its iterations take well
	// under a millisecond: 200 of them keep it running past the cluster
	// read below.
	mirror := &ctl.ProfileHints{
		CompSeconds: 2 * prof.NetSeconds,
		NetSeconds:  prof.CompSeconds / 2,
	}
	code = httpJSON(t, http.MethodPost, base+"/v1/jobs",
		submitBody("b", "lasso", 200, mirror), &adm)
	if code != http.StatusCreated {
		t.Fatalf("submit b: code %d (%+v)", code, adm)
	}
	if adm.State != "running" || len(adm.Workers) != 2 {
		t.Fatalf("arrival admission of b = %+v, want running on a's group", adm)
	}
	var cv ctl.ClusterResponse
	if code := httpJSON(t, http.MethodGet, base+"/v1/cluster", nil, &cv); code != http.StatusOK {
		t.Fatalf("cluster: code %d", code)
	}
	if len(cv.Groups) != 1 || len(cv.Groups[0].Jobs) != 2 {
		t.Fatalf("cluster after arrival admit = %+v, want one group with jobs a and b", cv)
	}
	if m := fetchMetrics(t, base); !strings.Contains(m, `harmony_admissions_total{path="arrival"} 1`) {
		t.Errorf("metrics missing arrival admission:\n%s", m)
	}

	// Jobs c and d hint at a working set far over the memory cap: no
	// running group can take them, so both are held pending.
	for _, name := range []string{"c", "d"} {
		code = httpJSON(t, http.MethodPost, base+"/v1/jobs",
			submitBody(name, "mlr", 4, &ctl.ProfileHints{WorkGB: 50}), &adm)
		if code != http.StatusAccepted || adm.State != "pending" {
			t.Fatalf("submit %s: code %d, %+v; want 202 pending", name, code, adm)
		}
	}

	// Canceling pending d removes it from the queue outright.
	if code := httpJSON(t, http.MethodDelete, base+"/v1/jobs/d", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel d: code %d", code)
	}
	if code := httpJSON(t, http.MethodGet, base+"/v1/jobs/d", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get canceled-pending d: code %d, want 404", code)
	}

	// Cancel the long-running a; once b also finishes the cluster idles
	// and the drain admits c through the initial path (the memory cap
	// only gates co-location).
	if code := httpJSON(t, http.MethodDelete, base+"/v1/jobs/a", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel a: code %d", code)
	}
	pollJob(t, base, "c", 60*time.Second, func(j ctl.JobResponse) bool {
		return j.State == "finished"
	})

	m := fetchMetrics(t, base)
	for _, want := range []string{
		`harmony_queue_depth{queue="default"} 0`,
		`harmony_queue_drained_total 1`,
		`harmony_admissions_held_total 2`,
		`harmony_jobs_canceled_total 2`,
		`harmony_admissions_total{path="initial"} 2`,
		`harmony_jobs{state="canceled"} 1`,
	} {
		if !strings.Contains(m, want) {
			t.Errorf("final metrics missing %q:\n%s", want, m)
		}
	}
}

// TestHTTPDuplicateAndUnknown covers the error surface against the live
// master: duplicate submissions conflict, unknown jobs 404, unknown
// workers in an explicit group are invalid.
func TestHTTPDuplicateAndUnknown(t *testing.T) {
	base := startCluster(t, 1, core.Options{})

	var adm ctl.SubmitResponse
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs",
		submitBody("a", "mlr", 100000, nil), &adm); code != http.StatusCreated {
		t.Fatalf("submit a: code %d", code)
	}
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs",
		submitBody("a", "mlr", 5, nil), nil); code != http.StatusConflict {
		t.Errorf("duplicate submit: code %d, want 409", code)
	}
	if code := httpJSON(t, http.MethodGet, base+"/v1/jobs/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", code)
	}
	req := submitBody("x", "mlr", 5, nil)
	req.Workers = []string{"ghost"}
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs", req, nil); code != http.StatusBadRequest {
		t.Errorf("unknown worker group: code %d, want 400", code)
	}
	if code := httpJSON(t, http.MethodDelete, base+"/v1/jobs/a", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel a: code %d", code)
	}
}

// TestHTTPDivergedJob: a job whose loss overflows (lasso at an absurd
// learning rate) still reads over the API, on its own and in the list,
// with its loss the non-finite value it is.
func TestHTTPDivergedJob(t *testing.T) {
	base := startCluster(t, 1, core.Options{})
	req := submitBody("div", "lasso", 100000, nil)
	req.LearningRate = 1e12
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs", req, nil); code != http.StatusCreated {
		t.Fatalf("submit div: code %d", code)
	}
	nonFinite := func(loss float64) bool { return math.IsNaN(loss) || math.IsInf(loss, 0) }
	pollJob(t, base, "div", 20*time.Second, func(j ctl.JobResponse) bool { return nonFinite(float64(j.Loss)) })
	var list ctl.JobListResponse
	code := httpJSON(t, http.MethodGet, base+"/v1/jobs", nil, &list)
	if code != http.StatusOK || len(list.Jobs) != 1 || !nonFinite(float64(list.Jobs[0].Loss)) {
		t.Fatalf("GET /v1/jobs: code %d, %+v", code, list)
	}
	if code := httpJSON(t, http.MethodDelete, base+"/v1/jobs/div", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel div: code %d", code)
	}
}

// TestHTTPRefusesRepeatedWorker: a submission whose explicit group names
// a worker twice is a bad request, and the master journals nothing for it.
func TestHTTPRefusesRepeatedWorker(t *testing.T) {
	base := startCluster(t, 2, core.Options{})
	req := submitBody("x", "mlr", 5, nil)
	req.Workers = []string{"w0", "w0"}
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs", req, nil); code != http.StatusBadRequest {
		t.Errorf("group naming w0 twice: code %d, want 400", code)
	}
	var evs ctl.EventsResponse
	if code := httpJSON(t, http.MethodGet, base+"/v1/events", nil, &evs); code != http.StatusOK || len(evs.Events) != 0 {
		t.Errorf("events after a refused submission: code %d, %+v", code, evs.Events)
	}
	if code := httpJSON(t, http.MethodGet, base+"/v1/jobs/x", nil, nil); code != http.StatusNotFound {
		t.Errorf("refused job: code %d, want 404", code)
	}
}

// TestTracedClusterOverHTTP drives a live 2-job cluster with tracing on
// and checks the whole telemetry surface: /v1/trace yields Chrome
// trace-event JSON with COMP and COMM spans from both jobs sharing a
// machine, /metrics grows harmony_phase_seconds histogram families and
// the per-group overlap gauge, and /v1/events pairs the model's
// predicted T_itr with measured iteration times. Finally a worker is
// torn down mid-run and the trace scrape must still succeed — trace
// collection is best effort like the stats aggregators.
func TestTracedClusterOverHTTP(t *testing.T) {
	m, err := master.New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.EnableTracing(0)
	workers := make([]*worker.Worker, 2)
	for i := range workers {
		w, _, err := worker.New(
			fmt.Sprintf("w%d", i), "127.0.0.1:0", m.Addr(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w.EnableTracing(0)
		workers[i] = w
		t.Cleanup(w.Close)
	}
	if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s := ctl.New(m)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := "http://" + s.Addr()

	// Two long-running jobs sharing both workers, so COMP of one can
	// overlap COMM of the other on the same machine. Job b is shaped as
	// a's complement from a's measured profile, so the arrival rule
	// co-locates it with a (same pattern as TestOnlineArrivalOverHTTP).
	var adm ctl.SubmitResponse
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs",
		submitBody("a", "mlr", 100000, nil), &adm); code != http.StatusCreated {
		t.Fatalf("submit a: code %d", code)
	}
	prof := pollJob(t, base, "a", 30*time.Second, func(j ctl.JobResponse) bool {
		return j.Profiled && j.CompSeconds > 0 && j.NetSeconds > 0
	})
	mirror := &ctl.ProfileHints{
		CompSeconds: 2 * prof.NetSeconds,
		NetSeconds:  prof.CompSeconds / 2,
	}
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs",
		submitBody("b", "lasso", 100000, mirror), &adm); code != http.StatusCreated {
		t.Fatalf("submit b: code %d (%+v)", code, adm)
	}
	for _, name := range []string{"a", "b"} {
		pollJob(t, base, name, 30*time.Second, func(j ctl.JobResponse) bool {
			return j.Iteration >= 5
		})
	}

	// The trace must parse as Chrome trace-event JSON and contain COMP
	// and COMM slices from both jobs on a shared machine (pid).
	var tr struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if code := httpJSON(t, http.MethodGet, base+"/v1/trace", nil, &tr); code != http.StatusOK {
		t.Fatalf("trace: code %d", code)
	}
	type pj struct {
		pid int
		job string
	}
	compBy := make(map[pj]bool)
	commBy := make(map[pj]bool)
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		job, _ := e.Args["job"].(string)
		switch e.Cat {
		case "comp":
			compBy[pj{e.PID, job}] = true
		case "pull", "push":
			commBy[pj{e.PID, job}] = true
		}
	}
	sharedMachine := false
	for k := range compBy {
		other := pj{k.pid, "a"}
		if k.job == "a" {
			other.job = "b"
		}
		if commBy[other] || compBy[other] {
			sharedMachine = true
		}
	}
	if len(compBy) == 0 || len(commBy) == 0 || !sharedMachine {
		t.Errorf("trace lacks co-located COMP/COMM spans from both jobs: comp=%v comm=%v",
			compBy, commBy)
	}

	// Histograms and overlap reach /metrics.
	mtx := fetchMetrics(t, base)
	for _, want := range []string{
		"# TYPE harmony_phase_seconds histogram",
		`harmony_phase_seconds_bucket{phase="comp",le="+Inf"}`,
		`harmony_phase_seconds_count{phase="pull"}`,
		"harmony_group_overlap_ratio{group=\"w0,w1\"}",
		"harmony_build_info",
	} {
		if !strings.Contains(mtx, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The journal has the initial admission of a with a model prediction
	// and — since both jobs have completed iterations — a measured T_itr.
	var evs ctl.EventsResponse
	if code := httpJSON(t, http.MethodGet, base+"/v1/events", nil, &evs); code != http.StatusOK {
		t.Fatalf("events: code %d", code)
	}
	paired := false
	for _, e := range evs.Events {
		if e.Job == "b" && e.Kind == master.EventAdmitArrival &&
			e.PredictedIterSeconds > 0 && e.MeasuredIterSeconds > 0 {
			paired = true
		}
	}
	if !paired {
		t.Errorf("no decision pairing predicted and measured T_itr: %+v", evs.Events)
	}

	// Tear one worker down mid-run: the next scrape skips it instead of
	// failing (best effort, like WorkerStats).
	workers[1].Close()
	if code := httpJSON(t, http.MethodGet, base+"/v1/trace", nil, &tr); code != http.StatusOK {
		t.Errorf("trace after worker teardown: code %d, want 200", code)
	}
	if resp := fetchMetrics(t, base); !strings.Contains(resp, "harmony_phase_seconds") {
		t.Errorf("metrics after worker teardown lost phase histograms")
	}
}

// TestMetricsScrapesEachWorkerOnce: one GET /metrics costs every worker
// one worker.stats call, traced or not. Utilization, COMM and COMP totals,
// the PS stripes, the phase histograms and the spans all come out of that
// pass, and a /v1/ps, /v1/trace or /v1/snapshot read is one pass too.
func TestMetricsScrapesEachWorkerOnce(t *testing.T) {
	for _, mode := range []string{"untraced", "traced"} {
		t.Run(mode, func(t *testing.T) { testScrapesEachWorkerOnce(t, mode == "traced") })
	}
}

func testScrapesEachWorkerOnce(t *testing.T, traced bool) {
	m, err := master.New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if traced {
		m.EnableTracing(0)
	}
	const workers = 3
	var workerStats, psStats [workers]atomic.Int32
	mc, err := rpc.Dial(m.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	for i := 0; i < workers; i++ {
		stub := rpc.NewServer()
		stub.Handle(worker.MethodStats, rpc.Typed(func(worker.StatsArgs) (worker.StatsReply, error) {
			workerStats[i].Add(1)
			return worker.StatsReply{CPUUtil: 0.5, NetUtil: 0.25, CommProcess: fmt.Sprintf("stub%d", i)}, nil
		}))
		stub.Handle(ps.MethodStats, rpc.Typed(func(ps.StatsArgs) (ps.StatsReply, error) {
			psStats[i].Add(1)
			return ps.StatsReply{}, nil
		}))
		addr, err := stub.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stub.Close() })
		// The shape of the master.register request (worker.New sends it).
		type registerArgs struct{ Name, Addr string }
		if _, err := rpc.Invoke[registerArgs, worker.Ack](mc, "master.register",
			registerArgs{Name: fmt.Sprintf("w%d", i), Addr: addr}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	s := ctl.New(m)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := "http://" + s.Addr()
	check := func(what string, want int32) {
		t.Helper()
		for i := 0; i < workers; i++ {
			if ws, pss := workerStats[i].Load(), psStats[i].Load(); ws != want || pss != 0 {
				t.Errorf("after %s worker %d served %d worker.stats and %d ps.stats calls, want %d and 0",
					what, i, ws, pss, want)
			}
		}
	}

	const scrapes = 2
	for scrape := int32(1); scrape <= scrapes; scrape++ {
		body := fetchMetrics(t, base)
		for _, want := range []string{`harmony_utilization{resource="cpu"} 0.5`, `harmony_utilization{resource="network"} 0.25`} {
			if !strings.Contains(body, want) {
				t.Errorf("scrape %d: /metrics lacks %q", scrape, want)
			}
		}
		if got := strings.Contains(body, "harmony_phase_seconds"); got != traced {
			t.Errorf("scrape %d: phase histograms present = %v, want %v", scrape, got, traced)
		}
		check(fmt.Sprintf("%d scrapes", scrape), scrape)
	}
	for i, path := range []string{"/v1/ps", "/v1/trace", "/v1/snapshot"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		check("GET "+path, scrapes+int32(i)+1)
	}
}

// TestOverlapGaugeOmitsUnmeasuredGroup: a traced group whose spans are all
// COMP has no measured COMP/COMM overlap, so /metrics carries no overlap
// gauge for it — a 0 there would read as a measurement.
func TestOverlapGaugeOmitsUnmeasuredGroup(t *testing.T) {
	m, err := master.New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.EnableTracing(0)
	stub := rpc.NewServer()
	stub.Handle(worker.MethodLoadJob, rpc.Typed(func(worker.LoadJobArgs) (worker.Ack, error) { return worker.Ack{}, nil }))
	stub.Handle(worker.MethodStartJob, rpc.Typed(func(worker.StartJobArgs) (worker.Ack, error) { return worker.Ack{}, nil }))
	stub.Handle(worker.MethodStats, rpc.Typed(func(a worker.StatsArgs) (worker.StatsReply, error) {
		var r worker.StatsReply
		if a.SpanAfter == 0 { // the first pass; later ones ask past seq 1
			r.Spans = []obs.Span{{Seq: 1, Phase: obs.PhaseComp, Job: "j", End: int64(time.Millisecond)}}
		}
		return r, nil
	}))
	addr, err := stub.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stub.Close() })
	mc, err := rpc.Dial(m.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	type registerArgs struct{ Name, Addr string } // what worker.New sends
	if _, err := rpc.Invoke[registerArgs, worker.Ack](mc, "master.register",
		registerArgs{Name: "w0", Addr: addr}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(master.JobSpec{Name: "j", Iterations: 10,
		Config: mlapp.Config{Kind: mlapp.MLR, Features: 12, Classes: 3, Rows: 96}}, nil); err != nil {
		t.Fatal(err)
	}
	s := ctl.New(m)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	body := fetchMetrics(t, "http://"+s.Addr())
	if !strings.Contains(body, "harmony_phase_seconds") {
		t.Fatal("/metrics lacks the traced section")
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "harmony_group_overlap_ratio") {
			t.Errorf("/metrics has %q for a group with COMP spans only", line)
		}
	}
}
