package ctl_test

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/fair"
	"harmony/internal/master"
	"harmony/internal/worker"
)

// TestFairMultiTenantOverHTTP drives the DESIGN.md §13 multi-tenant
// story end to end through the HTTP API against a live cluster: two
// queues at 70/30, a tenantB flood borrowing everything, a tenantA gang
// reclaiming capacity through preemption, and every surface — queue
// listing, labeled metrics, job hold reasons, the decision journal —
// reflecting the transitions. The preempted jobs resume from their
// checkpoints and finish bit-identically with the untouched control.
func TestFairMultiTenantOverHTTP(t *testing.T) {
	m, err := master.New("127.0.0.1:0", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if err := m.ConfigureQueues(
		fair.QueueConfig{Name: "tenantA", Quota: 0.7},
		fair.QueueConfig{Name: "tenantB", Quota: 0.3},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w, _, err := worker.New(
			fmt.Sprintf("w%d", i), "127.0.0.1:0", m.Addr(), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
	}
	if err := m.WaitForWorkers(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s := ctl.New(m)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	base := "http://" + s.Addr()

	// A submission naming an unconfigured queue is a client error.
	bad := submitBody("zz", "mlr", 5, nil)
	bad.Queue = "ghost"
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown queue: code %d, want 400", code)
	}

	// tenantB floods the cluster with three single-worker jobs; with
	// nothing else waiting, borrowing past the 30% quota is allowed.
	var adm ctl.SubmitResponse
	for _, name := range []string{"b1", "b2", "b3"} {
		req := submitBody(name, "mlr", 2000, nil)
		req.Queue = "tenantB"
		req.MaxWorkers = 1
		if code := httpJSON(t, http.MethodPost, base+"/v1/jobs", req, &adm); code != http.StatusCreated {
			t.Fatalf("submit %s: code %d (%+v)", name, code, adm)
		}
		if len(adm.Workers) != 1 {
			t.Fatalf("%s placed on %v, want 1 worker (max_workers)", name, adm.Workers)
		}
	}
	for _, name := range []string{"b1", "b2", "b3"} {
		pollJob(t, base, name, 30*time.Second, func(j ctl.JobResponse) bool {
			return j.Iteration >= 3
		})
	}

	// tenantA's gang of 2 is under its quota (70% of 3 = 2 workers) and
	// nothing is free: the fair scheduler preempts the two most recent
	// tenantB jobs via the checkpoint path and places the gang whole.
	gang := submitBody("gang", "mlr", 100000, nil)
	gang.Queue = "tenantA"
	gang.MinWorkers = 2
	gang.MaxWorkers = 2
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs", gang, &adm); code != http.StatusAccepted {
		t.Fatalf("submit gang: code %d (%+v); reclaim is asynchronous, want 202", code, adm)
	}
	g := pollJob(t, base, "gang", 30*time.Second, func(j ctl.JobResponse) bool {
		return j.State == "running"
	})
	if len(g.Workers) != 2 || g.Queue != "tenantA" {
		t.Fatalf("gang view = %+v, want 2 workers in tenantA", g)
	}

	// The victims are held with the preempted reason, resumable from
	// their checkpoint, and hold a slot in the fair admission order.
	for _, name := range []string{"b2", "b3"} {
		v := pollJob(t, base, name, 10*time.Second, func(j ctl.JobResponse) bool {
			return j.State == "pending"
		})
		if v.HoldReason != "preempted" || !v.Resumable || v.QueuePosition == 0 {
			t.Errorf("victim %s = %+v, want preempted+resumable with a queue position", name, v)
		}
	}

	// GET /v1/queues reflects the reclaimed split.
	var qs ctl.QueuesResponse
	if code := httpJSON(t, http.MethodGet, base+"/v1/queues", nil, &qs); code != http.StatusOK {
		t.Fatalf("queues: code %d", code)
	}
	byName := make(map[string]ctl.QueueResponse)
	for _, q := range qs.Queues {
		byName[q.Name] = q
	}
	if q := byName["tenantA"]; q.UsageWorkers != 2 || q.Running != 1 || q.QuotaWorkers != 2 {
		t.Errorf("tenantA = %+v", q)
	}
	if q := byName["tenantB"]; q.UsageWorkers != 1 || q.Depth != 2 || q.Preempted != 2 {
		t.Errorf("tenantB = %+v", q)
	}
	if _, ok := byName["default"]; !ok {
		t.Error("default queue missing from /v1/queues")
	}

	// The labeled metric families carry the same story.
	mtx := fetchMetrics(t, base)
	for _, want := range []string{
		`harmony_queue_depth{queue="tenantB"} 2`,
		`harmony_queue_preempted_total{queue="tenantB"} 2`,
		`harmony_queue_usage_workers{queue="tenantA"} 2`,
		`harmony_queue_quota_workers{queue="tenantA"} 2`,
		`harmony_queue_share{queue="tenantA"} 0.7`,
		`harmony_preemptions_total 2`,
		`harmony_queue_depth{queue="default"} 0`,
	} {
		if !strings.Contains(mtx, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A held job canceled before it ever runs records cancel_held.
	b4 := submitBody("b4", "mlr", 5, nil)
	b4.Queue = "tenantB"
	b4.MaxWorkers = 1
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs", b4, &adm); code != http.StatusAccepted {
		t.Fatalf("submit b4: code %d", code)
	}
	if code := httpJSON(t, http.MethodDelete, base+"/v1/jobs/b4", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel b4: code %d", code)
	}

	// Release the gang; the victims resume from checkpoint and all of
	// tenantB runs to completion.
	if code := httpJSON(t, http.MethodDelete, base+"/v1/jobs/gang", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel gang: code %d", code)
	}
	var losses [3]float64
	for i, name := range []string{"b1", "b2", "b3"} {
		j := pollJob(t, base, name, 120*time.Second, func(j ctl.JobResponse) bool {
			return j.State == "finished"
		})
		losses[i] = float64(j.Loss)
	}
	// Same spec, same seed, same 1-worker shard count: the preempted
	// and resumed b2/b3 must match the never-preempted b1 exactly.
	if losses[1] != losses[0] || losses[2] != losses[0] {
		t.Errorf("final losses diverged after preempt/resume: %v", losses)
	}

	// The journal recorded the full lifecycle.
	var evs ctl.EventsResponse
	if code := httpJSON(t, http.MethodGet, base+"/v1/events", nil, &evs); code != http.StatusOK {
		t.Fatalf("events: code %d", code)
	}
	kinds := make(map[string]int)
	for _, e := range evs.Events {
		kinds[e.Kind]++
		if e.Kind == master.EventPreempt && e.MeasuredIterSeconds <= 0 {
			t.Errorf("preempt of %s lacks measured T_itr", e.Job)
		}
	}
	if kinds[master.EventPreempt] != 2 || kinds[master.EventResume] != 2 || kinds[master.EventCancelHeld] != 1 {
		t.Errorf("journal kinds = %v, want 2 preempts, 2 resumes, 1 cancel_held", kinds)
	}
}
