package ctl_test

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/master"
	"harmony/internal/replay"
)

// TestSnapshotReplayOverHTTP exercises the full observability pipeline
// against a live master: capture /v1/snapshot mid-workload, replay it
// twice through internal/replay asserting bit-identical reports, check
// the calibration rows carry the journal's own prediction stamps, then
// ask the master to self-replay (POST /v1/replay) and verify the model
// error gauges land on /metrics.
func TestSnapshotReplayOverHTTP(t *testing.T) {
	base := startCluster(t, 2, core.Options{})

	// A short job that finishes first, so the capture carries a live
	// master's complete event.
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs",
		submitBody("snap-done", "mlr", 8, nil), nil); code != http.StatusCreated {
		t.Fatalf("submit snap-done: code %d", code)
	}
	pollJob(t, base, "snap-done", 30*time.Second, func(j ctl.JobResponse) bool {
		return j.State == "finished"
	})

	// One long-running job, snapshot taken mid-flight once measured
	// iteration times exist so calibration has something to compare.
	var adm ctl.SubmitResponse
	if code := httpJSON(t, http.MethodPost, base+"/v1/jobs",
		submitBody("snap-a", "mlr", 100000, nil), &adm); code != http.StatusCreated {
		t.Fatalf("submit snap-a: code %d", code)
	}
	pollJob(t, base, "snap-a", 30*time.Second, func(j ctl.JobResponse) bool {
		return j.Profiled && j.Iteration >= 3
	})

	var snap master.Snapshot
	if code := httpJSON(t, http.MethodGet, base+"/v1/snapshot", nil, &snap); code != http.StatusOK {
		t.Fatalf("snapshot: code %d", code)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("captured snapshot invalid: %v", err)
	}
	if len(snap.Workers) != 2 || len(snap.Journal) == 0 {
		t.Fatalf("snapshot = %d workers, %d journal events; want 2 workers and a journal",
			len(snap.Workers), len(snap.Journal))
	}
	var job *master.SnapshotJob
	for i := range snap.Jobs {
		if snap.Jobs[i].Name == "snap-a" {
			job = &snap.Jobs[i]
		}
	}
	if job == nil || job.State != "running" || len(job.Workers) == 0 ||
		job.CompSeconds <= 0 || job.MeasuredIterSeconds <= 0 {
		t.Fatalf("snapshot job snap-a = %+v; want running with costs and a measured T_itr", job)
	}

	// Replay twice: the engine is pure, so the encoded reports must be
	// bit-identical.
	rep1, err := replay.Run(&snap, replay.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := replay.Run(&snap, replay.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := rep1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := rep2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("replay of the same snapshot diverged:\n%s\n--- vs ---\n%s", b1, b2)
	}

	// Every calibration row must carry the journal's own stamps: the
	// decision keyed by seq reports exactly the predicted/measured
	// T_itr the live master journaled.
	stamps := make(map[uint64]master.Event, len(snap.Journal))
	for _, e := range snap.Journal {
		stamps[e.Seq] = e
	}
	modeled := 0
	for _, d := range rep1.Decisions {
		e, ok := stamps[d.Seq]
		if !ok {
			t.Fatalf("decision seq %d not in the captured journal", d.Seq)
		}
		if d.JournalIterSeconds != e.PredictedIterSeconds ||
			d.MeasuredIterSeconds != e.MeasuredIterSeconds {
			t.Errorf("decision %d: journal stamp mismatch: got (%.4f, %.4f), journal (%.4f, %.4f)",
				d.Seq, d.JournalIterSeconds, d.MeasuredIterSeconds,
				e.PredictedIterSeconds, e.MeasuredIterSeconds)
		}
		if d.ReplayIterSeconds > 0 {
			modeled++
		}
	}
	if modeled == 0 {
		t.Fatalf("replay re-modeled no decisions: %+v", rep1.Decisions)
	}

	// A removal row is labeled from the group the live master stamped on
	// the event; without it the finished job's frozen measurements would
	// fall out of the per-(group, kind) aggregates.
	for _, e := range snap.Journal {
		if e.Kind == master.EventComplete && e.Job == "snap-done" && len(e.Group) == 0 {
			t.Errorf("complete event of snap-done carries no group: %+v", e)
		}
	}
	completeRows := 0
	for _, g := range rep1.Groups {
		if g.Kind == master.EventComplete {
			completeRows++
		}
	}
	if completeRows != 1 {
		t.Errorf("report has %d complete rows in Groups, want 1: %+v", completeRows, rep1.Groups)
	}

	// Self-replay: the master replays its own snapshot and the drift
	// gauges appear on /metrics.
	var selfRep replay.Report
	if code := httpJSON(t, http.MethodPost, base+"/v1/replay", nil, &selfRep); code != http.StatusOK {
		t.Fatalf("self-replay: code %d", code)
	}
	if selfRep.Overall.Modeled == 0 || len(selfRep.Groups) == 0 {
		t.Fatalf("self-replay modeled nothing: %+v", selfRep.Overall)
	}
	mtx := fetchMetrics(t, base)
	if !strings.Contains(mtx, `harmony_model_error_ratio{group="`) {
		t.Errorf("metrics missing harmony_model_error_ratio after self-replay:\n%s", mtx)
	}
	if !strings.Contains(mtx, "harmony_model_drift_ratio") {
		t.Errorf("metrics missing harmony_model_drift_ratio after self-replay:\n%s", mtx)
	}
}
