package replay

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"harmony/internal/fair"
	"harmony/internal/master"
)

// testSnapshot builds a fixed two-tenant snapshot: two jobs co-located
// on one group, one quota-held job, one completed job, and a journal
// covering admit/hold/complete. Every timestamp is pinned so the
// fixture is byte-stable.
func testSnapshot() *master.Snapshot {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	return &master.Snapshot{
		SchemaVersion: master.SnapshotSchemaVersion,
		CapturedAt:    at(60),
		Options: master.SnapshotOptions{
			CPUWeight: 0.5, MemoryCapGB: 40, MaxJobsPerGroup: 3,
		},
		Workers: []string{"w0", "w1", "w2", "w3"},
		Groups: []master.SnapshotGroup{
			{Workers: []string{"w0", "w1"}, Jobs: []string{"prod-a", "prod-b"}},
		},
		Jobs: []master.SnapshotJob{
			{
				Name: "dev-c", State: "pending", Algorithm: "LDA",
				Iterations: 30, MinWorkers: 2, Queue: "dev", ArrivalSeq: 3,
				CompSeconds: 6, NetSeconds: 1, ModelGB: 0.4, WorkGB: 0.2,
				JVMHeapFactor: 2.2, PullFrac: 0.5,
				HoldReason: "quota_exhausted",
			},
			{
				Name: "prod-a", State: "running", Algorithm: "NMF",
				Iterations: 50, Iteration: 5, Queue: "prod", ArrivalSeq: 1, StartSeq: 1,
				Workers:     []string{"w0", "w1"},
				CompSeconds: 8, NetSeconds: 1, InputGB: 2, ModelGB: 0.5, WorkGB: 0.3,
				JVMHeapFactor: 2.2, PullFrac: 0.6,
				Profiled: true, ProfileSamples: 5,
				MeasuredIterSeconds: 5.2,
			},
			{
				Name: "prod-b", State: "running", Algorithm: "MLR",
				Iterations: 40, Iteration: 3, Queue: "prod", ArrivalSeq: 2, StartSeq: 2,
				Workers:     []string{"w0", "w1"},
				CompSeconds: 4, NetSeconds: 2, InputGB: 1, ModelGB: 0.3, WorkGB: 0.2,
				JVMHeapFactor: 2.2, PullFrac: 0.4,
				Profiled: true, ProfileSamples: 4,
				MeasuredIterSeconds: 5.4,
			},
			{
				Name: "prod-d", State: "finished", Algorithm: "Lasso",
				Iterations: 10, Iteration: 10, Queue: "prod",
				CompSeconds: 2, NetSeconds: 0.5,
			},
		},
		Queues: []master.QueueView{
			{Name: "dev", Weight: 1, Quota: 0.25, OverQuotaWeight: 1},
			{Name: "prod", Weight: 3, Quota: 0.75, OverQuotaWeight: 3},
		},
		Journal: []master.Event{
			{
				Seq: 1, Time: at(0), Kind: master.EventAdmitInitial, Job: "prod-a",
				Group:                []string{"w0", "w1"},
				PredictedIterSeconds: 5.0, PredictedCPUUtil: 0.8, PredictedNetUtil: 0.2,
				MeasuredIterSeconds: 5.2, MeasuredCPUUtil: 0.77, MeasuredNetUtil: 0.19,
			},
			{
				Seq: 2, Time: at(5), Kind: master.EventAdmitArrival, Job: "prod-b",
				Group:                []string{"w0", "w1"},
				PredictedIterSeconds: 6.1, PredictedCPUUtil: 0.95, PredictedNetUtil: 0.5,
				MeasuredIterSeconds: 5.4, MeasuredCPUUtil: 0.9, MeasuredNetUtil: 0.52,
			},
			{
				Seq: 3, Time: at(10), Kind: master.EventHold, Job: "dev-c",
				Note: "held: quota_exhausted",
			},
			{
				Seq: 4, Time: at(40), Kind: master.EventComplete, Job: "prod-d",
				Group:                []string{"w2", "w3"},
				PredictedIterSeconds: 1.5, MeasuredIterSeconds: 1.6,
			},
		},
	}
}

// TestReplayDeterministic pins the determinism contract: replaying the
// same snapshot twice — and replaying its own JSON round trip — must
// produce bit-identical report bytes.
func TestReplayDeterministic(t *testing.T) {
	snap := testSnapshot()
	encode := func(s *master.Snapshot) []byte {
		t.Helper()
		rep, err := Run(s, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := encode(snap)
	for i := 0; i < 5; i++ {
		if again := encode(snap); !bytes.Equal(first, again) {
			t.Fatalf("replay %d diverged from the first run", i+2)
		}
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(raw)
	if err != nil {
		t.Fatal(err)
	}
	if b := encode(loaded); !bytes.Equal(first, b) {
		t.Fatal("replay of the JSON round trip diverged")
	}
}

// TestReplayCalibration checks the report's substance: journal stamps
// flow into the rows, the model is re-run per placement, and the error
// ratios line up with the recorded values.
func TestReplayCalibration(t *testing.T) {
	rep, err := Run(testSnapshot(), Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Events != 4 {
		t.Fatalf("events = %d, want 4", rep.Overall.Events)
	}
	if len(rep.Decisions) != 4 {
		t.Fatalf("decisions = %d, want 4", len(rep.Decisions))
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("unexpected skips: %v", rep.Skipped)
	}

	d0 := rep.Decisions[0] // admit_initial prod-a, alone on w0,w1
	if d0.Group != "w0,w1" {
		t.Fatalf("d0 group = %q", d0.Group)
	}
	// prod-a alone at DoP 2: T_itr = max(8/2, 1, 8/2+1) = 5.
	if d0.ReplayIterSeconds != 5 {
		t.Fatalf("d0 replay T_itr = %v, want 5", d0.ReplayIterSeconds)
	}
	if d0.JournalIterSeconds != 5.0 || d0.MeasuredIterSeconds != 5.2 {
		t.Fatalf("d0 journal/measured = %v/%v", d0.JournalIterSeconds, d0.MeasuredIterSeconds)
	}
	wantErr := (5.2 - 5.0) / 5.2
	if diff := d0.IterErrRatio - wantErr; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("d0 err ratio = %v, want %v", d0.IterErrRatio, wantErr)
	}

	d1 := rep.Decisions[1] // admit_arrival prod-b joins the group
	// Group {prod-a, prod-b} at DoP 2: SumComp = 8/2 + 4/2 = 6,
	// SumNet = 1 + 2 = 3, MaxJobIter = max(5, 4) = 5 → T_itr = 6.
	if d1.ReplayIterSeconds != 6 {
		t.Fatalf("d1 replay T_itr = %v, want 6", d1.ReplayIterSeconds)
	}
	if d1.DriftRatio <= 0 {
		t.Fatal("d1 should drift: journal stamped 6.1, replay computes 6")
	}

	if rep.Decisions[2].Group != "" || rep.Decisions[2].ReplayIterSeconds != 0 {
		t.Fatalf("hold decision should carry no placement model: %+v", rep.Decisions[2])
	}
	if rep.Decisions[3].Group != "w2,w3" {
		t.Fatalf("complete row keeps its recorded group, got %q", rep.Decisions[3].Group)
	}

	if len(rep.Groups) == 0 {
		t.Fatal("no group aggregates")
	}
	found := false
	for _, g := range rep.Groups {
		if g.Group == "w0,w1" && g.Kind == "admit_arrival" {
			found = true
			if g.Decisions != 1 || g.MeanIterErrRatio <= 0 {
				t.Fatalf("bad aggregate: %+v", g)
			}
		}
	}
	if !found {
		t.Fatal("missing (w0,w1, admit_arrival) aggregate")
	}
	if rep.WhatIf != nil {
		t.Fatal("no overrides, but WhatIf present")
	}
}

// TestReplayWhatIf checks the override path: a bigger cluster and a
// dev-favoring policy lift the recorded quota hold, and the report
// carries the override's quota arithmetic.
func TestReplayWhatIf(t *testing.T) {
	rep, err := Run(testSnapshot(), Overrides{
		Machines: 8,
		Queues:   "dev:quota=0.5;prod:quota=0.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Machines != 8 {
		t.Fatalf("machines = %d, want 8", rep.Machines)
	}
	if rep.WhatIf == nil {
		t.Fatal("overrides set but WhatIf missing")
	}
	if rep.WhatIf.HoldsLifted != 1 {
		t.Fatalf("holds lifted = %d, want 1", rep.WhatIf.HoldsLifted)
	}
	if rep.Decisions[2].QuotaFlip != "would_admit" {
		t.Fatalf("hold decision flip = %q, want would_admit", rep.Decisions[2].QuotaFlip)
	}
	if got := rep.WhatIf.QuotaWorkers["dev"]; got != 4 {
		t.Fatalf("dev quota workers = %d, want 4", got)
	}

	// NetModel override changes the model but never the recorded
	// placements.
	on := true
	rep2, err := Run(testSnapshot(), Overrides{NetModel: &on})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.NetModel {
		t.Fatal("NetModel override not reflected")
	}
	if rep2.Decisions[0].Group != "w0,w1" {
		t.Fatal("override must not move recorded placements")
	}
}

// TestReplayValidates ensures broken snapshots are refused, not
// replayed into garbage.
func TestReplayValidates(t *testing.T) {
	snap := testSnapshot()
	snap.SchemaVersion++
	if _, err := Run(snap, Overrides{}); err == nil {
		t.Fatal("version-mismatched snapshot accepted")
	}
	if _, err := Load([]byte(`{"schema_version": 999}`)); err == nil {
		t.Fatal("Load accepted a future schema version")
	}
}

// TestReplaySkipsEvictedJobs: a journal event whose job aged out of the
// snapshot is reported in Skipped rather than silently dropped.
func TestReplaySkipsEvictedJobs(t *testing.T) {
	snap := testSnapshot()
	snap.Journal = append(snap.Journal, master.Event{
		Seq: 5, Time: snap.CapturedAt, Kind: master.EventMigrate, Job: "ghost",
		Group: []string{"w2"},
	})
	rep, err := Run(snap, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 {
		t.Fatalf("skipped = %v, want one ghost entry", rep.Skipped)
	}
}

// TestReplayFailedDeployClearsPlacement: a placement event followed by
// the master's compensating hold ("deploy failed") is a job that never
// ran there. Replay must drop the placement, or every later decision on
// that worker set is modeled with a phantom group-mate.
func TestReplayFailedDeployClearsPlacement(t *testing.T) {
	snap := testSnapshot()
	at := snap.CapturedAt
	snap.Journal = append(snap.Journal,
		master.Event{Seq: 5, Time: at, Kind: master.EventQueueDrain, Job: "dev-c",
			Group: []string{"w0", "w1"}},
		master.Event{Seq: 6, Time: at, Kind: master.EventHold, Job: "dev-c",
			Note: master.NoteDeployFailed + "stub"},
		master.Event{Seq: 7, Time: at, Kind: master.EventMigrate, Job: "prod-b",
			Group: []string{"w0", "w1"}},
	)
	rep, err := Run(snap, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	phantom, undo, after := rep.Decisions[4], rep.Decisions[5], rep.Decisions[6]
	if undo.Group != "" || undo.ReplayIterSeconds != 0 {
		t.Errorf("compensating hold still modeled a placement: %+v", undo)
	}
	if pair := rep.Decisions[1]; after.ReplayIterSeconds != pair.ReplayIterSeconds {
		t.Errorf("group after the undo modeled at %.4f s, want the two-job group's %.4f s (three-job phantom: %.4f s)",
			after.ReplayIterSeconds, pair.ReplayIterSeconds, phantom.ReplayIterSeconds)
	}
}

// TestReplayOrdinaryHoldKeepsPlacement: only the compensating hold takes a
// placement back. An ordinary hold that lands after the job's placement —
// journals captured before the master ordered the two under its lock have
// them — must leave the placement live, or every later row on that group
// loses its label and its what-if usage.
func TestReplayOrdinaryHoldKeepsPlacement(t *testing.T) {
	snap := testSnapshot()
	at := snap.CapturedAt
	snap.Journal = append(snap.Journal,
		master.Event{Seq: 5, Time: at, Kind: master.EventQueueDrain, Job: "dev-c",
			Group: []string{"w0", "w1"}},
		master.Event{Seq: 6, Time: at, Kind: master.EventHold, Job: "dev-c",
			Note: "held: " + fair.HoldSlowdown},
		master.Event{Seq: 7, Time: at, Kind: master.EventMigrate, Job: "prod-b",
			Group: []string{"w0", "w1"}},
	)
	rep, err := Run(snap, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	placedRow, hold, after := rep.Decisions[4], rep.Decisions[5], rep.Decisions[6]
	if hold.Group != "w0,w1" {
		t.Errorf("ordinary hold dropped the placement: %+v", hold)
	}
	if after.ReplayIterSeconds != placedRow.ReplayIterSeconds {
		t.Errorf("group after the hold modeled at %.4f s, want the three-job group's %.4f s",
			after.ReplayIterSeconds, placedRow.ReplayIterSeconds)
	}
}

// TestReplayLabelsRemovalRows: cancel, preempt and recover rows, like
// complete, take their aggregate label from the group the master stamped
// on the event — the placement itself is gone by the time the row is
// built. A recover row takes the job off its group like a preempt rather
// than placing it there again.
func TestReplayLabelsRemovalRows(t *testing.T) {
	snap := testSnapshot()
	snap.Journal = append(snap.Journal,
		master.Event{Seq: 5, Time: snap.CapturedAt, Kind: master.EventPreempt, Job: "prod-b",
			Group: []string{"w1", "w0"}, MeasuredIterSeconds: 5.4},
		master.Event{Seq: 6, Time: snap.CapturedAt, Kind: master.EventCancel, Job: "prod-a",
			Group: []string{"w0", "w1"}, MeasuredIterSeconds: 5.2},
		master.Event{Seq: 7, Time: snap.CapturedAt, Kind: master.EventResume, Job: "prod-b",
			Group: []string{"w0", "w1"}},
		master.Event{Seq: 8, Time: snap.CapturedAt, Kind: master.EventRecover, Job: "prod-b",
			Group: []string{"w0", "w1"}, MeasuredIterSeconds: 5.3},
	)
	rep, err := Run(snap, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Decisions[len(rep.Decisions)-1]; d.ReplayIterSeconds != 0 {
		t.Errorf("recover row modeled as a placement: %+v", d)
	}
	rows := make(map[string]bool)
	for _, g := range rep.Groups {
		rows[g.Group+" "+g.Kind] = true
	}
	for _, want := range []string{"w0,w1 preempt", "w0,w1 cancel", "w0,w1 recover", "w2,w3 complete"} {
		if !rows[want] {
			t.Errorf("Groups has no %q row: %+v", want, rep.Groups)
		}
	}
}
