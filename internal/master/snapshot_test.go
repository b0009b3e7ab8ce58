package master

import (
	"encoding/json"
	"testing"
	"time"

	"harmony/internal/mlapp"
)

// TestSnapshotCapture pins the capture contract on a live cluster: the
// snapshot is versioned, schema-valid, carries the workers, the running
// jobs with their cost metrics, the queue policy, and the decision
// journal, and survives a JSON round trip unchanged.
func TestSnapshotCapture(t *testing.T) {
	m := cluster(t, 3)
	prof := Profile{CompSeconds: 3, NetSeconds: 0.5, ModelGB: 0.2, WorkGB: 0.1}
	for _, name := range []string{"snap-a", "snap-b"} {
		adm, err := m.Enqueue(spec(name, mlapp.MLR, 200), prof)
		if err != nil {
			t.Fatal(err)
		}
		if !adm.Admitted {
			t.Fatalf("%s held, want admitted on an idle cluster", name)
		}
	}
	// Let a few iterations land so measured values and profiles exist.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if v, _ := m.Job("snap-a"); v.Iteration >= 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("schema version = %d, want %d", snap.SchemaVersion, SnapshotSchemaVersion)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("fresh snapshot invalid: %v", err)
	}
	if len(snap.Workers) != 3 {
		t.Fatalf("workers = %v, want 3", snap.Workers)
	}
	if snap.CapturedAt.IsZero() {
		t.Error("snapshot missing capture time")
	}
	jobs := make(map[string]SnapshotJob)
	for _, j := range snap.Jobs {
		jobs[j.Name] = j
	}
	for _, name := range []string{"snap-a", "snap-b"} {
		j, ok := jobs[name]
		if !ok {
			t.Fatalf("snapshot missing job %s", name)
		}
		if j.State != "running" {
			t.Errorf("%s state = %q, want running", name, j.State)
		}
		if j.CompSeconds <= 0 || j.NetSeconds <= 0 {
			t.Errorf("%s cost view = (%v, %v), want positive", name, j.CompSeconds, j.NetSeconds)
		}
		if j.Algorithm != "MLR" {
			t.Errorf("%s algorithm = %q", name, j.Algorithm)
		}
		if len(j.Workers) == 0 {
			t.Errorf("%s has no placement", name)
		}
	}
	if len(snap.Queues) == 0 {
		t.Error("snapshot missing queue policy")
	}
	if len(snap.Journal) == 0 {
		t.Error("snapshot missing decision journal")
	}
	if len(snap.Groups) == 0 {
		t.Error("snapshot missing live plan groups")
	}

	// Round trip: a decoded snapshot must validate and keep the journal.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped snapshot invalid: %v", err)
	}
	if len(back.Journal) != len(snap.Journal) {
		t.Fatalf("round trip lost journal events: %d != %d", len(back.Journal), len(snap.Journal))
	}
}

// TestSnapshotValidate pins the schema checks replay relies on.
func TestSnapshotValidate(t *testing.T) {
	base := func() Snapshot {
		return Snapshot{
			SchemaVersion: SnapshotSchemaVersion,
			Workers:       []string{"w0", "w1"},
			Jobs:          []SnapshotJob{{Name: "a", Workers: []string{"w0"}}},
			Groups:        []SnapshotGroup{{Workers: []string{"w0"}, Jobs: []string{"a"}}},
			Journal:       []Event{{Seq: 1, Kind: EventAdmitInitial, Job: "a"}, {Seq: 2, Kind: EventComplete, Job: "a"}},
		}
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Snapshot)
	}{
		{"wrong version", func(s *Snapshot) { s.SchemaVersion = SnapshotSchemaVersion + 1 }},
		{"duplicate worker", func(s *Snapshot) { s.Workers = []string{"w0", "w0"} }},
		{"duplicate job", func(s *Snapshot) { s.Jobs = append(s.Jobs, SnapshotJob{Name: "a"}) }},
		{"empty job name", func(s *Snapshot) { s.Jobs = append(s.Jobs, SnapshotJob{}) }},
		{"job on unknown worker", func(s *Snapshot) { s.Jobs[0].Workers = []string{"nope"} }},
		{"group with unknown worker", func(s *Snapshot) { s.Groups[0].Workers = []string{"nope"} }},
		{"group with unknown job", func(s *Snapshot) { s.Groups[0].Jobs = []string{"nope"} }},
		{"journal seq regression", func(s *Snapshot) { s.Journal[1].Seq = 1 }},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken snapshot", tc.name)
		}
	}
}
