package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inTempDir runs the harness from an empty directory, the way the driver runs
// it from a checkout, so nothing it writes lands in the source tree.
func inTempDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(old) })
	return dir
}

// TestSmokeSuite runs every workload at the -smoke size through the same
// command a user runs, then compares the result file with itself.
func TestSmokeSuite(t *testing.T) {
	dir := inTempDir(t)
	var out bytes.Buffer
	result := filepath.Join(dir, "result.json")
	if err := run([]string{"-smoke", "-seconds", "0.2", "-o", result}, &out); err != nil {
		t.Fatalf("smoke suite: %v\n%s", err, out.String())
	}
	suite, err := readSuite(result)
	if err != nil {
		t.Fatal(err)
	}
	if suite.Claim != nil || suite.Env.GoVersion == "" || suite.Env.GOMAXPROCS < 1 || suite.Env.NumCPU < 1 || suite.Env.Commit == "" {
		t.Errorf("result file header = claim %v env %+v", suite.Claim, suite.Env)
	}
	if len(suite.Sets) != 1 || len(suite.Sets[0].Untraced) != len(workloads) {
		t.Fatalf("result file holds %d sets", len(suite.Sets))
	}
	for _, r := range suite.Sets[0].Untraced {
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", r.Workload, r.Correct, r.Attempted, r.Failed, r.Problems)
		}
		if r.Loop == "" || r.Clients < 1 {
			t.Errorf("%s does not state its loop type and client count", r.Workload)
		}
		for _, m := range endToEnd {
			if v, ok := r.EndToEnd[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit || v.N < 1 {
				t.Errorf("%s: end-to-end metric %s = %+v", r.Workload, m.Name, v)
			}
		}
	}
	out.Reset()
	if err := run([]string{"-compare", result, result}, &out); err != nil {
		t.Fatalf("compare of a file with itself: %v\n%s", err, out.String())
	}
	if rows := strings.Count(out.String(), string(verdictSame)); rows != len(workloads)*len(endToEnd) {
		t.Errorf("compare printed %d \"same\" rows, want %d:\n%s", rows, len(workloads)*len(endToEnd), out.String())
	}
}

// TestSmokeDriverLine runs one workload traced and one untraced the way the
// driver does and checks the contract's last line.
func TestSmokeDriverLine(t *testing.T) {
	dir := inTempDir(t)
	for _, c := range []struct {
		workload string
		trace    string
		list     []metricSpec
	}{
		{wlSimPaper, "0", endToEnd},
		{wlCtlChurn, "1", perLayer},
	} {
		var out bytes.Buffer
		args := []string{"--workload", c.workload, "--seed", "7", "--seconds", "0.2", "--trace", c.trace,
			"-smoke", "-out", filepath.Join(dir, "out")}
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v\n%s", c.workload, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", c.workload, err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Fatalf("%s: last line has keys %v", c.workload, line)
		}
		var metrics map[string]driverValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(c.list) {
			t.Errorf("%s trace=%s: %d metrics, want %d", c.workload, c.trace, len(metrics), len(c.list))
		}
		for _, m := range c.list {
			if v, ok := metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s trace=%s: metric %s = %+v", c.workload, c.trace, m.Name, v)
			}
		}
		if c.trace == "1" {
			if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+c.workload+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			if metrics["core.full_score_calls"].Value != 0 {
				t.Errorf("churn made %g full-plan score calls, want 0", metrics["core.full_score_calls"].Value)
			}
		}
	}
}

// TestGoldenIsCurrent regenerates the sim_paper golden in memory and compares
// it with the checked-in file, so a change to the simulator or the scheduler
// that moves an output is seen by the tests, not first by the benchmark.
func TestGoldenIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one full sim_paper pass")
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	sizes := simPaperSizes(false)
	in, err := buildSimInputs(sizes, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runPass(sizes, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(got) {
		if got[name] != golden[name] {
			t.Errorf("%s = %s, golden has %s (regenerate with -update-golden if the change is meant)", name, got[name], golden[name])
		}
	}
}
