package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with beMainEnv set it runs main() on its arguments, so the tests see
// the real flag parsing, output and exit status.
const beMainEnv = "HARMONY_BENCH_TEST_BE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(beMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), beMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("harmony-bench %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errOut.String(), exit
}

var timingLine = regexp.MustCompile(`(?m)^\[.* completed in .*\]\n`)

func TestListShowsFeatureComparisons(t *testing.T) {
	out, _, exit := runMain(t, "-list")
	if exit != 0 {
		t.Fatalf("-list exit %d", exit)
	}
	for _, id := range []string{"fig10", "fair-share", "placement"} {
		if !regexp.MustCompile(`(?m)^\s+` + id + `\s`).MatchString(out) {
			t.Errorf("-list lacks %q:\n%s", id, out)
		}
	}
}

// TestFeatureComparisonsDeterministic pins that the two simulated
// comparisons are pure functions of the seed and still show the shape
// EXPERIMENTS.md records.
func TestFeatureComparisonsDeterministic(t *testing.T) {
	out, stderr, exit := runMain(t, "-run", "fair-share,placement")
	if exit != 0 {
		t.Fatalf("exit %d: %s", exit, stderr)
	}
	again, _, _ := runMain(t, "-run", "fair-share,placement")
	out, again = timingLine.ReplaceAllString(out, ""), timingLine.ReplaceAllString(again, "")
	if out != again {
		t.Fatalf("output differs across runs:\n%s\n---\n%s", out, again)
	}
	for _, want := range []string{
		`(?m)^\s+fifo\s+75\.2 5/5`,
		`(?m)^\s+fair\s+1\.0 5/5`,
		`(?m)^\s+net_aware\s.*\s0\s+120/120$`,
		`throughput net-aware/baseline: 1\.31x`,
	} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("output lacks %s:\n%s", want, out)
		}
	}
}

func TestRemovedFlagRejected(t *testing.T) {
	_, stderr, exit := runMain(t, "-bench-admit")
	if exit != 1 {
		t.Fatalf("-bench-admit exit %d, want 1", exit)
	}
	if !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestFlagSet(t *testing.T) {
	_, stderr, _ := runMain(t, "-h")
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(stderr, -1) {
		got = append(got, m[1])
	}
	if want := "list parallel run seed"; strings.Join(got, " ") != want {
		t.Errorf("flags = %v, want %s", got, want)
	}
}
