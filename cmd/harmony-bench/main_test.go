package main

import (
	"bytes"
	"errors"
	"fmt"
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

// scaleLatency is the wall-clock column of scale's rows (jobs, machines,
// Algorithm 1 latency); the pin keeps the first two.
var scaleLatency = regexp.MustCompile(`(?m)^([0-9]+ +[0-9]+ +)[0-9][0-9a-zµ.]*s *$`)

// fig14Latency is fig14's wall-clock line; the pin drops it.
var fig14Latency = regexp.MustCompile(`(?m)^planning time per .*\n`)

// goldenPath holds every experiment's seed-1 output, with the wall-clock
// cells removed. A change that moves a figure replaces it with the file
// the failing test names, and says why.
const goldenPath = "testdata/seed1.golden"

// TestEveryFigurePinned runs every experiment at the default seed,
// sequentially and at the default parallelism, and compares each output
// byte for byte with goldenPath.
func TestEveryFigurePinned(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"1", "0"} {
		t.Run("parallel="+parallel, func(t *testing.T) {
			t.Parallel()
			out, stderr, exit := runMain(t, "-parallel", parallel, "-run", "all")
			if exit != 0 {
				t.Fatalf("exit %d: %s", exit, stderr)
			}
			got := timingLine.ReplaceAllString(fig14Latency.ReplaceAllString(out, ""), "")
			got = scaleLatency.ReplaceAllString(got, "$1")
			if got == string(want) {
				return
			}
			f, err := os.CreateTemp("", "harmony-bench-golden-*")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteString(got); err != nil {
				t.Fatal(err)
			}
			t.Errorf("output differs from %s (got is in %s):\n%s", goldenPath, f.Name(), lineDiff(string(want), got))
		})
	}
}

// lineDiff lists the lines where want and got differ, by line number.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n- %s\n+ %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

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
