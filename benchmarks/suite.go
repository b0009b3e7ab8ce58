package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// envInfo is recorded in every result file, so two files are known to be
// comparable before their numbers are compared.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified,omitempty"`
}

func currentEnv() envInfo {
	env := envInfo{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Commit: "unknown"}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				env.Modified = s.Value == "true"
			}
		}
	}
	return env
}

// suiteResult is the result file: one or more sets of runs of every workload.
// The harness measures; it claims nothing.
type suiteResult struct {
	Claim   *string  `json:"claim"`
	Env     envInfo  `json:"env"`
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Smoke   bool     `json:"smoke,omitempty"`
	Sets    []runSet `json:"sets"`
}

// runSet is one run of every workload, with the traced repeat when asked for.
type runSet struct {
	Untraced []*runResult `json:"untraced"`
	Traced   []*runResult `json:"traced,omitempty"`
}

// runSuite runs every workload untraced (the end-to-end numbers), repeats each
// traced when asked (the per-layer numbers), does that `repeat` times, prints
// every metric by name with its unit, and writes the result file.
func runSuite(o options, repeat int, outPath string, stdout io.Writer) error {
	suite := suiteResult{Env: currentEnv(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke}
	failed := false
	for set := 0; set < repeat; set++ {
		var rs runSet
		for _, spec := range workloads {
			run := o
			run.workload, run.trace = spec.Name, false
			res, err := runWorkload(run, stdout)
			if err != nil {
				return err
			}
			printResult(stdout, res)
			rs.Untraced = append(rs.Untraced, res)
			failed = failed || !res.Correct
			if o.trace {
				run.trace = true
				res, err := runWorkload(run, stdout)
				if err != nil {
					return err
				}
				printResult(stdout, res)
				rs.Traced = append(rs.Traced, res)
				failed = failed || !res.Correct
			}
		}
		suite.Sets = append(suite.Sets, rs)
	}
	if repeat > 1 {
		printSpreads(stdout, suite)
	}
	if outPath == "" {
		outPath = filepath.Join(o.outDir, fmt.Sprintf("result-seed%d.json", o.seed))
	}
	if err := writeJSON(outPath, suite); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result written to %s\n", outPath)
	if failed {
		return errFailedChecks
	}
	return nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func readSuite(path string) (*suiteResult, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	if len(s.Sets) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &s, nil
}

// series collects one end-to-end metric of one workload over a file's sets.
func (s *suiteResult) series(workload, metric string) []float64 {
	var xs []float64
	for _, set := range s.Sets {
		for _, r := range set.Untraced {
			if r.Workload == workload {
				if v, ok := r.EndToEnd[metric]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
	}
	return xs
}

func printSpreads(w io.Writer, s suiteResult) {
	fmt.Fprintf(w, "spread over %d sets (interquartile distance / median), against each metric's bound:\n", len(s.Sets))
	for _, spec := range workloads {
		for _, m := range endToEnd {
			xs := s.series(spec.Name, m.Name)
			fmt.Fprintf(w, "  %-10s %-12s median %12.4f %-3s spread %6.1f%%  bound %4.0f%%\n",
				spec.Name, m.Name, median(xs), m.Unit, 100*spread(xs), 100*m.Bound)
		}
	}
}
