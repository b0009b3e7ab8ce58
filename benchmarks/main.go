// Command benchmarks is the repository's one benchmark harness: four
// workloads (live_mix, live_comm, ctl_churn, sim_paper), end-to-end metrics
// from untraced runs, per-layer metrics from a traced run. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"harmony/internal/obs"
)

// runner is one workload: it runs fixed-size rounds, each with its own
// set-up, until the run has measured for the requested time.
type runner interface {
	round(idx int, traced bool) (*roundOut, error)
	tailPercentile() float64
	describe() map[string]any
	systemSpans() []obs.TaggedSpan
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

func newRunner(spec workloadSpec, o options, tr *tracer) (runner, error) {
	switch spec.Name {
	case wlLiveMix:
		return &liveWorkload{spec: spec, sizes: liveMixSizes(o.smoke), seed: o.seed, tr: tr}, nil
	case wlLiveComm:
		return &liveWorkload{spec: spec, sizes: liveCommSizes(o.smoke), seed: o.seed, tr: tr}, nil
	case wlCtlChurn:
		return &churnWorkload{spec: spec, sizes: ctlChurnSizes(o.smoke), seed: o.seed, tr: tr}, nil
	case wlSimPaper:
		return &simWorkload{spec: spec, sizes: simPaperSizes(o.smoke), seed: o.seed,
			goldenSeeded: o.seed == goldenSeed && !o.smoke, tr: tr}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", spec.Name)
}

// wallLimit stops a run from starting further rounds however little it has
// measured. The driver gives a run 180 s; on a host that has descheduled the
// VM's CPUs a round takes ten times its usual three seconds, and a run that
// measured less is worth more than a run that was killed.
const wallLimit = 75 * time.Second

// runWorkload measures one workload. Untraced, every round feeds the
// end-to-end metrics. Traced, rounds alternate untraced and traced so the
// same run yields the tracing overhead, and a probe pass follows.
func runWorkload(o options, log io.Writer) (*runResult, error) {
	spec, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	r, err := newRunner(spec, o, tr)
	if err != nil {
		return nil, err
	}
	var untraced, traced []*roundOut
	var measured time.Duration
	budget := time.Duration(o.seconds * float64(time.Second))
	started := time.Now()
	for idx := 0; idx == 0 || (measured < budget && time.Since(started) < wallLimit) || (o.trace && len(traced) == 0); idx++ {
		withTrace := o.trace && idx%2 == 1
		out, err := r.round(idx, withTrace)
		if err != nil {
			return nil, err
		}
		measured += out.measured
		if withTrace {
			traced = append(traced, out)
		} else {
			untraced = append(untraced, out)
		}
		fmt.Fprintf(log, "# %s round %d traced=%v setup=%.3fs makespan=%.3fs op=%.3fms step=%.3fms failed=%d\n",
			spec.Name, idx, withTrace, out.setup.Seconds(), median(out.makespans), median(out.op), median(out.step), out.failed)
	}
	res := aggregate(spec, r.tailPercentile(), untraced, traced)
	res.Seed, res.Seconds, res.Sizes = o.seed, o.seconds, r.describe()
	if o.trace {
		// A run already past its wall limit takes the shortest probe slices.
		probes, err := runProbes(tr, o.seed, o.smoke || time.Since(started) > wallLimit)
		if err != nil {
			return nil, err
		}
		for name, v := range probes {
			res.PerLayer[name] = v
		}
		spans, counts := tr.snapshot()
		path := filepath.Join(o.outDir, "trace-"+spec.Name+".json")
		if err := writeChromeTrace(path, spans, counts, r.systemSpans()); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# trace written to %s (%d harness spans, %d system spans)\n", path, len(spans), len(r.systemSpans()))
		self := layerSelfSeconds(spans)
		for _, layer := range sortedKeys(self) {
			fmt.Fprintf(log, "# self time %-8s %.3fs\n", layer, self[layer])
		}
	}
	return res, nil
}

func printResult(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "%s  seed=%d  %s, %d client(s)  rounds=%d  attempted=%d failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Loop, res.Clients, res.Rounds, res.Attempted, res.Failed, res.Correct)
	fmt.Fprintf(w, "  expected outcomes: %s; unexpected status: %d\n", formatOutcomes(res.Outcomes), res.Unexpected)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  ! %s\n", p)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, m := range endToEnd {
		v := res.EndToEnd[m.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d\n", m.Name, v.Value, v.Unit, v.N)
	}
	for _, k := range sortedKeys(res.Extra) {
		v := res.Extra[k]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%d  (extra)\n", k, v.Value, v.Unit, v.N)
	}
	if res.Traced {
		for _, m := range perLayer {
			v := res.PerLayer[m.Name]
			fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", m.Name, v.Value, m.Unit, v.N)
		}
	}
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverOutput(res *runResult) driverLine {
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]driverValue{}}
	list, vals := endToEnd, res.EndToEnd
	if res.Traced {
		list, vals = perLayer, res.PerLayer
	}
	for _, m := range list {
		line.Metrics[m.Name] = driverValue{Value: vals[m.Name].Value, Unit: m.Unit}
	}
	return line
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if isInfrastructure(err) {
			fmt.Fprintln(os.Stderr, "benchmarks: run aborted, infrastructure error:", err)
		} else {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
		}
		os.Exit(1)
	}
}

var errFailedChecks = errors.New("output checks failed")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "run one workload and print the driver's result line last (default: run all four and write a result file)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long each workload measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 repeats each workload traced and reports the per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny sizes: exercises the harness, measures nothing worth keeping")
	fs.StringVar(&o.outDir, "out", "benchmarks/out", "directory for result and trace files")
	repeat := fs.Int("repeat", 1, "run this many sets of all workloads and print the spread of every end-to-end metric")
	resultPath := fs.String("o", "", "result file (default <out>/result-seed<seed>.json)")
	compare := fs.Bool("compare", false, "compare two result files given as arguments: one row per workload x end-to-end metric")
	updateGoldenFlag := fs.Bool("update-golden", false, "rewrite benchmarks/testdata/golden_sim_paper.json from the current code and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = traceFlag != 0
	switch {
	case *updateGoldenFlag:
		return updateGolden("benchmarks")
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareSuites(stdout, fs.Arg(0), fs.Arg(1))
	case o.seconds <= 0 || *repeat < 1:
		return errors.New("-seconds and -repeat must be positive")
	case o.workload == "":
		return runSuite(o, *repeat, *resultPath, stdout)
	}
	res, err := runWorkload(o, stdout)
	if err != nil {
		return err
	}
	printResult(stdout, res)
	line, err := json.Marshal(driverOutput(res))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errFailedChecks
	}
	return nil
}
