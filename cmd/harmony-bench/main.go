// harmony-bench regenerates the paper's evaluation tables and figures
// (DESIGN.md §4 maps experiment ids to paper references).
//
//	harmony-bench -run all
//	harmony-bench -run fig10 -seed 3
//	harmony-bench -parallel 1 -run fig10   # single-threaded baseline
//	harmony-bench -run fair-share,placement   # policy comparisons (DESIGN.md §13-§14)
//	harmony-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"harmony/internal/exp"
)

type experiment struct {
	id   string
	desc string
	run  func(seed int64) (fmt.Stringer, error)
}

func experiments() []experiment {
	return []experiment{
		{"tab1", "Table I: workload inventory", func(s int64) (fmt.Stringer, error) {
			return exp.Tab1(), nil
		}},
		{"fig2", "Fig. 2: single-job utilization", func(s int64) (fmt.Stringer, error) {
			return exp.Fig2(s)
		}},
		{"fig3", "Fig. 3: machines sweep", func(s int64) (fmt.Stringer, error) {
			return exp.Fig3(s)
		}},
		{"fig4", "Fig. 4: naive co-location and OOM", func(s int64) (fmt.Stringer, error) {
			return exp.Fig4(s)
		}},
		{"fig9", "Fig. 9: workload characteristics", func(s int64) (fmt.Stringer, error) {
			return exp.Fig9(), nil
		}},
		{"fig10", "Fig. 10: JCT and makespan speedups", func(s int64) (fmt.Stringer, error) {
			return exp.Fig10(s, 5)
		}},
		{"fig11", "Fig. 11: utilization over time", func(s int64) (fmt.Stringer, error) {
			return exp.Fig11(s)
		}},
		{"fig12", "Fig. 12: grouping decision distributions", func(s int64) (fmt.Stringer, error) {
			return exp.Fig12(s)
		}},
		{"fig13a", "Fig. 13a: model-error sensitivity", func(s int64) (fmt.Stringer, error) {
			return exp.Fig13a(s)
		}},
		{"fig13b", "Fig. 13b: prediction accuracy", func(s int64) (fmt.Stringer, error) {
			return exp.Fig13b(s)
		}},
		{"fig14", "Fig. 14 / §V-F: Harmony vs Oracle", func(s int64) (fmt.Stringer, error) {
			return exp.Fig14(), nil
		}},
		{"scale", "§V-F: scheduling scalability", func(s int64) (fmt.Stringer, error) {
			return exp.ScaleSched(s), nil
		}},
		{"ablation", "§V-C: technique ablation", func(s int64) (fmt.Stringer, error) {
			return exp.Ablation(s)
		}},
		{"design-ablation", "DESIGN.md §5: design-choice ablations", func(s int64) (fmt.Stringer, error) {
			return exp.DesignAblation(s)
		}},
		{"sens-ratio", "§V-D: resource-ratio sensitivity", func(s int64) (fmt.Stringer, error) {
			return exp.SensRatio(s)
		}},
		{"sens-arrival", "§V-D: arrival-rate sensitivity", func(s int64) (fmt.Stringer, error) {
			return exp.SensArrival(s)
		}},
		{"reload", "§V-G: dynamic data reloading", func(s int64) (fmt.Stringer, error) {
			return exp.Reload(s)
		}},
		{"fair-share", "DESIGN.md §13: two-tenant fair scheduling vs FIFO", fairShare},
		{"placement", "DESIGN.md §14: net-aware placement under link contention", placement},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "harmony-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("harmony-bench", flag.ContinueOnError)
	runID := fs.String("run", "all", "experiment id to run, or 'all'")
	seed := fs.Int64("seed", exp.DefaultSeed, "random seed")
	list := fs.Bool("list", false, "list experiment ids and exit")
	parallelism := fs.Int("parallel", 0,
		"worker count for the experiment sweeps (0 = GOMAXPROCS, 1 = sequential; results are identical at any setting)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exp.SetConcurrency(*parallelism)
	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("  %-16s %s\n", e.id, e.desc)
		}
		return nil
	}
	var selected []experiment
	if *runID == "all" {
		selected = exps
	} else {
		for _, want := range strings.Split(*runID, ",") {
			found := false
			for _, e := range exps {
				if e.id == want {
					selected = append(selected, e)
					found = true
					break
				}
			}
			if !found {
				known := make([]string, len(exps))
				for i, e := range exps {
					known[i] = e.id
				}
				sort.Strings(known)
				return fmt.Errorf("unknown experiment %q (known: %s)", want, strings.Join(known, ", "))
			}
		}
	}
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		result, err := e.run(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Print(result.String())
		fmt.Printf("[%s completed in %s]\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
