package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/obs"
	"harmony/internal/replay"
	"harmony/internal/sim"
	"harmony/internal/trace"
	"harmony/internal/workload"
)

//go:embed testdata/two-tenant.json testdata/golden_sim_paper.json
var testdata embed.FS

const (
	snapshotFile = "testdata/two-tenant.json"
	goldenFile   = "testdata/golden_sim_paper.json"
	// goldenSeed is the one seed whose seed-dependent outputs (simulated JCT
	// and makespan, the fair experiment, the 1K search) are checked in; every
	// other seed checks those across passes only.
	goldenSeed = 1
)

// simSizes fixes one pass. The counts are chosen so that each of core, sim
// and fair+replay is at least 15% of a pass on the box the benchmark was
// sized on.
type simSizes struct {
	Machines int
	// PlainSchedules and NetSchedules count core.Schedule calls over the
	// paper's 80 jobs, without and with the link-contention model.
	PlainSchedules int
	NetSchedules   int
	// BigSchedules counts the cluster-scale searches over BigJobs synthetic
	// jobs on BigMachines machines.
	BigSchedules         int
	BigJobs, BigMachines int
	FairWorkers          int
	FairRuns             int
	ReplayRuns           int
	// PassesPerRound is how many measured passes follow one set-up.
	PassesPerRound int
}

func simPaperSizes(smoke bool) simSizes {
	s := simSizes{Machines: 100, PlainSchedules: 40, NetSchedules: 8,
		BigSchedules: 5, BigJobs: 1000, BigMachines: 1000,
		FairWorkers: 48, FairRuns: 12, ReplayRuns: 320, PassesPerRound: 6}
	if smoke {
		s.PlainSchedules, s.NetSchedules, s.BigSchedules, s.BigJobs, s.BigMachines = 1, 1, 1, 100, 100
		s.FairRuns, s.ReplayRuns, s.PassesPerRound = 1, 2, 2
	}
	return s
}

func (s simSizes) describe() map[string]any {
	return map[string]any{"machines": s.Machines, "paper_jobs": len(workload.Base()),
		"schedule_plain": s.PlainSchedules, "schedule_netmodel": s.NetSchedules,
		"schedule_big": fmt.Sprintf("%d of %dx%d", s.BigSchedules, s.BigJobs, s.BigMachines),
		"sim_runs":     "harmony/batch, isolated/batch, naive/batch, harmony/bursty",
		"fair_workers": s.FairWorkers, "fair_runs": s.FairRuns, "replay_runs": s.ReplayRuns,
		"passes_per_round": s.PassesPerRound}
}

// simInputs are a round's generated inputs.
type simInputs struct {
	paper    []core.JobInfo
	big      []core.JobInfo
	batch    []sim.Job
	bursty   []sim.Job
	fairExp  fair.Experiment
	snapshot []byte
	seed     int64
}

func specInfos(specs []workload.Spec) []core.JobInfo {
	infos := make([]core.JobInfo, len(specs))
	for i, s := range specs {
		infos[i] = core.JobInfo{ID: s.ID, Comp: s.CompMachineSeconds, Net: s.NetSeconds,
			InputGB: s.Data.InputGB, ModelGB: s.Data.ModelGB, WorkGB: s.WorkGB,
			JVMHeapFactor: workload.JVMHeapFactor, PullFrac: s.PullFrac}
	}
	return infos
}

func buildSimInputs(sizes simSizes, seed int64) (*simInputs, error) {
	base := workload.Base()
	in := &simInputs{paper: specInfos(base), seed: seed}
	rng := rand.New(rand.NewSource(seed))
	in.big = make([]core.JobInfo, sizes.BigJobs)
	for i := range in.big {
		in.big[i] = core.JobInfo{ID: fmt.Sprintf("s%d", i),
			Comp: 500 + rng.Float64()*10000, Net: 30 + rng.Float64()*400}
	}
	in.batch = sim.Jobs(base, trace.Batch(len(base)))
	in.bursty = sim.Jobs(base, trace.Bursty(len(base), 0, seed))
	in.fairExp = fair.Experiment{Workers: sizes.FairWorkers, Queues: fair.TwoTenantQueues(), Seed: seed, Fair: true}
	raw, err := testdata.ReadFile(snapshotFile)
	if err != nil {
		return nil, fmt.Errorf("sim_paper: %w", err)
	}
	in.snapshot = raw
	return in, nil
}

// passOutputs are the outputs of one pass, reduced to digests keyed by name.
// Names ending in "@seed" depend on the seed.
type passOutputs map[string]string

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:24]
}

// bits renders a float exactly, so a digest moves when one bit does.
func bits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// passTimes are the wall times (ms) of one pass and of its parts.
type passTimes struct {
	total        float64
	core         float64
	sim          float64
	fairReplay   float64
	simRuns      []float64 // one per sim.Run, any regime
	paperSched   []float64 // one per core.Schedule of the paper workload
	fairReplayOp []float64 // one fair experiment plus one replay, paired
}

// runPass executes one pass over the inputs, timing every call into a layer
// and reducing every output to a digest.
func runPass(sizes simSizes, in *simInputs, tr *tracer) (passOutputs, passTimes, error) {
	out := passOutputs{}
	var t passTimes
	root := tr.begin(spanRef{}, "harness", "pass")
	defer tr.end(root)
	timed := func(layer, name string, fn func() error) (float64, error) {
		sp := tr.begin(root, layer, name)
		start := time.Now()
		err := fn()
		d := ms(time.Since(start))
		tr.end(sp)
		return d, err
	}
	passStart := time.Now()

	// core: Algorithm 1 over the paper's workload, plain and net-aware, and
	// one cluster-scale search.
	for i := 0; i < sizes.PlainSchedules; i++ {
		d, _ := timed("core", "Schedule paper", func() error {
			p := core.Schedule(in.paper, sizes.Machines, core.Options{MemoryCapGB: 25})
			out["plan_paper"] = digest(p.String())
			return nil
		})
		t.core += d
		t.paperSched = append(t.paperSched, d)
	}
	for i := 0; i < sizes.NetSchedules; i++ {
		d, _ := timed("core", "Schedule paper netmodel", func() error {
			p := core.Schedule(in.paper, sizes.Machines, core.Options{MemoryCapGB: 25, NetModel: true})
			out["plan_paper_netmodel"] = digest(p.String())
			return nil
		})
		t.core += d
	}
	for i := 0; i < sizes.BigSchedules; i++ {
		d, _ := timed("core", "Schedule 1k", func() error {
			p := core.Schedule(in.big, sizes.BigMachines, core.Options{MemoryCapGB: 25, MaxJobsPerGroup: 4})
			out["plan_1k@seed"] = digest(p.String())
			return nil
		})
		t.core += d
	}

	// sim: the paper's comparison (Fig. 10) and the bursty-arrival run.
	runs := []struct {
		name string
		mode sim.Mode
		jobs []sim.Job
	}{
		{"harmony", sim.ModeHarmony, in.batch},
		{"isolated", sim.ModeIsolated, in.batch},
		{"naive", sim.ModeNaive, in.batch},
		{"bursty", sim.ModeHarmony, in.bursty},
	}
	for _, r := range runs {
		d, err := timed("sim", "Run "+r.name, func() error {
			res, err := sim.Run(sim.Config{Machines: sizes.Machines, Mode: r.mode, Seed: in.seed}, r.jobs)
			if err != nil {
				return err
			}
			out["sim_"+r.name+"@seed"] = digest(
				fmt.Sprint(int64(res.Summary.MeanJCT)), fmt.Sprint(int64(res.Summary.Makespan)),
				bits(res.Summary.CPUUtil), bits(res.Summary.NetUtil),
				fmt.Sprint(len(res.Records)), fmt.Sprint(len(res.Failed)))
			return nil
		})
		if err != nil {
			return nil, t, fmt.Errorf("sim_paper: sim.Run %s: %w", r.name, err)
		}
		t.sim += d
		t.simRuns = append(t.simRuns, d)
	}

	// fair + replay: the two-tenant experiment and the snapshot replay.
	var fairMS, replayMS float64
	for i := 0; i < sizes.FairRuns; i++ {
		d, err := timed("fair", "Experiment.Run", func() error {
			res, err := in.fairExp.Run()
			if err != nil {
				return err
			}
			out["fair@seed"] = digest(fmt.Sprint(res.Makespan, res.Completed, res.Preemptions),
				bits(res.MeanResumeTicks), res.EventLog())
			return nil
		})
		if err != nil {
			return nil, t, fmt.Errorf("sim_paper: fair experiment: %w", err)
		}
		fairMS += d
	}
	for i := 0; i < sizes.ReplayRuns; i++ {
		d, err := timed("replay", "Load+Run", func() error {
			snap, err := replay.Load(in.snapshot)
			if err != nil {
				return err
			}
			rep, err := replay.Run(snap, replay.Overrides{})
			if err != nil {
				return err
			}
			enc, err := rep.Encode()
			if err != nil {
				return err
			}
			out["replay_report"] = digest(string(enc))
			return nil
		})
		if err != nil {
			return nil, t, fmt.Errorf("sim_paper: replay: %w", err)
		}
		replayMS += d
	}
	t.fairReplay = fairMS + replayMS
	t.fairReplayOp = []float64{fairMS/float64(sizes.FairRuns) + replayMS/float64(sizes.ReplayRuns)}
	t.total = ms(time.Since(passStart))
	return out, t, nil
}

type simWorkload struct {
	spec  workloadSpec
	sizes simSizes
	seed  int64
	// goldenSeeded says the seed-dependent outputs have golden values too:
	// the golden seed at the full sizes.
	goldenSeeded bool
	tr           *tracer
}

func (w *simWorkload) tailPercentile() float64       { return 75 }
func (w *simWorkload) describe() map[string]any      { return w.sizes.describe() }
func (w *simWorkload) systemSpans() []obs.TaggedSpan { return nil }

func loadGolden() (map[string]string, error) {
	raw, err := testdata.ReadFile(goldenFile)
	if err != nil {
		return nil, fmt.Errorf("sim_paper: %w", err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		return nil, fmt.Errorf("sim_paper: decode %s: %w", goldenFile, err)
	}
	return golden, nil
}

// round sets up (inputs, golden, one warm-up pass that fills caches and fixes
// the reference outputs) and then times PassesPerRound identical passes,
// checking each against the reference and the golden.
func (w *simWorkload) round(idx int, traced bool) (*roundOut, error) {
	defer singleP()()
	out := &roundOut{outcomes: newOutcomes()}
	var tr *tracer
	if traced {
		tr = w.tr
	}
	setupStart := time.Now()
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	in, err := buildSimInputs(w.sizes, w.seed)
	if err != nil {
		return nil, err
	}
	reference, _, err := runPass(w.sizes, in, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out.setup = start.Sub(setupStart)
	var share struct{ core, sim, fairReplay, total float64 }
	for p := 0; p < w.sizes.PassesPerRound; p++ {
		got, t, err := runPass(w.sizes, in, tr)
		if err != nil {
			return nil, err
		}
		out.attempted++
		out.makespans = append(out.makespans, t.total/1000)
		// The four regimes take 5 ms (isolated, naive) or 50 ms (harmony) a
		// run, so a median over single runs sits in the gap between them:
		// op_ms is the four runs of a pass together, op_tail_ms the p75 over
		// single runs, which is the middle of the two slow ones.
		out.op = append(out.op, t.sim)
		out.tail = append(out.tail, t.simRuns...)
		out.step = append(out.step, t.paperSched...)
		out.addExtra("fair_replay_p50_ms", "ms", t.fairReplayOp...)
		share.core += t.core
		share.sim += t.sim
		share.fairReplay += t.fairReplay
		share.total += t.total
		checkPass(out, got, reference, golden, w.goldenSeeded)
	}
	out.measured = time.Since(start)
	out.addExtra("sim_pass_ms", "ms", scaled(out.makespans, 1000)...)
	out.addExtra("pass_share_core", "ratio", share.core/share.total)
	out.addExtra("pass_share_sim", "ratio", share.sim/share.total)
	out.addExtra("pass_share_fair_replay", "ratio", share.fairReplay/share.total)
	if traced {
		out.layer = map[string]float64{}
	}
	return out, nil
}

// singleP pins GOMAXPROCS to 1 and returns the function that restores it. A
// pass is one goroutine; with two Ps the garbage collector's background
// workers and Algorithm 1's worker pool run on the second vCPU, and whenever
// the host has descheduled that vCPU the pass waits for it. Alternating runs
// on the box the benchmark was sized on: 0.32-0.43 s a pass at 1 P, 0.51-0.97 s
// at 2. Plans are bit-identical at any parallelism, so nothing else changes.
func singleP() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// checkPass compares one pass's outputs with the round's reference pass (bit
// identity across passes) and with the checked-in golden: every
// seed-independent output always, the seed-dependent ones on the golden seed.
func checkPass(out *roundOut, got, reference passOutputs, golden map[string]string, goldenSeeded bool) {
	for _, name := range sortedKeys(reference) {
		if got[name] != reference[name] {
			out.fail("%s differs between passes: %s then %s", name, reference[name], got[name])
			return
		}
		if strings.HasSuffix(name, "@seed") && !goldenSeeded {
			continue
		}
		if want, ok := golden[name]; !ok {
			out.fail("%s has no golden value; regenerate with -update-golden", name)
			return
		} else if got[name] != want {
			out.fail("%s = %s, golden has %s", name, got[name], want)
			return
		}
	}
}

// updateGolden rewrites the golden file from one pass at the golden seed.
func updateGolden(dir string) error {
	sizes := simPaperSizes(false)
	in, err := buildSimInputs(sizes, goldenSeed)
	if err != nil {
		return err
	}
	got, _, err := runPass(sizes, in, nil)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenFile), append(raw, '\n'), 0o644)
}
