package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomJob draws a job with the profile shapes the workload inventory
// (Table I) spans: compute-heavy, comm-heavy and balanced, occasionally
// with memory parameters and a serial floor so the cap checks and the
// Synergy-style model both see coverage.
func randomJob(rng *rand.Rand, id int) JobInfo {
	j := JobInfo{
		ID:   fmt.Sprintf("j%04d", id),
		Comp: 0.5 + 40*rng.Float64(),
		Net:  0.05 + 4*rng.Float64(),
	}
	if rng.Intn(3) == 0 {
		j.CompFloor = 0.2 * rng.Float64()
	}
	if rng.Intn(2) == 0 {
		j.ModelGB = 4 * rng.Float64()
		j.WorkGB = 2 * rng.Float64()
		j.JVMHeapFactor = 1 + rng.Float64()
	}
	if rng.Intn(3) == 0 {
		j.PullFrac = 0.2 + 0.6*rng.Float64()
	}
	return j
}

func randomOpts(rng *rand.Rand, netModel bool) Options {
	opts := Options{NetModel: netModel}
	if rng.Intn(2) == 0 {
		opts.MemoryCapGB = 8 + 24*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		opts.MaxJobsPerGroup = 2 + rng.Intn(4)
	}
	return opts
}

// TestScorerMatchesFullScore pins the Scorer's base score and every
// per-group ScoreDelta against the clone-and-rescore path, bitwise.
func TestScorerMatchesFullScore(t *testing.T) {
	for _, netModel := range []bool{false, true} {
		t.Run(fmt.Sprintf("netModel=%v", netModel), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 40; trial++ {
				opts := randomOpts(rng, netModel)
				jobs := make([]JobInfo, 3+rng.Intn(10))
				for i := range jobs {
					jobs[i] = randomJob(rng, trial*100+i)
				}
				plan := Schedule(jobs, 4+rng.Intn(29), opts)
				if len(plan.Groups) == 0 {
					continue
				}
				sc := NewScorer(plan, opts)
				if got, want := sc.Score(), opts.Score(plan); got != want {
					t.Fatalf("trial %d: Scorer.Score = %v, full Score = %v", trial, got, want)
				}
				arrival := randomJob(rng, trial*100+99)
				for gi := range plan.Groups {
					cand := plan.Clone()
					cand.Groups[gi].Jobs = append(cand.Groups[gi].Jobs, arrival)
					wantFeasible := opts.withDefaults().feasible(cand)
					gotScore, pred, gotFeasible := sc.ScoreDelta(arrival, gi)
					if gotFeasible != wantFeasible {
						t.Fatalf("trial %d gi %d: ScoreDelta feasible = %v, reference = %v",
							trial, gi, gotFeasible, wantFeasible)
					}
					if !wantFeasible {
						continue
					}
					if want := opts.Score(cand); gotScore != want {
						t.Fatalf("trial %d gi %d: ScoreDelta = %v, clone-and-rescore = %v (diff %g)",
							trial, gi, gotScore, want, gotScore-want)
					}
					g := cand.Groups[gi]
					if pred.IterSeconds != g.IterSeconds() {
						t.Fatalf("trial %d gi %d: predicted iter %v, group iter %v",
							trial, gi, pred.IterSeconds, g.IterSeconds())
					}
					uc, un := g.Util()
					if pred.CPUUtil != uc || pred.NetUtil != un {
						t.Fatalf("trial %d gi %d: predicted util (%v,%v), group util (%v,%v)",
							trial, gi, pred.CPUUtil, pred.NetUtil, uc, un)
					}
					if netModel && pred.Compatibility != GroupCompatibility(g) {
						t.Fatalf("trial %d gi %d: predicted compat %v, group compat %v",
							trial, gi, pred.Compatibility, GroupCompatibility(g))
					}
				}
			}
		})
	}
}

// TestIncrementalAdmissionBitIdentical drives randomized job streams —
// arrivals, completions, cancels, preemptions — through the incremental
// §IV-B4 rules and the clone-and-rescore references in lock-step,
// asserting every decision (chosen plan, flags, added jobs) is
// bit-identical, with the NetModel both off and on.
func TestIncrementalAdmissionBitIdentical(t *testing.T) {
	for _, netModel := range []bool{false, true} {
		t.Run(fmt.Sprintf("netModel=%v", netModel), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			trials := 12
			steps := 40
			if netModel {
				// Interleave solves make reference scoring expensive.
				trials, steps = 6, 25
			}
			for trial := 0; trial < trials; trial++ {
				opts := randomOpts(rng, netModel)
				seed := make([]JobInfo, 4+rng.Intn(8))
				for i := range seed {
					seed[i] = randomJob(rng, trial*1000+i)
				}
				plan := Schedule(seed, 8+rng.Intn(25), opts)
				var waiting []JobInfo
				nextID := trial*1000 + 100
				for step := 0; step < steps; step++ {
					switch op := rng.Intn(4); {
					case op == 0 || plan.NumJobs() == 0: // arrival
						job := randomJob(rng, nextID)
						nextID++
						got, gotOK := TryAddJob(plan, job, opts)
						want, wantOK := TryAddJobReference(plan, job, opts)
						if gotOK != wantOK || !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d step %d: TryAddJob diverged: ok %v/%v\n got: %v\nwant: %v",
								trial, step, gotOK, wantOK, got, want)
						}
						if gotOK {
							plan = got
						} else {
							waiting = append(waiting, job)
						}
					case op == 1: // completion triggers the regroup rule
						id := randomPlacedJob(rng, plan)
						got := RegroupAfterFinish(plan, id, waiting, opts)
						want := RegroupAfterFinishReference(plan, id, waiting, opts)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d step %d: RegroupAfterFinish(%s) diverged\n got: %+v\nwant: %+v",
								trial, step, id, got, want)
						}
						plan = got.Plan
						waiting = removeWaiting(waiting, got.AddedJobs)
					case op == 2: // cancel: the job vanishes without regrouping
						id := randomPlacedJob(rng, plan)
						gi, _ := plan.FindJob(id)
						plan = plan.Clone()
						plan.Groups[gi].Jobs = removeJob(plan.Groups[gi].Jobs, id)
						if len(plan.Groups[gi].Jobs) == 0 {
							plan.Groups = append(plan.Groups[:gi], plan.Groups[gi+1:]...)
						}
					default: // preemption: back to the waiting pool
						id := randomPlacedJob(rng, plan)
						gi, _ := plan.FindJob(id)
						preempted := jobByID(plan.Groups[gi].Jobs, id)
						plan = plan.Clone()
						plan.Groups[gi].Jobs = removeJob(plan.Groups[gi].Jobs, id)
						if len(plan.Groups[gi].Jobs) == 0 {
							plan.Groups = append(plan.Groups[:gi], plan.Groups[gi+1:]...)
						}
						waiting = append(waiting, preempted)
					}
					if len(waiting) > 6 {
						waiting = waiting[len(waiting)-6:]
					}
				}
			}
		})
	}
}

// TestRegroupBoundSkipsMatchReference: completions on random plans, with
// and without a waiting pool, decide as the reference that runs Algorithm 1
// for every escalation candidate — NetModel off and on, and under a memory
// cap — while the score bound does skip some of those runs.
func TestRegroupBoundSkipsMatchReference(t *testing.T) {
	for _, opts := range []Options{{}, {NetModel: true}, {MemoryCapGB: 12}} {
		t.Run(fmt.Sprintf("netModel=%v/cap=%v", opts.NetModel, opts.MemoryCapGB), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			before := boundSkips.Load()
			for trial := 0; trial < 80; trial++ {
				jobs := make([]JobInfo, 10+rng.Intn(20))
				for i := range jobs {
					jobs[i] = randomJob(rng, trial*100+i)
				}
				plan := Schedule(jobs, 12+rng.Intn(40), opts)
				if plan.NumJobs() == 0 {
					continue
				}
				waiting := make([]JobInfo, rng.Intn(4))
				for i := range waiting {
					waiting[i] = randomJob(rng, trial*100+50+i)
				}
				id := randomPlacedJob(rng, plan)
				got := RegroupAfterFinish(plan, id, waiting, opts)
				want := RegroupAfterFinishReference(plan, id, waiting, opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: RegroupAfterFinish(%s) diverged\n got: %+v\nwant: %+v", trial, id, got, want)
				}
				// The bound itself, on a random set of rebuilt groups.
				selected := map[int]bool{}
				var pool []JobInfo
				machines := 0
				for i, g := range plan.Groups {
					if rng.Intn(2) == 0 {
						selected[i] = true
						pool = append(pool, g.Jobs...)
						machines += g.Machines
					}
				}
				sc := NewScorer(plan, opts)
				if sub := Schedule(append(pool, waiting...), machines, opts); len(sub.Groups) > 0 {
					if score, bound := sc.scoreReplacement(selected, sub.Groups), sc.replacementBound(selected, machines); score > bound {
						t.Fatalf("trial %d: replacement scores %v over its bound %v", trial, score, bound)
					}
				}
			}
			if boundSkips.Load() == before {
				t.Fatal("the score bound skipped no escalation candidate")
			}
		})
	}
}

// TestBestAdditionSkipsOnlyInfeasibleGroups: the arrival rule scores only
// groups with room, and none once a group breaks a cap. On plans with full
// groups (MaxJobsPerGroup 1-3) under a memory cap, plain and with one group
// pushed over the job cap or the memory cap, it decides exactly as
// clone-and-rescore. (At MaxJobsPerGroup 1 every group is full, so nothing
// is ever admitted.)
func TestBestAdditionSkipsOnlyInfeasibleGroups(t *testing.T) {
	for _, netModel := range []bool{false, true} {
		for maxJobs := 1; maxJobs <= 3; maxJobs++ {
			t.Run(fmt.Sprintf("netModel=%v/max=%d", netModel, maxJobs), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(maxJobs)))
				full, admitted := 0, 0
				for trial := 0; trial < 24; trial++ {
					opts := Options{NetModel: netModel, MaxJobsPerGroup: maxJobs, MemoryCapGB: 8 + 24*rng.Float64()}
					jobs := make([]JobInfo, 4+rng.Intn(12))
					for i := range jobs {
						jobs[i] = randomJob(rng, trial*100+i)
					}
					plan := Schedule(jobs, 8+rng.Intn(25), opts).Clone()
					if len(plan.Groups) == 0 {
						continue
					}
					for i := range plan.Groups { // open some groups
						if n := len(plan.Groups[i].Jobs); n > 1 && rng.Intn(2) == 0 {
							plan.Groups[i].Jobs = plan.Groups[i].Jobs[:n-1]
						}
					}
					g := &plan.Groups[rng.Intn(len(plan.Groups))]
					switch trial % 3 {
					case 1: // over the job cap
						for len(g.Jobs) <= maxJobs {
							g.Jobs = append(g.Jobs, randomJob(rng, trial*100+len(jobs)+len(g.Jobs)))
						}
					case 2: // over the memory cap
						g.Jobs = append(g.Jobs, JobInfo{ID: "hog", Comp: 1, Net: 0.1, WorkGB: opts.MemoryCapGB + 1})
					}
					for _, g := range plan.Groups {
						if len(g.Jobs) == maxJobs {
							full++
						}
					}
					for k := 0; k < 8; k++ {
						job := randomJob(rng, trial*100+50+k)
						got, gotOK := TryAddJob(plan, job, opts)
						want, wantOK := TryAddJobReference(plan, job, opts)
						if gotOK != wantOK || !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d arrival %d: TryAddJob diverged: ok %v/%v\n got: %v\nwant: %v",
								trial, k, gotOK, wantOK, got, want)
						}
						if gotOK {
							admitted++
						}
					}
				}
				if full == 0 || (admitted == 0) != (maxJobs == 1) {
					t.Fatalf("coverage: %d full groups, %d admissions", full, admitted)
				}
			})
		}
	}
}

func randomPlacedJob(rng *rand.Rand, plan Plan) string {
	ids := plan.JobIDs()
	return ids[rng.Intn(len(ids))]
}

func removeWaiting(waiting []JobInfo, added []string) []JobInfo {
	if len(added) == 0 {
		return waiting
	}
	drop := make(map[string]bool, len(added))
	for _, id := range added {
		drop[id] = true
	}
	out := waiting[:0]
	for _, w := range waiting {
		if !drop[w.ID] {
			out = append(out, w)
		}
	}
	return out
}

// TestScoreDeltaAllocFree pins the fast path's zero-allocation property
// without the NetModel (with it, one interleave solve per candidate
// allocates its offset slice).
func TestScoreDeltaAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	jobs := make([]JobInfo, 12)
	for i := range jobs {
		jobs[i] = randomJob(rng, i)
	}
	opts := Options{}
	plan := Schedule(jobs, 24, opts)
	if len(plan.Groups) < 2 {
		t.Fatalf("want a multi-group plan, got %v", plan)
	}
	sc := NewScorer(plan, opts)
	arrival := randomJob(rng, 99)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := sc.BestAddition(arrival); !ok {
			_ = math.Abs(0) // keep the call from being elided
		}
	})
	if allocs != 0 {
		t.Fatalf("BestAddition allocates %v objects per run, want 0", allocs)
	}
}
