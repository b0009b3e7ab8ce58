package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSolveInterleaveSeparatesTwoIdenticalJobs pins the core promise:
// two comm-heavy jobs whose bursts would collide at zero offset get
// distinct phases and a clean circle.
func TestSolveInterleaveSeparatesTwoIdenticalJobs(t *testing.T) {
	// At 4 machines: Tcpu = 2s each, Net = 2s each. Period = max(4, 4) = 4s;
	// each job's comm fills half the circle, so perfect interleaving exists.
	jobs := []JobInfo{
		{ID: "a", Comp: 8, Net: 2},
		{ID: "b", Comp: 8, Net: 2},
	}
	il := SolveInterleave(jobs, 4)
	if il.Period != 4 {
		t.Fatalf("period = %v, want 4", il.Period)
	}
	if il.Compatibility < 0.95 {
		t.Errorf("compatibility = %v, want ~1 (perfectly interleavable pair)", il.Compatibility)
	}
	if il.Offsets[0] == il.Offsets[1] {
		t.Errorf("identical offsets %v for colliding jobs", il.Offsets)
	}
}

// TestSolveInterleaveOverloadedLink: when aggregate comm exceeds the
// period, some collision is unavoidable and compatibility must drop
// below 1 while staying in [0, 1].
func TestSolveInterleaveOverloadedLink(t *testing.T) {
	jobs := []JobInfo{
		{ID: "a", Comp: 1, Net: 6},
		{ID: "b", Comp: 1, Net: 6},
		{ID: "c", Comp: 1, Net: 6},
	}
	il := SolveInterleave(jobs, 4)
	if il.Compatibility < 0 || il.Compatibility > 1 {
		t.Fatalf("compatibility = %v outside [0,1]", il.Compatibility)
	}
	// Period = sumNet = 18s and the link is exactly full; the discretized
	// solver may not reach 1.0 but must not claim heavy collision either.
	if il.CollisionSeconds < 0 {
		t.Errorf("negative collision seconds %v", il.CollisionSeconds)
	}
	// Four comm-saturating jobs on a period bounded by sumNet leave no
	// slack at all once COMP windows force overlaps.
	over := []JobInfo{
		{ID: "a", Comp: 40, Net: 10},
		{ID: "b", Comp: 40, Net: 10},
	}
	ilOver := SolveInterleave(over, 4) // period = max(20, 20, 20) = 20
	if ilOver.Compatibility < 0 || ilOver.Compatibility > 1 {
		t.Fatalf("compatibility = %v outside [0,1]", ilOver.Compatibility)
	}
}

// TestSolveInterleaveInputOrderIndependent is the determinism contract:
// per-job offsets must not depend on the order jobs are passed in, or
// map-iteration order anywhere upstream would leak into plans.
func TestSolveInterleaveInputOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		jobs := make([]JobInfo, n)
		for i := range jobs {
			jobs[i] = JobInfo{
				ID:       string(rune('a' + i)),
				Comp:     1 + rng.Float64()*40,
				Net:      0.5 + rng.Float64()*10,
				PullFrac: rng.Float64(),
			}
		}
		machines := 1 + rng.Intn(16)
		base := SolveInterleave(jobs, machines)
		want := make(map[string]float64, n)
		for i, j := range jobs {
			want[j.ID] = base.Offsets[i]
		}
		for shuffle := 0; shuffle < 4; shuffle++ {
			perm := rng.Perm(n)
			shuffled := make([]JobInfo, n)
			for i, p := range perm {
				shuffled[i] = jobs[p]
			}
			got := SolveInterleave(shuffled, machines)
			if got.Compatibility != base.Compatibility || got.Period != base.Period {
				t.Fatalf("trial %d: shuffled solve changed score: %v/%v vs %v/%v",
					trial, got.Compatibility, got.Period, base.Compatibility, base.Period)
			}
			for i, j := range shuffled {
				if got.Offsets[i] != want[j.ID] {
					t.Fatalf("trial %d: job %s offset %v after shuffle, want %v",
						trial, j.ID, got.Offsets[i], want[j.ID])
				}
			}
		}
	}
}

// TestSolveInterleaveDegenerate: singleton and zero-net job sets are
// trivially compatible with zero offsets.
func TestSolveInterleaveDegenerate(t *testing.T) {
	il := SolveInterleave([]JobInfo{{ID: "solo", Comp: 10, Net: 2}}, 4)
	if il.Compatibility != 1 || il.Offsets[0] != 0 {
		t.Errorf("singleton solve = %+v, want compatibility 1 offset 0", il)
	}
	il = SolveInterleave(nil, 4)
	if il.Compatibility != 1 {
		t.Errorf("empty solve compatibility = %v, want 1", il.Compatibility)
	}
}

// TestCompFloorChangesTcpu pins the Synergy-style sensitivity plumbing:
// CompFloor adds serial seconds that machines cannot shave, and zero
// floor reproduces Eq. 2 exactly.
func TestCompFloorChangesTcpu(t *testing.T) {
	j := JobInfo{ID: "a", Comp: 8, Net: 1}
	if got := j.TcpuAt(4); got != 2 {
		t.Fatalf("TcpuAt(4) = %v, want 2 (Eq. 2)", got)
	}
	j.CompFloor = 1.5
	if got := j.TcpuAt(4); got != 3.5 {
		t.Fatalf("TcpuAt(4) with floor = %v, want 3.5", got)
	}
	// The floor shrinks the marginal gain of extra machines: a floored
	// job gains less from machine 5 than an unfloored one.
	floored := JobInfo{Comp: 8, CompFloor: 4}
	pure := JobInfo{Comp: 8}
	gainFloored := floored.TcpuAt(4) - floored.TcpuAt(5)
	gainPure := pure.TcpuAt(4) - pure.TcpuAt(5)
	if math.Abs(gainFloored-gainPure) > 1e-9 {
		t.Fatalf("marginal gains %v vs %v: the floor is constant and must cancel",
			gainFloored, gainPure)
	}
}

// TestGroupCompatibilityScoreTerm: with NetModel on, Score prefers a
// plan whose groups interleave cleanly over one with colliding comm.
func TestGroupCompatibilityScoreTerm(t *testing.T) {
	clean := Plan{Groups: []Group{{
		Machines: 4,
		Jobs: []JobInfo{
			{ID: "a", Comp: 8, Net: 2},
			{ID: "b", Comp: 8, Net: 2},
		},
	}}}
	colliding := Plan{Groups: []Group{{
		Machines: 4,
		Jobs: []JobInfo{
			{ID: "a", Comp: 2, Net: 8},
			{ID: "b", Comp: 2, Net: 8},
		},
	}}}
	if GroupCompatibility(clean.Groups[0]) <= GroupCompatibility(colliding.Groups[0]) {
		t.Fatalf("clean group compatibility %v <= colliding %v",
			GroupCompatibility(clean.Groups[0]), GroupCompatibility(colliding.Groups[0]))
	}
	// The compatibility term must only move the net share of the score:
	// for the clean group it is ~neutral, for the colliding group the
	// NetModel score drops below the default score.
	on, off := Options{NetModel: true}, Options{}
	if on.Score(colliding) >= off.Score(colliding) {
		t.Errorf("NetModel score %v >= default %v for a colliding group",
			on.Score(colliding), off.Score(colliding))
	}
	// PullFrac noise must not change the default (NetModel-off) score.
	noisy := Plan{Groups: []Group{{
		Machines: 4,
		Jobs: []JobInfo{
			{ID: "a", Comp: 8, Net: 2, PullFrac: 0.9},
			{ID: "b", Comp: 8, Net: 2},
		},
	}}}
	if off.Score(noisy) != off.Score(clean) {
		t.Error("PullFrac changed the default score: NetModel gating leaked")
	}
}

// solveInterleaveSlotBySlot is SolveInterleave scanning all 64 demand
// slots at every candidate offset, as it did before the solver collected
// the occupied slots once per job; the oracle for
// TestSolveInterleaveMatchesSlotBySlot.
func solveInterleaveSlotBySlot(jobs []JobInfo, machines int) Interleave {
	res := Interleave{
		Period:        groupIterSeconds(jobs, machines),
		Offsets:       make([]float64, len(jobs)),
		Compatibility: 1,
	}
	if len(jobs) < 2 || res.Period <= 0 {
		return res
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := jobs[order[a]], jobs[order[b]]
		if ja.Net != jb.Net {
			return ja.Net > jb.Net
		}
		return ja.ID < jb.ID
	})

	slotSec := res.Period / interleaveSlots
	var occ, dem [interleaveSlots]float64
	var totalDemand, totalExcess float64
	for _, ji := range order {
		j := jobs[ji]
		if j.Net <= 0 {
			continue
		}
		demand := commDemand(j, machines, res.Period, &dem)
		totalDemand += demand
		bestOff, bestCost := 0, math.Inf(1)
		for c := 0; c < interleaveSlots; c += offsetStep {
			var cost float64
			for s := 0; s < interleaveSlots; s++ {
				d := dem[s]
				if d == 0 {
					continue
				}
				o := occ[(s+c)%interleaveSlots]
				// Incremental excess over unit link capacity in this
				// slot: what the new demand adds beyond what already
				// overflowed.
				after := o + d - 1
				if after > 0 {
					if before := o - 1; before > 0 {
						after -= before
					}
					cost += after
				}
			}
			if cost < bestCost-1e-12 {
				bestCost = cost
				bestOff = c
			}
			if bestCost == 0 {
				break
			}
		}
		for s := 0; s < interleaveSlots; s++ {
			if dem[s] != 0 {
				occ[(s+bestOff)%interleaveSlots] += dem[s]
			}
		}
		res.Offsets[ji] = float64(bestOff) * slotSec
		totalExcess += bestCost * slotSec
	}
	if totalDemand > 0 {
		res.CollisionSeconds = math.Min(totalExcess, totalDemand)
		res.Compatibility = 1 - res.CollisionSeconds/totalDemand
	}
	return res
}

// TestSolveInterleaveMatchesSlotBySlot: visiting only the slots a job
// occupies changes no addition and no order, so offsets, collided seconds
// and compatibility are bit-equal to the full scan.
func TestSolveInterleaveMatchesSlotBySlot(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 3000; trial++ {
		jobs := make([]JobInfo, rng.Intn(9))
		for i := range jobs {
			jobs[i] = randomJob(rng, i)
			if rng.Intn(8) == 0 {
				jobs[i].Net *= 20 // comm-bound: bursts wrap and overload the link
			}
			if rng.Intn(10) == 0 {
				jobs[i].Net = 0
			}
		}
		machines := 1 + rng.Intn(32)
		got, want := SolveInterleave(jobs, machines), solveInterleaveSlotBySlot(jobs, machines)
		if math.Float64bits(got.Period) != math.Float64bits(want.Period) ||
			math.Float64bits(got.CollisionSeconds) != math.Float64bits(want.CollisionSeconds) ||
			math.Float64bits(got.Compatibility) != math.Float64bits(want.Compatibility) {
			t.Fatalf("trial %d: got %+v, slot-by-slot %+v", trial, got, want)
		}
		for i := range want.Offsets {
			if math.Float64bits(got.Offsets[i]) != math.Float64bits(want.Offsets[i]) {
				t.Fatalf("trial %d: job %d offset %v, slot-by-slot %v", trial, i, got.Offsets[i], want.Offsets[i])
			}
		}
	}
}
