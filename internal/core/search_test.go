package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestScheduleWorkIndependentOfGOMAXPROCS pins that Algorithm 1 is one
// loop on the caller's goroutine: the allocations of a paper-sized search
// do not depend on the P count and it leaves no goroutine behind. Mallocs
// are read directly because testing.AllocsPerRun pins GOMAXPROCS to 1
// while it measures; the minimum over a few searches drops the runtime's
// own stray allocations.
func TestScheduleWorkIndependentOfGOMAXPROCS(t *testing.T) {
	jobs := paperJobs()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, opts := range []Options{{MemoryCapGB: 25}, {MemoryCapGB: 25, NetModel: true}} {
		var mallocs [2]uint64
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			goroutines := runtime.NumGoroutine()
			mallocs[i] = math.MaxUint64
			for run := 0; run < 5; run++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				Schedule(jobs, 100, opts)
				runtime.ReadMemStats(&after)
				if n := after.Mallocs - before.Mallocs; n < mallocs[i] {
					mallocs[i] = n
				}
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("NetModel=%v GOMAXPROCS=%d: goroutines %d -> %d across Schedule",
					opts.NetModel, procs, goroutines, n)
			}
		}
		if mallocs[0] != mallocs[1] {
			t.Errorf("NetModel=%v: %d allocs a search at GOMAXPROCS 1, %d at 4",
				opts.NetModel, mallocs[0], mallocs[1])
		}
	}
}

// TestBestGroupCountTernaryMatchesLinear checks the ternary search used
// for maxG > 64 against an exhaustive scan. Plateaus in the cost curve can
// make the two pick different-but-equally-good counts, so the property
// compared is the achieved cost, not the index.
func TestBestGroupCountTernaryMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	costAt := func(jobs []JobInfo, machines, nG int, opts Options) float64 {
		if opts.MaxJobsPerGroup > 0 && (len(jobs)+nG-1)/nG > opts.MaxJobsPerGroup {
			return math.Inf(1)
		}
		m := machines / nG
		var c float64
		for _, j := range jobs {
			c += math.Abs(j.TcpuAt(m) - j.Net)
		}
		return c
	}
	for trial := 0; trial < 50; trial++ {
		n := 65 + rng.Intn(400) // force the ternary branch (maxG > 64)
		machines := n + rng.Intn(4*n)
		jobs := randomJobs(rng, n)
		var opts Options
		if trial%5 == 0 {
			opts.MaxJobsPerGroup = 2 + rng.Intn(6)
		}
		got := bestGroupCount(jobs, machines, opts)
		maxG := n
		if machines < maxG {
			maxG = machines
		}
		bestCost := math.Inf(1)
		for nG := 1; nG <= maxG; nG++ {
			if c := costAt(jobs, machines, nG, opts); c < bestCost {
				bestCost = c
			}
		}
		gotCost := costAt(jobs, machines, got, opts)
		if gotCost > bestCost*(1+1e-9)+1e-9 {
			t.Fatalf("trial %d (n=%d machines=%d): ternary picked nG=%d cost=%g, exhaustive min=%g",
				trial, n, machines, got, gotCost, bestCost)
		}
	}
}

// TestAllocateMachinesZeroGainsSpread pins the fall-through: when no group
// gains from another machine (Comp = 0, so Eq. 1 never shrinks), the spares
// are spread round-robin from group 0 and none is stranded.
func TestAllocateMachinesZeroGainsSpread(t *testing.T) {
	groups := []Group{
		{Jobs: []JobInfo{job("a", 0, 50)}},
		{Jobs: []JobInfo{job("b", 0, 80)}},
		{Jobs: []JobInfo{job("c", 0, 20)}},
	}
	allocateMachines(groups, 17)
	for i, want := range []int{6, 6, 5} {
		if groups[i].Machines != want {
			t.Errorf("group %d got %d machines, want %d", i, groups[i].Machines, want)
		}
	}
}

// TestAllocateMachinesMatchesReference compares the water-filling loop
// with the loop it replaced on random group sets, hostile terms included.
// The reference's lazy re-key never firing is why allocateMachines has no
// such branch: a group's gain depends on its own DoP only.
func TestAllocateMachinesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	term := func(scale float64) float64 {
		switch rng.Intn(20) {
		case 0, 1, 2:
			return 0
		case 3:
			return -rng.Float64() * scale
		case 4:
			if rng.Intn(4) == 0 {
				return math.NaN()
			}
			return math.Inf(1)
		}
		return rng.Float64() * scale
	}
	for trial := 0; trial < 12000; trial++ {
		got := make([]Group, 1+rng.Intn(12))
		for gi := range got {
			got[gi].Jobs = make([]JobInfo, 1+rng.Intn(6))
			for ji := range got[gi].Jobs {
				j := JobInfo{Comp: term(10000), Net: term(400)}
				if rng.Intn(3) == 0 {
					j.CompFloor = term(50)
				}
				got[gi].Jobs[ji] = j
			}
		}
		want := append([]Group(nil), got...)
		machines := len(got) + rng.Intn(201)
		allocateMachines(got, machines)
		if rekeys := allocateMachinesReference(want, machines); rekeys != 0 {
			t.Fatalf("trial %d: reference re-keyed a stale top %d times", trial, rekeys)
		}
		for gi := range got {
			if got[gi].Machines != want[gi].Machines {
				t.Fatalf("trial %d (%d machines): group %d got %d machines, reference %d",
					trial, machines, gi, got[gi].Machines, want[gi].Machines)
			}
		}
	}
}
