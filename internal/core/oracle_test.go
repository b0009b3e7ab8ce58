package core

import (
	"math/rand"
	"testing"

	"harmony/internal/workload"
)

func TestOracleEmpty(t *testing.T) {
	if p := Oracle(nil, 8, Options{}); len(p.Groups) != 0 {
		t.Error("Oracle(nil) returned groups")
	}
	if p := Oracle([]JobInfo{job("a", 1, 1)}, 0, Options{}); len(p.Groups) != 0 {
		t.Error("Oracle with no machines returned groups")
	}
}

func TestOracleSinglePair(t *testing.T) {
	jobs := []JobInfo{
		job("cpu", 3200, 20),
		job("net", 200, 180),
	}
	opts := Options{}
	p := Oracle(jobs, 16, opts)
	if p.NumJobs() != 2 || len(p.Groups) != 1 {
		t.Fatalf("oracle plan %s, want both jobs co-located", p)
	}
	if opts.Score(p) < 0.8 {
		t.Errorf("oracle score %.3f, want >= 0.8 for a complementary pair", opts.Score(p))
	}
}

// TestOracleAtLeastAsGoodAsHarmony is the §V-F ground-truth property: the
// exhaustive search can never score below Algorithm 1. The tolerance
// covers one partition whose groups come in a different order, which can
// round differently.
func TestOracleAtLeastAsGoodAsHarmony(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	opts := Options{}
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6)
		m := 8 + rng.Intn(24)
		jobs := randomJobs(rng, n)
		oracle := Oracle(jobs, m, opts)
		harmony := Schedule(jobs, m, opts)
		os, hs := opts.Score(oracle), opts.Score(harmony)
		if os < hs-1e-9 {
			t.Errorf("trial %d: oracle %.4f < harmony %.4f\noracle: %s\nharmony: %s",
				trial, os, hs, oracle, harmony)
		}
	}
}

// TestHarmonyCloseToOracle checks the headline of Fig. 14 on realistic
// job mixes: Algorithm 1's decisions land close to the exhaustive
// optimum.
func TestHarmonyCloseToOracle(t *testing.T) {
	opts := Options{}
	var worst float64
	for trial := 0; trial < 4; trial++ {
		specs := workload.Small(6 + trial)
		jobs := make([]JobInfo, len(specs))
		for i, s := range specs {
			jobs[i] = JobInfo{ID: s.ID, Comp: s.CompMachineSeconds, Net: s.NetSeconds}
		}
		m := 24
		oracle := Oracle(jobs, m, opts)
		harmony := Schedule(jobs, m, opts)
		os, hs := opts.Score(oracle), opts.Score(harmony)
		if os <= 0 {
			t.Fatalf("oracle failed to place anything: %s", oracle)
		}
		gap := (os - hs) / os
		if gap > worst {
			worst = gap
		}
	}
	if worst > 0.15 {
		t.Errorf("worst harmony-vs-oracle gap %.1f%%, want <= 15%% on realistic mixes (paper: ~2%%)", worst*100)
	}
}

func TestOracleRespectsConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	jobs := randomJobs(rng, 7)
	opts := Options{MaxJobsPerGroup: 2}
	p := Oracle(jobs, 14, opts)
	for _, g := range p.Groups {
		if len(g.Jobs) > 2 {
			t.Errorf("oracle group %s violates MaxJobsPerGroup", g)
		}
	}
	if p.TotalMachines() > 14 {
		t.Errorf("oracle uses %d machines, only 14 available", p.TotalMachines())
	}
}
