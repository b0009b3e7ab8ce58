package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"harmony/internal/core"
	"harmony/internal/workload"
)

// TestArrivalPollStopsAtFullCluster: when every group's profiling slots
// are taken, a poll of an arrival queue deeper than the slots asks
// pickProfilingGroup once, leaves the queue in order, and still drops a
// job that failed while queued.
func TestArrivalPollStopsAtFullCluster(t *testing.T) {
	for _, depth := range []int{8, 64} {
		specs := workload.Small(maxProfilingPerGroup + depth)
		s, err := New(Config{Machines: 40, Mode: ModeHarmony, Seed: 1}, Jobs(specs, nil))
		if err != nil {
			t.Fatal(err)
		}
		g := s.newGroupRun("g", 8, s.pipelined())
		s.groups[g.id] = g
		var queue []string
		for i, sp := range specs {
			if i >= maxProfilingPerGroup {
				queue = append(queue, sp.ID)
			} else if !s.startJobInGroup(sp.ID, g, jobProfiling) {
				t.Fatalf("depth %d: %s does not fit the group", depth, sp.ID)
			}
		}
		s.jobs[queue[3]].state = jobFailed
		s.arrivalQueue = append([]string(nil), queue...)
		picks := s.profilingPicks
		s.processArrivals()
		if n := s.profilingPicks - picks; n != 1 {
			t.Errorf("depth %d: %d pickProfilingGroup calls, want 1", depth, n)
		}
		want := append(append([]string(nil), queue[:3]...), queue[4:]...)
		if !reflect.DeepEqual(s.arrivalQueue, want) {
			t.Errorf("depth %d: queue after the poll\n got %v\nwant %v", depth, s.arrivalQueue, want)
		}
	}
}

func randomEstimate(rng *rand.Rand, id string) core.JobInfo {
	return core.JobInfo{
		ID:            id,
		Comp:          10 + 2000*rng.Float64(),
		Net:           1 + 120*rng.Float64(),
		InputGB:       8 * rng.Float64(),
		ModelGB:       2 * rng.Float64(),
		WorkGB:        rng.Float64(),
		JVMHeapFactor: 2.2,
		PullFrac:      0.2 + 0.6*rng.Float64(),
	}
}

// TestAbsorbPickMatchesPerJobArrivalRule: on random plans and waiting
// pools, NetModel off and on, the one-Scorer absorb pick chooses the plan
// that running the arrival rule once per waiting job and rescoring each
// result in full chooses. core.TryAddJob is pinned to clone-and-rescore
// by internal/core's tests.
func TestAbsorbPickMatchesPerJobArrivalRule(t *testing.T) {
	for _, netModel := range []bool{false, true} {
		rng := rand.New(rand.NewSource(5))
		absorbed := 0
		for trial := 0; trial < 60; trial++ {
			s, err := New(Config{Machines: 40, Mode: ModeHarmony, Seed: 1,
				SchedOpts: core.Options{NetModel: netModel}}, Jobs(workload.Small(1), nil))
			if err != nil {
				t.Fatal(err)
			}
			opts := s.cfg.SchedOpts
			placed := make([]core.JobInfo, 4+rng.Intn(12))
			for i := range placed {
				placed[i] = randomEstimate(rng, fmt.Sprintf("p%d", i))
			}
			s.plan = core.Schedule(placed, 8+rng.Intn(33), opts)
			if len(s.plan.Groups) == 0 {
				continue
			}
			for i := 1 + rng.Intn(6); i > 0; i-- {
				est := randomEstimate(rng, fmt.Sprintf("w%d", i))
				s.estimates[est.ID] = est
				s.waitingProfiled = append(s.waitingProfiled, est.ID)
			}

			gi, job, ok := s.absorbPick()
			var got core.Plan
			if ok {
				got = s.planWith(gi, job)
				absorbed++
			}
			best := opts.Score(s.plan)
			var want core.Plan
			for _, id := range s.waitingProfiled {
				if cand, ok := core.TryAddJob(s.plan, s.estimates[id], opts); ok {
					if sc := opts.Score(cand); sc > best {
						best, want = sc, cand
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("netModel=%v trial %d: absorb pick diverged\n got: %v\nwant: %v", netModel, trial, got, want)
			}
		}
		if absorbed == 0 {
			t.Fatalf("netModel=%v: no trial absorbed a job", netModel)
		}
	}
}
