package fair

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// halves is two root queues with a 2-worker guarantee each on the
// 4-worker cluster the table below uses.
func halves(t *testing.T) *Scheduler {
	t.Helper()
	s, err := New(QueueConfig{Name: "a", Quota: 0.5}, QueueConfig{Name: "b", Quota: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDecide(t *testing.T) {
	s := halves(t)
	// Four single-worker b jobs fill the cluster: b borrows 2 past its quota.
	floodB := []Running{
		{Job: "b1", Queue: "b", StartSeq: 1, Workers: 1},
		{Job: "b2", Queue: "b", StartSeq: 2, Workers: 1},
		{Job: "b3", Queue: "b", StartSeq: 3, Workers: 1},
		{Job: "b4", Queue: "b", StartSeq: 4, Workers: 1},
	}
	cases := []struct {
		name string
		view View
		// fits lists the jobs the driver can place; the rest are refused
		// with reason.
		fits   []string
		reason string

		action  Action
		job     string
		victims []string
		holds   []Hold
		// limits is the cap the driver was handed per job it was asked
		// about; a job absent from it was held by the gate alone.
		limits map[string]int
	}{
		{
			name:   "slowdown bound",
			view:   View{Total: 4, Free: 4, Held: []Held{{Job: "x", Queue: "a", Seq: 1, Demand: 1}}},
			reason: HoldSlowdown,
			holds:  []Hold{{"x", HoldSlowdown}},
			limits: map[string]int{"x": math.MaxInt},
		},
		{
			name: "no gang capacity, and free workers that rule out a reclaim",
			view: View{Total: 4, Free: 1, Usage: Usage{"b": 3}, Running: floodB[:3],
				Held: []Held{{Job: "x", Queue: "a", Seq: 1, Demand: 1}}},
			reason: HoldNoGang,
			holds:  []Hold{{"x", HoldNoGang}},
			limits: map[string]int{"x": math.MaxInt},
		},
		{
			name: "quota exhausted: gated queue at its quota is not even offered to the driver",
			view: View{Total: 4, Free: 2, Usage: Usage{"b": 2}, Held: []Held{
				{Job: "x", Queue: "a", Seq: 1, Demand: 3},
				{Job: "y", Queue: "b", Seq: 2, Demand: 1},
			}},
			fits:   []string{"y"},
			reason: HoldNoGang,
			holds:  []Hold{{"x", HoldNoGang}, {"y", HoldQuota}},
			limits: map[string]int{"x": math.MaxInt},
		},
		{
			name: "gated borrow is trimmed to the quota headroom",
			view: View{Total: 4, Free: 1, Usage: Usage{"b": 1, DefaultQueue: 2}, Held: []Held{
				{Job: "x", Queue: "a", Seq: 1, Demand: 2},
				{Job: "y", Queue: "b", Seq: 2, Demand: 1},
			}},
			fits:   []string{"y"},
			reason: HoldNoGang,
			action: Admit, job: "y",
			holds:  []Hold{{"x", HoldNoGang}},
			limits: map[string]int{"x": 2, "y": 1},
		},
		{
			name: "ungated borrow is unbounded",
			view: View{Total: 4, Free: 2, Usage: Usage{"b": 2},
				Held: []Held{{Job: "y", Queue: "b", Seq: 1, Demand: 2}}},
			fits:   []string{"y"},
			action: Admit, job: "y",
			limits: map[string]int{"y": math.MaxInt},
		},
		{
			name: "a preempted job keeps its reason whatever refused it",
			view: View{Total: 4, Free: 0, Usage: Usage{"a": 2, "b": 2}, Held: []Held{
				{Job: "x", Queue: "a", Seq: 1, Demand: 1, Resumable: true},
				{Job: "y", Queue: "b", Seq: 2, Demand: 3, Resumable: true},
			}},
			reason: HoldSlowdown,
			holds:  []Hold{{"x", HoldPreempted}, {"y", HoldPreempted}},
			limits: map[string]int{"x": math.MaxInt, "y": math.MaxInt},
		},
		{
			name: "first fit backfills past a job that does not place",
			view: View{Total: 4, Free: 1, Usage: Usage{"a": 3}, Held: []Held{
				{Job: "big", Queue: "a", Seq: 1, Demand: 2},
				{Job: "small", Queue: "a", Seq: 2, Demand: 1},
			}},
			fits:   []string{"small"},
			reason: HoldNoGang,
			action: Admit, job: "small",
			holds:  []Hold{{"big", HoldNoGang}},
			limits: map[string]int{"big": math.MaxInt, "small": math.MaxInt},
		},
		{
			name: "reclaim: most recent borrowers make room for an under-quota gang",
			view: View{Total: 4, Free: 0, Usage: Usage{"b": 4}, Running: floodB,
				Held: []Held{{Job: "x", Queue: "a", Seq: 5, Demand: 2}}},
			reason: HoldNoGang,
			action: Preempt, job: "x", victims: []string{"b4", "b3"},
			holds:  []Hold{{"x", HoldNoGang}},
			limits: map[string]int{"x": math.MaxInt},
		},
		{
			name: "anti-ping-pong: no reclaim for a gang that would end over quota",
			view: View{Total: 4, Free: 0, Usage: Usage{"b": 4}, Running: floodB,
				Held: []Held{{Job: "x", Queue: "a", Seq: 5, Demand: 3}}},
			reason: HoldNoGang,
			holds:  []Hold{{"x", HoldNoGang}},
			limits: map[string]int{"x": math.MaxInt},
		},
		{
			name: "victims that cannot cover the need are left alone",
			view: View{Total: 4, Free: 0, Usage: Usage{"a": 1, "b": 3}, Running: floodB[:3],
				Held: []Held{{Job: "x", Queue: "a", Seq: 5, Demand: 2}}},
			reason: HoldNoGang,
			holds:  []Hold{{"x", HoldNoGang}},
			limits: map[string]int{"x": math.MaxInt},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			limits := make(map[string]int)
			d := s.Decide(c.view, func(h Held, limit int) (bool, string) {
				limits[h.Job] = limit
				for _, name := range c.fits {
					if name == h.Job {
						return true, ""
					}
				}
				return false, c.reason
			})
			if d.Action != c.action {
				t.Fatalf("action = %v, want %v (%+v)", d.Action, c.action, d)
			}
			if c.action != Wait && d.Job.Job != c.job {
				t.Errorf("job = %q, want %q", d.Job.Job, c.job)
			}
			var victims []string
			for _, v := range d.Victims {
				victims = append(victims, v.Job)
			}
			if !reflect.DeepEqual(victims, c.victims) {
				t.Errorf("victims = %v, want %v", victims, c.victims)
			}
			if !reflect.DeepEqual(d.Holds, c.holds) {
				t.Errorf("holds = %v, want %v", d.Holds, c.holds)
			}
			if !reflect.DeepEqual(limits, c.limits) {
				t.Errorf("limits handed to the driver = %v, want %v", limits, c.limits)
			}
		})
	}
}

// TestTryIsDecidesStep: the arrival rule applies the same gate and the
// same reasons to one job that Decide applies to each job of the queue.
func TestTryIsDecidesStep(t *testing.T) {
	s := halves(t)
	v := View{Total: 4, Free: 2, Usage: Usage{"b": 2},
		Held: []Held{{Job: "x", Queue: "a", Seq: 1, Demand: 3}}}
	never := func(Held, int) (bool, string) { t.Error("driver asked to place a gated job"); return true, "" }
	if ok, reason := s.Try(v, Held{Job: "y", Queue: "b", Demand: 1}, never); ok || reason != HoldQuota {
		t.Errorf("gated arrival = %v, %q, want held on quota", ok, reason)
	}
	v.Usage = Usage{"b": 1}
	ok, _ := s.Try(v, Held{Job: "y", Queue: "b", Demand: 1}, func(_ Held, limit int) (bool, string) {
		if limit != 1 {
			t.Errorf("limit = %d, want the 1-worker headroom", limit)
		}
		return true, ""
	})
	if !ok {
		t.Error("arrival within its queue's headroom was held")
	}
}

// TestDecideProperties drives the kernel the way the tick simulator does
// (a gang fits or it does not) through seeded random arrivals and
// completions, and checks every decision against the policy's invariants,
// each re-derived here rather than read back from the kernel:
//
//   - no admission takes a queue past its quota while another queue is
//     under its own with jobs held (the borrow gate);
//   - no victim is taken from the beneficiary's queue or from a queue the
//     loss would dig below its quota, the victims cover the need, and the
//     beneficiary ends within its quota (so it cannot be reclaimed back);
//   - every drain reaches Wait within a bound linear in the jobs: reclaim
//     converges instead of trading the same workers back and forth.
func TestDecideProperties(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		total := 4 + rng.Intn(13)
		s, err := New(
			QueueConfig{Name: "a", Quota: 0.5},
			QueueConfig{Name: "b", Quota: 0.3},
			QueueConfig{Name: "c", Weight: 1, OverQuotaWeight: float64(1 + rng.Intn(3))},
		)
		if err != nil {
			t.Fatal(err)
		}
		queues := s.Names()
		quota := func(q string) int { return s.QuotaWorkers(q, total) }

		var held []Held
		var running []Running
		var seq, startSeq uint64
		view := func() View {
			v := View{Total: total, Free: total, Usage: make(Usage), Held: held, Running: running}
			for _, r := range running {
				v.Usage[r.Queue] += r.Workers
				v.Free -= r.Workers
			}
			return v
		}
		for step := 0; step < 200; step++ {
			if len(running) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(running))
				running = append(running[:i], running[i+1:]...)
			} else {
				seq++
				held = append(held, Held{
					Job: fmt.Sprintf("j%d", seq), Queue: queues[rng.Intn(len(queues))],
					Priority: rng.Intn(3), Seq: seq, Demand: 1 + rng.Intn(total/2),
				})
			}
			bound := 4*(len(held)+len(running)) + 4
			for n := 0; ; n++ {
				if n > bound {
					t.Fatalf("seed %d step %d: drain did not converge in %d decisions", seed, step, bound)
				}
				v := view()
				d := s.Decide(v, func(h Held, _ int) (bool, string) { return h.Demand <= v.Free, HoldNoGang })
				if d.Action == Wait {
					break
				}
				h := d.Job
				after := v.Usage[h.Queue] + h.Demand
				if d.Action == Admit {
					if h.Demand > v.Free {
						t.Fatalf("seed %d: admitted %+v with %d free", seed, h, v.Free)
					}
					for _, o := range held {
						if o.Queue != h.Queue && v.Usage[o.Queue] < quota(o.Queue) && after > quota(h.Queue) {
							t.Fatalf("seed %d: %+v borrowed to %d/%d while %s waits under quota",
								seed, h, after, quota(h.Queue), o.Queue)
						}
					}
					for i := range held {
						if held[i].Job == h.Job {
							held = append(held[:i:i], held[i+1:]...)
							break
						}
					}
					startSeq++
					running = append(running, Running{Job: h.Job, Queue: h.Queue,
						Priority: h.Priority, StartSeq: startSeq, Workers: h.Demand})
					continue
				}
				if after > quota(h.Queue) {
					t.Fatalf("seed %d: reclaim for %+v would leave its queue at %d/%d", seed, h, after, quota(h.Queue))
				}
				freed := 0
				left := v.Usage
				for _, vic := range d.Victims {
					if vic.Queue == h.Queue {
						t.Fatalf("seed %d: victim %s shares the beneficiary's queue", seed, vic.Job)
					}
					if left[vic.Queue] -= vic.Workers; left[vic.Queue] < quota(vic.Queue) {
						t.Fatalf("seed %d: victim %s digs %s to %d, below its quota %d",
							seed, vic.Job, vic.Queue, left[vic.Queue], quota(vic.Queue))
					}
					freed += vic.Workers
					for i := range running {
						if running[i].Job == vic.Job {
							running = append(running[:i:i], running[i+1:]...)
							break
						}
					}
					held = append(held, Held{Job: vic.Job, Queue: vic.Queue, Priority: vic.Priority,
						Seq: seq + 1, Demand: vic.Workers, Resumable: true})
					seq++
				}
				if v.Free+freed < h.Demand {
					t.Fatalf("seed %d: victims free %d+%d workers, %+v needs %d", seed, v.Free, freed, h, h.Demand)
				}
			}
		}
	}
}

// TestExperimentMatchesParentLogs is the cross-driver pin of the kernel
// refactor: the event logs under testdata/ were captured from the
// experiment loop as it was before the kernel (its own admit, reclaim and
// order code, and a separate FIFO branch) for seeds 1-5 in both modes.
// Byte identity proves that driving Decide — and expressing FIFO as the
// default queue — changed no decision.
func TestExperimentMatchesParentLogs(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, mode := range []bool{false, true} {
			res, err := Experiment{Workers: 10, Queues: TwoTenantQueues(), Seed: seed, Fair: mode}.Run()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("testdata/experiment_%s_seed%d.log", res.Mode, seed)
			want, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.EventLog() + "\n"; got != string(want) {
				t.Errorf("%s: event log differs from the captured one", name)
			}
		}
	}
}
