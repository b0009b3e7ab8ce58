package ps

import (
	"testing"
	"time"

	"harmony/internal/rpc"
)

// statsFor builds a synthetic single-job ClusterStats for planner tests.
// perServer maps server addr → stripe stats.
func statsFor(perServer map[string][]StripeStat) ClusterStats {
	var cs ClusterStats
	for addr, stripes := range perServer {
		cs.Servers = append(cs.Servers, ServerStats{
			Name: addr, Addr: addr,
			StatsReply: StatsReply{Jobs: []JobStats{{Job: "j", Stripes: stripes}}},
		})
	}
	return cs
}

// planStreak observes cs for planMinStreak rounds, planning each round as
// the live caller does, and returns the last round's plan: the first
// planMinStreak of them the persistence gate must hold back. Observing the
// same cumulative counters again halves every score, which leaves the
// planner's relative checks unchanged.
func planStreak(t *testing.T, b *Balancer, servers []string, cs ClusterStats) []Move {
	t.Helper()
	for i := 1; i < planMinStreak; i++ {
		b.Observe(cs)
		if moves := b.Plan(servers); len(moves) != 0 {
			t.Fatalf("round %d planned %v before the streak", i, moves)
		}
	}
	b.Observe(cs)
	return b.Plan(servers)
}

func TestBalancerMovesHotStripes(t *testing.T) {
	moves := planStreak(t, NewBalancer(), []string{"a", "b"}, statsFor(map[string][]StripeStat{
		"a": {
			{Index: 0, Lo: 0, Len: 4, PullOps: 5000, PushOps: 5000},
			{Index: 1, Lo: 4, Len: 4, PullOps: 4000, PushOps: 4000},
			{Index: 2, Lo: 8, Len: 4, PullOps: 10, PushOps: 10},
		},
		"b": {
			{Index: 3, Lo: 12, Len: 4, PullOps: 10, PushOps: 10},
		},
	}))
	if len(moves) == 0 {
		t.Fatal("no moves planned for a 500x imbalance")
	}
	for _, m := range moves {
		if m.From != "a" || m.To != "b" {
			t.Fatalf("move %v goes the wrong way", m)
		}
		if m.Stripe != 0 && m.Stripe != 1 {
			t.Fatalf("move %v relocates a cold stripe", m)
		}
	}
}

func TestBalancerBalancedNoMoves(t *testing.T) {
	if moves := planStreak(t, NewBalancer(), []string{"a", "b"}, statsFor(map[string][]StripeStat{
		"a": {{Index: 0, Len: 4, PullOps: 1000, PushOps: 1000}},
		"b": {{Index: 1, Lo: 4, Len: 4, PullOps: 1100, PushOps: 900}},
	})); len(moves) != 0 {
		t.Fatalf("planned %v on a balanced cluster", moves)
	}
}

// TestBalancerCounterReset: after a migration the destination's stripe
// block restarts counters at zero; the interval delta must clamp, not go
// negative and poison the score.
func TestBalancerCounterReset(t *testing.T) {
	b := NewBalancer()
	hot := StripeStat{Index: 0, Len: 4, PullOps: 100000, PushOps: 100000}
	b.Observe(statsFor(map[string][]StripeStat{"a": {hot}, "b": {}}))
	// The stripe migrated to b: counters restart near zero.
	b.Observe(statsFor(map[string][]StripeStat{
		"a": {},
		"b": {{Index: 0, Len: 4, PullOps: 5, PushOps: 5}},
	}))
	if s := b.state[stripeKey{Job: "j"}].score; s < 0 {
		t.Fatalf("score went negative after counter reset: %v", s)
	}
}

// TestBalancerLeavesDominantHotspot: a single stripe that alone
// outweighs its server cannot be fixed by migration (the hotspot just
// relocates), so nothing is planned for it.
func TestBalancerLeavesDominantHotspot(t *testing.T) {
	if moves := planStreak(t, NewBalancer(), []string{"a", "b"}, statsFor(map[string][]StripeStat{
		"a": {{Index: 0, Len: 4, PullOps: 100000, PushOps: 100}},
		"b": {{Index: 1, Lo: 4, Len: 4, PullOps: 10, PushOps: 10}},
	})); len(moves) != 0 {
		t.Fatalf("planned %v; a dominant hotspot should not migrate", moves)
	}
}

// TestBalancerPersistenceGate: a single interval where one server looks
// hot must not trigger moves — queueing noise makes a different server
// look hottest each scrape, and reacting to one sample is churn. Only
// the same server tripping the threshold planMinStreak rounds in a row
// unlocks planning.
func TestBalancerPersistenceGate(t *testing.T) {
	servers := []string{"a", "b"}
	// cumulative op counters per server's resident stripes; "a" owns
	// stripes 0,1 and "b" owns 2,3 so each server always has a candidate
	// cooler than the gap.
	totals := map[string][2]int64{"a": {0, 0}, "b": {0, 0}}
	observe := func(b *Balancer, hot string) {
		for _, s := range servers {
			tt := totals[s]
			if s == hot {
				tt[0] += 30000
				tt[1] += 30000
			} else {
				tt[0] += 10
				tt[1] += 10
			}
			totals[s] = tt
		}
		b.Observe(statsFor(map[string][]StripeStat{
			"a": {
				{Index: 0, Lo: 0, Len: 4, PullOps: totals["a"][0]},
				{Index: 1, Lo: 4, Len: 4, PullOps: totals["a"][1]},
			},
			"b": {
				{Index: 2, Lo: 8, Len: 4, PullOps: totals["b"][0]},
				{Index: 3, Lo: 12, Len: 4, PullOps: totals["b"][1]},
			},
		}))
	}
	// Alternating hot server — scrape noise: the streak never reaches 2,
	// so nothing is ever planned.
	b := NewBalancer()
	for i := 0; i < 6; i++ {
		observe(b, servers[i%2])
		if moves := b.Plan(servers); len(moves) != 0 {
			t.Fatalf("round %d: planned %v off oscillating noise", i, moves)
		}
	}
	// Persistently hot server: gated on the first round, planning on the
	// second.
	totals = map[string][2]int64{"a": {0, 0}, "b": {0, 0}}
	b = NewBalancer()
	observe(b, "a")
	if moves := b.Plan(servers); len(moves) != 0 {
		t.Fatalf("planned %v on the first hot interval", moves)
	}
	observe(b, "a")
	if moves := b.Plan(servers); len(moves) == 0 {
		t.Fatal("no moves after two consecutive hot intervals")
	}
}

// TestBalancerCommitMoves: cooldown and the balancer's placement model
// update only when a move is committed (executed), so a move whose
// handoff failed stays eligible the next round instead of sitting out
// the cooldown while the hotspot persists.
func TestBalancerCommitMoves(t *testing.T) {
	b := NewBalancer()
	servers := []string{"a", "b"}
	hot := func(total int64) ClusterStats {
		return statsFor(map[string][]StripeStat{
			"a": {
				{Index: 0, Lo: 0, Len: 4, PullOps: total},
				{Index: 1, Lo: 4, Len: 4, PullOps: total / 2},
			},
			"b": {{Index: 2, Lo: 8, Len: 4, PullOps: 10}},
		})
	}
	planned := func(moves []Move) bool {
		for _, m := range moves {
			if m.Stripe == 0 {
				return true
			}
		}
		return false
	}
	b.Observe(hot(30000))
	b.Plan(servers) // the persistence gate's first round
	b.Observe(hot(60000))
	first := b.Plan(servers)
	if !planned(first) {
		t.Fatalf("round 2 planned %v, want the hottest stripe 0", first)
	}
	// The move failed to execute: no commit. The next round must re-plan
	// the same stripe, not cool it down on a phantom placement.
	b.Observe(hot(90000))
	second := b.Plan(servers)
	if !planned(second) {
		t.Fatalf("round 3 planned %v after a failed move, want stripe 0 again", second)
	}
	// This time it executed: committed, so the stripe cools down and the
	// next round falls back to the next-hottest candidate.
	b.CommitMoves(second)
	b.Observe(hot(120000))
	for _, m := range b.Plan(servers) {
		if m.Stripe == 0 {
			t.Fatalf("stripe 0 re-planned while cooling after commit: %v", m)
		}
	}
}

// TestBalancerForgetsDroppedJobs: stripes absent from several scrapes
// drop out of the state so a completed job stops influencing plans.
func TestBalancerForgetsDroppedJobs(t *testing.T) {
	b := NewBalancer()
	b.Observe(statsFor(map[string][]StripeStat{
		"a": {{Index: 0, Len: 4, PullOps: 1000, PushOps: 1000}},
	}))
	empty := statsFor(map[string][]StripeStat{"a": {}})
	for i := 0; i < 4; i++ {
		b.Observe(empty)
	}
	if st := b.state[stripeKey{Job: "j"}]; st != nil {
		t.Fatalf("dropped job still scored %v", st.score)
	}
}

// TestDrainServer empties one server's stripes onto its peers with
// ExecuteMoves and checks the model survives; a move whose source no
// longer owns the stripe fails without stopping the ones after it.
func TestDrainServer(t *testing.T) {
	_, addrs := startServers(t, 3)
	c := newClient(t, addrs)
	c.SetStripeElems(4)
	model := seqModel(24) // 6 stripes
	if err := c.Init("job", model); err != nil {
		t.Fatal(err)
	}
	conns := make(map[string]*rpc.Client)
	conn := func(addr string) (*rpc.Client, error) {
		if conns[addr] == nil {
			conns[addr] = dialRaw(t, addr)
		}
		return conns[addr], nil
	}
	src, _ := conn(addrs[0])
	owned := ownedStripes(t, src, "job")
	if len(owned) == 0 {
		t.Fatal("server 0 owns no stripes")
	}
	// The first move is repeated: its second copy must fail (already
	// moved) and be left out of the executed set.
	moves := []Move{{Job: "job", Stripe: owned[0], From: addrs[0], To: addrs[1]}}
	for i, s := range owned {
		moves = append(moves, Move{Job: "job", Stripe: s, From: addrs[0], To: addrs[1+i%2]})
	}
	executed, err := ExecuteMoves(conn, moves, 2*time.Second)
	if err == nil || len(executed) != len(owned) {
		t.Fatalf("executed %d of %d moves, err %v; want %d and the repeated move's error",
			len(executed), len(moves), err, len(owned))
	}
	if left := ownedStripes(t, src, "job"); len(left) != 0 {
		t.Fatalf("server 0 still owns %v after drain", left)
	}
	got, err := c.Pull("job", 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("elem %d = %v after drain, want %v", i, got[i], model[i])
		}
	}
}

// TestPSRebalanceSmoke runs the skewed A/B experiment once with
// rebalancing on: the final model must stay bit-exact while stripes are
// live-migrated under load, and at least one move must have executed.
// Throughput claims are left to BenchmarkPSRebalance; under -race the
// timing is too distorted to assert on.
func TestPSRebalanceSmoke(t *testing.T) {
	res, err := RebalanceExperiment{Seed: 1, Rebalance: true}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("final state not verified")
	}
	if res.Moves == 0 {
		t.Fatal("balancer executed no moves under an 80/10 skew")
	}
	t.Logf("ops=%d ops/s=%.0f p99_lock_wait=%v moves=%d",
		res.Ops, res.OpsPerSec, time.Duration(res.P99LockWaitSeconds*float64(time.Second)), res.Moves)
}

// BenchmarkPSRebalance is the headline A/B: the same skewed load (hot
// 10% of stripes taking 80% of traffic) with rebalancing off vs. on.
// The offered load (5 closed-loop workers at 1ms modeled service time)
// sits between one server's capacity and the cluster's, so the skewed
// placement saturates its one hot server while the balanced placement
// saturates nothing — the regime where placement is the bottleneck.
// Compare ops/s and p99µs between the two sub-benchmarks;
// `harmony-bench -run ps-rebalance` prints the same comparison.
func BenchmarkPSRebalance(b *testing.B) {
	for _, mode := range []struct {
		name      string
		rebalance bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var ops int64
			var secs, p99 float64
			for i := 0; i < b.N; i++ {
				res, err := RebalanceExperiment{Seed: int64(i), Rebalance: mode.rebalance}.Run()
				if err != nil {
					b.Fatal(err)
				}
				ops += res.Ops
				secs += res.Duration.Seconds()
				if res.P99LockWaitSeconds > p99 {
					p99 = res.P99LockWaitSeconds
				}
			}
			b.ReportMetric(float64(ops)/secs, "ops/s")
			b.ReportMetric(p99*1e6, "p99µs")
		})
	}
}
