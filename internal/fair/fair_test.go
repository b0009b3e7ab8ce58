package fair

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func mustNew(t *testing.T, cfgs ...QueueConfig) *Scheduler {
	t.Helper()
	s, err := New(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultQueueOwnsCluster(t *testing.T) {
	s := Default()
	if got := s.Share(DefaultQueue); got != 1 {
		t.Fatalf("default share = %v, want 1", got)
	}
	if got := s.QuotaWorkers(DefaultQueue, 7); got != 7 {
		t.Fatalf("default quota workers = %d, want 7", got)
	}
	if s.BorrowGated(DefaultQueue, []Held{{Job: "a", Queue: DefaultQueue}}, Usage{}, 4) {
		t.Fatal("single queue must never gate itself")
	}
}

func TestSharesQuotasAndWeights(t *testing.T) {
	s := mustNew(t,
		QueueConfig{Name: "a", Quota: 0.7},
		QueueConfig{Name: "b", Quota: 0.3},
		QueueConfig{Name: "c", Weight: 3},
	)
	// a and b pin the whole cluster; c and default split the remainder 0.
	if got := s.Share("a"); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("share(a) = %v", got)
	}
	if got := s.Share("b"); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("share(b) = %v", got)
	}
	if got := s.Share("c"); got != 0 {
		t.Errorf("share(c) = %v, want 0 (quotas exhaust the cluster)", got)
	}
	if got := s.QuotaWorkers("a", 4); got != 3 {
		t.Errorf("quota workers a on 4 = %d, want 3 (0.7*4 rounds up)", got)
	}
	if got := s.QuotaWorkers("b", 4); got != 1 {
		t.Errorf("quota workers b on 4 = %d, want 1", got)
	}
}

func TestWeightOnlyShares(t *testing.T) {
	s := mustNew(t,
		QueueConfig{Name: "x", Weight: 3},
		QueueConfig{Name: "y", Weight: 1},
	)
	// default rides along with weight 1: 3/5, 1/5, 1/5.
	if got := s.Share("x"); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("share(x) = %v, want 0.6", got)
	}
	if got := s.Share(DefaultQueue); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("share(default) = %v, want 0.2", got)
	}
}

func TestHierarchicalShares(t *testing.T) {
	s := mustNew(t,
		QueueConfig{Name: "org", Quota: 0.8},
		QueueConfig{Name: "research", Parent: "org", Quota: 0.5},
		QueueConfig{Name: "prod", Parent: "org", Weight: 1},
	)
	if got := s.Share("research"); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("share(research) = %v, want 0.4 (half of org's 0.8)", got)
	}
	if got := s.Share("prod"); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("share(prod) = %v, want 0.4 (org remainder)", got)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfgs []QueueConfig
	}{
		{"bad name", []QueueConfig{{Name: "bad name"}}},
		{"dup", []QueueConfig{{Name: "a"}, {Name: "a"}}},
		{"quota range", []QueueConfig{{Name: "a", Quota: 1.5}}},
		{"unknown parent", []QueueConfig{{Name: "a", Parent: "nope"}}},
		{"self parent", []QueueConfig{{Name: "a", Parent: "a"}}},
		{"cycle", []QueueConfig{{Name: "a", Parent: "b"}, {Name: "b", Parent: "a"}}},
		{"quota sum", []QueueConfig{{Name: "a", Quota: 0.7}, {Name: "b", Quota: 0.7}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfgs...); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestOrderDeficitFirstThenPriority(t *testing.T) {
	s := mustNew(t,
		QueueConfig{Name: "a", Quota: 0.5},
		QueueConfig{Name: "b", Quota: 0.5},
	)
	held := []Held{
		{Job: "b1", Queue: "b", Seq: 1},
		{Job: "a1", Queue: "a", Seq: 2},
		{Job: "a2", Queue: "a", Priority: 5, Seq: 3},
		{Job: "b2", Queue: "b", Seq: 4},
	}
	// b is at quota (2 of 2 on 4 workers), a idle: a's jobs lead,
	// higher priority first, then FIFO within b.
	got := s.Order(held, Usage{"b": 2}, 4)
	want := []string{"a2", "a1", "b1", "b2"}
	names := make([]string, len(got))
	for i, h := range got {
		names[i] = h.Job
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("order = %v, want %v", names, want)
	}
	// Determinism: same inputs, same order.
	again := s.Order(held, Usage{"b": 2}, 4)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("order not deterministic at %d: %v vs %v", i, got[i], again[i])
		}
	}
}

func TestOrderOverQuotaWeightBreaksBorrowTies(t *testing.T) {
	s := mustNew(t,
		QueueConfig{Name: "a", Quota: 0.5, OverQuotaWeight: 1},
		QueueConfig{Name: "b", Quota: 0.5, OverQuotaWeight: 9},
	)
	held := []Held{
		{Job: "a1", Queue: "a", Seq: 1},
		{Job: "b1", Queue: "b", Seq: 2},
	}
	// Both queues at quota: the stronger over-quota weight borrows first.
	got := s.Order(held, Usage{"a": 2, "b": 2}, 4)
	if got[0].Job != "b1" {
		t.Fatalf("order = %v, want b1 first", got)
	}
}

// orderPairwise is the order as it was first written: one stable sort
// whose comparator ranks both jobs' queues on every call. Order ranks each
// queue once instead; this stays as the oracle it must agree with.
func orderPairwise(s *Scheduler, held []Held, usage Usage, total int) []Held {
	if len(held) == 0 {
		return nil
	}
	type qrank struct {
		name  string
		under bool
		ratio float64
		oqw   float64
	}
	ranks := make(map[string]qrank)
	for _, h := range held {
		q := s.QuotaWorkers(h.Queue, total)
		r := qrank{name: h.Queue, oqw: s.cfgs[h.Queue].OverQuotaWeight}
		if q > 0 {
			r.ratio = float64(usage[h.Queue]) / float64(q)
			r.under = usage[h.Queue] < q
		} else {
			r.ratio = math.Inf(1)
		}
		ranks[h.Queue] = r
	}
	out := append([]Held(nil), held...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := ranks[out[i].Queue], ranks[out[j].Queue]
		if a.name != b.name {
			if a.under != b.under {
				return a.under
			}
			if a.under {
				if a.ratio != b.ratio {
					return a.ratio < b.ratio
				}
			} else {
				if a.oqw != b.oqw {
					return a.oqw > b.oqw
				}
				if a.ratio != b.ratio {
					return a.ratio < b.ratio
				}
			}
			return a.name < b.name
		}
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// randomQueue draws a queue forest, a usage and a held set. Few distinct
// priorities and sequence numbers make ties in every key, and jobs equal in
// all of them, common; queues with equal ratios, equal over-quota weights,
// no guarantee at all, and queues missing from the configuration occur.
func randomQueue(t *testing.T, rng *rand.Rand) (s *Scheduler, held []Held, usage Usage, total int) {
	nq := 1 + rng.Intn(6)
	cfgs := make([]QueueConfig, nq)
	names := []string{DefaultQueue, "unconfigured"}
	left := 1.0
	for i := range cfgs {
		cfgs[i] = QueueConfig{Name: fmt.Sprintf("q%d", i), Weight: float64(1 + rng.Intn(3)),
			OverQuotaWeight: float64(rng.Intn(3))}
		if rng.Intn(2) == 0 {
			cfgs[i].Quota = math.Floor(left*float64(rng.Intn(4))/4*100) / 100
			left -= cfgs[i].Quota
		}
		names = append(names, cfgs[i].Name)
	}
	s = mustNew(t, cfgs...)
	total = 1 + rng.Intn(16)
	usage = make(Usage)
	for _, n := range names {
		if rng.Intn(3) > 0 {
			usage[n] = rng.Intn(total + 3)
		}
	}
	held = make([]Held, rng.Intn(40))
	for i := range held {
		held[i] = Held{Job: fmt.Sprintf("j%d", i), Queue: names[rng.Intn(len(names))],
			Priority: rng.Intn(3), Seq: uint64(rng.Intn(8)), Demand: 1 + rng.Intn(3)}
	}
	return s, held, usage, total
}

// TestOrderMatchesPairwiseReference: on random queues (randomQueue), Order
// is element for element what the pairwise comparator produces.
func TestOrderMatchesPairwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 500; trial++ {
		s, held, usage, total := randomQueue(t, rng)
		input := append([]Held(nil), held...)
		got, want := s.Order(held, usage, total), orderPairwise(s, held, usage, total)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Order = %v\npairwise reference = %v", trial, got, want)
		}
		if len(held) > 0 && !reflect.DeepEqual(held, input) {
			t.Fatalf("trial %d: Order reordered its input", trial)
		}
	}
}

// TestRankCountsOrderPosition: on random queues (randomQueue), every held
// job's counted position is one more than its index in Order.
func TestRankCountsOrderPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		s, held, usage, total := randomQueue(t, rng)
		ordered := s.Order(held, usage, total)
		for ti, target := range held {
			r := s.Rank(target, usage, total)
			pos := 1
			for i, h := range held {
				if i != ti && r.Ahead(h, i < ti) {
					pos++
				}
			}
			if ordered[pos-1] != target {
				t.Fatalf("trial %d: %s counted at %d, Order has %s there\norder %v", trial, target.Job, pos,
					ordered[pos-1].Job, ordered)
			}
		}
	}
}

func TestBorrowGated(t *testing.T) {
	s := mustNew(t,
		QueueConfig{Name: "a", Quota: 0.5},
		QueueConfig{Name: "b", Quota: 0.5},
	)
	held := []Held{{Job: "a1", Queue: "a"}}
	if !s.BorrowGated("b", held, Usage{"a": 0, "b": 2}, 4) {
		t.Fatal("b should be gated while a waits under quota")
	}
	if s.BorrowGated("b", held, Usage{"a": 2, "b": 2}, 4) {
		t.Fatal("b gated although a is at quota")
	}
	if s.BorrowGated("a", held, Usage{"a": 0, "b": 2}, 4) {
		t.Fatal("a gated by its own held job")
	}
}

// TestBorrowGatedMatchesHeldWalk: asking the queues first changes no
// answer. On random queues (randomQueue) the gate is what the walk over the
// held jobs alone finds.
func TestBorrowGatedMatchesHeldWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 500; trial++ {
		s, held, usage, total := randomQueue(t, rng)
		for _, queue := range append(s.Names(), "unconfigured") {
			want := false
			for _, h := range held {
				if h.Queue != queue && usage[h.Queue] < s.QuotaWorkers(h.Queue, total) {
					want = true
				}
			}
			if got := s.BorrowGated(queue, held, usage, total); got != want {
				t.Fatalf("trial %d: BorrowGated(%s) = %v, held walk %v", trial, queue, got, want)
			}
		}
	}
}

func TestVictimsPriorityThenRecency(t *testing.T) {
	s := mustNew(t,
		QueueConfig{Name: "a", Quota: 0.5},
		QueueConfig{Name: "b", Quota: 0.5},
	)
	running := []Running{
		{Job: "b-old", Queue: "b", Priority: 0, StartSeq: 1, Workers: 1},
		{Job: "b-new", Queue: "b", Priority: 0, StartSeq: 3, Workers: 1},
		{Job: "b-vip", Queue: "b", Priority: 9, StartSeq: 2, Workers: 1},
	}
	usage := Usage{"b": 3}
	got := s.Victims("a", 1, running, usage, 4)
	if len(got) != 1 || got[0].Job != "b-new" {
		t.Fatalf("victims = %v, want [b-new] (lowest priority, most recent)", got)
	}
	// Need 2: b-new then b-old (recency within equal priority), the VIP
	// survives because quota (2 of 4) floors the queue... b usage 3,
	// quota 2: only 1 worker is reclaimable, so need 2 returns nil.
	if got := s.Victims("a", 2, running, usage, 4); got != nil {
		t.Fatalf("victims over the quota floor = %v, want nil", got)
	}
}

func TestVictimsNeverDigBelowQuota(t *testing.T) {
	s := mustNew(t,
		QueueConfig{Name: "a", Quota: 0.25},
		QueueConfig{Name: "b", Quota: 0.75},
	)
	running := []Running{{Job: "b1", Queue: "b", StartSeq: 1, Workers: 3}}
	// b holds exactly its quota (3 of 4): nothing to reclaim.
	if got := s.Victims("a", 1, running, Usage{"b": 3}, 4); got != nil {
		t.Fatalf("victims = %v, want nil (b at quota)", got)
	}
	// b borrowed one extra worker: its 4-worker job is still not
	// eligible, because preempting it would land b at 0 < 3.
	running[0].Workers = 4
	if got := s.Victims("a", 1, running, Usage{"b": 4}, 4); got != nil {
		t.Fatalf("victims = %v, want nil (whole-job preemption digs below quota)", got)
	}
}

func TestVictimsExcludeBeneficiaryQueue(t *testing.T) {
	s := mustNew(t, QueueConfig{Name: "a", Quota: 0.5}, QueueConfig{Name: "b", Quota: 0.5})
	running := []Running{{Job: "a1", Queue: "a", StartSeq: 1, Workers: 4}}
	if got := s.Victims("a", 1, running, Usage{"a": 4}, 4); got != nil {
		t.Fatalf("victims = %v, want nil (own queue excluded)", got)
	}
}

func TestParseConfigs(t *testing.T) {
	cfgs, err := ParseConfigs("tenantA:weight=7,quota=0.7;tenantB:weight=3,quota=0.3;sub:parent=tenantA,oqw=2")
	if err != nil {
		t.Fatal(err)
	}
	want := []QueueConfig{
		{Name: "tenantA", Weight: 7, Quota: 0.7},
		{Name: "tenantB", Weight: 3, Quota: 0.3},
		{Name: "sub", Parent: "tenantA", OverQuotaWeight: 2},
	}
	if !reflect.DeepEqual(cfgs, want) {
		t.Fatalf("parsed %+v, want %+v", cfgs, want)
	}
	if _, err := New(cfgs...); err != nil {
		t.Fatalf("parsed configs rejected: %v", err)
	}
	if _, err := ParseConfigs("a:frob=1"); err == nil {
		t.Error("unknown key accepted")
	}
	if _, err := ParseConfigs("a:weight"); err == nil {
		t.Error("missing value accepted")
	}
	if cfgs, err := ParseConfigs("  "); err != nil || cfgs != nil {
		t.Errorf("blank spec = %v, %v", cfgs, err)
	}
}
