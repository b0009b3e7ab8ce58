package ps

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"harmony/internal/metrics"
	"harmony/internal/rpc"
	"harmony/internal/touched"
)

// sameBits fails unless got and want hold the same IEEE-754 bit patterns.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: elem %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// replyCounts is how the pulls since the last call were answered.
type replyCounts struct{ full, delta, same int64 }

func pullReplies(since *metrics.CommSnapshot) replyCounts {
	now := metrics.Comm.Snapshot()
	d := replyCounts{now.FullReplies - since.FullReplies, now.DeltaReplies - since.DeltaReplies,
		now.NotModifiedReplies - since.NotModifiedReplies}
	*since = now
	return d
}

// propertyValue draws delta and model values that make sign and rounding
// bugs visible: negative zero, values that cancel, and irrational-ish
// magnitudes next to small integers.
func propertyValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 1
	case 2:
		return -1
	case 3:
		return rng.NormFloat64() * 1e-3
	default:
		return rng.NormFloat64()
	}
}

// TestDeltaSyncProperty is the proof behind "a cursor can only ever cost
// a full reply": two clients with mirrors run random interleavings of
// sparse, dense and touched-set pushes, restores (an Init of the values
// the servers hold: a new incarnation of the same state), re-inits with
// new values, and clients replaced by fresh ones that never called Init,
// each skipping syncs at random so the gaps vary.
// After every step each mirror that syncs must equal a plain pull bit
// for bit, and the pull must equal the dense control — a plain
// `control[i] += delta[i]` over every element of every push, zeros
// included, which is what the dense-only data plane did — under ==. The
// comparison with the control is == rather than bit-for-bit for one
// reason: a +0 delta element is not sent, so a -0 on the server keeps
// its sign where the dense add would have produced -0 + +0 = +0.
func TestDeltaSyncProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { deltaSyncProperty(t, seed, 160) })
	}
}

func deltaSyncProperty(t *testing.T, seed int64, steps int) {
	const (
		job  = "job"
		size = 4*160 - 23 // on 4 servers: stripes of 155, a ragged tail of 152, change-log budget 9
	)
	rng := rand.New(rand.NewSource(seed))
	_, addrs := startServers(t, 4)
	clients := []*Client{newClient(t, addrs), newClient(t, addrs)}
	mirrors := []*Mirror{NewMirror(job, size), NewMirror(job, size)}
	randomModel := func() []float64 {
		m := make([]float64, size)
		for i := range m {
			m[i] = propertyValue(rng)
		}
		return m
	}
	control := randomModel()
	if err := clients[0].Init(job, control); err != nil {
		t.Fatal(err)
	}
	control = append([]float64(nil), control...)
	seen := metrics.Comm.Snapshot()
	var total replyCounts

	for step := 0; step < steps; step++ {
		ci := rng.Intn(2)
		c := clients[ci]
		var what string
		switch op := rng.Intn(11); {
		case op < 4: // sparse push: a few elements, some stripes untouched
			what = "sparse push"
			delta := make([]float64, size)
			for k := rng.Intn(14); k >= 0; k-- {
				delta[rng.Intn(size)] = propertyValue(rng)
			}
			if err := c.Push(job, delta); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			for i, d := range delta {
				control[i] += d
			}
		case op < 6: // dense push
			what = "dense push"
			delta := randomModel()
			if err := c.Push(job, delta); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			for i, d := range delta {
				control[i] += d
			}
		case op < 8: // touched-set push: a run of elements, some left +0
			what = "touched push"
			delta := make([]float64, size)
			var list touched.List
			lo := rng.Intn(size)
			end := min(lo+1+rng.Intn(40), size)
			for e := lo; e < end; e++ {
				if rng.Intn(4) > 0 {
					delta[e] = propertyValue(rng)
				}
				list.Add(uint32(e))
			}
			if err := c.PushTouched(job, delta, list.Take(size)); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			for i, d := range delta {
				control[i] += d
			}
		case op == 8: // restore: the same values, every stripe a new incarnation
			what = "restore"
			held, err := pull(c, job, size)
			if err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
			if err := c.Init(job, held); err != nil {
				t.Fatalf("step %d %s: %v", step, what, err)
			}
		case op == 9: // re-init: new values, every stripe a new incarnation
			what = "re-init"
			control = randomModel()
			if err := c.Init(job, control); err != nil {
				t.Fatalf("step %d re-init: %v", step, err)
			}
			control = append([]float64(nil), control...)
		default: // a fresh client that never called Init takes over the mirror
			what = "fresh client"
			clients[ci] = newClient(t, addrs)
		}

		snap, err := pull(clients[0], job, size)
		if err != nil {
			t.Fatalf("step %d pull after %s: %v", step, what, err)
		}
		for i := range control {
			if snap[i] != control[i] {
				t.Fatalf("step %d after %s: server elem %d = %v, dense control %v", step, what, i, snap[i], control[i])
			}
		}
		pullReplies(&seen) // the plain pull's own full replies are not the mirrors'
		for i, m := range mirrors {
			if step < steps-1 && rng.Intn(3) == 0 {
				continue // skip: the next sync spans several pushes
			}
			if err := clients[i].Sync(m); err != nil {
				t.Fatalf("step %d sync client %d after %s: %v", step, i, what, err)
			}
			sameBits(t, fmt.Sprintf("step %d after %s: mirror %d vs plain pull", step, what, i), m.Values(), snap)
		}
		d := pullReplies(&seen)
		total.full += d.full
		total.delta += d.delta
		total.same += d.same
	}
	t.Logf("mirror syncs were answered: %d full, %d delta, %d not-modified stripes", total.full, total.delta, total.same)
	if total.full == 0 || total.delta == 0 || total.same == 0 {
		t.Fatalf("property run did not see all three answers: %+v", total)
	}
}

// TestDeltaSyncUnderLoad is the concurrent half of the proof: four
// workers, each with its own client and mirror, sync and push sparse +1s
// at once — so delta replies are cut from a stripe's change log while
// other pushes are appending to it — in rounds, and between rounds the
// job is checkpointed and restored as §IV-B4 does it (pause, pull, Init
// the same values), so cursors meet stripes that are a new incarnation.
// Integer increments sum exactly in any order, so once the load stops
// every mirror must equal the final snapshot bit for bit, and the
// snapshot must equal the tally of what was pushed. Run under -race.
func TestDeltaSyncUnderLoad(t *testing.T) {
	const (
		job     = "job"
		size    = 1536 // on 2 servers: 2 stripes of 768, change-log budget 48
		stripes = 2
		workers = 4
		rounds  = 3
		iters   = 20 // per round
	)
	_, addrs := startServers(t, 2)
	boot := newClient(t, addrs)
	if err := boot.Init(job, make([]float64, size)); err != nil {
		t.Fatal(err)
	}
	seen := metrics.Comm.Snapshot()
	tally := make([]atomic.Int64, size)
	mirrors := make([]*Mirror, workers)
	clients := make([]*Client, workers)
	rngs := make([]*rand.Rand, workers)
	for w := range clients {
		clients[w] = newClient(t, addrs)
		mirrors[w] = NewMirror(job, size)
		rngs[w] = rand.New(rand.NewSource(int64(w)))
	}
	for round := 0; round < rounds && !t.Failed(); round++ {
		if round > 0 {
			held, err := pull(boot, job, size)
			if err != nil {
				t.Fatal(err)
			}
			if err := boot.Init(job, held); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				delta := make([]float64, size)
				for it := 0; it < iters; it++ {
					if err := clients[w].Sync(mirrors[w]); err != nil {
						t.Errorf("worker %d round %d iter %d sync: %v", w, round, it, err)
						return
					}
					for i := range delta {
						delta[i] = 0
					}
					for k := 0; k < 8; k++ {
						e := rngs[w].Intn(size)
						delta[e]++
						tally[e].Add(1)
					}
					if err := clients[w].Push(job, delta); err != nil {
						t.Errorf("worker %d round %d iter %d push: %v", w, round, it, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	if t.Failed() {
		return
	}
	if got := pullReplies(&seen); got.delta == 0 || got.full < int64(rounds*workers*stripes) {
		t.Fatalf("load was answered %+v: want deltas, and a full reply per stripe and mirror after each restore", got)
	}
	snap, err := pull(boot, job, size)
	if err != nil {
		t.Fatal(err)
	}
	for e := range tally {
		if snap[e] != float64(tally[e].Load()) {
			t.Fatalf("elem %d = %v, want %d (push lost or double-applied)", e, snap[e], tally[e].Load())
		}
	}
	for w, m := range mirrors {
		if err := clients[w].Sync(m); err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("mirror %d vs snapshot", w), m.Values(), snap)
	}
}

// deltaRig is one client pushing and another syncing a mirror of a
// 4-stripe model on four servers, for the fallback cases below.
type deltaRig struct {
	addrs  []string
	pusher *Client
	syncer *Client
	mirror *Mirror
	size   int
	seen   metrics.CommSnapshot
}

const rigStripeElems = 64 // change-log budget: 4 records per stripe

func newDeltaRig(t *testing.T) *deltaRig {
	t.Helper()
	r := &deltaRig{size: 4 * rigStripeElems} // one stripe per server
	_, r.addrs = startServers(t, 4)
	r.pusher, r.syncer = newClient(t, r.addrs), newClient(t, r.addrs)
	if err := r.pusher.Init("job", seqModel(r.size)); err != nil {
		t.Fatal(err)
	}
	r.mirror = NewMirror("job", r.size)
	r.sync(t)
	return r
}

// sync syncs the mirror, checks it against a plain pull bit for bit and
// returns how its stripes were answered.
func (r *deltaRig) sync(t *testing.T) replyCounts {
	t.Helper()
	r.seen = metrics.Comm.Snapshot()
	if err := r.syncer.Sync(r.mirror); err != nil {
		t.Fatal(err)
	}
	got := pullReplies(&r.seen)
	snap, err := pull(r.pusher, "job", r.size)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "mirror vs snapshot", r.mirror.Values(), snap)
	return got
}

// pushAt pushes +1 to the given elements in one push.
func (r *deltaRig) pushAt(t *testing.T, elems ...int) {
	t.Helper()
	delta := make([]float64, r.size)
	for _, e := range elems {
		delta[e] = 1
	}
	if err := r.pusher.Push("job", delta); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaSteadyState(t *testing.T) {
	r := newDeltaRig(t)
	if got := r.sync(t); got != (replyCounts{same: 4}) {
		t.Fatalf("idle sync = %+v, want 4 not-modified", got)
	}
	r.pushAt(t, 3, 70) // stripes 0 and 1
	r.pushAt(t, 3)     // stripe 0 again: the delta repeats element 3
	if got := r.sync(t); got != (replyCounts{delta: 2, same: 2}) {
		t.Fatalf("sync after two sparse pushes = %+v, want 2 delta + 2 not-modified", got)
	}
}

func TestDeltaLogOverflowFallsBackToFull(t *testing.T) {
	r := newDeltaRig(t)
	// One push over the stripe's budget of 4 records is logged as
	// "everything changed".
	r.pushAt(t, 0, 1, 2, 3, 4)
	if got := r.sync(t); got != (replyCounts{full: 1, same: 3}) {
		t.Fatalf("sync after an over-budget push = %+v, want 1 full + 3 not-modified", got)
	}
	// Five one-element pushes wrap the 4-record ring: the oldest is gone,
	// so a cursor from before it cannot be served from the log.
	for e := 0; e < 5; e++ {
		r.pushAt(t, 64+e)
	}
	if got := r.sync(t); got != (replyCounts{full: 1, same: 3}) {
		t.Fatalf("sync after the ring wrapped = %+v, want 1 full + 3 not-modified", got)
	}
	// Four fit exactly.
	for e := 0; e < 4; e++ {
		r.pushAt(t, 128+e)
	}
	if got := r.sync(t); got != (replyCounts{delta: 1, same: 3}) {
		t.Fatalf("sync after four logged pushes = %+v, want 1 delta + 3 not-modified", got)
	}
	// A dense push logs "everything" too.
	dense := make([]float64, r.size)
	for i := range dense {
		dense[i] = 0.5
	}
	if err := r.pusher.Push("job", dense); err != nil {
		t.Fatal(err)
	}
	if got := r.sync(t); got != (replyCounts{full: 4}) {
		t.Fatalf("sync after a dense push = %+v, want 4 full", got)
	}
}

func TestDeltaOlderIncarnationFallsBackToFull(t *testing.T) {
	r := newDeltaRig(t)
	// Re-init with different values. Every stripe restarts at the version the
	// mirror's cursors already name, so only the epoch tells the two
	// incarnations apart: "not modified" here would leave the mirror on
	// the old values.
	restored := make([]float64, r.size)
	for i := range restored {
		restored[i] = -float64(i)
	}
	if err := r.pusher.Init("job", restored); err != nil {
		t.Fatal(err)
	}
	if got := r.sync(t); got != (replyCounts{full: 4}) {
		t.Fatalf("sync after re-init = %+v, want 4 full", got)
	}
	// A restore re-Inits the very values the mirror holds (checkpoint and
	// resume, §IV-B4): still a new incarnation, so one full reply per
	// stripe, and deltas again afterwards.
	if err := r.pusher.Init("job", append([]float64(nil), r.mirror.Values()...)); err != nil {
		t.Fatal(err)
	}
	if got := r.sync(t); got != (replyCounts{full: 4}) {
		t.Fatalf("sync after a restore = %+v, want 4 full", got)
	}
	r.pushAt(t, 2*rigStripeElems)
	if got := r.sync(t); got != (replyCounts{delta: 1, same: 3}) {
		t.Fatalf("second sync after a restore = %+v, want 1 delta + 3 not-modified", got)
	}
}

// TestPushEntryEncoding pins the "fewer bytes" rule, including the two
// segments whose head misleads the encoder's first guess.
func TestPushEntryEncoding(t *testing.T) {
	const n = 300
	fill := func(from, to int) []float64 {
		seg := make([]float64, n)
		for i := from; i < to; i++ {
			seg[i] = 1.5
		}
		return seg
	}
	negZero := make([]float64, n)
	negZero[7] = math.Copysign(0, -1)
	tests := []struct {
		name string
		seg  []float64
		enc  int // -1: not sent
		nnz  int
	}{
		{"all +0", make([]float64, n), -1, 0},
		{"-0 travels", negZero, encSparse, 1},
		{"one element", fill(10, 11), encSparse, 1},
		{"just under two thirds", fill(0, 199), encSparse, 199},
		{"exactly two thirds", fill(0, 200), encDense, 0},
		{"dense head, sparse overall", fill(0, 100), encSparse, 100},
		{"sparse head, dense overall", fill(80, 300), encDense, 0},
		{"full", fill(0, n), encDense, 0},
	}
	for _, tt := range tests {
		body, sent := appendPushEntry(nil, 5, 1000, tt.seg, touched.Set{}, 0)
		if tt.enc < 0 {
			if sent || len(body) != 0 {
				t.Errorf("%s: sent %d bytes, want nothing", tt.name, len(body))
			}
			continue
		}
		if !sent {
			t.Errorf("%s: not sent", tt.name)
			continue
		}
		e, rest, err := readPushEntry(body)
		if err != nil || len(rest) != 0 {
			t.Errorf("%s: does not parse back: %v, %d trailing bytes", tt.name, err, len(rest))
			continue
		}
		if int(e.enc) != tt.enc || e.idx != 5 || e.lo != 1000 {
			t.Errorf("%s: enc %d idx %d lo %d, want enc %d idx 5 lo 1000", tt.name, e.enc, e.idx, e.lo, tt.enc)
			continue
		}
		got := make([]float64, n)
		if e.enc == encDense {
			if e.n != n {
				t.Errorf("%s: dense entry of %d elements, want %d", tt.name, e.n, n)
				continue
			}
			for k := range got {
				got[k] = rpc.FloatAt(e.data, k)
			}
		} else {
			if e.n != tt.nnz {
				t.Errorf("%s: %d pairs, want %d", tt.name, e.n, tt.nnz)
			}
			for k := 0; k < e.n; k++ {
				off, v := sparseAt(e.data, k)
				got[off] = v
			}
		}
		sameBits(t, tt.name, got, tt.seg)
		if dense, sparse := rpc.FloatsLen(n), 4+sparseRec*tt.nnz; e.enc == encSparse && sparse >= dense {
			t.Errorf("%s: sparse form (%d bytes) sent although dense is %d", tt.name, sparse, dense)
		}
	}
}

// TestPushEntryByTouchedSet: walking a touched set must build the entry the
// scan builds, byte for byte, whatever else the set names. Each round lays
// runs of non-zeros over a 64-stripe model — a single element, the two
// lengths either side of the 12·nnz ≥ 8·n dense flip, runs that straddle a
// stripe boundary — plus touched elements whose delta is +0, and encodes
// every stripe both ways.
func TestPushEntryByTouchedSet(t *testing.T) {
	const stripe, stripes = 99, 64 // 99: sparse up to 65 non-zeros, dense from 66
	rng := rand.New(rand.NewSource(3))
	flips := 0
	for round := 0; round < 300; round++ {
		delta := make([]float64, stripe*stripes)
		var list touched.List
		for k := 0; k < 4; k++ {
			run := []int{1, 3, 65, 66, 90}[rng.Intn(5)]
			from := rng.Intn(stripes) * stripe
			if rng.Intn(3) == 0 {
				from += rng.Intn(stripe) // may run over into the next stripe
			}
			for i := from; i < from+run && i < len(delta); i++ {
				delta[i] = propertyValue(rng)
				list.Add(uint32(i))
			}
		}
		for k := 0; k < 16; k++ {
			list.Add(uint32(rng.Intn(len(delta)))) // touched, most of them +0
		}
		set := list.Take(len(delta))
		if set.All() {
			t.Fatal("the test's set outgrew the sparse budget")
		}
		for s := 0; s < stripes; s++ {
			seg := delta[s*stripe : (s+1)*stripe]
			scan, sentScan := appendPushEntry(nil, s, s*stripe, seg, touched.Set{}, 0)
			walk, sentWalk := appendPushEntry(nil, s, s*stripe, seg, set, s*stripe)
			if sentScan != sentWalk || string(scan) != string(walk) {
				t.Fatalf("round %d stripe %d: by touched set %d bytes (sent %v), by scan %d bytes (sent %v)",
					round, s, len(walk), sentWalk, len(scan), sentScan)
			}
			if sentScan && scan[8] == encDense && countNonZero(seg) < stripe {
				flips++
			}
		}
	}
	if flips == 0 {
		t.Error("no stripe took the dense flip")
	}
}

// TestMirrorChanged: whatever a Sync rewrites is in the next Changed — as
// the named elements after delta replies, as All after the first pull, a
// full stripe or a failed Sync — and the record restarts with every call.
func TestMirrorChanged(t *testing.T) {
	r := newDeltaRig(t) // 4 stripes of 64: the sparse budget is 256/16 = 16 elements
	if !r.mirror.Changed().All() {
		t.Fatal("after the first pull everything has changed")
	}
	if set := r.mirror.Changed(); set.All() || len(set.Indices()) != 0 {
		t.Fatalf("nothing synced since the last call, got all=%v %v", set.All(), set.Indices())
	}
	r.pushAt(t, 70, 3, 200)
	r.pushAt(t, 3)
	r.sync(t)
	if set := r.mirror.Changed(); set.All() || fmt.Sprint(set.Indices()) != "[3 70 200]" {
		t.Fatalf("after delta replies for 3, 70 and 200: all=%v %v", set.All(), set.Indices())
	}
	r.pushAt(t, 5)
	r.sync(t)
	r.pushAt(t, 130)
	r.sync(t)
	if set := r.mirror.Changed(); set.All() || fmt.Sprint(set.Indices()) != "[5 130]" {
		t.Fatalf("two syncs since the last call: all=%v %v", set.All(), set.Indices())
	}
	r.pushAt(t, 0, 1, 2, 3, 4) // over stripe 0's log budget of 4: answered in full
	r.sync(t)
	if !r.mirror.Changed().All() {
		t.Fatal("a full stripe reply must make Changed All")
	}
	r.mirror.forget() // what a failed Sync does
	if !r.mirror.Changed().All() {
		t.Fatal("a failed Sync must make Changed All")
	}
}

// TestDeltaSyncServerRestart: a server stops and comes back empty on the
// same address between a delta Sync and the next Push, and its stripe is
// initialized again with other values at the very version number the
// mirrors hold cursors for — only the epoch tells the incarnations apart.
// The pusher's next Push fails on the dead connection (a PS client does
// not redial); a worker mirror and a checkpoint mirror, each handed to a
// fresh client, must be answered in full for exactly the restarted
// server's stripe and end up equal to a plain pull bit for bit.
func TestDeltaSyncServerRestart(t *testing.T) {
	const job, stripeElems, size = "job", 128, 2 * 128 // one stripe per server
	listen := func(addr string) (*rpc.Server, *Server, string) {
		srv, server := rpc.NewServer(), NewServer()
		server.Register(srv)
		bound, err := srv.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close(); server.Close() })
		return srv, server, bound
	}
	_, _, addr0 := listen("127.0.0.1:0")
	srv1, server1, addr1 := listen("127.0.0.1:0")
	addrs := []string{addr0, addr1}
	pusher := newClient(t, addrs)
	if err := pusher.Init(job, seqModel(size)); err != nil {
		t.Fatal(err)
	}
	mirrors := map[string]*Mirror{"worker": NewMirror(job, size), "checkpoint": NewMirror(job, size)}
	delta := make([]float64, size)
	for _, e := range []int{1, 65, 130, 200} {
		delta[e] = 1
	}
	seen := metrics.Comm.Snapshot()
	for round := 0; round < 2; round++ { // first pulls, then a push and delta replies
		for name, m := range mirrors {
			if err := pusher.Sync(m); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if got := pullReplies(&seen); round == 1 && (got.delta != 4 || got.full != 0) {
			t.Fatalf("before the restart the mirrors were answered %+v, want 4 deltas", got)
		}
		if err := pusher.Push(job, delta); err != nil {
			t.Fatal(err)
		}
	}

	// Server 1 held stripe 1. Restart it, and initialize the stripe at the
	// version the mirrors hold (init is 1, one push applied: 2) with values
	// no push produced.
	srv1.Close()
	server1.Close()
	_, fresh, _ := listen(addr1)
	other := make([]float64, stripeElems)
	for i := range other {
		other[i] = -float64(i) - 0.5
	}
	if v := mirrors["worker"].cur[1].version; v != 2 {
		t.Fatalf("stripe 1 is held at version %d, the test assumes 2", v)
	}
	body := rpc.AppendString(nil, job)
	body = rpc.AppendUint32(body, 1)
	body = appendStripeFrame(body, 1, stripeElems, 2, other)
	if _, err := fresh.handleInit(body); err != nil {
		t.Fatal(err)
	}
	if err := pusher.Push(job, delta); err == nil {
		t.Fatal("a push over the restarted server's old connection succeeded")
	}

	snapper := newClient(t, addrs)
	for name, m := range mirrors {
		c := newClient(t, addrs)
		if err := c.Push(job, delta); err != nil {
			t.Fatalf("%s: push after the restart: %v", name, err)
		}
		seen = metrics.Comm.Snapshot()
		if err := c.Sync(m); err != nil {
			t.Fatalf("%s: sync after the restart: %v", name, err)
		}
		if got := pullReplies(&seen); got.full != 1 || got.delta != 1 {
			t.Errorf("%s: answered %+v after the restart, want 1 full stripe and 1 delta", name, got)
		}
		if !m.Changed().All() {
			t.Errorf("%s: full replies must make Changed All", name)
		}
		snap, err := pull(snapper, job, size)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, name+" mirror vs snapshot", m.Values(), snap)
		if m.Values()[130] != other[2]+1 && m.Values()[130] != other[2]+2 {
			t.Errorf("%s: element 130 is %v, not the re-initialized value plus the pushes since", name, m.Values()[130])
		}
	}
}

// pushFuzzServer holds job "job" as one 64-element stripe (log
// budget 4), directly initialized.
func pushFuzzServer(tb testing.TB) (*Server, *stripeBlock) {
	tb.Helper()
	s := NewServer()
	body := rpc.AppendString(nil, "job")
	body = rpc.AppendUint32(body, 1)
	body = appendStripeFrame(body, 0, 128, 1, seqModel(64))
	if _, err := s.handleInit(body); err != nil {
		tb.Fatal(err)
	}
	return s, s.lookup("job")[0]
}

// pushBody frames a push request of pre-encoded entries.
func pushBody(entries ...[]byte) []byte {
	body := rpc.AppendString(nil, "job")
	body = rpc.AppendUint32(body, uint32(len(entries)))
	for _, e := range entries {
		body = append(body, e...)
	}
	return body
}

// sparseEntry hand-encodes a sparse push entry, valid or not.
func sparseEntry(idx, lo uint32, nnz uint32, offs ...uint32) []byte {
	e := rpc.AppendUint32(nil, idx)
	e = rpc.AppendUint32(e, lo)
	e = append(e, encSparse)
	e = rpc.AppendUint32(e, nnz)
	for _, off := range offs {
		e = rpc.AppendUint32(e, off)
		e = rpc.AppendUint64(e, math.Float64bits(1))
	}
	return e
}

func denseEntry(idx, lo uint32, vals ...float64) []byte {
	e := rpc.AppendUint32(nil, idx)
	e = rpc.AppendUint32(e, lo)
	e = append(e, encDense)
	return rpc.AppendFloats(e, vals)
}

// malformedPushes are requests the server must reject whole. Each pairs
// a valid first entry with a broken second one, so "rejected" has
// something it must not have applied.
func malformedPushes() map[string][]byte {
	ok := sparseEntry(0, 128, 2, 3, 9)
	return map[string][]byte{
		"offset beyond stripe":   pushBody(ok, sparseEntry(0, 128, 1, 64)),
		"entry below stripe":     pushBody(ok, sparseEntry(0, 100, 1, 0)),
		"dense beyond stripe":    pushBody(ok, denseEntry(0, 190, 1, 2, 3)),
		"nnz overflow":           pushBody(ok, sparseEntry(0, 128, math.MaxUint32, 1)),
		"nnz beyond body":        pushBody(ok, sparseEntry(0, 128, 3, 1, 2)),
		"unsorted offsets":       pushBody(ok, sparseEntry(0, 128, 2, 9, 3)),
		"duplicate offsets":      pushBody(ok, sparseEntry(0, 128, 2, 3, 3)),
		"unknown encoding":       pushBody(ok, append(sparseEntry(0, 128, 0)[:8], 7)),
		"entry count over body":  append(pushBody(ok)[:5], append([]byte{255, 255, 255, 255}, ok...)...),
		"truncated second entry": pushBody(ok, sparseEntry(0, 128, 1, 5)[:15]),
	}
}

func TestPushRejectedChangesNothing(t *testing.T) {
	for name, body := range malformedPushes() {
		s, st := pushFuzzServer(t)
		before := append([]float64(nil), st.vals...)
		if _, err := s.handlePush(body); err == nil {
			t.Errorf("%s: accepted", name)
		}
		sameBits(t, name, st.vals, before)
		if st.version != 1 || st.stats.pushOps.Load() != 0 {
			t.Errorf("%s: version %d, %d push ops after a rejected push", name, st.version, st.stats.pushOps.Load())
		}
	}
	// Every strict prefix of a valid two-entry request is rejected too.
	valid := pushBody(sparseEntry(0, 128, 2, 3, 9), denseEntry(0, 130, 1, 2))
	for n := 0; n < len(valid); n++ {
		s, st := pushFuzzServer(t)
		before := append([]float64(nil), st.vals...)
		if _, err := s.handlePush(valid[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(valid))
		}
		sameBits(t, "truncated push", st.vals, before)
	}
	s, st := pushFuzzServer(t)
	if _, err := s.handlePush(valid); err != nil {
		t.Fatalf("valid push rejected: %v", err)
	}
	if st.vals[2] != 2+1 || st.vals[3] != 3+1+2 || st.vals[9] != 9+1 || st.version != 3 {
		t.Fatalf("valid push misapplied: vals[2,3,9] = %v %v %v, version %d", st.vals[2], st.vals[3], st.vals[9], st.version)
	}
}

// FuzzPushEntry feeds arbitrary bytes to the push handler: it must never
// panic or read out of bounds, and a request it rejects must leave the
// stripe exactly as it was.
func FuzzPushEntry(f *testing.F) {
	f.Add(pushBody(sparseEntry(0, 128, 2, 3, 9), denseEntry(0, 130, 1, 2)))
	for _, body := range malformedPushes() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, st := pushFuzzServer(t)
		before := append([]float64(nil), st.vals...)
		if _, err := s.handlePush(data); err != nil {
			sameBits(t, "rejected push", st.vals, before)
			if st.version != 1 {
				t.Fatalf("rejected push left version %d", st.version)
			}
		}
	})
}

// deltaReply hand-encodes a one-stripe delta pull reply, valid or not.
func deltaReply(idx uint32, version uint64, nnz uint32, offs ...uint32) []byte {
	b := rpc.AppendUint32(nil, 1)
	b = rpc.AppendUint32(b, idx)
	b = append(b, stripeDelta)
	b = rpc.AppendUint64(b, version)
	b = rpc.AppendUint32(b, nnz)
	for _, off := range offs {
		b = rpc.AppendUint32(b, off)
		b = rpc.AppendUint64(b, math.Float64bits(-7))
	}
	return b
}

// fuzzLayout is a 16-element model of two 8-element stripes, and
// fuzzAsks the stripe ranges a pull of it can ask one server for.
var (
	fuzzLayout = layoutFor(16, 2)
	fuzzAsks   = [][2]int{{0, 1}, {1, 2}, {0, 2}}
)

// pullFuzzMirror is a buffer of fuzzLayout's model and its cursors: the
// first stripe held at version 3, the second not held.
func pullFuzzMirror() ([]float64, []stripeCursor) {
	return seqModel(16), []stripeCursor{{epoch: 11, version: 3}, {}}
}

// fullReply hand-encodes a one-stripe full pull reply.
func fullReply(idx, lo uint32, vals []float64) []byte {
	b := rpc.AppendUint32(nil, 1)
	b = rpc.AppendUint32(b, idx)
	b = append(b, stripeOK)
	b = rpc.AppendUint32(b, lo)
	b = rpc.AppendUint64(b, 42)
	b = rpc.AppendUint64(b, 6)
	return rpc.AppendFloats(b, vals)
}

func TestDeltaReplyRejectedChangesNothing(t *testing.T) {
	bad := map[string]struct {
		reply  []byte
		stripe int // the one stripe asked for
	}{
		"offset beyond stripe":     {deltaReply(0, 4, 1, 8), 0},
		"nnz overflow":             {deltaReply(0, 4, math.MaxUint32, 1), 0},
		"nnz beyond body":          {deltaReply(0, 4, 3, 1, 2), 0},
		"truncated":                {deltaReply(0, 4, 1, 5)[:20], 0},
		"delta without a cursor":   {deltaReply(1, 4, 1, 0), 1},
		"answers another stripe":   {deltaReply(9, 4, 1, 0), 0},
		"not-modified, no cursor":  {append(rpc.AppendUint32(rpc.AppendUint32(nil, 1), 1), stripeSame), 1},
		"unknown status":           {append(rpc.AppendUint32(rpc.AppendUint32(nil, 1), 0), 9), 0},
		"full stripe off layout":   {fullReply(1, 4, seqModel(8)), 1},
		"full stripe short":        {fullReply(1, 8, seqModel(7)), 1},
		"fewer stripes than asked": {append(rpc.AppendUint32(nil, 0), deltaReply(0, 4, 1, 5)[4:]...), 0},
	}
	for name, tt := range bad {
		dst, cur := pullFuzzMirror()
		if res := decodeStripesInto(tt.reply, fuzzLayout, tt.stripe, tt.stripe+1, dst, &Mirror{cur: cur}); res.err == nil {
			t.Errorf("%s: accepted", name)
		}
		sameBits(t, name, dst, seqModel(16))
		if cur[0] != (stripeCursor{epoch: 11, version: 3}) || cur[1] != (stripeCursor{}) {
			t.Errorf("%s: cursors moved to %+v", name, cur)
		}
	}
	// Unsorted and repeated offsets are fine in a reply: each names the
	// element's current value.
	dst, cur := pullFuzzMirror()
	if res := decodeStripesInto(deltaReply(0, 5, 3, 6, 2, 6), fuzzLayout, 0, 1, dst, &Mirror{cur: cur}); res.err != nil || res.delta != 1 {
		t.Fatalf("valid delta rejected: %+v", res)
	}
	if dst[6] != -7 || dst[2] != -7 || dst[3] != 3 || cur[0].version != 5 {
		t.Fatalf("valid delta misapplied: %v, cursor %+v", dst[:8], cur[0])
	}
}

// FuzzPullReply feeds arbitrary bytes to the pull-reply decoder: it must
// never panic or index outside the buffer, a reply it accepts answers
// every stripe asked for exactly once, and no reply writes an element of
// a stripe that was not asked for.
func FuzzPullReply(f *testing.F) {
	f.Add(deltaReply(0, 5, 3, 6, 2, 6))
	f.Add(deltaReply(0, 4, 1, 8))
	f.Add(deltaReply(0, 4, math.MaxUint32, 1))
	f.Add(deltaReply(1, 4, 1, 0))
	both := rpc.AppendUint32(nil, 2)
	both = rpc.AppendUint32(both, 0)
	both = append(both, stripeSame)
	both = append(both, fullReply(1, 8, seqModel(8))[4:]...)
	f.Add(both)
	f.Add(both[:len(both)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ask := range fuzzAsks {
			dst, cur := pullFuzzMirror()
			res := decodeStripesInto(data, fuzzLayout, ask[0], ask[1], dst, &Mirror{cur: cur})
			if res.err == nil && res.full+res.delta+res.same != int64(ask[1]-ask[0]) {
				t.Fatalf("asked stripes %v, an accepted reply answered %+v", ask, res)
			}
			lo, _ := fuzzLayout.span(ask[0])
			_, hi := fuzzLayout.span(ask[1] - 1)
			want := seqModel(16)
			sameBits(t, fmt.Sprintf("elements outside the stripes %v asked", ask),
				append(dst[:lo:lo], dst[hi:]...), append(want[:lo:lo], want[hi:]...))
		}
	})
}

// FuzzMirrorChanged feeds arbitrary reply bytes to the decoder of a mirror
// that holds stripe 0 (elements 0-7 of 256) and nothing of stripe 1. What
// Changed reports must cover every element whose bits moved and name only
// elements of a held stripe; and a reply rejected before any stripe was
// applied must leave values, cursors and the record as they were.
func FuzzMirrorChanged(f *testing.F) {
	f.Add(deltaReply(0, 5, 3, 6, 2, 6))
	f.Add(deltaReply(0, 4, 1, 8))
	f.Add(deltaReply(1, 4, 1, 0))
	f.Add(append(deltaReply(0, 5, 1, 7)[:4], deltaReply(0, 4, math.MaxUint32, 1)[4:]...))
	f.Add(fullReply(1, 8, seqModel(8)))
	l := layoutFor(256, 32) // 8-element stripes
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, ask := range fuzzAsks {
			before := seqModel(256)
			m := &Mirror{vals: seqModel(256), cur: []stripeCursor{{epoch: 11, version: 3}, {}}}
			res := decodeStripesInto(data, l, ask[0], ask[1], m.vals, m)
			held := m.cur[0]
			set := m.Changed()
			if res.err != nil && res.full+res.delta == 0 {
				sameBits(t, "rejected reply", m.vals, before)
				if held != (stripeCursor{epoch: 11, version: 3}) || m.cur[1] != (stripeCursor{}) ||
					set.All() || len(set.Indices()) != 0 {
					t.Fatalf("a rejected reply left cursors %+v and changed set all=%v %v", m.cur, set.All(), set.Indices())
				}
			}
			if set.All() {
				continue
			}
			next := set.Indices()
			for i := range m.vals {
				if len(next) > 0 && int(next[0]) == i {
					if next = next[1:]; i >= 8 {
						t.Fatalf("changed set names %d, outside the held stripe", i)
					}
				} else if math.Float64bits(m.vals[i]) != math.Float64bits(before[i]) {
					t.Fatalf("element %d was rewritten (%v to %v) and is not in the changed set", i, before[i], m.vals[i])
				}
			}
			if len(next) > 0 {
				t.Fatalf("changed set names %d, beyond the buffer", next[0])
			}
		}
	})
}
