// Package ps implements the Parameter-Server architecture of §II-A: each
// server holds a partition of every job's model vector, and workers
// synchronize through the push/pull API. Servers are co-located with
// workers in the live runtime, exactly as the paper's deployment does.
//
// The pull/push path is the live runtime's hot loop (§IV-A: COMM
// subtasks keep the network busy while co-located COMP runs), so the
// data plane rides the binary float-frame codec of internal/rpc. The
// unit of placement is the stripe, not the partition: a job's model is
// carved into fixed-size stripes, each independently locked, counted
// (pull/push ops, bytes, lock-wait) and movable between servers while
// the job runs (DESIGN.md §12). On any one server a stripe is in one of
// two states: owned (serves pulls and pushes, keeps the change log) or
// moved (a forwarding tombstone left by a migration). Clients route per
// stripe and self-heal: an op that hits a migrated-away stripe gets a
// "moved" status, refreshes its route table and retries against the new
// owner. A server is passive: it starts no goroutine, and the only call it
// makes to a peer is a migration's single install.
//
// Wire layouts (all little-endian; "str" is a u16-length-prefixed
// string, "floats" a u32 count followed by raw IEEE-754 bit patterns):
//
//	init/install request:
//	  str job | u32 count | count × stripe-frame        reply: empty
//	  stripe-frame: u32 idx | u32 lo | u64 version | floats vals
//	pull request:
//	  str job | u32 count | count × (u32 idx | u64 epoch | u64 have)
//	pull reply:
//	  u32 count | count × (u32 idx | u8 status | ...)
//	    full:         u32 lo | u64 epoch | u64 version | floats vals
//	    moved:        str fwd
//	    not-modified: nothing
//	    delta:        u64 version | u32 nnz | nnz × (u32 off | f64 val)
//	push request:
//	  str job | u32 count | count × (u32 idx | u32 lo | u8 enc | ...)
//	    dense:  floats delta
//	    sparse: u32 nnz | nnz × (u32 off | f64 delta)
//	push reply:
//	  u32 nfail | nfail × (u32 idx | str fwd)
//
// Both directions move what changed. A push entry travels in whichever
// encoding is fewer bytes (sparse offsets count from the entry's lo and
// ascend strictly), and a stripe whose delta is all +0 is not sent. A
// pull names, per stripe, the (epoch, version) its caller already holds —
// have 0 means "nothing", which is all PullInto and PullRange ever send —
// and the server answers not-modified, a delta (the current
// values of the elements pushed since, offsets counting from the
// stripe's lo, in any order, repeats allowed) or the full stripe. The
// epoch is the stripe block's incarnation: a fresh random 64-bit value
// whenever the block's values are installed rather than pushed to (init,
// migration), so a cursor taken before either can only match by a 2^-64
// accident and is otherwise answered in full, as is a cursor the bounded
// change log no longer reaches. There is no density or log-depth setting:
// the push rule is "fewer bytes", and the log is a fixed 1/8 of the
// stripe's own bytes (delta.go).
//
// "fwd" is the forwarding hint of a migrated-away stripe — the address
// its handoff went to, empty when the stripe was never installed here.
// Clients retry a hinted stripe directly at the forward target
// instead of re-scraping routes, so an op can chase a stripe through
// back-to-back migrations without losing the race to the next move.
//
// init replaces a job's whole partition on the receiving server; install
// (the migration handoff) merges stripes into it. Control-plane methods
// (drop, routes, stats, migrate) stay gob.
package ps

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"harmony/internal/metrics"
	"harmony/internal/rpc"
)

// Method names registered on the RPC server.
const (
	MethodInit = "ps.init"
	MethodPull = "ps.pull"
	MethodPush = "ps.push"
	MethodDrop = "ps.drop"
	// MethodInstall merges handoff stripe-frames into a job's partition:
	// the receiving end of migration.
	MethodInstall = "ps.install"
	// MethodRoutes reports which stripes of a job this server holds.
	MethodRoutes = "ps.routes"
	// MethodStats reports per-stripe load counters for every job.
	MethodStats = "ps.stats"
	// MethodMigrate fences one stripe and hands it to another server.
	MethodMigrate = "ps.migrateOut"
)

// Per-stripe status bytes in pull replies.
const (
	stripeOK    = 0 // the full stripe follows
	stripeMoved = 1 // not owned here (migrated away or never installed)
	stripeSame  = 2 // not modified since the caller's cursor
	stripeDelta = 3 // the elements pushed since the caller's cursor follow
)

// Ack is an empty success reply.
type Ack struct{}

// DropArgs removes a job's partition (after completion or migration).
type DropArgs struct {
	Job string
}

// RoutesArgs asks a server which stripes of a job it holds.
type RoutesArgs struct {
	Job string
}

// StripeRoute locates one stripe on the replying server.
type StripeRoute struct {
	Index int
	Lo    int
	Len   int
}

// RoutesReply lists the job's stripes held by the replying server.
type RoutesReply struct {
	Stripes []StripeRoute
}

// MigrateArgs fences a stripe on the receiving server and hands its
// state to Dest bit-exactly (the §IV-B4 idea applied per stripe: the
// fence is the pause, the install frame the checkpoint).
type MigrateArgs struct {
	Job    string
	Stripe int
	Dest   string
}

// StatsArgs requests per-stripe load counters.
type StatsArgs struct{}

// StripeSize is the default number of float64 elements per stripe
// (256 KiB of parameters). Small enough that co-located jobs' pushes and
// a snapshot's streaming pull interleave — and that a single hot stripe
// is a meaningful unit to migrate — large enough that lock and header
// traffic is negligible against the arithmetic.
const StripeSize = 32 * 1024

// stripeElemsFor picks the per-stripe element count for a model of n
// elements initialized across k servers: StripeSize, shrunk so that even
// a small model yields at least one stripe per server.
func stripeElemsFor(n, k int) int {
	se := StripeSize
	if k > 0 {
		if perServer := (n + k - 1) / k; perServer < se {
			se = perServer
		}
	}
	if se < 1 {
		se = 1
	}
	return se
}

// stripeCount is the number of stripes tiling n elements (always ≥ 1 so
// the degenerate empty model still registers a partition).
func stripeCount(n, se int) int {
	s := (n + se - 1) / se
	if s < 1 {
		s = 1
	}
	return s
}

// stripeStats are the per-stripe load counters behind MethodStats (the
// balancer's EWMA score, /metrics). Atomics: pulls bump them under a read
// lock.
type stripeStats struct {
	pullOps   atomic.Int64
	pushOps   atomic.Int64
	pullBytes atomic.Int64
	pushBytes atomic.Int64
	lockWait  atomic.Int64 // nanoseconds waiting for gate + stripe lock
}

// stripeBlock is one stripe of one job on one server: the unit of
// locking, accounting and migration.
type stripeBlock struct {
	mu   sync.RWMutex
	idx  int
	lo   int
	vals []float64
	// version counts mutations. Guarded by mu.
	version uint64
	// epoch names this incarnation of the block's values: drawn afresh
	// whenever they are installed rather than pushed to, so version
	// numbers of different incarnations are never compared. log records
	// what the pushes of this incarnation touched. Both guarded by mu.
	epoch uint64
	log   changeLog
	// moved tombstones a migrated-away stripe: ops that raced the fence
	// and acquired the lock after handoff observe it and report
	// stripeMoved instead of touching stale state. The tombstone stays in
	// the partition map (values freed) as the forwarding entry: movedTo
	// records where the handoff went, and replies carry it as a hint so
	// clients chase the stripe directly. Both guarded by mu.
	moved   bool
	movedTo string
	stats   stripeStats
}

// partition holds one job's stripe blocks on one server.
type partition struct {
	mu      sync.RWMutex
	stripes map[int]*stripeBlock
}

func newPartition() *partition {
	return &partition{stripes: make(map[int]*stripeBlock)}
}

func (p *partition) get(idx int) *stripeBlock {
	p.mu.RLock()
	st := p.stripes[idx]
	p.mu.RUnlock()
	return st
}

// Server hosts stripe blocks for any number of jobs. Register it on an
// rpc.Server with Register; Close releases the outbound handoff
// connections. The server-level lock only
// guards the partition map; all value access goes through per-stripe
// locks, so concurrent pushes from co-located jobs (different
// partitions) and from one job (different stripes) proceed in parallel.
type Server struct {
	mu    sync.RWMutex
	parts map[string]*partition

	// gate, when non-nil, bounds concurrent stripe service on this server
	// (SetServiceLimit). Wait time at the gate folds into the per-stripe
	// lock-wait measurement: both are time an op spent queued on this
	// server rather than being served.
	gate chan struct{}
	// serviceDelay, when set, is held per stripe op inside the gate: a
	// stand-in for per-server service capacity (NIC drain, PCIe copy) in
	// single-process harnesses where every server shares the host CPU and
	// real service cost would not distinguish placements.
	serviceDelay time.Duration
	// lockWait is the server-wide distribution of per-stripe-op wait
	// (gate + lock acquisition), exported through MethodStats.
	lockWait metrics.Histogram

	// conns caches outbound connections to migration destinations; closed
	// stops conn from dialing a new one after Close.
	connMu sync.Mutex
	conns  map[string]*rpc.Client
	closed bool
}

// NewServer returns an empty parameter server.
func NewServer() *Server {
	return &Server{
		parts: make(map[string]*partition),
		conns: make(map[string]*rpc.Client),
	}
}

// SetServiceLimit bounds the number of stripe ops this server serves
// concurrently (0 removes the bound). It models finite per-server
// service capacity: excess ops queue, and their queueing time lands in
// the stripe lock-wait counters the balancer and /metrics observe.
// Call before serving traffic.
func (s *Server) SetServiceLimit(n int) {
	if n <= 0 {
		s.gate = nil
		return
	}
	s.gate = make(chan struct{}, n)
}

// SetServiceDelay makes every stripe op hold the service slot for an
// extra d (0 disables): a modeled per-op service time for benchmarks
// that study placement under bounded per-server capacity. Call before
// serving traffic.
func (s *Server) SetServiceDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.serviceDelay = d
}

// Register installs the PS methods on the RPC server. Data-plane methods
// are inline handlers: they never block on other RPCs and run directly on
// the connection's read loop, keeping buffers pooled end to end. Migrate
// dials out to a peer server, so it stays on the non-inline dispatch path.
func (s *Server) Register(srv *rpc.Server) {
	srv.HandleInline(MethodInit, func(raw []byte) ([]byte, error) { return s.handleInstall(raw, true) })
	srv.HandleInline(MethodInstall, func(raw []byte) ([]byte, error) { return s.handleInstall(raw, false) })
	srv.HandleInline(MethodPull, s.handlePull)
	srv.HandleInline(MethodPush, s.handlePush)
	srv.Handle(MethodDrop, rpc.Typed(s.handleDrop))
	srv.Handle(MethodRoutes, rpc.Typed(s.handleRoutes))
	srv.Handle(MethodStats, rpc.Typed(s.handleStats))
	srv.Handle(MethodMigrate, rpc.Typed(s.handleMigrate))
}

// lookup fetches a job's partition under the map lock only.
func (s *Server) lookup(job string) *partition {
	s.mu.RLock()
	p := s.parts[job]
	s.mu.RUnlock()
	return p
}

// lockStripe acquires the stripe lock and then the service gate,
// charging the combined wait to the stripe's counters and the server
// histogram. Stripe lock first, gate second: ops queued behind a fenced
// (migrating) stripe then wait on that one stripe without holding
// service-gate slots, so a slow handoff cannot exhaust the gate and
// stall the server's other stripes.
func (s *Server) lockStripe(st *stripeBlock, write bool) {
	start := time.Now()
	if write {
		st.mu.Lock()
	} else {
		st.mu.RLock()
	}
	if s.gate != nil {
		s.gate <- struct{}{}
	}
	wait := time.Since(start)
	st.stats.lockWait.Add(int64(wait))
	s.lockWait.Observe(wait.Seconds())
	if s.serviceDelay > 0 {
		// Service, not queueing: spent after acquisition, so it delays
		// later ops (their wait grows) without inflating this op's wait.
		time.Sleep(s.serviceDelay)
	}
}

// peek reads what an op needs to know before it queues for the stripe:
// whether the block has migrated away (and where to), and the element
// range it holds. It takes only the stripe lock — never a service-gate
// slot or the modeled service delay — so bouncing off a forwarding
// tombstone costs the source server essentially nothing: a migrated-away
// hot stripe stops consuming the old owner's service capacity
// immediately. During the fence the write lock is held, so the check
// inherently waits out the handoff and then reports the fresh placement.
func (st *stripeBlock) peek() (fwd string, moved bool, lo, n int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.movedTo, st.moved, st.lo, len(st.vals)
}

func (s *Server) unlockStripe(st *stripeBlock, write bool) {
	if s.gate != nil {
		<-s.gate
	}
	if write {
		st.mu.Unlock()
	} else {
		st.mu.RUnlock()
	}
}

// --- handoff frame codec ----------------------------------------------

// appendStripeFrame encodes one stripe-frame (see the package comment's
// wire layout). The caller holds whatever lock makes vals stable.
func appendStripeFrame(dst []byte, idx, lo int, version uint64, vals []float64) []byte {
	dst = rpc.AppendUint32(dst, uint32(idx))
	dst = rpc.AppendUint32(dst, uint32(lo))
	dst = rpc.AppendUint64(dst, version)
	return rpc.AppendFloats(dst, vals)
}

type stripeFrame struct {
	idx, lo int
	version uint64
	vals    []float64
}

// readStripeFrame decodes one stripe-frame, copying values out of the
// wire buffer (install keeps them past the handler's return).
func readStripeFrame(b []byte) (stripeFrame, []byte, error) {
	var f stripeFrame
	idx32, b, err := rpc.ReadUint32(b)
	if err != nil {
		return f, nil, err
	}
	lo32, b, err := rpc.ReadUint32(b)
	if err != nil {
		return f, nil, err
	}
	version, b, err := rpc.ReadUint64(b)
	if err != nil {
		return f, nil, err
	}
	vals, b, err := rpc.ReadFloats(b, nil)
	if err != nil {
		return f, nil, err
	}
	f.idx, f.lo, f.version, f.vals = int(idx32), int(lo32), version, vals
	return f, b, nil
}

// --- data-plane handlers ----------------------------------------------

// handleInstall decodes an init/install message. replace swaps the job's
// whole partition for the decoded stripes (init); otherwise they are
// merged into the existing partition one at a time (install).
func (s *Server) handleInstall(raw []byte, replace bool) ([]byte, error) {
	job, rest, err := rpc.ReadString(raw)
	if err != nil {
		return nil, fmt.Errorf("ps: install: %w", err)
	}
	count32, rest, err := rpc.ReadUint32(rest)
	if err != nil {
		return nil, fmt.Errorf("ps: install %q: %w", job, err)
	}
	count := int(count32)
	if count > len(rest) { // cheap sanity bound: every frame takes > 1 byte
		return nil, fmt.Errorf("ps: install %q: stripe count %d exceeds body", job, count)
	}
	frames := make([]stripeFrame, 0, count)
	for i := 0; i < count; i++ {
		var f stripeFrame
		f, rest, err = readStripeFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("ps: install %q stripe %d/%d: %w", job, i, count, err)
		}
		frames = append(frames, f)
	}
	if replace {
		p := newPartition()
		for _, f := range frames {
			st := &stripeBlock{idx: f.idx}
			st.install(f)
			p.stripes[f.idx] = st
		}
		s.mu.Lock()
		s.parts[job] = p
		s.mu.Unlock()
		return nil, nil
	}
	s.mu.Lock()
	p := s.parts[job]
	if p == nil {
		p = newPartition()
		s.parts[job] = p
	}
	s.mu.Unlock()
	for _, f := range frames {
		p.installStripe(f)
	}
	return nil, nil
}

// installStripe merges one handoff frame into the partition, replacing
// whatever the stripe held here (typically the tombstone of an earlier
// move away).
func (p *partition) installStripe(f stripeFrame) {
	p.mu.Lock()
	st := p.stripes[f.idx]
	if st == nil {
		st = &stripeBlock{idx: f.idx}
		st.install(f)
		p.stripes[f.idx] = st
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	st.mu.Lock()
	st.install(f)
	st.mu.Unlock()
}

// install makes the block hold a handoff frame's state as a new
// incarnation: a fresh epoch and an empty change log, so no cursor taken
// from earlier values — here or on the server the frame came from — is
// ever answered with a delta. The caller holds mu or owns the block.
func (st *stripeBlock) install(f stripeFrame) {
	st.lo, st.vals, st.version = f.lo, f.vals, f.version
	st.moved, st.movedTo = false, ""
	st.epoch = rand.Uint64()
	st.log = changeLog{floor: f.version}
}

// handlePull streams the requested stripes out one by one: each stripe
// is encoded under its own read lock, so a checkpoint of a large job never
// stalls co-located jobs' pushes. Per stripe the caller names the cursor
// it holds and gets back the least that brings it up to date (see
// appendPull). Stripes this server no longer owns come back with a moved
// status the client uses to refresh its routes.
func (s *Server) handlePull(raw []byte) ([]byte, error) {
	job, rest, err := rpc.ReadString(raw)
	if err != nil {
		return nil, fmt.Errorf("ps: pull: %w", err)
	}
	count32, rest, err := rpc.ReadUint32(rest)
	if err != nil {
		return nil, fmt.Errorf("ps: pull %q: %w", job, err)
	}
	const reqEntry = 4 + 8 + 8
	count := int(count32)
	if count > len(rest)/reqEntry {
		return nil, fmt.Errorf("ps: pull %q: stripe count %d exceeds body", job, count)
	}
	p := s.lookup(job)
	reply := rpc.GetBuffer(4096)[:0]
	reply = rpc.AppendUint32(reply, count32)
	for i := 0; i < count; i++ {
		idx32 := binary.LittleEndian.Uint32(rest)
		epoch := binary.LittleEndian.Uint64(rest[4:])
		have := binary.LittleEndian.Uint64(rest[12:])
		rest = rest[reqEntry:]
		reply = rpc.AppendUint32(reply, idx32)
		var st *stripeBlock
		if p != nil {
			st = p.get(int(idx32))
		}
		if st == nil {
			reply = append(reply, stripeMoved)
			reply = rpc.AppendString(reply, "")
			continue
		}
		if fwd, moved, _, _ := st.peek(); moved {
			reply = append(reply, stripeMoved)
			reply = rpc.AppendString(reply, fwd)
			continue
		}
		s.lockStripe(st, false)
		if st.moved {
			fwd := st.movedTo
			s.unlockStripe(st, false)
			reply = append(reply, stripeMoved)
			reply = rpc.AppendString(reply, fwd)
			continue
		}
		var moved int
		reply, moved = st.appendPull(reply, epoch, have)
		st.stats.pullOps.Add(1)
		st.stats.pullBytes.Add(int64(moved))
		s.unlockStripe(st, false)
	}
	return reply, nil
}

// appendPull appends the status byte and payload that bring a caller
// holding (epoch, have) up to date, and returns the payload bytes moved.
// Not-modified and delta are answered only when this block can prove
// them exact: the caller's values are of this incarnation, and the change
// log reaches back to have. Everything else — have 0, another
// incarnation, a cursor from the future, a gap the log has dropped — gets
// the full stripe. The caller holds the stripe's read lock.
func (st *stripeBlock) appendPull(dst []byte, epoch, have uint64) ([]byte, int) {
	if have != 0 && epoch == st.epoch {
		if have == st.version {
			return append(dst, stripeSame), 0
		}
		if have < st.version && have >= st.log.floor {
			dst = append(dst, stripeDelta)
			dst = rpc.AppendUint64(dst, st.version)
			dst, nnz := st.log.appendSince(dst, have, st.vals)
			return dst, sparseRec * nnz
		}
	}
	dst = append(dst, stripeOK)
	dst = rpc.AppendUint32(dst, uint32(st.lo))
	dst = rpc.AppendUint64(dst, st.epoch)
	dst = rpc.AppendUint64(dst, st.version)
	return rpc.AppendFloats(dst, st.vals), 8 * len(st.vals)
}

// misfit returns the error for an entry that touches elements outside
// [lo, lo+n), the range its stripe holds, and nil for one that fits.
func (e *pushEntry) misfit(job string, lo, n int) error {
	if e.lo >= lo && e.lo-lo+e.span <= n {
		return nil
	}
	return fmt.Errorf("ps: push shape mismatch for job %q: [%d,%d) vs stripe %d [%d,%d)",
		job, e.lo, e.lo+e.span, e.idx, lo, lo+n)
}

// handlePush accumulates deltas straight off the wire, stripe by stripe.
// Sub-stripe ranges are accepted. Stripes this server no longer owns are
// reported back unapplied. A malformed request, or an entry that does
// not fit its stripe, is a caller bug and fails the whole call — before
// anything is applied: the first pass parses every entry and checks it
// against its stripe's range, the second applies. (The range is checked
// again under the write lock; only a re-init racing this very push can
// make that fail after earlier entries were applied.)
func (s *Server) handlePush(raw []byte) ([]byte, error) {
	job, rest, err := rpc.ReadString(raw)
	if err != nil {
		return nil, fmt.Errorf("ps: push: %w", err)
	}
	count32, rest, err := rpc.ReadUint32(rest)
	if err != nil {
		return nil, fmt.Errorf("ps: push %q: %w", job, err)
	}
	count := int(count32)
	if count > len(rest) { // cheap sanity bound: every entry takes > 1 byte
		return nil, fmt.Errorf("ps: push %q: entry count %d exceeds body", job, count)
	}
	p := s.lookup(job)
	type bounce struct {
		idx uint32
		fwd string
	}
	type target struct {
		pushEntry
		st *stripeBlock
	}
	var failed []bounce
	var stack [32]target // a job's stripes on one server; more spills to the heap
	targets := stack[:0]
	for i := 0; i < count; i++ {
		var e pushEntry
		e, rest, err = readPushEntry(rest)
		if err != nil {
			return nil, fmt.Errorf("ps: push %q entry %d/%d: %w", job, i, count, err)
		}
		var st *stripeBlock
		if p != nil {
			st = p.get(int(e.idx))
		}
		if st == nil {
			failed = append(failed, bounce{e.idx, ""})
			continue
		}
		fwd, moved, lo, n := st.peek()
		if moved {
			failed = append(failed, bounce{e.idx, fwd})
			continue
		}
		if err := e.misfit(job, lo, n); err != nil {
			return nil, err
		}
		targets = append(targets, target{e, st})
	}
	for i := range targets {
		e, st := &targets[i].pushEntry, targets[i].st
		s.lockStripe(st, true)
		if st.moved {
			fwd := st.movedTo
			s.unlockStripe(st, true)
			failed = append(failed, bounce{e.idx, fwd})
			continue
		}
		if err := e.misfit(job, st.lo, len(st.vals)); err != nil {
			s.unlockStripe(st, true)
			return nil, err
		}
		if e.n == 0 {
			s.unlockStripe(st, true)
			continue // nothing to add: the stripe is not touched
		}
		st.apply(e)
		s.unlockStripe(st, true)
	}
	reply := rpc.GetBuffer(4 + 8*len(failed))[:0]
	reply = rpc.AppendUint32(reply, uint32(len(failed)))
	for _, b := range failed {
		reply = rpc.AppendUint32(reply, b.idx)
		reply = rpc.AppendString(reply, b.fwd)
	}
	return reply, nil
}

// apply adds a validated, non-empty push entry to the stripe, bumps its
// version and logs what was touched: the offsets of a sparse entry that
// fits the log's budget, "everything" otherwise. The caller holds the
// stripe's write lock.
func (st *stripeBlock) apply(e *pushEntry) {
	start := e.lo - st.lo
	st.version++
	st.stats.pushOps.Add(1)
	if e.enc == encDense {
		vals := st.vals[start : start+e.n]
		for k := range vals {
			vals[k] += rpc.FloatAt(e.data, k)
		}
		st.log.reset(st.version)
		st.stats.pushBytes.Add(int64(8 * e.n))
		return
	}
	logged := st.log.begin(st.version, e.n, len(st.vals))
	for k := 0; k < e.n; k++ {
		off, v := sparseAt(e.data, k)
		st.vals[start+off] += v
		if logged {
			st.log.put(st.version, start+off)
		}
	}
	st.stats.pushBytes.Add(int64(sparseRec * e.n))
}

func (s *Server) handleDrop(a DropArgs) (Ack, error) {
	s.mu.Lock()
	delete(s.parts, a.Job)
	s.mu.Unlock()
	return Ack{}, nil
}

func (s *Server) handleRoutes(a RoutesArgs) (RoutesReply, error) {
	p := s.lookup(a.Job)
	if p == nil {
		return RoutesReply{}, nil
	}
	p.mu.RLock()
	blocks := make([]*stripeBlock, 0, len(p.stripes))
	for _, st := range p.stripes {
		blocks = append(blocks, st)
	}
	p.mu.RUnlock()
	var reply RoutesReply
	for _, st := range blocks {
		st.mu.RLock()
		if !st.moved {
			reply.Stripes = append(reply.Stripes, StripeRoute{
				Index: st.idx, Lo: st.lo, Len: len(st.vals),
			})
		}
		st.mu.RUnlock()
	}
	return reply, nil
}

// --- migration ---------------------------------------------------------

// handoffTimeout bounds the install call made while a stripe is fenced.
// A stripe is at most a few hundred KiB, so seconds suffice; a slow
// destination must fail the handoff — leaving the stripe intact on the
// source — rather than extend the fence toward the RPC minute-scale
// control timeouts.
const handoffTimeout = 5 * time.Second

// conn returns a cached outbound connection to a peer server, and an
// error once the server is closed: a migrate racing Close must not cache
// a connection nobody will close.
func (s *Server) conn(addr string) (*rpc.Client, error) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("ps: server closed")
	}
	if cl, ok := s.conns[addr]; ok {
		return cl, nil
	}
	cl, err := rpc.Dial(addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	s.conns[addr] = cl
	return cl, nil
}

// handleMigrate is the fence-and-handoff protocol (DESIGN.md §12): take
// the stripe's write lock (the fence — racing ops queue behind it),
// encode its exact state as an install frame, hand it to the destination,
// and tombstone the local block. Ops that were queued on the fence
// observe the tombstone and report moved, steering the client to the new
// owner. The handoff is bit-exact: values travel as raw IEEE-754 bits.
func (s *Server) handleMigrate(a MigrateArgs) (Ack, error) {
	p := s.lookup(a.Job)
	if p == nil {
		return Ack{}, fmt.Errorf("ps: migrate: no stripes for job %q", a.Job)
	}
	st := p.get(a.Stripe)
	if st == nil {
		return Ack{}, fmt.Errorf("ps: migrate: job %q stripe %d not here", a.Job, a.Stripe)
	}
	// Dial the destination before fencing: an unreachable peer must fail
	// the move without the stripe ever pausing service.
	cl, err := s.conn(a.Dest)
	if err != nil {
		return Ack{}, fmt.Errorf("ps: migrate to %s: %w", a.Dest, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.moved {
		return Ack{}, fmt.Errorf("ps: migrate: job %q stripe %d already moved", a.Job, a.Stripe)
	}
	body := rpc.GetBuffer(2 + len(a.Job) + 4)[:0]
	body = rpc.AppendString(body, a.Job)
	body = rpc.AppendUint32(body, 1)
	body = appendStripeFrame(body, st.idx, st.lo, st.version, st.vals)
	reply, err := cl.Call(MethodInstall, body, handoffTimeout)
	rpc.PutBuffer(body)
	rpc.PutBuffer(reply)
	if err != nil {
		// Handoff failed: the stripe stays here, fully intact.
		return Ack{}, fmt.Errorf("ps: migrate job %q stripe %d to %s: %w", a.Job, a.Stripe, a.Dest, err)
	}
	// Tombstone with a forwarding entry: the block stays in the map
	// (values freed) so ops arriving after the handoff are pointed
	// straight at the destination instead of groping through a routes
	// re-scrape that the next migration can invalidate.
	st.moved = true
	st.movedTo = a.Dest
	st.vals = nil
	st.log = changeLog{}
	return Ack{}, nil
}

// Stats snapshots this server's per-stripe load counters (the in-process
// mirror of MethodStats, used by tests and the local bench harness).
func (s *Server) Stats() StatsReply {
	s.mu.RLock()
	jobs := make(map[string]*partition, len(s.parts))
	for name, p := range s.parts {
		jobs[name] = p
	}
	s.mu.RUnlock()
	var reply StatsReply
	for name, p := range jobs {
		p.mu.RLock()
		blocks := make([]*stripeBlock, 0, len(p.stripes))
		for _, st := range p.stripes {
			blocks = append(blocks, st)
		}
		p.mu.RUnlock()
		js := JobStats{Job: name}
		for _, st := range blocks {
			st.mu.RLock()
			if st.moved {
				// A forwarding tombstone: the live block (and its restarted
				// counters) is on the destination server.
				st.mu.RUnlock()
				continue
			}
			stat := StripeStat{Index: st.idx, Lo: st.lo, Len: len(st.vals)}
			st.mu.RUnlock()
			stat.PullOps = st.stats.pullOps.Load()
			stat.PushOps = st.stats.pushOps.Load()
			stat.PullBytes = st.stats.pullBytes.Load()
			stat.PushBytes = st.stats.pushBytes.Load()
			stat.LockWaitSeconds = time.Duration(st.stats.lockWait.Load()).Seconds()
			js.Stripes = append(js.Stripes, stat)
		}
		reply.Jobs = append(reply.Jobs, js)
	}
	reply.LockWait = s.lockWait.Snapshot()
	return reply
}

func (s *Server) handleStats(StatsArgs) (StatsReply, error) {
	return s.Stats(), nil
}

// Close closes the outbound handoff connections. The RPC server hosting
// the methods is closed separately.
func (s *Server) Close() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closed = true
	for addr, cl := range s.conns {
		cl.Close()
		delete(s.conns, addr)
	}
}

// Partition computes server i's slice bounds for n items over k servers:
// even ranges with the remainder spread over the first few. The elastic
// layer uses it to place stripes (n = stripe count) at Init; the name
// and element-range semantics predate stripe-granular placement.
func Partition(n, k, i int) (lo, hi int) {
	base := n / k
	extra := n % k
	lo = i*base + min(i, extra)
	hi = lo + base
	if i < extra {
		hi++
	}
	return lo, hi
}
