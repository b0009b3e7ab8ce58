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
// the job runs — the elastic layer of DESIGN.md §12. Clients route per
// stripe and self-heal: an op that hits a migrated-away stripe gets a
// "moved" status, refreshes its route table and retries against the new
// owner.
//
// Wire layouts (all little-endian; "str" is a u16-length-prefixed
// string, "floats" a u32 count followed by raw IEEE-754 bit patterns):
//
//	init/restore/install request:
//	  str job | u32 count | count × stripe-frame        reply: empty
//	  stripe-frame: u32 idx | u32 lo | u8 flags | u64 version |
//	                u16 nrep | nrep × str addr | floats vals
//	pull/snapshot request:
//	  str job | u32 count | count × (u32 idx | u64 epoch | u64 have)
//	pull/snapshot reply:
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
// have 0 means "nothing", which is all PullInto, PullRange and Snapshot
// ever send — and the server answers not-modified, a delta (the current
// values of the elements pushed since, offsets counting from the
// stripe's lo, in any order, repeats allowed) or the full stripe. The
// epoch is the stripe block's incarnation: a fresh random 64-bit value
// whenever the block's values are installed rather than pushed to (init,
// restore, migration, replica propagation), so a cursor taken before any
// of those can only match by a 2^-64 accident and is otherwise answered
// in full, as is a cursor the bounded change log no longer reaches and
// every read of a replica. There is no density or log-depth setting: the
// push rule is "fewer bytes", and the log is a fixed 1/8 of the stripe's
// own bytes (delta.go).
//
// "fwd" is the forwarding hint of a migrated-away stripe — the address
// its handoff went to, empty when unknown (never owned here, replica
// bounce). Clients retry a hinted stripe directly at the forward target
// instead of re-scraping routes, so an op can chase a stripe through
// back-to-back migrations without losing the race to the next move.
//
// init/restore replace a job's whole partition on the receiving server;
// install (the migration/replication handoff) merges stripes into it.
// Control-plane methods (drop, routes, stats, migrate, replicate) stay
// gob.
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
	MethodInit     = "ps.init"
	MethodPull     = "ps.pull"
	MethodPush     = "ps.push"
	MethodSnapshot = "ps.snapshot"
	MethodRestore  = "ps.restore"
	MethodDrop     = "ps.drop"
	// MethodInstall merges handoff stripe-frames into a job's partition:
	// the receiving end of migration and replica propagation.
	MethodInstall = "ps.install"
	// MethodRoutes reports which stripes of a job this server holds.
	MethodRoutes = "ps.routes"
	// MethodStats reports per-stripe load counters for every job.
	MethodStats = "ps.stats"
	// MethodMigrate fences one stripe and hands it to another server.
	MethodMigrate = "ps.migrateOut"
	// MethodReplicate installs a read replica of a stripe on another
	// server; MethodUnreplicate detaches it again.
	MethodReplicate   = "ps.replicate"
	MethodUnreplicate = "ps.unreplicate"
	// MethodDropStripe removes a single stripe block (replica teardown).
	MethodDropStripe = "ps.dropStripe"
)

// Per-stripe status bytes in pull replies.
const (
	stripeOK    = 0 // the full stripe follows
	stripeMoved = 1 // not owned here (migrated away or never installed)
	stripeSame  = 2 // not modified since the caller's cursor
	stripeDelta = 3 // the elements pushed since the caller's cursor follow
)

// Stripe-frame flag bits.
const flagReplica = 1 // install as read replica, version-gated

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
	Index   int
	Lo      int
	Len     int
	Primary bool
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

// ReplicateArgs installs a read replica of a stripe on Dest; the
// receiving server must hold the primary.
type ReplicateArgs struct {
	Job    string
	Stripe int
	Dest   string
}

// UnreplicateArgs detaches the Dest replica of a stripe; the receiving
// server must hold the primary.
type UnreplicateArgs struct {
	Job    string
	Stripe int
	Dest   string
}

// DropStripeArgs removes one stripe block from the receiving server.
type DropStripeArgs struct {
	Job    string
	Stripe int
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

// stripeStats are the per-stripe load counters feeding the rebalancer's
// EWMA score and /metrics. Atomics: pulls bump them under a read lock.
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
	// version counts mutations; replica installs are gated on it so a
	// stale propagation can never roll a replica backwards. Guarded by mu.
	version uint64
	// epoch names this incarnation of the block's values: drawn afresh
	// whenever they are installed rather than pushed to, so version
	// numbers of different incarnations are never compared. log records
	// what the pushes of this incarnation touched. Both guarded by mu.
	epoch uint64
	log   changeLog
	// primary: pushes apply here and propagate outward; false marks a
	// read replica. Guarded by mu.
	primary  bool
	replicas []string // replica server addrs (primary only); guarded by mu
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
// rpc.Server with Register; Close releases the replication propagator
// and any outbound handoff connections. The server-level lock only
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

	// conns caches outbound connections to peer servers for migration and
	// replica propagation.
	connMu sync.Mutex
	conns  map[string]*rpc.Client

	// Replica propagation: pushes to a replicated stripe mark it dirty;
	// a lazily started propagator goroutine ships whole-stripe state
	// (version-gated) to the replicas.
	replMu   sync.Mutex
	dirty    map[replKey]bool
	flushing int
	retries  int // re-dirty timers pending after a failed replica send
	started  bool
	closed   bool
	wake     chan struct{}
	stop     chan struct{}
	wg       sync.WaitGroup
}

type replKey struct {
	job string
	idx int
}

// NewServer returns an empty parameter server.
func NewServer() *Server {
	return &Server{
		parts: make(map[string]*partition),
		conns: make(map[string]*rpc.Client),
		dirty: make(map[replKey]bool),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
}

// SetServiceLimit bounds the number of stripe ops this server serves
// concurrently (0 removes the bound). It models finite per-server
// service capacity: excess ops queue, and their queueing time lands in
// the stripe lock-wait counters the rebalancer and /metrics observe.
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
// the connection's read loop, keeping buffers pooled end to end. The
// handoff methods (migrate, replicate) dial out to peer servers, so they
// stay on the non-inline dispatch path.
func (s *Server) Register(srv *rpc.Server) {
	srv.HandleInline(MethodInit, func(raw []byte) ([]byte, error) { return s.handleInstall(raw, true) })
	srv.HandleInline(MethodRestore, func(raw []byte) ([]byte, error) { return s.handleInstall(raw, true) })
	srv.HandleInline(MethodInstall, func(raw []byte) ([]byte, error) { return s.handleInstall(raw, false) })
	srv.HandleInline(MethodPull, s.handlePull)
	srv.HandleInline(MethodSnapshot, s.handlePull)
	srv.HandleInline(MethodPush, s.handlePush)
	srv.Handle(MethodDrop, rpc.Typed(s.handleDrop))
	srv.Handle(MethodRoutes, rpc.Typed(s.handleRoutes))
	srv.Handle(MethodStats, rpc.Typed(s.handleStats))
	srv.Handle(MethodMigrate, rpc.Typed(s.handleMigrate))
	srv.Handle(MethodReplicate, rpc.Typed(s.handleReplicate))
	srv.Handle(MethodUnreplicate, rpc.Typed(s.handleUnreplicate))
	srv.Handle(MethodDropStripe, rpc.Typed(s.handleDropStripe))
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
func appendStripeFrame(dst []byte, idx, lo int, flags byte, version uint64, replicas []string, vals []float64) []byte {
	dst = rpc.AppendUint32(dst, uint32(idx))
	dst = rpc.AppendUint32(dst, uint32(lo))
	dst = append(dst, flags)
	dst = rpc.AppendUint64(dst, version)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(replicas)))
	for _, r := range replicas {
		dst = rpc.AppendString(dst, r)
	}
	return rpc.AppendFloats(dst, vals)
}

type stripeFrame struct {
	idx, lo  int
	flags    byte
	version  uint64
	replicas []string
	vals     []float64
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
	if len(b) < 1 {
		return f, nil, fmt.Errorf("rpc: stripe frame flags truncated")
	}
	f.flags = b[0]
	version, b, err := rpc.ReadUint64(b[1:])
	if err != nil {
		return f, nil, err
	}
	if len(b) < 2 {
		return f, nil, fmt.Errorf("rpc: stripe frame replica count truncated")
	}
	nrep := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	for i := 0; i < nrep; i++ {
		var addr string
		addr, b, err = rpc.ReadString(b)
		if err != nil {
			return f, nil, err
		}
		f.replicas = append(f.replicas, addr)
	}
	vals, b, err := rpc.ReadFloats(b, nil)
	if err != nil {
		return f, nil, err
	}
	f.idx, f.lo, f.version, f.vals = int(idx32), int(lo32), version, vals
	return f, b, nil
}

// --- data-plane handlers ----------------------------------------------

// handleInstall decodes an init/restore/install message. replace swaps
// the job's whole partition for the decoded stripes (init/restore);
// merge installs them into the existing partition one at a time,
// version-gated for replica propagation (install).
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
		s.installStripe(p, f)
	}
	return nil, nil
}

// installStripe merges one handoff frame into the partition. Primary
// installs (migration) replace unconditionally; replica installs apply
// only when they advance the version, so reordered propagations can
// never roll a replica backwards.
func (s *Server) installStripe(p *partition, f stripeFrame) {
	incomingPrimary := f.flags&flagReplica == 0
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
	if !incomingPrimary && st.version >= f.version && !st.moved {
		st.mu.Unlock()
		return // stale propagation
	}
	st.install(f)
	st.mu.Unlock()
}

// install makes the block hold a handoff frame's state as a new
// incarnation: a fresh epoch and an empty change log, so no cursor taken
// from earlier values — here or on the server the frame came from — is
// ever answered with a delta. The caller holds mu or owns the block.
func (st *stripeBlock) install(f stripeFrame) {
	st.lo, st.vals, st.version = f.lo, f.vals, f.version
	st.primary = f.flags&flagReplica == 0
	st.replicas = f.replicas
	st.moved, st.movedTo = false, ""
	st.epoch = rand.Uint64()
	st.log = changeLog{floor: f.version}
}

// handlePull streams the requested stripes out one by one: each stripe
// is encoded under its own read lock, so a snapshot of a large job never
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
// them exact: it is the primary, the caller's values are of this
// incarnation, and the change log reaches back to have. Everything else
// — have 0, a replica, another incarnation, a cursor from the future, a
// gap the log has dropped — gets the full stripe. A replica's full reply
// carries a zero cursor: its values trail the primary's by the
// propagation delay and must never be the base of a later delta. The
// caller holds the stripe's read lock.
func (st *stripeBlock) appendPull(dst []byte, epoch, have uint64) ([]byte, int) {
	if have != 0 && st.primary && epoch == st.epoch {
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
	epoch, version := st.epoch, st.version
	if !st.primary {
		epoch, version = 0, 0
	}
	dst = append(dst, stripeOK)
	dst = rpc.AppendUint32(dst, uint32(st.lo))
	dst = rpc.AppendUint64(dst, epoch)
	dst = rpc.AppendUint64(dst, version)
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
// again under the write lock; only a restore racing this very push can
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
		if st.moved || !st.primary {
			// Writes aggregate at the owner; a replica bounces the push so
			// the client re-routes it there. movedTo is empty on a replica
			// bounce (a replica does not track its primary's address).
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
		propagate := len(st.replicas) > 0
		s.unlockStripe(st, true)
		if propagate {
			s.markDirty(job, int(e.idx))
		}
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
	s.replMu.Lock()
	for k := range s.dirty {
		if k.job == a.Job {
			delete(s.dirty, k)
		}
	}
	s.replMu.Unlock()
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
				Index: st.idx, Lo: st.lo, Len: len(st.vals), Primary: st.primary,
			})
		}
		st.mu.RUnlock()
	}
	return reply, nil
}

// Jobs reports the jobs with partitions on this server.
func (s *Server) Jobs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.parts)
}

// --- migration and replication ----------------------------------------

// handoffTimeout bounds the install call made while a stripe is fenced
// (migrate/replicate) and the replica propagation sends. A stripe is at
// most a few hundred KiB, so seconds suffice; a slow destination must
// fail the handoff — leaving the stripe intact on the source — rather
// than extend the fence toward the RPC minute-scale control timeouts.
const handoffTimeout = 5 * time.Second

// replicaRetryDelay spaces retries of replica propagation toward an
// unreachable replica, so a dead replica is not hammered in a hot loop.
const replicaRetryDelay = 50 * time.Millisecond

// conn returns a cached outbound connection to a peer server.
func (s *Server) conn(addr string) (*rpc.Client, error) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
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
	if !st.primary {
		return Ack{}, fmt.Errorf("ps: migrate: job %q stripe %d is a replica here", a.Job, a.Stripe)
	}
	// The destination may currently hold a replica of this stripe: it is
	// promoted by the primary install and must not appear in its own
	// replica list.
	replicas := make([]string, 0, len(st.replicas))
	for _, r := range st.replicas {
		if r != a.Dest {
			replicas = append(replicas, r)
		}
	}
	body := rpc.GetBuffer(2 + len(a.Job) + 4)[:0]
	body = rpc.AppendString(body, a.Job)
	body = rpc.AppendUint32(body, 1)
	body = appendStripeFrame(body, st.idx, st.lo, 0, st.version, replicas, st.vals)
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
	st.replicas = nil
	st.vals = nil
	st.log = changeLog{}
	return Ack{}, nil
}

func (s *Server) handleReplicate(a ReplicateArgs) (Ack, error) {
	p := s.lookup(a.Job)
	if p == nil {
		return Ack{}, fmt.Errorf("ps: replicate: no stripes for job %q", a.Job)
	}
	st := p.get(a.Stripe)
	if st == nil {
		return Ack{}, fmt.Errorf("ps: replicate: job %q stripe %d not here", a.Job, a.Stripe)
	}
	// As with migrate: dial before fencing so an unreachable destination
	// never pauses the stripe.
	cl, err := s.conn(a.Dest)
	if err != nil {
		return Ack{}, fmt.Errorf("ps: replicate to %s: %w", a.Dest, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.moved || !st.primary {
		return Ack{}, fmt.Errorf("ps: replicate: job %q stripe %d is not primary here", a.Job, a.Stripe)
	}
	for _, r := range st.replicas {
		if r == a.Dest {
			return Ack{}, nil // already attached
		}
	}
	body := rpc.GetBuffer(2 + len(a.Job) + 4)[:0]
	body = rpc.AppendString(body, a.Job)
	body = rpc.AppendUint32(body, 1)
	body = appendStripeFrame(body, st.idx, st.lo, flagReplica, st.version, nil, st.vals)
	reply, err := cl.Call(MethodInstall, body, handoffTimeout)
	rpc.PutBuffer(body)
	rpc.PutBuffer(reply)
	if err != nil {
		return Ack{}, fmt.Errorf("ps: replicate job %q stripe %d to %s: %w", a.Job, a.Stripe, a.Dest, err)
	}
	st.replicas = append(st.replicas, a.Dest)
	return Ack{}, nil
}

func (s *Server) handleUnreplicate(a UnreplicateArgs) (Ack, error) {
	p := s.lookup(a.Job)
	if p == nil {
		return Ack{}, fmt.Errorf("ps: unreplicate: no stripes for job %q", a.Job)
	}
	st := p.get(a.Stripe)
	if st == nil {
		return Ack{}, fmt.Errorf("ps: unreplicate: job %q stripe %d not here", a.Job, a.Stripe)
	}
	st.mu.Lock()
	if st.moved || !st.primary {
		st.mu.Unlock()
		return Ack{}, fmt.Errorf("ps: unreplicate: job %q stripe %d is not primary here", a.Job, a.Stripe)
	}
	kept := st.replicas[:0]
	for _, r := range st.replicas {
		if r != a.Dest {
			kept = append(kept, r)
		}
	}
	st.replicas = kept
	st.mu.Unlock()
	// Best-effort teardown of the detached replica block; a failure
	// leaves a stale block that only wastes memory (it can never serve a
	// push, and the client routes reads by refreshed routes).
	if cl, err := s.conn(a.Dest); err == nil {
		_, _ = rpc.Invoke[DropStripeArgs, Ack](cl, MethodDropStripe,
			DropStripeArgs{Job: a.Job, Stripe: a.Stripe}, time.Minute)
	}
	return Ack{}, nil
}

func (s *Server) handleDropStripe(a DropStripeArgs) (Ack, error) {
	p := s.lookup(a.Job)
	if p == nil {
		return Ack{}, nil
	}
	st := p.get(a.Stripe)
	if st == nil {
		return Ack{}, nil
	}
	st.mu.Lock()
	st.moved = true
	st.movedTo = "" // replica teardown: the primary's address is not known here
	st.replicas = nil
	st.vals = nil
	st.log = changeLog{}
	st.mu.Unlock()
	return Ack{}, nil
}

// markDirty queues a replicated stripe for propagation and wakes the
// propagator, starting it on first use.
func (s *Server) markDirty(job string, idx int) {
	s.replMu.Lock()
	if s.closed {
		s.replMu.Unlock()
		return
	}
	s.dirty[replKey{job, idx}] = true
	if !s.started {
		s.started = true
		s.wg.Add(1)
		go s.propagate()
	}
	s.replMu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// propagate is the replica propagator: it drains the dirty set, shipping
// each stripe's current state to its replicas. Propagation coalesces —
// many pushes between flushes cost one send — and is version-gated at
// the receiving end, so replicas converge to the primary's latest state.
func (s *Server) propagate() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
		for {
			s.replMu.Lock()
			var key replKey
			found := false
			for k := range s.dirty {
				key, found = k, true
				break
			}
			if !found {
				s.replMu.Unlock()
				break
			}
			delete(s.dirty, key)
			s.flushing++
			s.replMu.Unlock()
			s.flushStripe(key.job, key.idx)
			s.replMu.Lock()
			s.flushing--
			s.replMu.Unlock()
		}
	}
}

// flushStripe ships one stripe's state to its replicas. A replica that
// cannot be reached re-queues the stripe after a short delay: the last
// push before traffic quiesces must still converge every replica, so a
// missed send retries until it lands or the replica is detached, rather
// than waiting for the next push to re-mark the stripe dirty.
func (s *Server) flushStripe(job string, idx int) {
	p := s.lookup(job)
	if p == nil {
		return
	}
	st := p.get(idx)
	if st == nil {
		return
	}
	st.mu.RLock()
	if st.moved || !st.primary || len(st.replicas) == 0 {
		st.mu.RUnlock()
		return
	}
	replicas := append([]string(nil), st.replicas...)
	body := rpc.GetBuffer(2 + len(job) + 4)[:0]
	body = rpc.AppendString(body, job)
	body = rpc.AppendUint32(body, 1)
	body = appendStripeFrame(body, st.idx, st.lo, flagReplica, st.version, nil, st.vals)
	st.mu.RUnlock()
	failed := false
	for _, addr := range replicas {
		cl, err := s.conn(addr)
		if err != nil {
			failed = true
			continue
		}
		reply, err := cl.Call(MethodInstall, body, handoffTimeout)
		if err != nil {
			failed = true
			continue
		}
		rpc.PutBuffer(reply)
	}
	rpc.PutBuffer(body)
	if failed {
		s.redirty(job, idx)
	}
}

// redirty schedules a delayed re-mark of a stripe whose propagation
// failed. The pending timer counts against FlushReplication so "drained"
// still means every replica converged (or the server closed).
func (s *Server) redirty(job string, idx int) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.closed {
		return
	}
	s.retries++
	time.AfterFunc(replicaRetryDelay, func() {
		s.replMu.Lock()
		s.retries--
		s.replMu.Unlock()
		s.markDirty(job, idx)
	})
}

// FlushReplication blocks until every queued replica propagation has
// drained (tests and orderly shutdown; steady-state callers never wait).
func (s *Server) FlushReplication(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s.replMu.Lock()
		idle := len(s.dirty) == 0 && s.flushing == 0 && s.retries == 0
		s.replMu.Unlock()
		if idle {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ps: replication not drained after %s", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
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
			stat := StripeStat{
				Index: st.idx, Lo: st.lo, Len: len(st.vals),
				Primary: st.primary, Replicas: len(st.replicas),
			}
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

// Close stops the replica propagator and closes outbound handoff
// connections. The RPC server hosting the methods is closed separately.
func (s *Server) Close() {
	s.replMu.Lock()
	if s.closed {
		s.replMu.Unlock()
		return
	}
	s.closed = true
	started := s.started
	s.replMu.Unlock()
	if started {
		close(s.stop)
	}
	s.wg.Wait()
	s.connMu.Lock()
	for _, cl := range s.conns {
		cl.Close()
	}
	s.conns = make(map[string]*rpc.Client)
	s.connMu.Unlock()
}

// Partition computes server i's slice bounds for n items over k servers:
// even ranges with the remainder spread over the first few. The elastic
// layer uses it to place stripes (n = stripe count) at Init; the name
// and element-range semantics predate stripe-granular placement.
func Partition(n, k, i int) (lo, hi int) {
	base := n / k
	extra := n % k
	lo = i*base + minInt(i, extra)
	hi = lo + base
	if i < extra {
		hi++
	}
	return lo, hi
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
