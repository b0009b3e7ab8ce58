// Package ps implements the Parameter-Server architecture of §II-A: each
// server holds a partition of every job's model vector, and workers
// synchronize through the push/pull API. Servers are co-located with
// workers in the live runtime, exactly as the paper's deployment does.
//
// The pull/push path is the live runtime's hot loop (§IV-A: COMM
// subtasks keep the network busy while co-located COMP runs), so the
// data plane rides the binary float-frame codec of internal/rpc. A job's
// model is carved into fixed-size stripes, each independently locked and
// counted (pull/push ops, bytes, lock-wait). Where a stripe lives is a
// pure function of the model length and the job's ordered server list
// (layoutFor): every client computes it, so no client asks a server where
// a stripe is, and a stripe stays on the server Init put it on for the
// life of the deployment (DESIGN.md §8). A job's state moves only by
// checkpoint and a restoring Init on the new group (§IV-B4). A stripe a
// server does not hold is an error naming the job and the stripe. A
// server is passive: it starts no goroutine and calls nobody.
//
// Wire layouts (all little-endian; "str" is a u16-length-prefixed
// string, "floats" a u32 count followed by raw IEEE-754 bit patterns):
//
//	init request:
//	  str job | u32 count | count × stripe-frame        reply: empty
//	  stripe-frame: u32 idx | u32 lo | u64 version | floats vals
//	pull request:
//	  str job | u32 count | count × (u32 idx | u64 epoch | u64 have)
//	pull reply:
//	  u32 count | count × (u32 idx | u8 status | ...)   one per requested stripe, in order
//	    full:         u32 lo | u64 epoch | u64 version | floats vals
//	    not-modified: nothing
//	    delta:        u64 version | u32 nnz | nnz × (u32 off | f64 val)
//	push request:
//	  str job | u32 count | count × (u32 idx | u32 lo | u8 enc | ...)
//	    dense:  floats delta
//	    sparse: u32 nnz | nnz × (u32 off | f64 delta)
//	push reply: empty
//
// Both directions move what changed. A push entry travels in whichever
// encoding is fewer bytes (sparse offsets count from the entry's lo and
// ascend strictly), and a stripe whose delta is all +0 is not sent. A
// pull names, per stripe, the (epoch, version) its caller already holds —
// have 0 means "nothing", which is all PullInto ever sends — and the
// server answers not-modified, a delta (the current values of the
// elements pushed since, offsets counting from the stripe's lo, in any
// order, repeats allowed) or the full stripe. The epoch is the stripe
// block's incarnation: a fresh random 64-bit value at every Init, restore
// included, so a cursor taken before one can only match by a 2^-64
// accident and is otherwise answered in full, as is a cursor the bounded
// change log no longer reaches. There is no density or log-depth setting:
// the push rule is "fewer bytes", and the log is a fixed 1/8 of the
// stripe's own bytes (delta.go).
//
// init replaces a job's whole partition on the receiving server.
// Those three are the whole wire: a worker drops its own partitions and
// reports their counters in its stats reply (Server.Drop, Server.Stats).
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
	// MethodDrop is served by no Server: each worker drops its own
	// partition of a job it releases (Server.Drop).
	MethodDrop = "ps.drop"
	// MethodStats is served by no Server either: each worker reports its
	// co-hosted server's counters in its own stats reply (Server.Stats).
	MethodStats = "ps.stats"
)

// Per-stripe status bytes in pull replies.
const (
	stripeOK    = 0 // the full stripe follows
	stripeSame  = 1 // not modified since the caller's cursor
	stripeDelta = 2 // the elements pushed since the caller's cursor follow
)

// Ack is an empty success reply.
type Ack struct{}

// DropArgs names the job of a MethodDrop call.
type DropArgs struct {
	Job string
}

// StatsArgs names nothing; it is the argument of a MethodStats call.
type StatsArgs struct{}

// StripeSize is the default number of float64 elements per stripe
// (256 KiB of parameters). Small enough that co-located jobs' pushes and
// a snapshot's streaming pull interleave, large enough that lock and
// header traffic is negligible against the arithmetic.
const StripeSize = 32 * 1024

// stripeElemsFor picks the per-stripe element count for a model of n
// elements across k servers: StripeSize, shrunk so that even a small
// model yields at least one stripe per server.
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

// layout is where a job's stripes live: stripes of se elements tile the
// n-element model, and server i of k holds the contiguous stripe range
// Partition(stripes, k, i). It depends on nothing but n and k, so every
// client of a job, Init's included, computes the same one.
type layout struct {
	n, k, se, stripes int
}

func layoutFor(n, k int) layout {
	se := stripeElemsFor(n, k)
	return layout{n: n, k: k, se: se, stripes: stripeCount(n, se)}
}

// span is stripe s's element range [lo, hi).
func (l layout) span(s int) (lo, hi int) {
	lo = s * l.se
	return lo, max(min(lo+l.se, l.n), lo)
}

// held is the stripe range [first, end) server i holds.
func (l layout) held(i int) (first, end int) { return Partition(l.stripes, l.k, i) }

// stripeStats are the per-stripe load counters behind Server.Stats
// (/metrics, GET /v1/ps). Atomics: pulls bump them under a read lock.
type stripeStats struct {
	pullOps   atomic.Int64
	pushOps   atomic.Int64
	pullBytes atomic.Int64
	pushBytes atomic.Int64
	lockWait  atomic.Int64 // nanoseconds waiting for the stripe lock
}

// stripeBlock is one stripe of one job on one server: the unit of
// locking and accounting. idx, lo and the length of vals are fixed when
// Init creates the block; the rest is guarded by mu.
type stripeBlock struct {
	mu   sync.RWMutex
	idx  int
	lo   int
	vals []float64
	// version counts mutations.
	version uint64
	// epoch names this incarnation of the block's values: drawn afresh at
	// every Init, so version numbers of different incarnations are never
	// compared. log records what the pushes of this incarnation touched.
	epoch uint64
	log   changeLog
	stats stripeStats
}

// newBlock makes a block of an init frame's state as a new incarnation: a
// fresh epoch and an empty change log, so no cursor taken from earlier
// values is ever answered with a delta.
func newBlock(f stripeFrame) *stripeBlock {
	return &stripeBlock{idx: f.idx, lo: f.lo, vals: f.vals, version: f.version,
		epoch: rand.Uint64(), log: changeLog{floor: f.version}}
}

// partition holds one job's stripe blocks on one server. Init builds it
// whole before publishing it, and nothing changes the map afterwards.
type partition map[int]*stripeBlock

// Server hosts stripe blocks for any number of jobs. Register it on an
// rpc.Server with Register. The server-level lock only guards the
// partition map; all value access goes through per-stripe locks, so
// concurrent pushes from co-located jobs (different partitions) and from
// one job (different stripes) proceed in parallel.
type Server struct {
	mu    sync.RWMutex
	parts map[string]partition
	// lockWait is the server-wide distribution of per-stripe-op lock
	// wait, exported through Server.Stats.
	lockWait metrics.Histogram
}

// NewServer returns an empty parameter server.
func NewServer() *Server {
	return &Server{parts: make(map[string]partition)}
}

// Register installs the PS methods, all data plane, on the RPC server as
// inline handlers: they never block on other RPCs and run directly on the
// connection's read loop, keeping buffers pooled end to end.
func (s *Server) Register(srv *rpc.Server) {
	srv.HandleInline(MethodInit, s.handleInit)
	srv.HandleInline(MethodPull, s.handlePull)
	srv.HandleInline(MethodPush, s.handlePush)
}

// lookup fetches a job's partition under the map lock only.
func (s *Server) lookup(job string) partition {
	s.mu.RLock()
	p := s.parts[job]
	s.mu.RUnlock()
	return p
}

// lockStripe acquires the stripe lock, charging the wait to the stripe's
// counters and the server histogram.
func (s *Server) lockStripe(st *stripeBlock, write bool) {
	start := time.Now()
	if write {
		st.mu.Lock()
	} else {
		st.mu.RLock()
	}
	wait := time.Since(start)
	st.stats.lockWait.Add(int64(wait))
	s.lockWait.Observe(wait.Seconds())
}

// notHeld is the error for a stripe this server does not hold: the job
// was dropped here, the server restarted, or the caller's layout is not
// the one Init used.
func notHeld(op, job string, idx uint32) error {
	return fmt.Errorf("ps: %s %q: stripe %d not held here", op, job, idx)
}

// --- stripe frame codec ------------------------------------------------

// appendStripeFrame encodes one stripe-frame (see the package comment's
// wire layout).
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
// wire buffer (the block keeps them past the handler's return).
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

// handleInit decodes an init message and swaps the job's whole partition
// for the decoded stripes, each a new incarnation.
func (s *Server) handleInit(raw []byte) ([]byte, error) {
	job, rest, err := rpc.ReadString(raw)
	if err != nil {
		return nil, fmt.Errorf("ps: init: %w", err)
	}
	count32, rest, err := rpc.ReadUint32(rest)
	if err != nil {
		return nil, fmt.Errorf("ps: init %q: %w", job, err)
	}
	count := int(count32)
	if count > len(rest) { // cheap sanity bound: every frame takes > 1 byte
		return nil, fmt.Errorf("ps: init %q: stripe count %d exceeds body", job, count)
	}
	p := make(partition, count)
	for i := 0; i < count; i++ {
		var f stripeFrame
		f, rest, err = readStripeFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("ps: init %q stripe %d/%d: %w", job, i, count, err)
		}
		p[f.idx] = newBlock(f)
	}
	s.mu.Lock()
	s.parts[job] = p
	s.mu.Unlock()
	return nil, nil
}

// handlePull streams the requested stripes out one by one: each stripe
// is encoded under its own read lock, so a checkpoint of a large job never
// stalls co-located jobs' pushes. Per stripe the caller names the cursor
// it holds and gets back the least that brings it up to date (see
// appendPull).
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
		st := p[int(idx32)]
		if st == nil {
			rpc.PutBuffer(reply)
			return nil, notHeld("pull", job, idx32)
		}
		reply = rpc.AppendUint32(reply, idx32)
		s.lockStripe(st, false)
		var moved int
		reply, moved = st.appendPull(reply, epoch, have)
		st.stats.pullOps.Add(1)
		st.stats.pullBytes.Add(int64(moved))
		st.mu.RUnlock()
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
// the range its stripe holds, and nil for one that fits.
func (e *pushEntry) misfit(job string, st *stripeBlock) error {
	lo, n := st.lo, len(st.vals)
	if e.lo >= lo && e.lo-lo+e.span <= n {
		return nil
	}
	return fmt.Errorf("ps: push shape mismatch for job %q: [%d,%d) vs stripe %d [%d,%d)",
		job, e.lo, e.lo+e.span, e.idx, lo, lo+n)
}

// handlePush accumulates deltas straight off the wire, stripe by stripe.
// Sub-stripe ranges are accepted. A malformed request, an entry that does
// not fit its stripe, or a stripe this server does not hold fails the
// whole call before anything is applied: the first pass parses every
// entry and checks it against its stripe's range, the second applies.
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
	type target struct {
		pushEntry
		st *stripeBlock
	}
	var stack [32]target // a job's stripes on one server; more spills to the heap
	targets := stack[:0]
	for i := 0; i < count; i++ {
		var e pushEntry
		e, rest, err = readPushEntry(rest)
		if err != nil {
			return nil, fmt.Errorf("ps: push %q entry %d/%d: %w", job, i, count, err)
		}
		st := p[int(e.idx)]
		if st == nil {
			return nil, notHeld("push", job, e.idx)
		}
		if err := e.misfit(job, st); err != nil {
			return nil, err
		}
		targets = append(targets, target{e, st})
	}
	for i := range targets {
		if e := &targets[i].pushEntry; e.n > 0 { // an empty entry touches nothing
			st := targets[i].st
			s.lockStripe(st, true)
			st.apply(e)
			st.mu.Unlock()
		}
	}
	return nil, nil
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

// Drop forgets a job's partition on this server; a later Init of the job
// builds a fresh one.
func (s *Server) Drop(job string) {
	s.mu.Lock()
	delete(s.parts, job)
	s.mu.Unlock()
}

// Stats snapshots this server's per-stripe load counters. The hosting
// worker returns it inside its worker.stats reply, so the master reads a
// worker and its parameter server in one call.
func (s *Server) Stats() StatsReply {
	s.mu.RLock()
	jobs := make(map[string]partition, len(s.parts))
	for name, p := range s.parts {
		jobs[name] = p
	}
	s.mu.RUnlock()
	var reply StatsReply
	for name, p := range jobs {
		js := JobStats{Job: name}
		for _, st := range p {
			js.Stripes = append(js.Stripes, StripeStat{
				Index: st.idx, Lo: st.lo, Len: len(st.vals),
				PullOps:         st.stats.pullOps.Load(),
				PushOps:         st.stats.pushOps.Load(),
				PullBytes:       st.stats.pullBytes.Load(),
				PushBytes:       st.stats.pushBytes.Load(),
				LockWaitSeconds: time.Duration(st.stats.lockWait.Load()).Seconds(),
			})
		}
		reply.Jobs = append(reply.Jobs, js)
	}
	reply.LockWait = s.lockWait.Snapshot()
	return reply
}

// Close drops every partition. A server starts no goroutine and holds no
// connection, so that is all it releases; the RPC server hosting the
// methods is closed separately.
func (s *Server) Close() {
	s.mu.Lock()
	s.parts = make(map[string]partition)
	s.mu.Unlock()
}

// Partition computes server i's slice bounds for n items over k servers:
// even ranges with the remainder spread over the first few. The layout
// places stripes with it (n = stripe count).
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
