package ps

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"harmony/internal/metrics"
	"harmony/internal/rpc"
	"harmony/internal/touched"
)

// maxRouteAttempts bounds the moved-stripe retry loop: each attempt
// follows the moved reply's forwarding hint (or refreshes the route
// table when there is none), so a handful of rounds rides out any burst
// of concurrent migrations.
const maxRouteAttempts = 6

// movedRef is one stripe a server bounced, with the forwarding hint from
// its tombstone ("" when the server has no forwarding entry).
type movedRef struct {
	idx int
	fwd string
}

// errClientClosed surfaces ops racing Close (or a SetServers shrink)
// instead of dereferencing a vanished connection.
var errClientClosed = fmt.Errorf("ps: client closed")

// stripeRef locates one stripe of a job from the client's point of view.
type stripeRef struct {
	lo, n int
	owner string // server addr holding the stripe
}

// jobRoute is an immutable stripe→server map for one job. Clients swap
// the whole route on refresh, so in-flight ops keep a consistent view.
type jobRoute struct {
	stripes []stripeRef // indexed by stripe index; contiguous tiling
}

// extent is the model length the route tiles.
func (r *jobRoute) extent() int {
	if len(r.stripes) == 0 {
		return 0
	}
	last := r.stripes[len(r.stripes)-1]
	return last.lo + last.n
}

// overlapping lists the stripes intersecting [lo, lo+n).
func (r *jobRoute) overlapping(lo, n int) []int {
	out := make([]int, 0, len(r.stripes))
	for s, st := range r.stripes {
		if st.lo < lo+n && st.lo+st.n > lo {
			out = append(out, s)
		}
	}
	return out
}

// Client talks to the set of parameter servers hosting one or more jobs'
// models. It routes per stripe: pulls gather stripes from their owners,
// pushes scatter deltas to them, and an op that hits a migrated-away
// stripe follows the forwarding hint (or refreshes the route table from
// the servers) and retries — so stripe placement can change underneath a
// running job. Safe for concurrent use.
type Client struct {
	timeout time.Duration
	// stripeElems overrides the Init-time stripe size (tests and the
	// rebalance bench use small stripes to get many movable units).
	stripeElems int

	mu      sync.RWMutex
	addrs   []string
	clients map[string]*rpc.Client
	routes  map[string]*jobRoute
	// retired holds connections to servers dropped by SetServers; they
	// stay open (in-flight ops may still reference them) until Close.
	retired []*rpc.Client
}

// NewClient connects to every server address.
func NewClient(addrs []string, timeout time.Duration) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("ps: no server addresses")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	c := &Client{
		timeout: timeout,
		clients: make(map[string]*rpc.Client),
		routes:  make(map[string]*jobRoute),
	}
	for _, addr := range addrs {
		cl, err := rpc.Dial(addr, timeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("ps: dial server %s: %w", addr, err)
		}
		c.addrs = append(c.addrs, addr)
		c.clients[addr] = cl
	}
	return c, nil
}

// SetStripeElems overrides the per-stripe element count used by Init
// (0 restores the size-derived default). Call before Init.
func (c *Client) SetStripeElems(n int) { c.stripeElems = n }

// SetServers replaces the server set (the master's checkpoint client
// follows the registered workers with it).
// Connections to retained addrs are reused; routes are cleared so the
// next op re-discovers stripe placement.
func (c *Client) SetServers(addrs []string) error {
	if len(addrs) == 0 {
		return fmt.Errorf("ps: no server addresses")
	}
	fresh := make(map[string]*rpc.Client, len(addrs))
	for _, addr := range addrs {
		if _, dup := fresh[addr]; dup {
			continue
		}
		c.mu.RLock()
		cl := c.clients[addr]
		c.mu.RUnlock()
		if cl == nil {
			var err error
			cl, err = rpc.Dial(addr, c.timeout)
			if err != nil {
				for a, opened := range fresh {
					c.mu.RLock()
					reused := c.clients[a] == opened
					c.mu.RUnlock()
					if !reused {
						opened.Close()
					}
				}
				return fmt.Errorf("ps: dial server %s: %w", addr, err)
			}
		}
		fresh[addr] = cl
	}
	c.mu.Lock()
	for addr, cl := range c.clients {
		if fresh[addr] != cl {
			c.retired = append(c.retired, cl)
		}
	}
	c.addrs = append(c.addrs[:0:0], addrs...)
	c.clients = fresh
	c.routes = make(map[string]*jobRoute)
	c.mu.Unlock()
	return nil
}

// snapshotServers returns the current addr list and connection map.
// Neither is ever modified once published — SetServers and Close swap in
// fresh ones — so callers share them without copying.
func (c *Client) snapshotServers() ([]string, map[string]*rpc.Client) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.addrs, c.clients
}

func (c *Client) route(job string) *jobRoute {
	c.mu.RLock()
	r := c.routes[job]
	c.mu.RUnlock()
	return r
}

// Init distributes a full model across the servers: the model is carved
// into stripes, stripes are spread evenly, and every server receives its
// stripes in one install message — deployment is bounded by the slowest
// server, not the sum of sequential round trips. Re-initializing a job
// that already has partitions replaces them (the §IV-B4 restore path).
func (c *Client) Init(job string, model []float64) error {
	addrs, conns := c.snapshotServers()
	k := len(addrs)
	se := c.stripeElems
	if se <= 0 {
		se = stripeElemsFor(len(model), k)
	}
	S := stripeCount(len(model), se)
	route := &jobRoute{stripes: make([]stripeRef, S)}
	perServer := make([][]int, k)
	for i := 0; i < k; i++ {
		slo, shi := Partition(S, k, i)
		for s := slo; s < shi; s++ {
			lo := s * se
			hi := max(min(lo+se, len(model)), lo)
			route.stripes[s] = stripeRef{lo: lo, n: hi - lo, owner: addrs[i]}
			perServer[i] = append(perServer[i], s)
		}
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := conns[addrs[i]]
			if cl == nil {
				errs[i] = errClientClosed
				return
			}
			body := rpc.GetBuffer(2 + len(job) + 4)[:0]
			body = rpc.AppendString(body, job)
			body = rpc.AppendUint32(body, uint32(len(perServer[i])))
			for _, s := range perServer[i] {
				st := route.stripes[s]
				body = appendStripeFrame(body, s, st.lo, 1, model[st.lo:st.lo+st.n])
			}
			reply, err := cl.Call(MethodInit, body, c.timeout)
			rpc.PutBuffer(body)
			rpc.PutBuffer(reply)
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ps: init on server %d (%s): %w", i, addrs[i], err)
		}
	}
	c.mu.Lock()
	c.routes[job] = route
	c.mu.Unlock()
	return nil
}

// refreshRoute rebuilds the stripe→server map by asking every server
// which stripes of the job it holds. Partial per-server failures are
// tolerated as long as the surviving answers tile the model. A stripe
// can transiently appear on no server (the queries are not an atomic
// snapshot: dest asked before its install, source asked after the
// handoff), so incomplete tilings retry briefly before failing.
func (c *Client) refreshRoute(job string) (*jobRoute, error) {
	var lastErr error
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * time.Millisecond)
		}
		route, incomplete, err := c.queryRoutes(job)
		if err == nil {
			return route, nil
		}
		lastErr = err
		if !incomplete {
			break
		}
	}
	return nil, lastErr
}

// queryRoutes performs one routes fan-out. incomplete marks failures a
// racing migration explains (retryable); hard failures are not.
func (c *Client) queryRoutes(job string) (route *jobRoute, incomplete bool, err error) {
	addrs, conns := c.snapshotServers()
	replies := make([]RoutesReply, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i := range addrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := conns[addrs[i]]
			if cl == nil {
				errs[i] = errClientClosed
				return
			}
			replies[i], errs[i] = rpc.Invoke[RoutesArgs, RoutesReply](
				cl, MethodRoutes, RoutesArgs{Job: job}, c.timeout)
		}(i)
	}
	wg.Wait()
	byIdx := make(map[int]stripeRef)
	maxIdx := -1
	for i, reply := range replies {
		if errs[i] != nil {
			continue
		}
		for _, sr := range reply.Stripes {
			byIdx[sr.Index] = stripeRef{lo: sr.Lo, n: sr.Len, owner: addrs[i]}
			maxIdx = max(maxIdx, sr.Index)
		}
	}
	firstErr := func() error {
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("ps: routes on server %d (%s): %w", i, addrs[i], err)
			}
		}
		return nil
	}
	if maxIdx < 0 {
		if err := firstErr(); err != nil {
			return nil, false, err
		}
		return nil, false, fmt.Errorf("ps: no stripes for job %q", job)
	}
	route = &jobRoute{stripes: make([]stripeRef, maxIdx+1)}
	wantLo := 0
	for s := 0; s <= maxIdx; s++ {
		ref, ok := byIdx[s]
		if !ok || ref.lo != wantLo {
			if err := firstErr(); err != nil {
				return nil, true, err
			}
			return nil, true, fmt.Errorf("ps: incomplete routes for job %q: stripe %d unaccounted", job, s)
		}
		route.stripes[s] = ref
		wantLo += ref.n
	}
	c.mu.Lock()
	c.routes[job] = route
	c.mu.Unlock()
	return route, false, nil
}

// routeCovering returns a route whose tiling covers [0, need). A cached
// or freshly queried route can transiently cover less when the stripes
// near the end are mid-migration (the per-server queries are not an
// atomic snapshot), so a short route retries rather than erring — and a
// genuinely short model (the caller asked past the end) surfaces as the
// final error.
func (c *Client) routeCovering(job string, need int, r *jobRoute) (*jobRoute, error) {
	var err error
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		if r != nil && r.extent() >= need {
			return r, nil
		}
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * time.Millisecond)
		}
		if r, err = c.refreshRoute(job); err != nil {
			return nil, err
		}
	}
	if r != nil && r.extent() >= need {
		return r, nil
	}
	return nil, fmt.Errorf("ps: shape mismatch for job %q: request reaches %d, model has %d elements",
		job, need, r.extent())
}

// Pull fetches the full model, stripes gathered concurrently from their
// owners — the PULL subtask. It allocates a fresh model; iterating
// callers should prefer Sync with a Mirror.
func (c *Client) Pull(job string, modelSize int) ([]float64, error) {
	model := make([]float64, modelSize)
	if err := c.PullInto(job, model); err != nil {
		return nil, err
	}
	return model, nil
}

// PullInto fetches the full model into the caller's buffer (len(model)
// is the model size). Each stripe decodes straight into its slice of the
// buffer, so the steady-state pull allocates nothing. Every stripe
// travels whole, whatever the buffer held before.
func (c *Client) PullInto(job string, model []float64) error {
	return c.pullStripes(job, 0, model, nil)
}

// PullRange fetches the model elements [lo, lo+len(dst)) into dst.
// Stripes overlapping the range travel whole; only the overlap lands in
// dst. Used by range-oriented consumers (the skew load generator).
func (c *Client) PullRange(job string, lo int, dst []float64) error {
	return c.pullStripes(job, lo, dst, nil)
}

// Sync brings the mirror up to date with the servers — the PULL subtask
// of an iterating job. Per stripe it moves nothing (not modified since
// the last Sync), the elements pushed since, or the whole stripe; the
// result is always exactly what PullInto would have produced. After an
// error the mirror holds no cursors and the next Sync pulls it whole.
func (c *Client) Sync(m *Mirror) error {
	err := c.pullStripes(m.job, 0, m.vals, m)
	if err != nil {
		m.forget()
	}
	return err
}

// stripeGroup is the stripes of one op attempt bound for one server.
type stripeGroup struct {
	addr string
	cl   *rpc.Client
	idxs []int
}

// groupResult is one server's answer to a stripeGroup: the stripes it
// bounced, the bytes that moved, and — for pulls — how it answered the
// stripes it served.
type groupResult struct {
	moved             []movedRef
	bytes             int64
	full, delta, same int64
	err               error
}

// scatter is the retry loop every data-plane op runs: group the pending
// stripes by the server to ask, call them (concurrently when there is
// more than one server to ask), and go round again for the stripes a
// server bounced. A moved stripe with a forwarding hint retries directly
// at the forward target (chasing the stripe through back-to-back
// migrations); one without a hint triggers a route refresh. A
// connection-level failure aborts the op with the server's identity
// attached — for a push it is ambiguous (the delta may or may not have
// been applied) and retrying could double-apply, whereas a bounced stripe
// is safe to retry: the server verifiably did not touch it.
func (c *Client) scatter(job, what string, r *jobRoute, lo, n int,
	call func(cl *rpc.Client, r *jobRoute, idxs []int) groupResult) (groupResult, error) {
	var total groupResult
	var forwards map[int]string
	pending := r.overlapping(lo, n)
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt >= maxRouteAttempts {
			return total, fmt.Errorf("ps: %s %q: %d stripes unavailable after %d attempts",
				what, job, len(pending), attempt)
		}
		if attempt > 0 {
			metrics.Comm.ObserveMovedRetries(int64(len(pending)))
			if !allForwarded(pending, forwards) {
				var err error
				if r, err = c.routeCovering(job, lo+n, nil); err != nil {
					return total, err
				}
				time.Sleep(time.Millisecond)
			}
		}
		_, conns := c.snapshotServers()
		var groups []stripeGroup
		var stale []int
	nextStripe:
		for _, s := range pending {
			if s >= len(r.stripes) {
				stale = append(stale, s)
				continue
			}
			// Stripe geometry (lo/n) is immutable across migrations, so a
			// forwarded op can still build its body from the stale route.
			st := r.stripes[s]
			addr := st.owner
			if fwd := forwards[s]; fwd != "" && conns[fwd] != nil {
				addr = fwd
			}
			if conns[addr] == nil {
				stale = append(stale, s)
				continue
			}
			for g := range groups {
				if groups[g].addr == addr {
					groups[g].idxs = append(groups[g].idxs, s)
					continue nextStripe
				}
			}
			groups = append(groups, stripeGroup{addr: addr, cl: conns[addr],
				idxs: append(make([]int, 0, len(pending)), s)})
		}
		results := make([]groupResult, len(groups))
		if len(groups) == 1 {
			results[0] = call(groups[0].cl, r, groups[0].idxs)
		} else {
			var wg sync.WaitGroup
			for g := range groups {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					results[g] = call(groups[g].cl, r, groups[g].idxs)
				}(g)
			}
			wg.Wait()
		}
		pending = stale
		for g, res := range results {
			if res.err != nil {
				return total, fmt.Errorf("ps: %s on server %s: %w", what, groups[g].addr, res.err)
			}
			total.bytes += res.bytes
			total.full += res.full
			total.delta += res.delta
			total.same += res.same
			for _, mv := range res.moved {
				if forwards == nil {
					forwards = make(map[int]string)
				}
				setForward(forwards, mv)
				pending = append(pending, mv.idx)
			}
		}
	}
	c.applyForwards(job, forwards)
	return total, nil
}

// pullStripes gathers every stripe overlapping [reqLo, reqLo+len(dst))
// into dst. With a mirror (whose buffer dst then is) the request carries
// the mirror's cursors and the servers may answer with less than the
// whole stripe; without one every stripe travels whole.
func (c *Client) pullStripes(job string, reqLo int, dst []float64, m *Mirror) error {
	start := time.Now()
	r, err := c.routeCovering(job, reqLo+len(dst), c.route(job))
	if err != nil {
		return err
	}
	var cur []stripeCursor
	if m != nil {
		cur = m.cursors(len(r.stripes))
	}
	total, err := c.scatter(job, "pull", r, reqLo, len(dst),
		func(cl *rpc.Client, _ *jobRoute, idxs []int) groupResult {
			body := rpc.GetBuffer(2 + len(job) + 4 + 20*len(idxs))[:0]
			body = rpc.AppendString(body, job)
			body = rpc.AppendUint32(body, uint32(len(idxs)))
			for _, s := range idxs {
				// A stripe beyond the cursor table (the route grew under the
				// op) is simply asked for whole.
				var have stripeCursor
				if s < len(cur) {
					have = cur[s]
				}
				body = rpc.AppendUint32(body, uint32(s))
				body = rpc.AppendUint64(body, have.epoch)
				body = rpc.AppendUint64(body, have.version)
			}
			reply, err := cl.Call(MethodPull, body, c.timeout)
			rpc.PutBuffer(body)
			if err != nil {
				return groupResult{err: err}
			}
			res := decodeStripesInto(reply, reqLo, dst, m)
			res.bytes = int64(len(reply))
			rpc.PutBuffer(reply)
			return res
		})
	if err != nil {
		return err
	}
	metrics.Comm.ObservePull(total.bytes, time.Since(start))
	metrics.Comm.ObservePullReplies(total.full, total.delta, total.same)
	return nil
}

// allForwarded reports whether every pending stripe has a forwarding
// hint — then the retry chases the hints directly and the route
// re-scrape (whose answer the next migration can invalidate) is skipped.
func allForwarded(pending []int, forwards map[int]string) bool {
	for _, s := range pending {
		if forwards[s] == "" {
			return false
		}
	}
	return len(pending) > 0
}

// setForward records a bounce's forwarding hint, clearing a stale one
// when the server had no forwarding entry.
func setForward(forwards map[int]string, mv movedRef) {
	if mv.fwd != "" {
		forwards[mv.idx] = mv.fwd
	} else {
		delete(forwards, mv.idx)
	}
}

// applyForwards promotes the forwarding hints an op chased into the
// cached route, so subsequent ops go straight to the new owner instead
// of bouncing through the old one on every call. Concurrent promotions
// may overwrite each other — the route is a hint either way, and the next
// bounce re-corrects it.
func (c *Client) applyForwards(job string, forwards map[int]string) {
	if len(forwards) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.routes[job]
	if r == nil {
		return
	}
	clone := &jobRoute{stripes: append([]stripeRef(nil), r.stripes...)}
	changed := false
	for s, fwd := range forwards {
		if s < len(clone.stripes) && fwd != "" && clone.stripes[s].owner != fwd {
			clone.stripes[s].owner = fwd
			changed = true
		}
	}
	if changed {
		c.routes[job] = clone
	}
}

// decodeStripesInto places a pull reply's stripes into dst (which holds
// [reqLo, reqLo+len(dst)) of the model), advancing the cursors of the
// stripes it brought up to date, and returns the stripes the server
// bounced, each with its forwarding hint. m is the mirror whose buffer dst
// is, nil for a plain pull; its cursor table is indexed by stripe and may
// be short: a stripe without a cursor can only be answered in full, and
// anything else for it is a protocol error. A stripe's values, its cursor
// and the mirror's record of what was rewritten change together or not at
// all — a delta is checked against the stripe's extent before its first
// element is written.
func decodeStripesInto(reply []byte, reqLo int, dst []float64, m *Mirror) (res groupResult) {
	var cur []stripeCursor
	if m != nil {
		cur = m.cur
	}
	fail := func(err error) groupResult {
		res.err = err
		return res
	}
	count32, rest, err := rpc.ReadUint32(reply)
	if err != nil {
		return fail(err)
	}
	for i := 0; i < int(count32); i++ {
		idx32, next, err := rpc.ReadUint32(rest)
		if err != nil {
			return fail(err)
		}
		if len(next) < 1 {
			return fail(fmt.Errorf("rpc: stripe status truncated"))
		}
		status := next[0]
		rest = next[1:]
		var held *stripeCursor
		if int(idx32) < len(cur) {
			held = &cur[idx32]
		}
		switch status {
		case stripeMoved:
			fwd, next, err := rpc.ReadString(rest)
			if err != nil {
				return fail(err)
			}
			rest = next
			res.moved = append(res.moved, movedRef{idx: int(idx32), fwd: fwd})
		case stripeOK:
			lo32, next, err := rpc.ReadUint32(rest)
			if err != nil {
				return fail(err)
			}
			epoch, next, err := rpc.ReadUint64(next)
			if err != nil {
				return fail(err)
			}
			version, next, err := rpc.ReadUint64(next)
			if err != nil {
				return fail(err)
			}
			n, data, next, err := rpc.FloatFrame(next)
			if err != nil {
				return fail(err)
			}
			rest = next
			slo := int(lo32)
			olo, ohi := max(slo, reqLo), min(slo+n, reqLo+len(dst))
			for k := olo; k < ohi; k++ {
				dst[k-reqLo] = rpc.FloatAt(data, k-slo)
			}
			if held != nil {
				// Only a stripe held whole can be the base of a later delta.
				*held = stripeCursor{}
				if version != 0 && olo == slo && ohi == slo+n {
					*held = stripeCursor{epoch: epoch, version: version, lo: slo - reqLo, n: n}
				}
			}
			if m != nil {
				m.rewroteAll()
			}
			res.full++
		case stripeSame:
			if held == nil || held.version == 0 {
				return fail(fmt.Errorf("ps: stripe %d: not-modified reply without a cursor", idx32))
			}
			res.same++
		case stripeDelta:
			if held == nil || held.version == 0 {
				return fail(fmt.Errorf("ps: stripe %d: delta reply without a cursor", idx32))
			}
			version, next, err := rpc.ReadUint64(rest)
			if err != nil {
				return fail(err)
			}
			nnz32, next, err := rpc.ReadUint32(next)
			if err != nil {
				return fail(err)
			}
			if uint64(nnz32)*sparseRec > uint64(len(next)) {
				return fail(fmt.Errorf("rpc: delta reply truncated: %d pairs, %d bytes", nnz32, len(next)))
			}
			nnz := int(nnz32)
			data := next[:nnz*sparseRec]
			rest = next[nnz*sparseRec:]
			for k := 0; k < nnz; k++ {
				if off, _ := sparseAt(data, k); off >= held.n {
					return fail(fmt.Errorf("ps: stripe %d: delta offset %d beyond %d elements", idx32, off, held.n))
				}
			}
			vals := dst[held.lo : held.lo+held.n]
			for k := 0; k < nnz; k++ {
				off, v := sparseAt(data, k)
				vals[off] = v
			}
			held.version = version
			m.rewrote(held.lo, data, nnz)
			res.delta++
		default:
			return fail(fmt.Errorf("ps: stripe %d: unknown reply status %d", idx32, status))
		}
	}
	return res
}

// Push scatters an additive delta across the stripe owners — the PUSH
// subtask. Aggregation happens server-side, in place, at each stripe's
// owner. Only what the delta changes travels: per stripe the smaller of
// the dense and the sparse encoding, and nothing for a stripe whose
// delta is all +0.
func (c *Client) Push(job string, delta []float64) error {
	return c.pushStripes(job, 0, delta, touched.Set{})
}

// PushTouched is Push for a caller that knows which elements of delta may
// be other than +0 (mlapp's Scratch.Touched): set must hold them all. The
// request is the same, byte for byte; building it walks the set instead of
// the model.
func (c *Client) PushTouched(job string, delta []float64, set touched.Set) error {
	return c.pushStripes(job, 0, delta, set)
}

// PushRange pushes an additive delta for elements [lo, lo+len(delta)).
func (c *Client) PushRange(job string, lo int, delta []float64) error {
	return c.pushStripes(job, lo, delta, touched.Set{})
}

func (c *Client) pushStripes(job string, reqLo int, delta []float64, set touched.Set) error {
	start := time.Now()
	if reqLo < 0 {
		return fmt.Errorf("ps: push %q: negative offset %d", job, reqLo)
	}
	r, err := c.routeCovering(job, reqLo+len(delta), c.route(job))
	if err != nil {
		return err
	}
	total, err := c.scatter(job, "push", r, reqLo, len(delta),
		func(cl *rpc.Client, r *jobRoute, idxs []int) groupResult {
			body := rpc.GetBuffer(2 + len(job) + 4)[:0]
			body = rpc.AppendString(body, job)
			countAt := len(body)
			body = rpc.AppendUint32(body, 0)
			entries := 0
			for _, s := range idxs {
				st := r.stripes[s]
				olo, ohi := max(st.lo, reqLo), min(st.lo+st.n, reqLo+len(delta))
				var sent bool
				if body, sent = appendPushEntry(body, s, olo, delta[olo-reqLo:ohi-reqLo], set, olo-reqLo); sent {
					entries++
				}
			}
			if entries == 0 {
				rpc.PutBuffer(body)
				return groupResult{}
			}
			binary.LittleEndian.PutUint32(body[countAt:], uint32(entries))
			res := groupResult{bytes: int64(len(body))}
			reply, err := cl.Call(MethodPush, body, c.timeout)
			rpc.PutBuffer(body)
			if err != nil {
				res.err = err
				return res
			}
			res.moved, res.err = decodePushReply(reply)
			rpc.PutBuffer(reply)
			return res
		})
	if err != nil {
		return err
	}
	metrics.Comm.ObservePush(total.bytes, time.Since(start))
	return nil
}

func decodePushReply(reply []byte) ([]movedRef, error) {
	nfail32, rest, err := rpc.ReadUint32(reply)
	if err != nil {
		return nil, err
	}
	var failed []movedRef
	for i := 0; i < int(nfail32); i++ {
		idx32, next, err := rpc.ReadUint32(rest)
		if err != nil {
			return nil, err
		}
		fwd, next, err := rpc.ReadString(next)
		if err != nil {
			return nil, err
		}
		rest = next
		failed = append(failed, movedRef{idx: int(idx32), fwd: fwd})
	}
	return failed, nil
}

// Close tears down the connections, including any retired by SetServers.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.clients
	retired := c.retired
	c.addrs = nil
	c.clients = make(map[string]*rpc.Client)
	c.retired = nil
	c.mu.Unlock()
	for _, cl := range conns {
		if cl != nil {
			cl.Close()
		}
	}
	for _, cl := range retired {
		if cl != nil {
			cl.Close()
		}
	}
}
