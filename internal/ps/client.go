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

// Client talks to the set of parameter servers hosting one or more jobs'
// models. Every op computes the job's stripe layout from the length of
// the caller's buffer and the server list (layoutFor), so a client that
// never called Init reaches the same owners as the one that did: pulls
// gather stripes from their owners and pushes scatter deltas to them, one
// call per server. Safe for concurrent use.
type Client struct {
	timeout time.Duration
	addrs   []string
	conns   []*rpc.Client // conns[i] is the connection to addrs[i]
}

// NewClient connects to every server address. The order of addrs is part
// of every job's layout: all clients of a job list its servers alike.
func NewClient(addrs []string, timeout time.Duration) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("ps: no server addresses")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	c := &Client{timeout: timeout}
	for _, addr := range addrs {
		cl, err := rpc.Dial(addr, timeout)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("ps: dial server %s: %w", addr, err)
		}
		c.addrs = append(c.addrs, addr)
		c.conns = append(c.conns, cl)
	}
	return c, nil
}

// groupResult is one server's answer to an op: the bytes that moved and,
// for pulls, how it answered the stripes it served.
type groupResult struct {
	bytes             int64
	full, delta, same int64
	err               error
}

// scatter runs call once per server — concurrently when there is more
// than one — with the stripe range [first, end) the layout puts there,
// and sums the results. A failure comes back with the server's address
// attached; a push that failed on one server may have been applied on the
// others, so nothing is retried.
func (c *Client) scatter(what, job string, l layout,
	call func(cl *rpc.Client, first, end int) groupResult) (groupResult, error) {
	results := make([]groupResult, len(c.conns))
	if len(c.conns) == 1 {
		first, end := l.held(0)
		results[0] = call(c.conns[0], first, end)
	} else {
		var wg sync.WaitGroup
		for i, cl := range c.conns {
			first, end := l.held(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = call(cl, first, end)
			}()
		}
		wg.Wait()
	}
	var total groupResult
	for i, res := range results {
		if res.err != nil {
			return total, fmt.Errorf("ps: %s %q on server %s: %w", what, job, c.addrs[i], res.err)
		}
		total.bytes += res.bytes
		total.full += res.full
		total.delta += res.delta
		total.same += res.same
	}
	return total, nil
}

// Init distributes a full model across the servers: the model is carved
// into stripes, stripes are spread evenly, and every server receives its
// stripes in one message — deployment is bounded by the slowest server,
// not the sum of sequential round trips. Re-initializing a job that
// already has partitions replaces them (the §IV-B4 restore path).
func (c *Client) Init(job string, model []float64) error {
	l := layoutFor(len(model), len(c.conns))
	_, err := c.scatter("init", job, l, func(cl *rpc.Client, first, end int) groupResult {
		body := rpc.GetBuffer(2 + len(job) + 4)[:0]
		body = rpc.AppendString(body, job)
		body = rpc.AppendUint32(body, uint32(end-first))
		for s := first; s < end; s++ {
			lo, hi := l.span(s)
			body = appendStripeFrame(body, s, lo, 1, model[lo:hi])
		}
		reply, err := cl.Call(MethodInit, body, c.timeout)
		rpc.PutBuffer(body)
		rpc.PutBuffer(reply)
		return groupResult{err: err}
	})
	return err
}

// PullInto fetches the full model into the caller's buffer (len(model)
// is the model size). Each stripe decodes straight into its slice of the
// buffer, so the steady-state pull allocates nothing. Every stripe
// travels whole, whatever the buffer held before.
func (c *Client) PullInto(job string, model []float64) error {
	return c.pull(job, model, nil)
}

// Sync brings the mirror up to date with the servers — the PULL subtask
// of an iterating job. Per stripe it moves nothing (not modified since
// the last Sync), the elements pushed since, or the whole stripe; the
// result is always exactly what PullInto would have produced. After an
// error the mirror holds no cursors and the next Sync pulls it whole.
func (c *Client) Sync(m *Mirror) error {
	err := c.pull(m.job, m.vals, m)
	if err != nil {
		m.forget()
	}
	return err
}

// pull gathers every stripe of the model into dst. With a mirror (whose
// buffer dst then is) the request carries the mirror's cursors and the
// servers may answer with less than the whole stripe; without one every
// stripe travels whole.
func (c *Client) pull(job string, dst []float64, m *Mirror) error {
	start := time.Now()
	l := layoutFor(len(dst), len(c.conns))
	var cur []stripeCursor
	if m != nil {
		cur = m.cursors(l.stripes)
	}
	total, err := c.scatter("pull", job, l, func(cl *rpc.Client, first, end int) groupResult {
		if first == end {
			return groupResult{}
		}
		body := rpc.GetBuffer(2 + len(job) + 4 + 20*(end-first))[:0]
		body = rpc.AppendString(body, job)
		body = rpc.AppendUint32(body, uint32(end-first))
		for s := first; s < end; s++ {
			var have stripeCursor
			if cur != nil {
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
		res := decodeStripesInto(reply, l, first, end, dst, m)
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

// decodeStripesInto places a pull reply for stripes [first, end) of
// layout l into dst, the model buffer, advancing the cursors of the
// stripes it brought up to date. The reply must answer exactly those
// stripes, in order, and a full stripe must sit where the layout says:
// anything else (a model of another length, a server list in another
// order) is an error. m is the mirror whose buffer dst is, nil for a plain
// pull; a stripe without a cursor can only be answered in full. A
// stripe's values, its cursor and the mirror's record of what was
// rewritten change together or not at all — a delta is checked against
// the stripe's extent before its first element is written.
func decodeStripesInto(reply []byte, l layout, first, end int, dst []float64, m *Mirror) (res groupResult) {
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
	if int(count32) != end-first {
		return fail(fmt.Errorf("ps: pull reply answers %d stripes, asked %d", count32, end-first))
	}
	for s := first; s < end; s++ {
		idx32, next, err := rpc.ReadUint32(rest)
		if err != nil {
			return fail(err)
		}
		if int(idx32) != s {
			return fail(fmt.Errorf("ps: pull reply answers stripe %d, asked %d", idx32, s))
		}
		if len(next) < 1 {
			return fail(fmt.Errorf("rpc: stripe status truncated"))
		}
		status := next[0]
		rest = next[1:]
		var held *stripeCursor
		if s < len(cur) {
			held = &cur[s]
		}
		lo, hi := l.span(s)
		switch status {
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
			if int(lo32) != lo || n != hi-lo {
				return fail(fmt.Errorf("ps: stripe %d holds [%d,%d), the layout says [%d,%d)",
					s, lo32, int(lo32)+n, lo, hi))
			}
			rest = next
			for k := range dst[lo:hi] {
				dst[lo+k] = rpc.FloatAt(data, k)
			}
			if held != nil {
				*held = stripeCursor{epoch: epoch, version: version}
			}
			if m != nil {
				m.rewroteAll()
			}
			res.full++
		case stripeSame:
			if held == nil || held.version == 0 {
				return fail(fmt.Errorf("ps: stripe %d: not-modified reply without a cursor", s))
			}
			res.same++
		case stripeDelta:
			if held == nil || held.version == 0 {
				return fail(fmt.Errorf("ps: stripe %d: delta reply without a cursor", s))
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
				if off, _ := sparseAt(data, k); off >= hi-lo {
					return fail(fmt.Errorf("ps: stripe %d: delta offset %d beyond %d elements", s, off, hi-lo))
				}
			}
			vals := dst[lo:hi]
			for k := 0; k < nnz; k++ {
				off, v := sparseAt(data, k)
				vals[off] = v
			}
			held.version = version
			m.rewrote(lo, data, nnz)
			res.delta++
		default:
			return fail(fmt.Errorf("ps: stripe %d: unknown reply status %d", s, status))
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
	return c.PushTouched(job, delta, touched.Set{})
}

// PushTouched is Push for a caller that knows which elements of delta may
// be other than +0 (mlapp's Scratch.Touched): set must hold them all. The
// request is the same, byte for byte; building it walks the set instead of
// the model.
func (c *Client) PushTouched(job string, delta []float64, set touched.Set) error {
	start := time.Now()
	l := layoutFor(len(delta), len(c.conns))
	total, err := c.scatter("push", job, l, func(cl *rpc.Client, first, end int) groupResult {
		body := rpc.GetBuffer(2 + len(job) + 4)[:0]
		body = rpc.AppendString(body, job)
		countAt := len(body)
		body = rpc.AppendUint32(body, 0)
		entries := 0
		for s := first; s < end; s++ {
			lo, hi := l.span(s)
			var sent bool
			if body, sent = appendPushEntry(body, s, lo, delta[lo:hi], set, lo); sent {
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
		rpc.PutBuffer(reply)
		res.err = err
		return res
	})
	if err != nil {
		return err
	}
	metrics.Comm.ObservePush(total.bytes, time.Since(start))
	return nil
}

// Close tears the connections down; ops racing or following it fail
// with rpc.ErrClosed.
func (c *Client) Close() {
	for _, cl := range c.conns {
		cl.Close()
	}
}
