package ps

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"harmony/internal/rpc"
	"harmony/internal/touched"
)

// This file is the delta half of the data plane: the sparse push entry
// (client encode, server parse), the per-stripe change log that lets the
// pull handler answer "what changed since your cursor", and the client's
// Mirror — the buffer plus per-stripe cursors that an iterating job syncs
// instead of re-pulling the whole model. The wire layouts are in the
// package comment (ps.go).

// Push-entry encodings.
const (
	encDense  = 0 // floats delta
	encSparse = 1 // u32 nnz | nnz × (u32 off | f64 delta), off ascending
)

// sparseRec is the wire size of one (u32 offset | f64 value) pair — a
// sparse push element and a delta pull element alike.
const sparseRec = 12

// grow returns body with room for extra more bytes, moving it into a
// larger pooled buffer when it is full, so an encode that outgrows its
// first buffer still allocates nothing in steady state.
func grow(body []byte, extra int) []byte {
	if cap(body)-len(body) >= extra {
		return body
	}
	bigger := rpc.GetBuffer(2*cap(body) + extra)[:len(body)]
	copy(bigger, body)
	rpc.PutBuffer(body)
	return bigger
}

// headLen is how many leading elements of a segment appendPushEntry
// looks at to guess which encoding will win. The guess only picks which
// walk runs first; the bytes sent are the smaller encoding either way.
const headLen = 64

// appendPushEntry appends the push entry for seg, the delta of elements
// [lo, lo+len(seg)) of stripe idx, in whichever encoding is fewer bytes,
// and reports whether it appended anything: a segment that is all +0
// changes nothing on the server and is left out. "Zero" is the bit
// pattern of +0 only; -0 and NaNs travel. set, in which seg[0] is element
// at, holds every element of seg that is not +0; the bytes do not depend
// on what else it holds.
//
// The steady states cost one walk each. A sparse set is walked instead of
// seg: the entry costs what was touched, not what the stripe holds.
// Otherwise a segment whose head is mostly non-zero is written dense while
// its non-zeros are counted, and only if the count says sparse was smaller
// after all is it rewound and walked again; any other segment is written
// sparse as the non-zeros are met. Either walk rewinds and writes dense the
// moment sparse stops being the smaller form (12·nnz ≥ 8·n).
func appendPushEntry(body []byte, idx, lo int, seg []float64, set touched.Set, at int) ([]byte, bool) {
	start := len(body)
	body = grow(body, 13)
	body = rpc.AppendUint32(body, uint32(idx))
	body = rpc.AppendUint32(body, uint32(lo))
	body = append(body, encDense)
	payloadAt := len(body)
	sparseWins := func(nnz int) bool { return sparseRec*nnz < 8*len(seg) }

	var within []uint32 // the elements to visit, when not all of seg
	visits := len(seg)
	if !set.All() {
		within = set.Within(at, at+len(seg))
		visits = len(within)
	} else if head := seg[:min(headLen, len(seg))]; sparseRec*countNonZero(head) >= 8*len(head) && len(head) > 0 {
		var nnz int
		if body, nnz = appendFloatsCounting(body, seg); !sparseWins(nnz) {
			return body, true
		}
		body = body[:payloadAt]
	}
	body[payloadAt-1] = encSparse
	body = rpc.AppendUint32(body, 0)
	nnz := 0
	for k := 0; k < visits; k++ {
		i := k
		if within != nil {
			i = int(within[k]) - at
		}
		bits := math.Float64bits(seg[i])
		if bits == 0 {
			continue
		}
		if nnz++; !sparseWins(nnz) {
			body[payloadAt-1] = encDense
			body, _ = appendFloatsCounting(body[:payloadAt], seg)
			return body, true
		}
		body = grow(body, sparseRec)
		body = rpc.AppendUint32(body, uint32(i))
		body = rpc.AppendUint64(body, bits)
	}
	if nnz == 0 {
		return body[:start], false
	}
	binary.LittleEndian.PutUint32(body[payloadAt:], uint32(nnz))
	return body, true
}

func countNonZero(vals []float64) int {
	nnz := 0
	for _, v := range vals {
		if math.Float64bits(v) != 0 {
			nnz++
		}
	}
	return nnz
}

// appendFloatsCounting appends vals as a float frame (rpc.AppendFloats'
// layout) and counts, in the same walk, the elements that are not +0.
func appendFloatsCounting(dst []byte, vals []float64) ([]byte, int) {
	dst = grow(dst, rpc.FloatsLen(len(vals)))
	off := len(dst)
	dst = dst[:off+rpc.FloatsLen(len(vals))]
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(vals)))
	off += 4
	nnz := 0
	for _, v := range vals {
		bits := math.Float64bits(v)
		binary.LittleEndian.PutUint64(dst[off:], bits)
		off += 8
		if bits != 0 {
			nnz++
		}
	}
	return dst, nnz
}

// pushEntry is one parsed entry of a push request. data aliases the
// request body: n raw floats (dense) or n offset/value pairs (sparse).
type pushEntry struct {
	idx  uint32
	lo   int
	enc  byte
	n    int
	span int // elements [lo, lo+span) are the ones the entry can touch
	data []byte
}

// readPushEntry parses and validates one push entry's framing. A sparse
// entry's offsets must be strictly ascending, which bounds-checks them
// against span in one comparison and rules out an element being
// incremented twice.
func readPushEntry(b []byte) (e pushEntry, rest []byte, err error) {
	idx, b, err := rpc.ReadUint32(b)
	if err != nil {
		return e, nil, err
	}
	lo, b, err := rpc.ReadUint32(b)
	if err != nil {
		return e, nil, err
	}
	if len(b) < 1 {
		return e, nil, fmt.Errorf("rpc: push entry encoding truncated")
	}
	e.idx, e.lo, e.enc = idx, int(lo), b[0]
	b = b[1:]
	switch e.enc {
	case encDense:
		e.n, e.data, rest, err = rpc.FloatFrame(b)
		e.span = e.n
		return e, rest, err
	case encSparse:
		nnz, b, err := rpc.ReadUint32(b)
		if err != nil {
			return e, nil, err
		}
		if uint64(nnz)*sparseRec > uint64(len(b)) {
			return e, nil, fmt.Errorf("rpc: sparse entry truncated: %d pairs, %d bytes", nnz, len(b))
		}
		e.n = int(nnz)
		e.data, rest = b[:e.n*sparseRec], b[e.n*sparseRec:]
		prev := -1
		for k := 0; k < e.n; k++ {
			off := int(binary.LittleEndian.Uint32(e.data[k*sparseRec:]))
			if off <= prev {
				return e, nil, fmt.Errorf("ps: sparse entry offsets not ascending at pair %d", k)
			}
			prev = off
		}
		e.span = prev + 1
		return e, rest, nil
	}
	return e, nil, fmt.Errorf("ps: unknown push encoding %d", e.enc)
}

// sparseAt reads pair k of a sparse data section.
func sparseAt(data []byte, k int) (off int, v float64) {
	p := data[k*sparseRec:]
	return int(binary.LittleEndian.Uint32(p)), math.Float64frombits(binary.LittleEndian.Uint64(p[4:]))
}

// logFraction bounds a stripe's change log: it holds at most
// len(vals)/logFraction records of 16 bytes, i.e. 1/8 of the stripe's own
// 8·len(vals) bytes, whatever the stripe size. Any delta the log can
// serve is therefore smaller than the full stripe (12 bytes per record
// against 8 per element), so the pull handler never has to compare sizes.
// Client-side touched sets stop being sparse at the same share.
const logFraction = touched.Fraction

type logRec struct {
	version uint64 // stripe version the push produced
	off     uint32 // stripe-relative element it touched
}

// changeLog remembers which elements an owned stripe's most recent
// sparse pushes touched: a ring of (version, offset) records, newest
// overwriting oldest. floor is the version below which the record is
// incomplete — a cursor older than floor cannot be answered with a
// delta. Guarded by the stripe lock.
type changeLog struct {
	recs  []logRec // ring storage, allocated on the first sparse push
	next  int      // slot the next record goes to
	count int      // live records
	floor uint64
}

// reset forgets everything up to and including version: what a dense
// push and an over-budget sparse push do.
func (l *changeLog) reset(version uint64) {
	l.floor, l.count, l.next = version, 0, 0
}

// begin prepares the log for the nnz records of the push that produced
// version and reports whether they fit; when they do not, the push is
// logged as "everything changed".
func (l *changeLog) begin(version uint64, nnz, stripeLen int) bool {
	budget := stripeLen / logFraction
	if nnz > budget {
		l.reset(version)
		return false
	}
	if l.recs == nil {
		l.recs = make([]logRec, budget)
	}
	return true
}

// put records one touched element. Overwriting a record truncates the
// push it belonged to, so that push's version becomes the floor.
func (l *changeLog) put(version uint64, off int) {
	if l.count == len(l.recs) {
		l.floor = l.recs[l.next].version
	} else {
		l.count++
	}
	l.recs[l.next] = logRec{version: version, off: uint32(off)}
	if l.next++; l.next == len(l.recs) {
		l.next = 0
	}
}

// appendSince appends `u32 nnz | nnz × (u32 off | f64 current value)` for
// every record newer than have, newest first, and returns nnz. An element
// touched by two pushes appears twice with the same value. The caller
// has checked have ≥ floor.
func (l *changeLog) appendSince(dst []byte, have uint64, vals []float64) ([]byte, int) {
	nnzAt := len(dst)
	dst = rpc.AppendUint32(dst, 0)
	nnz := 0
	for pos := l.next; nnz < l.count; nnz++ {
		if pos--; pos < 0 {
			pos = len(l.recs) - 1
		}
		r := l.recs[pos]
		if r.version <= have {
			break
		}
		dst = rpc.AppendUint32(dst, r.off)
		dst = rpc.AppendUint64(dst, math.Float64bits(vals[r.off]))
	}
	binary.LittleEndian.PutUint32(dst[nnzAt:], uint32(nnz))
	return dst, nnz
}

// stripeCursor is what a Mirror holds of one stripe: the incarnation and
// version its values correspond to (version 0: nothing held, ask for the
// full stripe). Where the stripe sits in the buffer is the layout's.
type stripeCursor struct {
	epoch, version uint64
}

// Mirror is a client-side copy of one job's model that Client.Sync keeps
// current by moving only what changed: per stripe it remembers which
// version its values are, and the servers answer with nothing, with the
// elements pushed since, or — whenever they cannot prove a delta is
// exact — with the whole stripe. A Mirror belongs to one goroutine at a
// time (the job's drive loop); everyone else may only read Values between
// Syncs, and nobody may write them: a not-modified answer leaves the
// buffer as it is.
type Mirror struct {
	job  string
	vals []float64
	cur  []stripeCursor
	// wrote is every element Syncs rewrote since Changed last asked.
	// Replies from different servers are decoded concurrently: mu.
	mu    sync.Mutex
	wrote touched.List
}

// NewMirror returns an empty mirror of a size-element model; the first
// Sync fills it with full stripes.
func NewMirror(job string, size int) *Mirror {
	return &Mirror{job: job, vals: make([]float64, size)}
}

// Values is the mirrored model, valid as of the last successful Sync.
// Read-only.
func (m *Mirror) Values() []float64 { return m.vals }

// Changed reports which elements of Values the Syncs since the previous
// call rewrote, and starts a new record. Delta replies name their
// elements; a full stripe, a first pull and a failed Sync make it All. The
// set is valid until the next call.
func (m *Mirror) Changed() touched.Set {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wrote.Take(len(m.vals))
}

// rewrote records the nnz elements a delta reply's data section names,
// its stripe sitting at lo in the buffer. A record nobody collects stops
// growing at the size Take would call All anyway.
func (m *Mirror) rewrote(lo int, data []byte, nnz int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.wrote.Len()+nnz > len(m.vals)/touched.Fraction {
		m.wrote.AddAll()
	}
	for k := 0; k < nnz; k++ {
		off, _ := sparseAt(data, k)
		m.wrote.Add(uint32(lo + off))
	}
}

// rewroteAll records that any element may have been rewritten.
func (m *Mirror) rewroteAll() {
	m.mu.Lock()
	m.wrote.AddAll()
	m.mu.Unlock()
}

// forget drops every cursor, so the next Sync pulls full stripes.
func (m *Mirror) forget() {
	for i := range m.cur {
		m.cur[i] = stripeCursor{}
	}
	m.rewroteAll()
}

// cursors returns the cursor table grown to cover stripes stripe indices
// (a table grown under another layout keeps its longer length).
func (m *Mirror) cursors(stripes int) []stripeCursor {
	if len(m.cur) < stripes {
		m.cur = append(m.cur, make([]stripeCursor, stripes-len(m.cur))...)
	}
	return m.cur
}
