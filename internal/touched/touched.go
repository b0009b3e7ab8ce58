// Package touched is the value a sparse iteration is priced by: which
// elements of a model an operation wrote. The COMP kernel reports the
// elements of its update that may be non-zero and a ps.Mirror the elements
// its Syncs rewrote; the chunk reduce, the clamp and PUSH walk that set
// instead of the model (DESIGN.md §8).
package touched

import (
	"cmp"
	"slices"
)

// Fraction bounds a sparse set to 1/Fraction of the elements it ranges
// over. It is the share of a stripe the servers' change logs remember
// (ps.changeLog): a set that names more could not come back as a delta
// either, so it is not worth walking and is "all" instead.
const Fraction = 16

// Set names elements of a model: every one (the zero value), or the
// ascending, duplicate-free indices a List collected.
type Set struct {
	sparse bool
	idx    []uint32
}

// All reports whether the set is every element.
func (s Set) All() bool { return !s.sparse }

// Indices lists the elements of a set that is not All. Read-only.
func (s Set) Indices() []uint32 { return s.idx }

// Within returns the indices i with lo <= i < hi.
func (s Set) Within(lo, hi int) []uint32 {
	first := func(v int) int { // position of the first index >= v
		i, _ := slices.BinarySearchFunc(s.idx, v, func(e uint32, v int) int { return cmp.Compare(int(e), v) })
		return i
	}
	return s.idx[first(lo):first(hi)]
}

// List collects element indices in any order, repeats allowed, and turns
// them into a Set. The zero value is an empty list. Not safe for
// concurrent use.
type List struct {
	idx, out []uint32
	all      bool
}

// Add records elements.
func (l *List) Add(idx ...uint32) {
	if !l.all {
		l.idx = append(l.idx, idx...)
	}
}

// AddAll records every element; the list stops collecting.
func (l *List) AddAll() { l.all, l.idx = true, l.idx[:0] }

// Len is the number of records held, repeats included.
func (l *List) Len() int { return len(l.idx) }

// Take returns what was recorded as a set over n elements (every index is
// below n), All when that is more than n/Fraction records, and empties the
// list. The set shares the list's storage: it is valid until the next Take.
func (l *List) Take(n int) Set {
	all := l.all || len(l.idx) > n/Fraction
	idx := l.idx
	l.all, l.idx = false, l.idx[:0]
	if all {
		return Set{}
	}
	if cap(l.out) < len(idx) {
		l.out = make([]uint32, cap(idx))
	}
	// LSD radix sort, 11 bits a pass, ping-ponging between the two buffers:
	// two passes for a 512K-element model, a tenth of a comparison sort's
	// time at the few thousand records an LDA iteration makes.
	const digit = 1<<11 - 1
	from, to := idx, l.out[:len(idx)]
	for shift := 0; (n-1)>>shift > 0; shift += 11 {
		var count [digit + 1]int
		for _, v := range from {
			count[(v>>shift)&digit]++
		}
		pos := 0
		for b, c := range count {
			count[b] = pos
			pos += c
		}
		for _, v := range from {
			to[count[(v>>shift)&digit]] = v
			count[(v>>shift)&digit]++
		}
		from, to = to, from
	}
	k := 0
	for _, v := range from {
		if k == 0 || v != from[k-1] {
			from[k] = v
			k++
		}
	}
	// The set must not sit in the buffer Add appends to.
	if k > 0 && &from[0] == &idx[0] {
		l.idx, l.out = to[:0], from
	}
	return Set{sparse: true, idx: from[:k]}
}
