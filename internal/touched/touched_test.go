package touched

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTakeIsSortedUnique checks Take against sort+compact over model
// sizes on both sides of a radix digit, and that the set survives the
// records made after it was taken.
func TestTakeIsSortedUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var l List
	for _, n := range []int{1, 2, 100, 2048, 2049, 512 << 10, 1 << 23} {
		for round := 0; round < 4; round++ {
			records := rng.Intn(n/Fraction + 1)
			var want []uint32
			for k := 0; k < records; k++ {
				v := uint32(rng.Intn(n))
				if k%3 == 0 && len(want) > 0 {
					v = want[rng.Intn(len(want))] // a repeat
				}
				want = append(want, v)
				l.Add(v)
			}
			if l.Len() != records {
				t.Fatalf("n=%d: Len %d after %d records", n, l.Len(), records)
			}
			set := l.Take(n)
			slices.Sort(want)
			want = slices.Compact(want)
			if set.All() {
				t.Fatalf("n=%d: %d records came back as All", n, records)
			}
			l.Add(uint32(n-1), 0, uint32(n/2)) // must not disturb the set just taken
			if !slices.Equal(set.Indices(), want) {
				t.Fatalf("n=%d round %d: got %v, want %v", n, round, set.Indices(), want)
			}
			l.Take(n)
		}
	}
}

func TestTakeAllAndWithin(t *testing.T) {
	var l List
	if set := l.Take(64); set.All() || len(set.Indices()) != 0 {
		t.Fatalf("an empty list is the empty set, got all=%v %v", set.All(), set.Indices())
	}
	if !(Set{}).All() {
		t.Fatal("the zero Set must be All")
	}
	l.Add(1, 2, 3, 4, 5) // 5 records of 64 elements: over 64/16
	if !l.Take(64).All() {
		t.Fatal("a list over n/Fraction records must be All")
	}
	l.Add(7)
	l.AddAll()
	l.Add(9)
	if !l.Take(1<<20).All() || l.Len() != 0 {
		t.Fatal("AddAll must make the set All and Take must reset it")
	}
	l.Add(40, 10, 30, 20)
	set := l.Take(1 << 10)
	for _, tc := range []struct {
		lo, hi int
		want   []uint32
	}{{0, 1 << 10, []uint32{10, 20, 30, 40}}, {10, 30, []uint32{10, 20}}, {11, 20, nil}, {41, 99, nil}, {0, 10, nil}} {
		if got := set.Within(tc.lo, tc.hi); !slices.Equal(got, tc.want) {
			t.Errorf("Within(%d,%d) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}
