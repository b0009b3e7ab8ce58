package ps

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"harmony/internal/rpc"
)

// settle waits for the goroutine count to fall to want: connection read
// loops unwind asynchronously after their sockets close.
func settle(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestServerIsPassive pins that a server has no activity of its own: it
// runs no goroutine and opens no connection. Once the client's
// connections close after a full round of ops, the rig is back to the
// servers' accept loops; after Close on both servers it is back at the
// process's goroutine baseline.
func TestServerIsPassive(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var servers [2]*Server
	var hosts [2]*rpc.Server
	var addrs [2]string
	for i := range servers {
		servers[i], hosts[i] = NewServer(), rpc.NewServer()
		servers[i].Register(hosts[i])
		addr, err := hosts[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}
	listening := runtime.NumGoroutine()
	c, err := NewClient(addrs[:], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Init("job", make([]float64, 16)); err != nil {
		t.Fatal(err)
	}
	delta := seqModel(16)
	const pushes = 8
	for i := 0; i < pushes; i++ {
		if err := c.Push("job", delta); err != nil {
			t.Fatal(err)
		}
	}
	got := NewMirror("job", 16)
	if err := c.Sync(got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Values() {
		if v != pushes*delta[i] {
			t.Fatalf("elem %d = %v, want %v", i, v, pushes*delta[i])
		}
	}
	for _, s := range servers {
		s.Stats()
	}
	c.Close()
	if n := settle(listening); n > listening {
		t.Fatalf("%d goroutines once the client closed, %d with the servers only listening", n, listening)
	}
	for i := range servers {
		servers[i].Close()
		hosts[i].Close()
	}
	if n := settle(baseline); n > baseline {
		t.Fatalf("%d goroutines after closing the rig, %d before it", n, baseline)
	}
}

// TestLayoutAgreesAcrossClients: a client that never called Init reaches
// every stripe where another client's Init put it. For each server count
// and model size — one element, fewer elements than servers, one per
// server, and more than a full stripe per server — a second client pulls
// the model and pushes a delta, and the first syncs it back, bit for bit;
// every server's Stats lists exactly the stripes the layout assigns it,
// and together they tile the model.
func TestLayoutAgreesAcrossClients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 1; k <= 5; k++ {
		servers, addrs := startServers(t, k)
		for _, n := range []int{1, k - 1, k, StripeSize*k + 1} {
			job := fmt.Sprintf("k%d-n%d", k, n)
			model, delta := make([]float64, n), make([]float64, n)
			for i := range model {
				model[i], delta[i] = rng.NormFloat64(), rng.NormFloat64()
			}
			initer, other := newClient(t, addrs), newClient(t, addrs)
			if err := initer.Init(job, model); err != nil {
				t.Fatalf("%s: %v", job, err)
			}
			got, err := pull(other, job, n)
			if err != nil {
				t.Fatalf("%s: pull by a client that never called Init: %v", job, err)
			}
			sameBits(t, job+" pull", got, model)
			if err := other.Push(job, delta); err != nil {
				t.Fatalf("%s: push by a client that never called Init: %v", job, err)
			}
			m := NewMirror(job, n)
			if err := initer.Sync(m); err != nil {
				t.Fatalf("%s: %v", job, err)
			}
			for i := range model {
				model[i] += delta[i]
			}
			sameBits(t, job+" after the push", m.Values(), model)

			l := layoutFor(n, k)
			tiled := 0
			for i, s := range servers {
				var stats []StripeStat
				for _, js := range s.Stats().Jobs {
					if js.Job == job {
						stats = js.Stripes
					}
				}
				sort.Slice(stats, func(a, b int) bool { return stats[a].Index < stats[b].Index })
				first, end := l.held(i)
				if len(stats) != end-first {
					t.Fatalf("%s: server %d holds %d stripes, the layout assigns it [%d,%d)", job, i, len(stats), first, end)
				}
				for j, st := range stats {
					lo, hi := l.span(first + j)
					if st.Index != first+j || st.Lo != lo || st.Len != hi-lo {
						t.Fatalf("%s: server %d holds stripe %d [%d,%d), the layout says %d [%d,%d)",
							job, i, st.Index, st.Lo, st.Lo+st.Len, first+j, lo, hi)
					}
					if st.Lo != tiled {
						t.Fatalf("%s: stripe %d starts at %d, the previous one ended at %d", job, st.Index, st.Lo, tiled)
					}
					tiled += st.Len
				}
			}
			if tiled != n {
				t.Fatalf("%s: the servers' stripes tile %d elements of %d", job, tiled, n)
			}
		}
	}
}

// TestStripeNotHeldFailsFast: a server that no longer holds a job's
// stripe (here it dropped the job; a restart looks the same) fails the op
// at once, and the error names the job, the stripe and the server. A
// failed Sync leaves the mirror without cursors.
func TestStripeNotHeldFailsFast(t *testing.T) {
	servers, addrs := startServers(t, 2)
	c := newClient(t, addrs)
	const size = 2 * 64 // one 64-element stripe per server
	if err := c.Init("job", seqModel(size)); err != nil {
		t.Fatal(err)
	}
	m := NewMirror("job", size)
	if err := c.Sync(m); err != nil {
		t.Fatal(err)
	}
	servers[1].Drop("job")
	ones := make([]float64, size)
	for i := range ones {
		ones[i] = 1
	}
	for what, op := range map[string]func() error{
		"sync": func() error { return c.Sync(m) },
		"push": func() error { return c.Push("job", ones) },
	} {
		start := time.Now()
		err := op()
		if err == nil {
			t.Fatalf("%s against a server without the job succeeded", what)
		}
		for _, want := range []string{addrs[1], `"job"`, "stripe 1"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %q does not name %s", what, err, want)
			}
		}
		t.Logf("%s failed in %v: %v", what, time.Since(start), err)
	}
	for s, cur := range m.cur {
		if cur != (stripeCursor{}) {
			t.Errorf("stripe %d keeps cursor %+v after a failed Sync", s, cur)
		}
	}
}

// validInstallBody builds a well-formed single-stripe init message.
func validInstallBody() []byte {
	body := rpc.AppendString(nil, "job")
	body = rpc.AppendUint32(body, 1)
	return appendStripeFrame(body, 0, 0, 1, []float64{1, 2, 3})
}

// TestInstallFrameTruncated: every strict prefix of a valid init body
// must be rejected with an error, never a panic or a silent partial
// install.
func TestInstallFrameTruncated(t *testing.T) {
	s := NewServer()
	body := validInstallBody()
	if _, err := s.handleInit(body); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	for n := 0; n < len(body); n++ {
		if _, err := s.handleInit(body[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(body))
		}
	}
}

// TestInstallFrameCorruptCount checks that an inflated stripe count (a
// corrupt header promising more frames than the body holds) errors out.
func TestInstallFrameCorruptCount(t *testing.T) {
	s := NewServer()
	body := rpc.AppendString(nil, "job")
	body = rpc.AppendUint32(body, 1<<20) // claims a million stripes
	body = appendStripeFrame(body, 0, 0, 1, []float64{1})
	if _, err := s.handleInit(body); err == nil {
		t.Fatal("corrupt stripe count accepted")
	}
}

// FuzzInstallFrame feeds arbitrary bytes to the init decoder: it must
// return an error or succeed, never panic or read out of bounds.
func FuzzInstallFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(validInstallBody())
	body := validInstallBody()
	f.Add(body[:len(body)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = NewServer().handleInit(data)
	})
}

// TestStripeFrameRoundTrip checks the stripe-frame codec round-trips
// exact values and versions.
func TestStripeFrameRoundTrip(t *testing.T) {
	vals := []float64{0, -1.5, 3.25e100, 1e-300, math.Copysign(0, -1)}
	frame := appendStripeFrame(nil, 7, 224, 99, vals)
	got, rest, err := readStripeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if got.idx != 7 || got.lo != 224 || got.version != 99 {
		t.Fatalf("header mismatch: %+v", got)
	}
	sameBits(t, "frame values", got.vals, vals)
}
