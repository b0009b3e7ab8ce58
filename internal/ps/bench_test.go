package ps

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"harmony/internal/metrics"
	"harmony/internal/rpc"
	"harmony/internal/touched"
)

// benchModelSize is the 1M-parameter model of the ISSUE target (8 MB of
// float64s) spread across benchServers servers.
const (
	benchModelSize = 1 << 20
	benchServers   = 4
)

func startBenchCluster(tb testing.TB, n int) []string {
	tb.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := rpc.NewServer()
		NewServer().Register(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	return addrs
}

func benchVectors(n int) (model, delta []float64) {
	model = make([]float64, n)
	delta = make([]float64, n)
	for i := range model {
		model[i] = float64(i % 97)
		delta[i] = 1e-3
	}
	return model, delta
}

// BenchmarkPullPush measures one full steady-state COMM iteration — a
// full-model pull plus a full-delta push across 4 servers — on the
// binary data plane with reused buffers.
func BenchmarkPullPush(b *testing.B) {
	addrs := startBenchCluster(b, benchServers)
	c, err := NewClient(addrs, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	model, delta := benchVectors(benchModelSize)
	if err := c.Init("bench", model); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * 8 * benchModelSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.PullInto("bench", model); err != nil {
			b.Fatal(err)
		}
		if err := c.Push("bench", delta); err != nil {
			b.Fatal(err)
		}
	}
}

// sparseBench is the steady state of a sparse-update job (the live_comm
// LDA shape): a 512K-element model on 2 servers, a delta with 2K
// non-zeros (0.4 %) and the touched set naming them, as COMP reports it.
func sparseBench(b *testing.B) (c *Client, delta []float64, set touched.Set) {
	const size, nnz = 512 << 10, 2 << 10
	addrs := startBenchCluster(b, 2)
	c, err := NewClient(addrs, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	model, _ := benchVectors(size)
	if err := c.Init("bench", model); err != nil {
		b.Fatal(err)
	}
	delta = make([]float64, size)
	var list touched.List
	for k := 0; k < nnz; k++ {
		delta[k*(size/nnz)+k%7] = 1e-3
		list.Add(uint32(k*(size/nnz) + k%7))
	}
	return c, delta, list.Take(size)
}

// reportWire stops the clock and reports the bytes that moved since before
// per iteration, requests and replies — of pulls only, or of pushes too; a
// stripe pulled whole in steady state fails the benchmark.
func reportWire(b *testing.B, before metrics.CommSnapshot, pushes bool) {
	b.StopTimer()
	after := metrics.Comm.Snapshot()
	moved := after.PullBytes - before.PullBytes
	if pushes {
		moved += after.PushBytes - before.PushBytes
	}
	b.ReportMetric(float64(moved)/float64(b.N), "wireB/op")
	if after.FullReplies != before.FullReplies {
		b.Fatalf("%d stripes were pulled whole in steady state", after.FullReplies-before.FullReplies)
	}
}

// BenchmarkPullPushSparse measures the steady-state COMM iteration of a
// sparse-update job: a mirror Sync plus a PushTouched. wireB/op is against
// 8 MB for the dense path. The allocations left are the per-call channel
// and timer of rpc.Client.Call and scatter's per-server fan-out, a few
// kilobytes.
func BenchmarkPullPushSparse(b *testing.B) {
	c, delta, set := sparseBench(b)
	m := NewMirror("bench", len(delta))
	iterate := func() {
		if err := c.Sync(m); err != nil {
			b.Fatal(err)
		}
		if err := c.PushTouched("bench", delta, set); err != nil {
			b.Fatal(err)
		}
	}
	iterate() // the first Sync pulls the mirror whole
	before := metrics.Comm.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterate()
	}
	reportWire(b, before, true)
}

// BenchmarkCheckpoint measures what the master pays for one background
// checkpoint of that job: a Sync of its long-lived mirror after the five
// sparse pushes of a checkpoint interval (untimed), where a fresh client
// and a whole-model pull moved 4 MB.
func BenchmarkCheckpoint(b *testing.B) {
	c, delta, set := sparseBench(b)
	m := NewMirror("bench", len(delta))
	if err := c.Sync(m); err != nil {
		b.Fatal(err)
	}
	before := metrics.Comm.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := 0; k < 5; k++ {
			if err := c.PushTouched("bench", delta, set); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := c.Sync(m); err != nil {
			b.Fatal(err)
		}
	}
	reportWire(b, before, false)
}

// TestCommPathRaceSmoke hammers the striped data plane from concurrent
// clients — two co-located jobs pulling, pushing and checkpoint-pulling at
// once — so `go test -race` exercises the per-stripe locking. Wired into
// `make check`.
func TestCommPathRaceSmoke(t *testing.T) {
	addrs := startBenchCluster(t, 2)
	const modelSize = 3*StripeSize + 17 // span several stripes, ragged tail
	var wg sync.WaitGroup
	for j := 0; j < 2; j++ {
		job := fmt.Sprintf("job-%d", j)
		init, err := NewClient(addrs, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]float64, modelSize)
		if err := init.Init(job, model); err != nil {
			t.Fatal(err)
		}
		init.Close()
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(job string) {
				defer wg.Done()
				c, err := NewClient(addrs, time.Minute)
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				buf := make([]float64, modelSize)
				delta := make([]float64, modelSize)
				for i := range delta {
					delta[i] = 1
				}
				for it := 0; it < 25; it++ {
					if err := c.PullInto(job, buf); err != nil {
						t.Error(err)
						return
					}
					if err := c.Push(job, delta); err != nil {
						t.Error(err)
						return
					}
					if _, err := pull(c, job, modelSize); err != nil {
						t.Error(err)
						return
					}
				}
			}(job)
		}
	}
	wg.Wait()

	// Every push added exactly 1 to every element: 2 workers × 25 iters.
	c, err := NewClient(addrs, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for j := 0; j < 2; j++ {
		model, err := pull(c, fmt.Sprintf("job-%d", j), modelSize)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range model {
			if v != 50 {
				t.Fatalf("job-%d element %d = %v, want 50", j, i, v)
			}
		}
	}
}
