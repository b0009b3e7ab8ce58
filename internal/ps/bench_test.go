package ps

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"harmony/internal/metrics"
	"harmony/internal/rpc"
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

// BenchmarkPullPushSparse measures the steady-state COMM iteration of a
// sparse-update job (the live_comm LDA shape): a 512K-element model of
// which an iteration changes 0.4 % — a mirror Sync plus a Push of a delta
// with 2K non-zeros, across 2 servers. wireB/op is what actually moved
// (requests and replies, both directions), against 8 MB for the dense
// path. The allocations left are the per-call channel and timer of
// rpc.Client.Call and scatter's per-op grouping, a few hundred bytes.
func BenchmarkPullPushSparse(b *testing.B) {
	const size, nnz = 512 << 10, 2 << 10
	addrs := startBenchCluster(b, 2)
	c, err := NewClient(addrs, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	model, _ := benchVectors(size)
	if err := c.Init("bench", model); err != nil {
		b.Fatal(err)
	}
	delta := make([]float64, size)
	for k := 0; k < nnz; k++ {
		delta[k*(size/nnz)+k%7] = 1e-3
	}
	m := NewMirror("bench", size)
	iterate := func() {
		if err := c.Sync(m); err != nil {
			b.Fatal(err)
		}
		if err := c.Push("bench", delta); err != nil {
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
	b.StopTimer()
	after := metrics.Comm.Snapshot()
	b.ReportMetric(float64(after.PullBytes+after.PushBytes-before.PullBytes-before.PushBytes)/float64(b.N), "wireB/op")
	if after.FullReplies != before.FullReplies {
		b.Fatalf("%d stripes were pulled whole in steady state", after.FullReplies-before.FullReplies)
	}
}

// TestCommPathRaceSmoke hammers the striped data plane from concurrent
// clients — two co-located jobs pulling, pushing and snapshotting at
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
					if _, err := c.Snapshot(job, modelSize); err != nil {
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
		model, err := c.Pull(fmt.Sprintf("job-%d", j), modelSize)
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
