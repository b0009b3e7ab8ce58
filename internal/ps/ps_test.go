package ps

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"harmony/internal/rpc"
)

// startCluster brings up n parameter servers on loopback TCP.
func startCluster(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := rpc.NewServer()
		NewServer().Register(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	return addrs
}

func newClient(t *testing.T, addrs []string) *Client {
	t.Helper()
	c, err := NewClient(addrs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// startServers brings up n parameter servers on loopback TCP and hands
// back the Server objects too.
func startServers(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv := rpc.NewServer()
		ps := NewServer()
		ps.Register(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		t.Cleanup(ps.Close)
		servers[i] = ps
		addrs[i] = addr
	}
	return servers, addrs
}

func dialRaw(t *testing.T, addr string) *rpc.Client {
	t.Helper()
	cl, err := rpc.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// pull fetches a fresh copy of the job's n-element model.
func pull(c *Client, job string, n int) ([]float64, error) {
	model := make([]float64, n)
	return model, c.PullInto(job, model)
}

func seqModel(n int) []float64 {
	m := make([]float64, n)
	for i := range m {
		m[i] = float64(i)
	}
	return m
}

func TestPartition(t *testing.T) {
	tests := []struct {
		n, k, i, lo, hi int
	}{
		{10, 3, 0, 0, 4},
		{10, 3, 1, 4, 7},
		{10, 3, 2, 7, 10},
		{9, 3, 1, 3, 6},
		{2, 4, 3, 2, 2}, // more servers than elements: empty partition
	}
	for _, tt := range tests {
		lo, hi := Partition(tt.n, tt.k, tt.i)
		if lo != tt.lo || hi != tt.hi {
			t.Errorf("Partition(%d,%d,%d) = [%d,%d), want [%d,%d)", tt.n, tt.k, tt.i, lo, hi, tt.lo, tt.hi)
		}
	}
}

// TestPartitionCovers checks by property that partitions tile [0, n)
// exactly.
func TestPartitionCovers(t *testing.T) {
	f := func(n16, k8 uint8) bool {
		n := int(n16)%200 + 1
		k := int(k8)%8 + 1
		prev := 0
		for i := 0; i < k; i++ {
			lo, hi := Partition(n, k, i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInitPullRoundTrip(t *testing.T) {
	addrs := startCluster(t, 3)
	c := newClient(t, addrs)
	model := seqModel(10)
	if err := c.Init("job-a", model); err != nil {
		t.Fatal(err)
	}
	got, err := pull(c, "job-a", 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("pull[%d] = %v, want %v", i, got[i], model[i])
		}
	}
}

func TestPushAccumulates(t *testing.T) {
	addrs := startCluster(t, 2)
	c := newClient(t, addrs)
	if err := c.Init("j", make([]float64, 6)); err != nil {
		t.Fatal(err)
	}
	delta := []float64{1, 2, 3, 4, 5, 6}
	if err := c.Push("j", delta); err != nil {
		t.Fatal(err)
	}
	if err := c.Push("j", delta); err != nil {
		t.Fatal(err)
	}
	got, err := pull(c, "j", 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := 2 * delta[i]; got[i] != want {
			t.Errorf("model[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestConcurrentWorkersPush(t *testing.T) {
	addrs := startCluster(t, 3)
	const workers = 6
	const modelSize = 30
	clients := make([]*Client, workers)
	for w := range clients {
		clients[w] = newClient(t, addrs)
	}
	if err := clients[0].Init("j", make([]float64, modelSize)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			delta := make([]float64, modelSize)
			for i := range delta {
				delta[i] = 1
			}
			for k := 0; k < 10; k++ {
				if err := clients[w].Push("j", delta); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := pull(clients[0], "j", modelSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if math.Abs(v-workers*10) > 1e-9 {
			t.Fatalf("model[%d] = %v, want %d (lost updates)", i, v, workers*10)
		}
	}
}

func TestMultipleJobsIsolated(t *testing.T) {
	addrs := startCluster(t, 2)
	c := newClient(t, addrs)
	if err := c.Init("a", seqModel(4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Init("b", make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Push("b", []float64{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	a, _ := pull(c, "a", 4)
	for i := range a {
		if a[i] != float64(i) {
			t.Fatalf("job a corrupted by job b: %v", a)
		}
	}
}

func TestPullUnknownJob(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs)
	if _, err := pull(c, "ghost", 4); err == nil {
		t.Error("pull of unknown job succeeded")
	}
}

func TestPushShapeMismatch(t *testing.T) {
	addrs := startCluster(t, 1)
	c := newClient(t, addrs)
	if err := c.Init("j", make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
	// All +0 would send nothing, so there would be nothing to reject.
	if err := c.Push("j", []float64{1, 1, 1, 1, 1, 1, 1}); err == nil {
		t.Error("mismatched push succeeded")
	}
	if _, err := pull(c, "j", 7); err == nil {
		t.Error("mismatched pull succeeded")
	}
}

func TestSnapshotAndDrop(t *testing.T) {
	servers, addrs := startServers(t, 2)
	c := newClient(t, addrs)
	if err := c.Init("j", seqModel(8)); err != nil {
		t.Fatal(err)
	}
	snap, err := pull(c, "j", 8)
	if err != nil {
		t.Fatal(err)
	}
	if snap[7] != 7 {
		t.Errorf("pulled[7] = %v", snap[7])
	}
	for _, s := range servers {
		s.Drop("j")
	}
	if _, err := pull(c, "j", 8); err == nil {
		t.Error("pull after drop succeeded")
	}
	// Restore from the checkpoint (the §IV-B4 migration path).
	if err := c.Init("j", snap); err != nil {
		t.Fatal(err)
	}
	back, err := pull(c, "j", 8)
	if err != nil {
		t.Fatal(err)
	}
	if back[5] != 5 {
		t.Errorf("restored model wrong: %v", back)
	}
}

func TestNewClientErrors(t *testing.T) {
	if _, err := NewClient(nil, time.Second); err == nil {
		t.Error("NewClient with no addresses succeeded")
	}
	if _, err := NewClient([]string{"127.0.0.1:1"}, 200*time.Millisecond); err == nil {
		t.Error("NewClient to dead address succeeded")
	}
}
