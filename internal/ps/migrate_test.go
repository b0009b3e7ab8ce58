package ps

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"harmony/internal/rpc"
)

// startServers brings up n parameter servers on loopback TCP and hands
// back the Server objects too (migration tests drive SetServiceLimit,
// Close and Stats directly).
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

// outbound lists the peers s holds a handoff connection to.
func outbound(s *Server) []string {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	var out []string
	for addr := range s.conns {
		out = append(out, addr)
	}
	return out
}

// ownedStripes asks one server which stripes of job it owns.
func ownedStripes(t *testing.T, cl *rpc.Client, job string) []int {
	t.Helper()
	reply, err := rpc.Invoke[RoutesArgs, RoutesReply](cl, MethodRoutes, RoutesArgs{Job: job}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, sr := range reply.Stripes {
		out = append(out, sr.Index)
	}
	return out
}

// TestMigrateStripe moves one stripe between two servers and checks the
// client self-heals: the old route's pull hits a moved status, refreshes
// and lands on the new owner with the exact same values.
func TestMigrateStripe(t *testing.T) {
	servers, addrs := startServers(t, 2)
	c := newClient(t, addrs)
	c.SetStripeElems(4)
	model := seqModel(16) // 4 stripes of 4
	if err := c.Init("job", model); err != nil {
		t.Fatal(err)
	}
	src := dialRaw(t, addrs[0])
	owned := ownedStripes(t, src, "job")
	if len(owned) == 0 {
		t.Fatal("server 0 owns no stripes")
	}
	for _, s := range owned {
		if _, err := rpc.Invoke[MigrateArgs, Ack](src, MethodMigrate,
			MigrateArgs{Job: "job", Stripe: s, Dest: addrs[1]}, 2*time.Second); err != nil {
			t.Fatalf("migrate stripe %d: %v", s, err)
		}
	}
	if left := ownedStripes(t, src, "job"); len(left) != 0 {
		t.Fatalf("server 0 still owns %v after drain", left)
	}
	got := make([]float64, 16)
	if err := c.PullInto("job", got); err != nil {
		t.Fatal(err)
	}
	for i := range model {
		if got[i] != model[i] {
			t.Fatalf("elem %d = %v after migration, want %v", i, got[i], model[i])
		}
	}
	// Re-migrating a moved stripe must fail loudly, not double-move.
	if _, err := rpc.Invoke[MigrateArgs, Ack](src, MethodMigrate,
		MigrateArgs{Job: "job", Stripe: owned[0], Dest: addrs[1]}, 2*time.Second); err == nil {
		t.Fatal("migrating an already-moved stripe succeeded")
	}
	// A closed server dials nobody: a migrate racing Close fails before the
	// fence, caches no connection, and the stripe stays served where it is.
	servers[1].Close()
	dst := dialRaw(t, addrs[1])
	if _, err := rpc.Invoke[MigrateArgs, Ack](dst, MethodMigrate,
		MigrateArgs{Job: "job", Stripe: owned[0], Dest: addrs[0]}, 2*time.Second); err == nil {
		t.Fatal("migrate out of a closed server succeeded")
	}
	if n := len(outbound(servers[1])); n != 0 {
		t.Fatalf("closed server cached %d outbound connections", n)
	}
	if err := c.PullInto("job", got); err != nil || got[15] != model[15] {
		t.Fatalf("pull after refused migrate: %v (elem 15 = %v)", err, got[15])
	}
}

// TestServerIsPassive pins what is left of the server's own activity: it
// runs no goroutine, and the only connection it ever opens is the one a
// migrate hands its stripe over. Pushes open none; after Close on both
// servers of the rig the process is back at its goroutine baseline.
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
	c, err := NewClient(addrs[:], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetStripeElems(4)
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
	if n := len(outbound(servers[0])) + len(outbound(servers[1])); n != 0 {
		t.Fatalf("%d outbound connections after pushes alone, want 0", n)
	}
	src, err := rpc.Dial(addrs[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rpc.Invoke[MigrateArgs, Ack](src, MethodMigrate,
		MigrateArgs{Job: "job", Stripe: 0, Dest: addrs[1]}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if from, to := outbound(servers[0]), outbound(servers[1]); len(from) != 1 || from[0] != addrs[1] || len(to) != 0 {
		t.Fatalf("outbound connections after one migrate: source %v, destination %v; want [%s], none",
			from, to, addrs[1])
	}
	got, err := c.Pull("job", 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != pushes*delta[i] {
			t.Fatalf("elem %d = %v after migrate, want %v", i, got[i], pushes*delta[i])
		}
	}
	src.Close()
	c.Close()
	for i := range servers {
		servers[i].Close()
		hosts[i].Close()
	}
	// Connection read loops unwind asynchronously after their sockets close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after closing the rig, %d before it", n, baseline)
	}
}

// runHammer pushes all-ones deltas from several workers while
// (optionally) a migrator shuttles stripes between two servers, then
// returns the final model. Integer deltas sum exactly in float64 whatever
// the application order, so the migrated run must be bit-identical to
// the control run.
func runHammer(t *testing.T, migrate bool) []float64 {
	t.Helper()
	const (
		stripes     = 6
		stripeElems = 32
		modelSize   = stripes * stripeElems
		workers     = 4
		iters       = 40
	)
	_, addrs := startServers(t, 2)
	boot := newClient(t, addrs)
	boot.SetStripeElems(stripeElems)
	if err := boot.Init("job", make([]float64, modelSize)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var migrWG sync.WaitGroup
	var moves int
	if migrate {
		conns := []*rpc.Client{dialRaw(t, addrs[0]), dialRaw(t, addrs[1])}
		migrWG.Add(1)
		go func() {
			defer migrWG.Done()
			// No t.Fatal in here: this goroutine outlives test assertions.
			rng := rand.New(rand.NewSource(42))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from := i % 2
				routes, err := rpc.Invoke[RoutesArgs, RoutesReply](conns[from], MethodRoutes,
					RoutesArgs{Job: "job"}, 2*time.Second)
				if err != nil {
					continue
				}
				if owned := routes.Stripes; len(owned) > 0 {
					s := owned[rng.Intn(len(owned))].Index
					if _, err := rpc.Invoke[MigrateArgs, Ack](conns[from], MethodMigrate,
						MigrateArgs{Job: "job", Stripe: s, Dest: addrs[1-from]}, 2*time.Second); err == nil {
						moves++
					}
				}
				time.Sleep(500 * time.Microsecond)
			}
		}()
	}
	ones := make([]float64, modelSize)
	for i := range ones {
		ones[i] = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := NewClient(addrs, 5*time.Second)
			if err != nil {
				errs[w] = err
				return
			}
			defer cl.Close()
			buf := make([]float64, modelSize)
			for i := 0; i < iters; i++ {
				if err := cl.PullInto("job", buf); err != nil {
					errs[w] = fmt.Errorf("iter %d pull: %w", i, err)
					return
				}
				if err := cl.Push("job", ones); err != nil {
					errs[w] = fmt.Errorf("iter %d push: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	migrWG.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if migrate {
		t.Logf("completed %d migrations during load", moves)
		if moves == 0 {
			t.Fatal("no migrations completed during load; test exercised nothing")
		}
	}
	snap, err := boot.Pull("job", modelSize)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range snap {
		if v != float64(workers*iters) {
			t.Fatalf("elem %d = %v, want %d (push lost or double-applied)", i, v, workers*iters)
		}
	}
	return snap
}

// TestMigrationUnderLoadBitExact is the headline correctness test: many
// workers hammer pull/push while stripes migrate back and forth between
// two servers, and the final model must be bit-identical to a run with
// no migration at all. Run with -race to exercise the fence.
func TestMigrationUnderLoadBitExact(t *testing.T) {
	control := runHammer(t, false)
	migrated := runHammer(t, true)
	for i := range control {
		if control[i] != migrated[i] {
			t.Fatalf("elem %d: control %v vs migrated %v", i, control[i], migrated[i])
		}
	}
}

// validInstallBody builds a well-formed single-stripe install message.
func validInstallBody() []byte {
	body := rpc.AppendString(nil, "job")
	body = rpc.AppendUint32(body, 1)
	return appendStripeFrame(body, 0, 0, 1, []float64{1, 2, 3})
}

// TestInstallFrameTruncated mirrors the PR-3 codec suite for the handoff
// frame: every strict prefix of a valid install body must be rejected
// with an error, never a panic or a silent partial install.
func TestInstallFrameTruncated(t *testing.T) {
	s := NewServer()
	body := validInstallBody()
	if _, err := s.handleInstall(body, false); err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	for n := 0; n < len(body); n++ {
		if _, err := s.handleInstall(body[:n], false); err == nil {
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
	if _, err := s.handleInstall(body, false); err == nil {
		t.Fatal("corrupt stripe count accepted")
	}
}

// FuzzInstallFrame feeds arbitrary bytes to the install decoder: it must
// return an error or succeed, never panic or read out of bounds.
func FuzzInstallFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(validInstallBody())
	body := validInstallBody()
	f.Add(body[:len(body)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer()
		_, _ = s.handleInstall(data, false)
		_, _ = s.handleInstall(data, true)
	})
}

// TestStripeFrameRoundTrip checks the handoff codec round-trips exact
// values and versions.
func TestStripeFrameRoundTrip(t *testing.T) {
	vals := []float64{0, -1.5, 3.25e100, 1e-300}
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
	for i := range vals {
		if got.vals[i] != vals[i] {
			t.Fatalf("val %d = %v, want %v", i, got.vals[i], vals[i])
		}
	}
}
