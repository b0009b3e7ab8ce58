package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

type echoArgs struct {
	Text string
	N    int
}

type echoReply struct {
	Text string
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	srv.Handle("echo", Typed(func(a echoArgs) (echoReply, error) {
		return echoReply{Text: strings.Repeat(a.Text, a.N)}, nil
	}))
	srv.Handle("fail", Typed(func(a echoArgs) (echoReply, error) {
		return echoReply{}, errors.New("deliberate failure")
	}))
	srv.Handle("slow", Typed(func(a echoArgs) (echoReply, error) {
		time.Sleep(200 * time.Millisecond)
		return echoReply{Text: "late"}, nil
	}))
	srv.Handle("panic", Typed(func(a echoArgs) (echoReply, error) {
		panic("handler exploded")
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	reply, err := Invoke[echoArgs, echoReply](c, "echo", echoArgs{Text: "ab", N: 3}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Text != "ababab" {
		t.Errorf("reply = %q, want ababab", reply.Text)
	}
}

func TestCallHandlerError(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, err := Invoke[echoArgs, echoReply](c, "fail", echoArgs{}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("err = %v, want handler error surfaced", err)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, err := Invoke[echoArgs, echoReply](c, "nope", echoArgs{}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v, want unknown method", err)
	}
}

func TestHandlerPanicIsolated(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	if _, err := Invoke[echoArgs, echoReply](c, "panic", echoArgs{}, time.Second); err == nil ||
		!strings.Contains(err.Error(), "panic") {
		t.Errorf("err = %v, want panic surfaced as error", err)
	}
	// The connection must survive the panicking handler.
	reply, err := Invoke[echoArgs, echoReply](c, "echo", echoArgs{Text: "x", N: 1}, time.Second)
	if err != nil || reply.Text != "x" {
		t.Errorf("connection unusable after handler panic: %v", err)
	}
}

func TestCallTimeout(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, err := Invoke[echoArgs, echoReply](c, "slow", echoArgs{}, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := strings.Repeat(fmt.Sprintf("m%d", i), 2)
			reply, err := Invoke[echoArgs, echoReply](c, "echo",
				echoArgs{Text: fmt.Sprintf("m%d", i), N: 2}, 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			if reply.Text != want {
				errs <- fmt.Errorf("got %q want %q", reply.Text, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMultipleClients(t *testing.T) {
	_, addr := startServer(t)
	for i := 0; i < 4; i++ {
		c := dial(t, addr)
		if _, err := Invoke[echoArgs, echoReply](c, "echo", echoArgs{Text: "q", N: 1}, time.Second); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	srv, addr := startServer(t)
	c := dial(t, addr)
	done := make(chan error, 1)
	go func() {
		_, err := Invoke[echoArgs, echoReply](c, "slow", echoArgs{}, 5*time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call succeeded after server close")
		}
	case <-time.After(2 * time.Second):
		t.Error("pending call hung after server close")
	}
}

func TestClientCloseFailsPendingCalls(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Invoke[echoArgs, echoReply](c, "slow", echoArgs{}, 5*time.Second)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call succeeded after client close")
		}
	case <-time.After(2 * time.Second):
		t.Error("pending call hung after client close")
	}
	// Calls after close fail fast.
	if _, err := c.Call("echo", nil, time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close = %v, want ErrClosed", err)
	}
}

// TestClientDoneOnEitherClose: Done closes when the peer closes the
// connection, with no call in flight to notice, and when the client
// closes it.
func TestClientDoneOnEitherClose(t *testing.T) {
	srv, addr := startServer(t)
	byPeer, byClient := dial(t, addr), dial(t, addr)
	for _, c := range []*Client{byPeer, byClient} {
		select {
		case <-c.Done():
			t.Fatal("Done closed on a live connection")
		default:
		}
	}
	byClient.Close()
	select {
	case <-byClient.Done():
	default:
		t.Error("Done still open after the client's Close returned")
	}
	select {
	case <-byPeer.Done():
		t.Fatal("one client's Close closed another's Done")
	default:
	}
	srv.Close()
	select {
	case <-byPeer.Done():
	case <-time.After(2 * time.Second):
		t.Error("Done still open after the server closed the connection")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("Dial to closed port succeeded")
	}
}

func TestServerDoubleCloseAndAddr(t *testing.T) {
	srv, addr := startServer(t)
	if srv.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", srv.Addr(), addr)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close errored:", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := echoArgs{Text: "hello", N: 7}
	raw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out echoArgs
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip %+v != %+v", out, in)
	}
	if err := Decode([]byte("garbage"), &out); err == nil {
		t.Error("decoding garbage succeeded")
	}
}
