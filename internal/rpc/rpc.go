// Package rpc is a minimal binary-framed remote procedure call layer over
// TCP used by the live Harmony runtime (master, workers and parameter
// servers).
//
// It provides what Apache REEF provided the paper's implementation:
// typed request/response messaging with connection reuse, concurrent
// in-flight calls, deadlines and graceful shutdown — built only on the
// standard library.
//
// # Wire format
//
// Every message is one length-prefixed frame (all integers little-endian):
//
//	u32 payloadLen                      bytes after this field
//	u64 seq                             matches responses to calls
//	u8  kind                            0 = request, 1 = response
//	request:  u16 methodLen, method, body
//	response: u8 status (0 ok, 1 err), body (error text when status=1)
//
// Bodies are opaque to the transport. Control-plane methods JSON-encode
// their bodies through Typed/Invoke (codec.go) and carry no model; bulk
// data-plane methods carry the binary float frames of frame.go. The framing
// itself never reflects or copies per element, so a megabyte body costs
// one buffered write on the way out and one ReadFull into a pooled
// buffer on the way in.
package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Errors returned by the client and server.
var (
	ErrClosed  = errors.New("rpc: connection closed")
	ErrTimeout = errors.New("rpc: call timed out")
)

const (
	frameRequest  = 0
	frameResponse = 1

	// maxFrame bounds one message's payload; large enough for a full
	// model partition plus headroom, small enough to reject corrupt
	// length prefixes before allocating.
	maxFrame = 1 << 30

	// reqHeader / respHeader are the fixed payload bytes before the
	// variable part: seq(8) + kind(1) + methodLen(2) or status(1).
	reqHeader  = 11
	respHeader = 10
)

// Handler processes the raw argument bytes of a method and returns reply
// bytes. Encoding helpers are in codec.go (JSON) and frame.go (binary).
//
// Ownership contract: the argument slice is only valid for the duration
// of the call and is recycled afterwards — handlers must not retain it or
// return a slice aliasing it. The returned reply is recycled by the
// server once written, so handlers must not retain it either; returning a
// buffer from GetBuffer keeps the steady state allocation-free.
type Handler func(arg []byte) ([]byte, error)

// response is the decoded reply delivered to a waiting call.
type response struct {
	Seq  uint64
	Err  string
	Body []byte
}

type handlerEntry struct {
	h Handler
	// inline handlers run on the connection's read loop instead of a
	// fresh goroutine. Reserved for fast, non-blocking data-plane
	// methods (PS pull/push): it saves a goroutine spawn per call and
	// keeps request buffers hot, but an inline handler that blocks
	// stalls every call on its connection.
	inline bool
}

// Server accepts connections and dispatches calls to handlers.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]handlerEntry
	ln       net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer returns an empty server; register handlers before Serve.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]handlerEntry),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Handle registers a handler for a method name. Registering after Serve
// has started is safe; re-registering replaces the handler.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = handlerEntry{h: h}
}

// HandleInline registers a data-plane handler that runs directly on the
// connection's read loop. Only use it for fast handlers that never block
// on other RPCs: inline dispatch serializes calls per connection.
func (s *Server) HandleInline(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = handlerEntry{h: h, inline: true}
}

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts
// serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var wmu sync.Mutex // one writer at a time per connection
	var lenBuf [4]byte
	var hdr [reqHeader]byte
	var methodBuf []byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(lenBuf[:]))
		if n < reqHeader || n > maxFrame {
			return // corrupt stream
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		if hdr[8] != frameRequest {
			return
		}
		mlen := int(binary.LittleEndian.Uint16(hdr[9:reqHeader]))
		if mlen > n-reqHeader {
			return
		}
		if cap(methodBuf) < mlen {
			methodBuf = make([]byte, mlen)
		}
		method := methodBuf[:mlen]
		if _, err := io.ReadFull(br, method); err != nil {
			return
		}
		body := GetBuffer(n - reqHeader - mlen)
		if _, err := io.ReadFull(br, body); err != nil {
			PutBuffer(body)
			return
		}
		s.mu.RLock()
		e, ok := s.handlers[string(method)] // no-alloc map lookup
		s.mu.RUnlock()
		if !ok {
			PutBuffer(body)
			wmu.Lock()
			err := writeResponse(bw, seq, fmt.Sprintf("rpc: unknown method %q", method), nil)
			wmu.Unlock()
			if err != nil {
				return
			}
			continue
		}
		if e.inline {
			reply, err := safeCall(e.h, body)
			PutBuffer(body)
			wmu.Lock()
			werr := writeCallResult(bw, seq, reply, err)
			wmu.Unlock()
			PutBuffer(reply)
			if werr != nil {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func(seq uint64, body []byte) {
			defer s.wg.Done()
			reply, err := safeCall(e.h, body)
			PutBuffer(body)
			wmu.Lock()
			_ = writeCallResult(bw, seq, reply, err)
			wmu.Unlock()
			PutBuffer(reply)
		}(seq, body)
	}
}

// writeCallResult frames a handler outcome as a response and flushes it.
func writeCallResult(bw *bufio.Writer, seq uint64, reply []byte, err error) error {
	if err != nil {
		return writeResponse(bw, seq, err.Error(), nil)
	}
	return writeResponse(bw, seq, "", reply)
}

// writeResponse frames one reply (or error) and flushes the writer. The
// caller must hold the connection's write lock.
func writeResponse(bw *bufio.Writer, seq uint64, errMsg string, body []byte) error {
	if errMsg != "" {
		body = nil
	}
	payload := respHeader + len(errMsg) + len(body)
	if payload > maxFrame {
		// Replace an oversized reply with an error the caller can see.
		return writeResponse(bw, seq, "rpc: reply exceeds frame limit", nil)
	}
	var hdr [4 + respHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload))
	binary.LittleEndian.PutUint64(hdr[4:12], seq)
	hdr[12] = frameResponse
	if errMsg != "" {
		hdr[13] = 1
	}
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if errMsg != "" {
		if _, err := bw.WriteString(errMsg); err != nil {
			return err
		}
	} else if _, err := bw.Write(body); err != nil {
		return err
	}
	return bw.Flush()
}

// safeCall shields the connection loop from panicking handlers: a failed
// handler fails one call, not the whole runtime (§VI, fault tolerance).
func safeCall(h Handler, arg []byte) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			body = nil
			err = fmt.Errorf("rpc: handler panic: %v", r)
		}
	}()
	return h(arg)
}

// Addr reports the bound address, or "" before Listen.
func (s *Server) Addr() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, closes every connection and waits for in-flight
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// Client is a connection to one Server supporting concurrent calls.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	seq     uint64
	pending map[uint64]chan response
	closed  bool
	readErr error
	done    chan struct{}
}

// Dial connects to a server with the given timeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		pending: make(map[uint64]chan response),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var lenBuf [4]byte
	var hdr [respHeader]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			c.failAll(err)
			return
		}
		n := int(binary.LittleEndian.Uint32(lenBuf[:]))
		if n < respHeader || n > maxFrame {
			c.failAll(errors.New("rpc: corrupt response frame"))
			return
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			c.failAll(err)
			return
		}
		if hdr[8] != frameResponse {
			c.failAll(errors.New("rpc: corrupt response frame"))
			return
		}
		resp := response{Seq: binary.LittleEndian.Uint64(hdr[0:8])}
		bodyLen := n - respHeader
		if hdr[9] != 0 {
			errBytes := make([]byte, bodyLen)
			if _, err := io.ReadFull(br, errBytes); err != nil {
				c.failAll(err)
				return
			}
			resp.Err = string(errBytes)
			if resp.Err == "" {
				resp.Err = "rpc: handler failed"
			}
		} else {
			body := GetBuffer(bodyLen)
			if _, err := io.ReadFull(br, body); err != nil {
				PutBuffer(body)
				c.failAll(err)
				return
			}
			resp.Body = body
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if ok {
			ch <- resp
		} else {
			// The call timed out or was abandoned; reclaim its body.
			PutBuffer(resp.Body)
		}
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(err, io.EOF) || c.closed {
		err = ErrClosed
	}
	c.readErr = err
	for seq, ch := range c.pending {
		delete(c.pending, seq)
		ch <- response{Err: err.Error()}
	}
	close(c.done)
}

// Call sends a raw request and waits for the reply or the timeout
// (zero means wait forever).
//
// The returned body may come from the shared buffer pool: callers that
// are done with it should hand it back with PutBuffer (Invoke does this
// automatically). Forgetting to is safe, just slower.
func (c *Client) Call(method string, arg []byte, timeout time.Duration) ([]byte, error) {
	if len(method) > 1<<16-1 {
		return nil, fmt.Errorf("rpc: method name too long (%d bytes)", len(method))
	}
	payload := reqHeader + len(method) + len(arg)
	if payload > maxFrame {
		return nil, fmt.Errorf("rpc: %s request exceeds frame limit (%d bytes)", method, len(arg))
	}
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	c.seq++
	seq := c.seq
	ch := make(chan response, 1)
	c.pending[seq] = ch
	var hdr [4 + reqHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload))
	binary.LittleEndian.PutUint64(hdr[4:12], seq)
	hdr[12] = frameRequest
	binary.LittleEndian.PutUint16(hdr[13:15], uint16(len(method)))
	_, err := c.bw.Write(hdr[:])
	if err == nil {
		_, err = c.bw.WriteString(method)
	}
	if err == nil {
		_, err = c.bw.Write(arg)
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, fmt.Errorf("rpc: send %s: %w", method, err)
	}
	c.mu.Unlock()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case resp := <-ch:
		if resp.Err != "" {
			return nil, errors.New(resp.Err)
		}
		return resp.Body, nil
	case <-timer:
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s after %s", ErrTimeout, method, timeout)
	}
}

// Done is closed once the connection is gone: the peer closed it, a read
// failed, or Close was called.
func (c *Client) Done() <-chan struct{} { return c.done }

// Close tears the connection down; outstanding calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done // wait for readLoop to drain pending calls
	return err
}
