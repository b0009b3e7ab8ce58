package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/master"
	"harmony/internal/worker"
)

// scratchRoot holds everything a run writes besides its trace: spill
// directories of the loopback workers and of the memstore probe. It lives
// under the build directory so a run writes only inside its checkout.
const scratchRoot = ".bench_build/run"

func scratchDir(name string) (string, error) {
	dir := filepath.Join(scratchRoot, fmt.Sprintf("%d-%s", os.Getpid(), name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}

// liveRig is a loopback cluster through the real stack: master, control
// plane over HTTP, and workers that each host their co-located PS.
type liveRig struct {
	m       *master.Master
	api     *ctl.Server
	workers []*worker.Worker
	names   []string
	spill   string
}

func bootLive(opts core.Options, nWorkers int, traced bool, tag string) (*liveRig, error) {
	spill, err := scratchDir(tag)
	if err != nil {
		return nil, err
	}
	m, err := master.New("127.0.0.1:0", opts)
	if err != nil {
		return nil, infra(errDial, "boot master: %v", err)
	}
	r := &liveRig{m: m, spill: spill}
	if traced {
		m.EnableTracing(0)
	}
	r.api = ctl.New(m)
	if err := r.api.Start("127.0.0.1:0"); err != nil {
		r.close()
		return nil, infra(errDial, "boot ctl: %v", err)
	}
	for i := 0; i < nWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		w, _, err := worker.New(name, "127.0.0.1:0", m.Addr(), spill)
		if err != nil {
			r.close()
			return nil, infra(errDial, "boot worker %s: %v", name, err)
		}
		if traced {
			w.EnableTracing(0)
		}
		r.workers = append(r.workers, w)
		r.names = append(r.names, name)
	}
	if err := m.WaitForWorkers(nWorkers, 10*time.Second); err != nil {
		r.close()
		return nil, infra(errDial, "%v", err)
	}
	return r, nil
}

func (r *liveRig) base() string { return "http://" + r.api.Addr() }

func (r *liveRig) close() {
	for _, w := range r.workers {
		w.Close()
	}
	if r.api != nil {
		_ = r.api.Close()
	}
	r.m.Close()
	_ = os.RemoveAll(r.spill)
}

// apiClient is one load-generating client: one keep-alive connection to the
// control plane, every request wrapped in a ctl-layer span when tracing.
type apiClient struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newAPIClient(base string, tr *tracer) *apiClient {
	// One idle connection is kept: a closed-loop client never has more than
	// one request out. Open-loop submits that overlap a deploy in flight dial
	// extra connections, which are dropped when they go idle.
	transport := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
	}
	return &apiClient{base: base, hc: &http.Client{Transport: transport, Timeout: 2 * time.Minute}, tr: tr}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON body into out (when non-nil).
// It returns the status and the round-trip time; err is an infrastructure
// error only: a non-2xx status is the caller's to classify.
func (c *apiClient) do(parent spanRef, method, path string, body, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, fmt.Errorf("encode %s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, fmt.Errorf("build %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := c.tr.begin(parent, "ctl", method+" "+routeOf(path))
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return 0, 0, infra(errDial, "%s %s: %v", method, path, err)
	}
	raw, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	c.tr.end(sp)
	if rerr != nil {
		return resp.StatusCode, elapsed, infra(errDial, "%s %s: read body: %v", method, path, rerr)
	}
	if resp.StatusCode >= 500 {
		return resp.StatusCode, elapsed, infra(errServer5xx, "%s %s: %d %s", method, path, resp.StatusCode, firstLine(raw))
	}
	if out != nil && resp.StatusCode/100 == 2 && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, elapsed, fmt.Errorf("decode %s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, elapsed, nil
}

// routeOf collapses a request path to its route so span names and counts
// group by endpoint, not by job name.
func routeOf(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	if strings.HasPrefix(path, "/v1/jobs/") {
		return "/v1/jobs/{name}"
	}
	return path
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 160 {
		s = s[:160]
	}
	return s
}
