// Package ctl is the live master's control plane: an HTTP/JSON API for
// online job submission through the §IV-B4 admission queue, job and
// cluster status, cancellation, and observability (/healthz and a
// Prometheus-text /metrics). It is stdlib-only and mounted next to the
// master's worker-facing RPC endpoint.
//
// API surface (see DESIGN.md §7):
//
//	POST   /v1/jobs          submit a job (admitted or held pending)
//	GET    /v1/jobs          list jobs
//	GET    /v1/jobs/{name}   one job's status
//	DELETE /v1/jobs/{name}   cancel a pending or running job
//	GET    /v1/cluster       workers, groups, queue
//	GET    /v1/queues        fair-scheduler queues: shares, usage, depth
//	GET    /v1/events        scheduler decision journal (?since=, ?kind=)
//	GET    /v1/snapshot      versioned capture of the master's full state
//	POST   /v1/replay        self-replay the journal, report model drift
//	GET    /v1/trace         Chrome trace-event JSON of collected spans
//	GET    /v1/ps            per-stripe parameter-server statistics
//	GET    /healthz          liveness + uptime
//	GET    /metrics          Prometheus text format
package ctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"regexp"
	"slices"
	"sync"
	"time"

	"harmony/internal/master"
	"harmony/internal/mlapp"
	"harmony/internal/obs"
	"harmony/internal/ps"
	"harmony/internal/replay"
	"harmony/internal/rpc"
)

// Backend is what the control plane needs from the live master;
// *master.Master satisfies it.
type Backend interface {
	Enqueue(spec master.JobSpec, prof master.Profile) (master.Admission, error)
	Submit(spec master.JobSpec, group []string) error
	ListJobs() []master.JobView
	Job(name string) (master.JobView, bool)
	Cancel(name string) error
	Cluster() master.ClusterView
	Counters() master.Counters
	Queues() []master.QueueView
	WorkerTotals() master.WorkerTotals
	EventsSince(since uint64, kind string) []master.Event
	Snapshot() (master.Snapshot, error)
	PSStats() (ps.ClusterStats, error)
	CollectSpans() []obs.TaggedSpan
}

var _ Backend = (*master.Master)(nil)

// routes enumerated for the per-route request counter, in the order they
// appear in /metrics.
var routes = []string{
	"POST /v1/jobs",
	"GET /v1/jobs",
	"GET /v1/jobs/{name}",
	"DELETE /v1/jobs/{name}",
	"GET /v1/cluster",
	"GET /v1/queues",
	"GET /v1/events",
	"GET /v1/snapshot",
	"POST /v1/replay",
	"GET /v1/trace",
	"GET /v1/ps",
	"GET /healthz",
	"GET /metrics",
}

// Server serves the control-plane API. Create with New, mount it as an
// http.Handler or call Start to listen on an address.
type Server struct {
	b   Backend
	mux *http.ServeMux

	mu       sync.Mutex
	requests map[string]int64
	// lastReplay caches the most recent POST /v1/replay calibration
	// report; /metrics renders it as harmony_model_error_ratio gauges.
	lastReplay *replay.Report

	ln net.Listener
	hs *http.Server
}

// New builds the control plane over the backend.
func New(b Backend) *Server {
	s := &Server{
		b:        b,
		mux:      http.NewServeMux(),
		requests: make(map[string]int64, len(routes)),
	}
	s.handle("POST /v1/jobs", s.handleSubmit)
	s.handle("GET /v1/jobs", s.handleListJobs)
	s.handle("GET /v1/jobs/{name}", s.handleGetJob)
	s.handle("DELETE /v1/jobs/{name}", s.handleCancelJob)
	s.handle("GET /v1/cluster", s.handleCluster)
	s.handle("GET /v1/queues", s.handleQueues)
	s.handle("GET /v1/events", s.handleEvents)
	s.handle("GET /v1/snapshot", s.handleSnapshot)
	s.handle("POST /v1/replay", s.handleReplay)
	s.handle("GET /v1/trace", s.handleTrace)
	s.handle("GET /v1/ps", s.handlePSStats)
	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /metrics", s.handleMetrics)
	return s
}

// EnablePprof mounts net/http/pprof's profiling handlers under
// /debug/pprof/ on the control-plane mux. Call before Start; it is
// flag-guarded in the binaries (off by default) because the profile
// endpoints expose process internals and can burn CPU on demand.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

func (s *Server) handle(route string, h http.HandlerFunc) {
	s.mux.HandleFunc(route, func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.requests[route]++
		s.mu.Unlock()
		h(w, r)
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and serves
// the API in the background until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("ctl: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.hs.Serve(ln) }()
	return nil
}

// Addr is the listening address after Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener; in-flight requests are aborted.
func (s *Server) Close() error {
	if s.hs == nil {
		return nil
	}
	return s.hs.Close()
}

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	Name         string  `json:"name"`
	Algorithm    string  `json:"algorithm"`
	Features     int     `json:"features,omitempty"`
	Classes      int     `json:"classes,omitempty"`
	Rows         int     `json:"rows,omitempty"`
	LearningRate float64 `json:"learning_rate,omitempty"`
	Lambda       float64 `json:"lambda,omitempty"`
	Iterations   int     `json:"iterations"`
	Alpha        float64 `json:"alpha,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	// Workers pins the job to an explicit worker group, bypassing the
	// admission queue.
	Workers []string `json:"workers,omitempty"`
	// Queue and Priority are the fair-scheduler coordinates (DESIGN.md
	// §13); an empty queue means "default".
	Queue    string `json:"queue,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// MinWorkers is the gang size (the full set places atomically or the
	// job holds); MaxWorkers caps the placement (0 = no cap).
	MinWorkers int `json:"min_workers,omitempty"`
	MaxWorkers int `json:"max_workers,omitempty"`
	// Profile carries cost estimates for the §IV-B4 arrival rule; without
	// it the job can only start on an idle cluster.
	Profile *ProfileHints `json:"profile,omitempty"`
}

// ProfileHints are scheduler-unit cost estimates for an unprofiled job.
type ProfileHints struct {
	CompSeconds float64 `json:"comp_seconds,omitempty"`
	NetSeconds  float64 `json:"net_seconds,omitempty"`
	InputGB     float64 `json:"input_gb,omitempty"`
	ModelGB     float64 `json:"model_gb,omitempty"`
	WorkGB      float64 `json:"work_gb,omitempty"`
}

// SubmitResponse reports the admission outcome.
type SubmitResponse struct {
	Name  string `json:"name"`
	State string `json:"state"` // "running" or "pending"
	// Workers is the group the job was placed on when admitted.
	Workers []string `json:"workers,omitempty"`
}

// JobResponse is one job's status.
type JobResponse struct {
	Name                string    `json:"name"`
	State               string    `json:"state"`
	Iteration           int       `json:"iteration"`
	Loss                rpc.Float `json:"loss"`
	Workers             []string  `json:"workers,omitempty"`
	CompSeconds         float64   `json:"comp_seconds"`
	NetSeconds          float64   `json:"net_seconds"`
	Profiled            bool      `json:"profiled"`
	CheckpointIteration int       `json:"checkpoint_iteration"`
	Queue               string    `json:"queue,omitempty"`
	Priority            int       `json:"priority,omitempty"`
	// HoldReason and QueuePosition distinguish a held job from a stuck
	// one: why it waits (slowdown_bound, no_gang_capacity,
	// quota_exhausted, preempted) and its slot in the fair order.
	HoldReason    string `json:"hold_reason,omitempty"`
	QueuePosition int    `json:"queue_position,omitempty"`
	// Resumable marks a preempted job that will restore a checkpoint and
	// continue from ResumeIteration on re-admission.
	Resumable       bool `json:"resumable,omitempty"`
	ResumeIteration int  `json:"resume_iteration,omitempty"`
}

// QueueResponse is one queue's configuration, share, and live usage.
type QueueResponse = master.QueueView

// QueuesResponse is the GET /v1/queues body.
type QueuesResponse struct {
	Queues []QueueResponse `json:"queues"`
}

// JobListResponse is the GET /v1/jobs body.
type JobListResponse struct {
	Jobs []JobResponse `json:"jobs"`
}

// GroupResponse is one live co-location group.
type GroupResponse struct {
	Workers []string `json:"workers"`
	Jobs    []string `json:"jobs"`
}

// ClusterResponse is the GET /v1/cluster body.
type ClusterResponse struct {
	Workers []string        `json:"workers"`
	Groups  []GroupResponse `json:"groups"`
	Pending []string        `json:"pending,omitempty"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status        string  `json:"status"`
	Workers       int     `json:"workers"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// EventsResponse is the GET /v1/events body.
type EventsResponse struct {
	Events []master.Event `json:"events"`
}

// ErrorResponse is the envelope of every non-2xx response.
type ErrorResponse struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo is a machine-readable error: a stable code plus a message.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes used in ErrorInfo.Code.
const (
	CodeInvalidRequest = "invalid_request"
	CodeNotFound       = "not_found"
	CodeConflict       = "conflict"
	CodeUnavailable    = "unavailable"
	CodeInternal       = "internal"
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "malformed JSON body: "+err.Error())
		return
	}
	if !nameRe.MatchString(req.Name) {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"name must match "+nameRe.String())
		return
	}
	kind, err := mlapp.ParseKind(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			fmt.Sprintf("unknown algorithm %q (want mlr, lasso, nmf or lda)", req.Algorithm))
		return
	}
	if req.Iterations <= 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "iterations must be positive")
		return
	}
	if req.Alpha < 0 || req.Alpha > 1 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "alpha must be in [0, 1]")
		return
	}
	if req.Features < 0 || req.Classes < 0 || req.Rows < 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "problem sizes must be non-negative")
		return
	}
	if p := req.Profile; p != nil && (p.InputGB < 0 || p.ModelGB < 0 || p.WorkGB < 0) {
		// The arrival rule skips a full or over-cap group on the grounds that
		// a footprint is never negative (core.Scorer.BestAddition).
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "profile memory sizes must be non-negative")
		return
	}
	spec := master.JobSpec{
		Name: req.Name,
		Config: mlapp.Config{
			Kind: kind, Features: req.Features, Classes: req.Classes, Rows: req.Rows,
			LearningRate: req.LearningRate, Lambda: req.Lambda,
		},
		Iterations: req.Iterations,
		Alpha:      req.Alpha,
		Seed:       req.Seed,
		Queue:      req.Queue,
		Priority:   req.Priority,
		MinWorkers: req.MinWorkers,
		MaxWorkers: req.MaxWorkers,
	}
	if req.MinWorkers < 0 || req.MaxWorkers < 0 ||
		(req.MaxWorkers > 0 && req.MinWorkers > req.MaxWorkers) {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest,
			"min_workers/max_workers must be non-negative with min <= max")
		return
	}
	if len(req.Workers) > 0 {
		if ws := slices.Sorted(slices.Values(req.Workers)); len(slices.Compact(ws)) < len(req.Workers) {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "workers must name each worker once")
			return
		}
		// An explicit group is an operator override: deploy directly.
		if err := s.b.Submit(spec, req.Workers); err != nil {
			writeBackendError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, SubmitResponse{
			Name: req.Name, State: "running", Workers: req.Workers,
		})
		return
	}
	var prof master.Profile
	if req.Profile != nil {
		prof = master.Profile{
			CompSeconds: req.Profile.CompSeconds,
			NetSeconds:  req.Profile.NetSeconds,
			InputGB:     req.Profile.InputGB,
			ModelGB:     req.Profile.ModelGB,
			WorkGB:      req.Profile.WorkGB,
		}
	}
	adm, err := s.b.Enqueue(spec, prof)
	if err != nil {
		writeBackendError(w, err)
		return
	}
	if !adm.Admitted {
		writeJSON(w, http.StatusAccepted, SubmitResponse{Name: req.Name, State: "pending"})
		return
	}
	writeJSON(w, http.StatusCreated, SubmitResponse{
		Name: req.Name, State: "running", Workers: adm.Workers,
	})
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	views := s.b.ListJobs()
	out := JobListResponse{Jobs: make([]JobResponse, len(views))}
	for i, v := range views {
		out.Jobs[i] = toJobResponse(v)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	v, ok := s.b.Job(name)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("unknown job %q", name))
		return
	}
	writeJSON(w, http.StatusOK, toJobResponse(v))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.b.Cancel(name); err != nil {
		writeBackendError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"name": name, "state": "canceled"})
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	cv := s.b.Cluster()
	out := ClusterResponse{Workers: cv.Workers, Pending: cv.Pending}
	for _, g := range cv.Groups {
		out.Groups = append(out.Groups, GroupResponse{Workers: g.Workers, Jobs: g.Jobs})
	}
	writeJSON(w, http.StatusOK, out)
}

func toJobResponse(v master.JobView) JobResponse {
	return JobResponse{
		Name:                v.Name,
		State:               v.State,
		Iteration:           v.Iteration,
		Loss:                rpc.Float(v.Loss),
		Workers:             v.Workers,
		CompSeconds:         v.CompSeconds,
		NetSeconds:          v.NetSeconds,
		Profiled:            v.Profiled,
		CheckpointIteration: v.CheckpointIter,
		Queue:               v.Queue,
		Priority:            v.Priority,
		HoldReason:          v.HoldReason,
		QueuePosition:       v.QueuePosition,
		Resumable:           v.Resumable,
		ResumeIteration:     v.ResumeIter,
	}
}

// handleQueues serves the per-queue fair-scheduler surface: resolved
// shares, quota/usage in workers, queue depth, and cumulative counters.
func (s *Server) handleQueues(w http.ResponseWriter, r *http.Request) {
	qs := s.b.Queues()
	if qs == nil {
		qs = []QueueResponse{}
	}
	writeJSON(w, http.StatusOK, QueuesResponse{Queues: qs})
}

// writeJSON encodes body before it commits the status, so a body that
// does not encode answers 500 rather than an empty 200.
func writeJSON(w http.ResponseWriter, status int, body any) {
	raw, err := json.Marshal(body)
	if err != nil {
		status = http.StatusInternalServerError
		raw, _ = json.Marshal(ErrorResponse{Error: ErrorInfo{Code: CodeInternal, Message: err.Error()}})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(raw, '\n'))
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorInfo{Code: code, Message: msg}})
}

// writeBackendError maps master errors onto HTTP statuses.
func writeBackendError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, master.ErrUnknownJob):
		writeError(w, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, master.ErrUnknownWorker), errors.Is(err, master.ErrUnknownQueue):
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
	case errors.Is(err, master.ErrDuplicateJob), errors.Is(err, master.ErrJobFinished):
		writeError(w, http.StatusConflict, CodeConflict, err.Error())
	case errors.Is(err, master.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}
