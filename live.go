package harmony

import (
	"fmt"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/fair"
	"harmony/internal/master"
	"harmony/internal/worker"
)

// Master coordinates live workers: it submits Parameter-Server training
// jobs, synchronizes their distributed iterations, profiles subtask
// times, and migrates jobs between worker groups (§IV-B4).
type Master struct {
	m *master.Master
}

// StartMaster launches the master's RPC endpoint; use "127.0.0.1:0" to
// bind an ephemeral port.
func StartMaster(addr string) (*Master, error) {
	m, err := master.New(addr, core.Options{})
	if err != nil {
		return nil, err
	}
	return &Master{m: m}, nil
}

// Addr is the address workers dial.
func (m *Master) Addr() string { return m.m.Addr() }

// WaitForWorkers blocks until n workers have registered.
func (m *Master) WaitForWorkers(n int, timeout time.Duration) error {
	return m.m.WaitForWorkers(n, timeout)
}

// Workers lists the registered worker names.
func (m *Master) Workers() []string { return m.m.Workers() }

// EnableTracing turns on cluster span collection: the master pulls
// subtask/barrier spans from tracing workers over the Stats path and
// serves them at the control plane's /v1/trace as Chrome trace-event
// JSON, with phase latency histograms and per-group overlap gauges on
// /metrics. Workers record spans only when started with tracing
// themselves (Worker.EnableTracing / harmony-worker -trace).
func (m *Master) EnableTracing() { m.m.EnableTracing(0) }

// Training is a live job submission.
type Training struct {
	// Name uniquely identifies the job.
	Name string
	// Config sizes the synthetic learning problem.
	Config TrainingConfig
	// Iterations until the job completes.
	Iterations int
	// Alpha is the initial disk-spill ratio for input blocks (§IV-C).
	Alpha float64
	// Seed keeps data generation reproducible.
	Seed int64
	// Queue names the fair-scheduler queue; empty means "default".
	Queue string
	// Priority orders the job within its queue (higher first).
	Priority int
	// MinWorkers is the gang size: the full worker set places
	// atomically or the job holds pending — never a partial gang.
	MinWorkers int
	// MaxWorkers caps the placement size; 0 means no cap.
	MaxWorkers int
	// Workers restricts the job to a worker subset; nil uses all.
	Workers []string
}

// Submit loads and starts a training job across its worker group.
func (m *Master) Submit(t Training) error {
	cfg, err := t.Config.internal()
	if err != nil {
		return err
	}
	return m.m.Submit(master.JobSpec{
		Name:       t.Name,
		Config:     cfg,
		Iterations: t.Iterations,
		Alpha:      t.Alpha,
		Seed:       t.Seed,
		Queue:      t.Queue,
		Priority:   t.Priority,
		MinWorkers: t.MinWorkers,
		MaxWorkers: t.MaxWorkers,
	}, t.Workers)
}

// Wait blocks until the named job converges.
func (m *Master) Wait(name string, timeout time.Duration) error {
	return m.m.WaitJob(name, timeout)
}

// Progress reports a job's last completed iteration and current loss. A
// job held in the admission queue, or requeued after a failure, reports
// the iteration it will resume after.
func (m *Master) Progress(name string) (iteration int, loss float64, finished bool, err error) {
	v, ok := m.m.Job(name)
	if !ok {
		return 0, 0, false, fmt.Errorf("harmony: %w %q", master.ErrUnknownJob, name)
	}
	return v.Iteration, v.Loss, v.State == master.StatusFinished.String(), nil
}

// ProfiledJob reports the runtime-profiled metrics for a job, in the
// scheduler's units.
func (m *Master) ProfiledJob(name string) (Job, bool) {
	met, ok := m.m.Metrics(name)
	if !ok {
		return Job{}, false
	}
	return Job{ID: name, CompSeconds: met.CompMachineSeconds, NetSeconds: met.NetSeconds}, ok
}

// Pause stops a job at its next iteration boundary and returns the model
// checkpoint.
func (m *Master) Pause(name string, timeout time.Duration) ([]float64, error) {
	return m.m.Pause(name, timeout)
}

// Resume migrates a paused job onto a worker group, restoring the model
// from the checkpoint.
func (m *Master) Resume(name string, group []string, checkpoint []float64) error {
	return m.m.Resume(name, group, checkpoint)
}

// PlanGroups runs Algorithm 1 over the profiled jobs and returns the
// job→workers placement it recommends.
func (m *Master) PlanGroups() (map[string][]string, error) {
	return m.m.PlanGroups()
}

// Utilization averages the workers' executor busy fractions.
func (m *Master) Utilization() (cpu, net float64, err error) {
	return m.m.WorkerStats()
}

// Close shuts the master down, releasing any blocked workers.
func (m *Master) Close() { m.m.Close() }

// Shutdown drains the master for a clean exit: it stops admitting new
// jobs, snapshots every running job's model as a final checkpoint (best
// effort, within the timeout per job), and closes the master. It returns
// the names of the jobs checkpointed.
func (m *Master) Shutdown(timeout time.Duration) []string {
	return m.m.Shutdown(timeout)
}

// ControlPlane is a running HTTP control-plane endpoint; see ServeAPI.
type ControlPlane struct {
	s *ctl.Server
}

// APIOption configures the control plane served by ServeAPI.
type APIOption func(*ctl.Server)

// WithPprof mounts net/http/pprof's profiling handlers under
// /debug/pprof/ on the control plane. Off by default: the endpoints
// expose process internals and can burn CPU on demand.
func WithPprof() APIOption {
	return func(s *ctl.Server) { s.EnablePprof() }
}

// ServeAPI mounts the HTTP/JSON control plane for this master on addr
// ("127.0.0.1:0" for an ephemeral port): job submission through the
// online admission queue, status, cancellation, /healthz and Prometheus
// /metrics. See DESIGN.md §7 for the API surface.
func (m *Master) ServeAPI(addr string, opts ...APIOption) (*ControlPlane, error) {
	s := ctl.New(m.m)
	for _, opt := range opts {
		opt(s)
	}
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	return &ControlPlane{s: s}, nil
}

// Addr is the control plane's listening address.
func (c *ControlPlane) Addr() string { return c.s.Addr() }

// Close stops the control-plane listener; the master keeps running.
func (c *ControlPlane) Close() error { return c.s.Close() }

// Admission reports the outcome of an Enqueue.
type Admission struct {
	// Admitted is true when the job was placed and started immediately;
	// false means it is held pending in the admission queue.
	Admitted bool
	// Workers is the group the job runs on when admitted.
	Workers []string
}

// Enqueue submits a training job through the online admission path of
// §IV-B4: an idle cluster starts it immediately, otherwise the arrival
// rule places it into the running group that improves cluster
// utilization or holds it pending until a completion or regroup frees
// capacity. hints carries the job's estimated scheduler metrics
// (CompSeconds, NetSeconds, memory sizes); its ID field is ignored.
func (m *Master) Enqueue(t Training, hints Job) (Admission, error) {
	cfg, err := t.Config.internal()
	if err != nil {
		return Admission{}, err
	}
	adm, err := m.m.Enqueue(master.JobSpec{
		Name:       t.Name,
		Config:     cfg,
		Iterations: t.Iterations,
		Alpha:      t.Alpha,
		Seed:       t.Seed,
		Queue:      t.Queue,
		Priority:   t.Priority,
		MinWorkers: t.MinWorkers,
		MaxWorkers: t.MaxWorkers,
	}, master.Profile{
		CompSeconds: hints.CompSeconds,
		NetSeconds:  hints.NetSeconds,
		InputGB:     hints.InputGB,
		ModelGB:     hints.ModelGB,
		WorkGB:      hints.WorkGB,
	})
	if err != nil {
		return Admission{}, err
	}
	return Admission{Admitted: adm.Admitted, Workers: adm.Workers}, nil
}

// Cancel removes a pending job from the admission queue or stops a
// running job, dropping its state from the workers.
func (m *Master) Cancel(name string) error { return m.m.Cancel(name) }

// QueueConfig declares one fair-scheduler queue: its guaranteed quota
// fraction, its weight for splitting unreserved capacity, its
// over-quota weight for ordering borrowers, and an optional parent for
// hierarchical shares. See DESIGN.md §13.
type QueueConfig = fair.QueueConfig

// QueueView is the live per-queue surface: resolved share, quota and
// usage in workers, held depth, and cumulative counters.
type QueueView = master.QueueView

// ParseQueues parses a queue spec of the form
// "name:quota=0.7,weight=2;other:quota=0.3" (keys: quota, weight,
// over-quota-weight/oqw, parent) into queue configurations, for
// command-line wiring.
func ParseQueues(spec string) ([]QueueConfig, error) { return fair.ParseConfigs(spec) }

// ConfigureQueues replaces the fair-scheduler queue hierarchy. The
// "default" queue always exists; every queue referenced by a running or
// held job must survive the swap. Reconfiguring kicks a queue drain so
// held jobs re-order under the new shares immediately.
func (m *Master) ConfigureQueues(cfgs ...QueueConfig) error { return m.m.ConfigureQueues(cfgs...) }

// Queues reports the fair-scheduler queues sorted by name.
func (m *Master) Queues() []QueueView { return m.m.Queues() }

// Worker is a live worker process handle.
type Worker struct {
	w *worker.Worker
}

// StartWorker launches a worker that serves a co-located parameter
// server on addr and registers with the master. spillDir holds spilled
// input blocks.
func StartWorker(name, addr, masterAddr, spillDir string) (*Worker, error) {
	w, _, err := worker.New(name, addr, masterAddr, spillDir)
	if err != nil {
		return nil, err
	}
	return &Worker{w: w}, nil
}

// SetCompParallelism bounds the fused COMP kernel's core pool (0 selects
// GOMAXPROCS). Results are bit-identical at any setting; only wall time
// changes.
func (w *Worker) SetCompParallelism(n int) { w.w.SetCompParallelism(n) }

// EnableTracing attaches a bounded span recorder to this worker: every
// COMP/PULL/PUSH subtask, executor slot wait, and iteration barrier is
// recorded and shipped to the master piggybacked on the Stats RPC. Off
// by default; when off the instrumentation is a nil check with zero
// allocations.
func (w *Worker) EnableTracing() { w.w.EnableTracing(0) }

// Close stops the worker's jobs and servers.
func (w *Worker) Close() { w.w.Close() }
