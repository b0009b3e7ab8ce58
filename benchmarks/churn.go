package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/fair"
	"harmony/internal/master"
	"harmony/internal/obs"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// opKind is one control-plane operation of the churn mix.
type opKind int

const (
	opSubmit opKind = iota
	opCancelHeld
	opComplete
	opReadJob
	opReadOther
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"submit", "cancel_held", "complete_running", "read_job", "read_other"}[k]
}

// opBlock is the mix in its smallest whole numbers: 25% submit, 12.5% cancel
// a held job, 12.5% complete a running job, 45% GET /v1/jobs/{name}, 5% one of
// the four list/status endpoints. Every block of 80 ops contains exactly
// these, shuffled, so a submit is matched by one cancel or one completion
// (which makes a drain pass admit one held job) and the held depth stays
// within a block of where set-up left it.
var opBlock = [numOpKinds]int{opSubmit: 20, opCancelHeld: 10, opComplete: 10, opReadJob: 36, opReadOther: 4}

const opBlockLen = 80

// opSequence generates n ops from the seed: whole shuffled blocks, so the same
// seed gives the same sequence and every prefix is balanced to within a block.
func opSequence(seed int64, n int) []opKind {
	rng := rand.New(rand.NewSource(seed))
	out := make([]opKind, 0, n+opBlockLen)
	for len(out) < n {
		block := make([]opKind, 0, opBlockLen)
		for k := opKind(0); k < numOpKinds; k++ {
			for i := 0; i < opBlock[k]; i++ {
				block = append(block, k)
			}
		}
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		out = append(out, block...)
	}
	return out[:n]
}

// otherReads are the endpoints opReadOther rotates through; every
// scrapeEvery-th of those reads is a GET /metrics instead. One scrape fans out
// four stats RPCs to each of the 256 workers and costs about 100 ms, so at an
// even split it would be 60% of a round; at 1 in 32 (0.16% of all ops) it is
// a monitoring scrape beside the traffic, under a tenth of the round.
var otherReads = []string{"/v1/jobs", "/v1/cluster", "/v1/queues"}

const scrapeEvery = 32

type churnSizes struct {
	Workers   int
	Groups    int
	HeldDepth int
	// OpsPerClient is the fixed work of one round for each of the clients.
	OpsPerClient int
	Clients      int
}

func ctlChurnSizes(smoke bool) churnSizes {
	s := churnSizes{Workers: 256, Groups: 32, HeldDepth: 256, OpsPerClient: 3200, Clients: 2}
	if smoke {
		s = churnSizes{Workers: 32, Groups: 4, HeldDepth: 100, OpsPerClient: 160, Clients: 2}
	}
	return s
}

func (s churnSizes) describe() map[string]any {
	return map[string]any{"stub_workers": s.Workers, "seeded_groups": s.Groups, "jobs_per_group": 2,
		"held_depth": s.HeldDepth, "ops_per_client_per_round": s.OpsPerClient, "clients": s.Clients,
		"mix": "25% submit, 12.5% cancel-held, 12.5% complete-running, 45% GET job, 5% list/cluster/queues (1 in 32 of those GET /metrics)"}
}

type churnWorkload struct {
	spec  workloadSpec
	sizes churnSizes
	seed  int64
	tr    *tracer
}

func (w *churnWorkload) tailPercentile() float64       { return 99 }
func (w *churnWorkload) describe() map[string]any      { return w.sizes.describe() }
func (w *churnWorkload) systemSpans() []obs.TaggedSpan { return nil }

// churnRig is the control plane under churn: a real master and ctl server, a
// stub fleet, seeded full groups and a pre-filled held queue.
type churnRig struct {
	m     *master.Master
	api   *ctl.Server
	fleet *stubFleet
	// held are the names set-up left in the held queue, in submission order.
	held []string
	// submitted counts every job the master accepted during set-up.
	submitted int
}

func (r *churnRig) close() {
	if r.api != nil {
		_ = r.api.Close()
	}
	if r.m != nil {
		r.m.Close()
	}
	if r.fleet != nil {
		r.fleet.close()
	}
}

func churnQueue(i int) string {
	if i%2 == 0 {
		return "tenantA"
	}
	return "tenantB"
}

// stubJob is the submit body of a job the stub fleet "runs": the problem is
// tiny because nothing ever computes it.
func stubJob(name string, i, minW, maxW int, comp, net float64) ctl.SubmitRequest {
	return ctl.SubmitRequest{Name: name, Algorithm: "mlr", Features: 12, Classes: 3, Rows: 96,
		Iterations: 1000, Queue: churnQueue(i), MinWorkers: minW, MaxWorkers: maxW,
		Profile: &ctl.ProfileHints{CompSeconds: comp, NetSeconds: net}}
}

// heldJob is what the measured phase and the pre-fill submit: a light job
// that fits any group, held because every group is full.
func heldJob(name string, i, groupSize int) ctl.SubmitRequest {
	return stubJob(name, i, 1, groupSize, float64(groupSize)*0.04, 0.25+0.001*float64(i%11))
}

// churnSeedJob is the i-th job set-up seeds the groups with: the first
// Groups of them are comp-heavy gangs, the rest net-heavy ones that
// complement them.
func churnSeedJob(i int, sizes churnSizes) ctl.SubmitRequest {
	groupSize := sizes.Workers / sizes.Groups
	comp, net := float64(groupSize)*(0.45+0.01*float64(i%5)), 0.08+0.002*float64(i%7)
	if i >= sizes.Groups {
		comp, net = float64(groupSize)*0.05, 0.30+0.002*float64(i%7)
	}
	return stubJob(fmt.Sprintf("seed%03d", i), i, groupSize, groupSize, comp, net)
}

func bootChurn(sizes churnSizes) (*churnRig, error) {
	groupSize := sizes.Workers / sizes.Groups
	m, err := master.New("127.0.0.1:0", core.Options{MaxJobsPerGroup: 2})
	if err != nil {
		return nil, infra(errDial, "boot master: %v", err)
	}
	rig := &churnRig{m: m}
	rig.api = ctl.New(m)
	if err := rig.api.Start("127.0.0.1:0"); err != nil {
		rig.close()
		return nil, infra(errDial, "boot ctl: %v", err)
	}
	if rig.fleet, err = newStubFleet(sizes.Workers); err != nil {
		rig.close()
		return nil, err
	}
	if err := rig.fleet.register(m.Addr()); err != nil {
		rig.close()
		return nil, err
	}
	if err := m.WaitForWorkers(sizes.Workers, 10*time.Second); err != nil {
		rig.close()
		return nil, infra(errDial, "%v", err)
	}
	if err := m.ConfigureQueues(
		fair.QueueConfig{Name: "tenantA", Quota: 0.6},
		fair.QueueConfig{Name: "tenantB", Quota: 0.4}); err != nil {
		rig.close()
		return nil, fmt.Errorf("configure queues: %w", err)
	}
	client := newAPIClient("http://"+rig.api.Addr(), nil)
	defer client.close()
	post := func(req ctl.SubmitRequest, want int) error {
		status, _, err := client.do(spanRef{}, http.MethodPost, "/v1/jobs", req, nil)
		if err != nil {
			return err
		}
		if status != want {
			return infra(errDesync, "set-up submit %s: status %d, want %d", req.Name, status, want)
		}
		rig.submitted++
		return nil
	}
	// Two jobs per group is the steady state. First wave: comp-heavy gangs
	// take the free workers, carving the fleet into groups. Second wave:
	// complementary net-heavy gangs, each placed by the arrival rule into a
	// one-job group. With MaxJobsPerGroup 2 every group is then full.
	for i := 0; i < 2*sizes.Groups; i++ {
		if err := post(churnSeedJob(i, sizes), http.StatusCreated); err != nil {
			rig.close()
			return nil, err
		}
	}
	for i := 0; i < sizes.HeldDepth; i++ {
		name := fmt.Sprintf("pre%05d", i)
		if err := post(heldJob(name, i, groupSize), http.StatusAccepted); err != nil {
			rig.close()
			return nil, err
		}
		rig.held = append(rig.held, name)
	}
	if got := rig.fleet.runningCount(); got != 2*sizes.Groups {
		rig.close()
		return nil, infra(errDesync, "stub fleet runs %d jobs after seeding, want %d", got, 2*sizes.Groups)
	}
	return rig, nil
}

// churnClient is one closed-loop client: its own HTTP connection, its own RPC
// connection for completions, its own names and random stream.
type churnClient struct {
	id     int
	api    *apiClient
	rpc    *rpc.Client
	rng    *rand.Rand
	fleet  *stubFleet
	tr     *tracer
	gang   int
	held   []string
	nextID int
	reads  int
	others int

	lat      [numOpKinds][]float64 // ms
	scrapes  []float64             // ms, GET /metrics only
	accepted int                   // submits the master accepted
	// canceled and completed name the jobs this client's DELETE removed and
	// the jobs it reported done; the checks reconcile them with the master.
	canceled  []string
	completed []string
	done      int
	out       *outcomes
}

func (c *churnClient) pickHeld() (string, bool) {
	for len(c.held) > 0 {
		i := c.rng.Intn(len(c.held))
		name := c.held[i]
		if c.fleet.hasStarted(name) {
			// A drain pass started it since; it is no longer ours to cancel.
			c.held[i] = c.held[len(c.held)-1]
			c.held = c.held[:len(c.held)-1]
			continue
		}
		return name, true
	}
	return "", false
}

func (c *churnClient) dropHeld(name string) {
	for i, h := range c.held {
		if h == name {
			c.held[i] = c.held[len(c.held)-1]
			c.held = c.held[:len(c.held)-1]
			return
		}
	}
}

// run executes the client's op sequence; any returned error is
// infrastructure and aborts the round.
func (c *churnClient) run(ops []opKind) error {
	for _, op := range ops {
		start := time.Now()
		var err error
		switch op {
		case opSubmit:
			err = c.submit()
		case opCancelHeld:
			err = c.cancelHeld()
		case opComplete:
			err = c.complete()
		case opReadJob:
			err = c.readJob()
		case opReadOther:
			err = c.readOther()
		}
		if err != nil {
			return fmt.Errorf("client %d %s: %w", c.id, op, err)
		}
		c.lat[op] = append(c.lat[op], ms(time.Since(start)))
		c.done++
	}
	return nil
}

func (c *churnClient) submit() error {
	name := fmt.Sprintf("c%d-%06d", c.id, c.nextID)
	c.nextID++
	status, _, err := c.api.do(spanRef{}, http.MethodPost, "/v1/jobs", heldJob(name, c.nextID, c.gang), nil)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusAccepted:
		c.out.note(outcomeHeld)
		c.held = append(c.held, name)
		c.accepted++
	case http.StatusCreated:
		// A completion had just freed a slot and the drain pass had not
		// filled it yet: the arrival rule placed this job at once.
		c.out.note(outcomeAdmitted)
		c.accepted++
	default:
		c.out.noteUnexpected("POST /v1/jobs "+name, status)
	}
	return nil
}

func (c *churnClient) cancelHeld() error {
	name, ok := c.pickHeld()
	if !ok {
		return infra(errDesync, "no held job left to cancel")
	}
	status, _, err := c.api.do(spanRef{}, http.MethodDelete, "/v1/jobs/"+name, nil, nil)
	if err != nil {
		return err
	}
	c.dropHeld(name)
	switch status {
	case http.StatusOK:
		if c.fleet.hasStarted(name) {
			c.out.note(outcomeCancelRaced)
		}
		c.canceled = append(c.canceled, name)
	case http.StatusConflict:
		c.out.note(outcomeCancelRaced)
	case http.StatusNotFound:
		c.out.note(outcomeCancelGone)
	default:
		c.out.noteUnexpected("DELETE /v1/jobs/"+name, status)
	}
	return nil
}

// complete finishes one running job the way its workers would: look up the
// gang, then report jobDone from every member with the epoch the master
// stamped on StartJobArgs.
func (c *churnClient) complete() error {
	job, epoch, ok := c.fleet.claimRunning(c.rng.Int())
	if !ok {
		return infra(errDesync, "no running job left to complete")
	}
	root := c.tr.begin(spanRef{}, "harness", "complete_running")
	defer c.tr.end(root)
	var view ctl.JobResponse
	status, _, err := c.api.do(root, http.MethodGet, "/v1/jobs/"+job, nil, &view)
	if err != nil {
		return err
	}
	if status != http.StatusOK || view.State != master.StatusRunning.String() {
		// The other client canceled it between the claim and the lookup.
		c.out.note(outcomeCancelRaced)
		return nil
	}
	mark := c.fleet.markDone()
	for _, w := range view.Workers {
		sp := c.tr.begin(root, "master", worker.MethodJobDone)
		_, err := rpc.Invoke[worker.JobDoneArgs, worker.Ack](c.rpc, worker.MethodJobDone,
			worker.JobDoneArgs{Job: job, Worker: w, Epoch: epoch}, 10*time.Second)
		c.tr.end(sp)
		if err != nil {
			return infra(errRPCTimeout, "jobDone %s from %s: %v", job, w, err)
		}
	}
	c.fleet.ackDone(mark)
	c.completed = append(c.completed, job)
	return nil
}

func (c *churnClient) readJob() error {
	// Half the reads look at a running job, half at a held one of ours.
	var name string
	if c.reads%2 == 0 {
		name, _ = c.fleet.peekRunning(c.rng.Int())
	}
	if name == "" && len(c.held) > 0 {
		name = c.held[c.rng.Intn(len(c.held))]
	}
	c.reads++
	if name == "" {
		return infra(errDesync, "no job left to read")
	}
	status, _, err := c.api.do(spanRef{}, http.MethodGet, "/v1/jobs/"+name, nil, nil)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
	case http.StatusNotFound:
		c.out.note(outcomeReadGone)
	default:
		c.out.noteUnexpected("GET /v1/jobs/"+name, status)
	}
	return nil
}

func (c *churnClient) readOther() error {
	path := otherReads[c.others%len(otherReads)]
	if c.others%scrapeEvery == scrapeEvery-1 {
		path = "/metrics"
	}
	c.others++
	status, elapsed, err := c.api.do(spanRef{}, http.MethodGet, path, nil, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		c.out.noteUnexpected("GET "+path, status)
	}
	if path == "/metrics" {
		c.scrapes = append(c.scrapes, ms(elapsed))
	}
	return nil
}

func (w *churnWorkload) round(idx int, traced bool) (*roundOut, error) {
	out := &roundOut{outcomes: newOutcomes()}
	var tr *tracer
	if traced {
		tr = w.tr
	}
	bootStart := time.Now()
	rig, err := bootChurn(w.sizes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.spec.Name, err)
	}
	defer rig.close()
	clients := make([]*churnClient, w.sizes.Clients)
	for i := range clients {
		conn, err := rpc.Dial(rig.m.Addr(), 10*time.Second)
		if err != nil {
			return nil, infra(errDial, "%s: client %d dial master: %v", w.spec.Name, i, err)
		}
		defer conn.Close()
		c := &churnClient{id: i, api: newAPIClient("http://"+rig.api.Addr(), tr), rpc: conn,
			rng:   rand.New(rand.NewSource(w.seed*1_000_003 + int64(idx)*101 + int64(i))),
			fleet: rig.fleet, tr: tr, gang: w.sizes.Workers / w.sizes.Groups, out: out.outcomes}
		defer c.api.close()
		for k, name := range rig.held {
			if k%len(clients) == i {
				c.held = append(c.held, name)
			}
		}
		clients[i] = c
	}
	sequences := make([][]opKind, len(clients))
	for i := range clients {
		sequences[i] = opSequence(w.seed*7919+int64(idx)*13+int64(i), w.sizes.OpsPerClient)
	}
	scoreBefore := core.FullScoreCalls()

	start := time.Now()
	out.setup = start.Sub(bootStart)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *churnClient) {
			defer wg.Done()
			errs[i] = c.run(sequences[i])
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.spec.Name, err)
		}
	}
	out.measured = elapsed
	out.makespans = []float64{elapsed.Seconds()}
	accepted := rig.submitted
	var canceled, completed []string
	for _, c := range clients {
		out.attempted += c.done
		out.op = append(out.op, c.lat[opSubmit]...)
		out.step = append(out.step, c.lat[opReadJob]...)
		out.addExtra("cancel_p50_ms", "ms", c.lat[opCancelHeld]...)
		out.addExtra("complete_p50_ms", "ms", c.lat[opComplete]...)
		out.addExtra("read_other_p50_ms", "ms", c.lat[opReadOther]...)
		out.addExtra("metrics_scrape_p50_ms", "ms", c.scrapes...)
		accepted += c.accepted
		canceled = append(canceled, c.canceled...)
		completed = append(completed, c.completed...)
	}
	out.addExtra("submit_p50_ms", "ms", out.op...)
	out.addExtra("submit_p99_ms", "ms", out.op...)
	out.addExtra("read_p50_ms", "ms", out.step...)
	out.addExtra("ops_per_s", "1/s", float64(out.attempted)/elapsed.Seconds())

	w.settle(rig)
	holdToRun, desync := rig.fleet.drainSamples()
	if desync != nil {
		return nil, fmt.Errorf("%s: %w", w.spec.Name, desync)
	}
	out.addExtra("hold_to_run_p50_ms", "ms", holdToRun...)
	out.outcomes.noteN(outcomeDeployAfterDrop, rig.fleet.lateCallCount())
	w.check(out, rig, accepted, canceled, completed)
	if traced {
		c := rig.m.Counters()
		_, unexpected := out.outcomes.snapshot()
		out.layer = map[string]float64{
			"master.admitted":       float64(c.AdmittedInitial + c.AdmittedArrival),
			"master.held":           float64(c.HeldPending),
			"master.queue_drained":  float64(c.QueueDrained),
			"master.canceled":       float64(c.Canceled),
			"master.preemptions":    float64(c.Preempted),
			"master.journal_events": float64(lastSeq(rig.m.Events())),
			"core.full_score_calls": float64(core.FullScoreCalls() - scoreBefore),
			"ctl.unexpected_status": float64(unexpected),
		}
	}
	return out, nil
}

func lastSeq(events []master.Event) uint64 {
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].Seq
}

// settle waits for the drain passes the last completions woke to finish
// deploying, so the checks see a quiet master: no job half deployed, and the
// count of drained jobs and the stub fleet's running count still for 100 ms.
func (w *churnWorkload) settle(rig *churnRig) {
	deadline := time.Now().Add(20 * time.Second)
	state := func() [2]int64 { return [2]int64{rig.m.Counters().QueueDrained, int64(rig.fleet.runningCount())} }
	last, since := state(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if now := state(); now != last || rig.fleet.deploying() > 0 {
			last, since = now, time.Now()
		} else if time.Since(since) >= 100*time.Millisecond {
			return
		}
	}
}

// check verifies the control plane lost and duplicated nothing: the snapshot
// validates, the journal's retained window has no gap, every job the master
// accepted is in exactly one state, and what the clients did to each job by
// name is what the master says became of it.
func (w *churnWorkload) check(out *roundOut, rig *churnRig, accepted int, canceled, completed []string) {
	out.attempted += 3
	snap, err := rig.m.Snapshot()
	if err != nil {
		out.fail("snapshot: %v", err)
	} else if err := snap.Validate(); err != nil {
		out.fail("snapshot does not validate: %v", err)
	}
	events := rig.m.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			out.fail("journal gap: seq %d follows %d", events[i].Seq, events[i-1].Seq)
			break
		}
	}
	state := make(map[string]string)
	count := make(map[string]int)
	for _, j := range rig.m.ListJobs() {
		if _, dup := state[j.Name]; dup {
			out.fail("job %s is listed twice", j.Name)
			return
		}
		state[j.Name] = j.State
		count[j.State]++
	}
	// A canceled held job leaves the master's tables; the cancel counter is
	// what remembers it (a canceled running job stays listed as canceled).
	counted := int(rig.m.Counters().Canceled)
	wasCanceled := make(map[string]bool, len(canceled))
	for _, name := range canceled {
		wasCanceled[name] = true
	}
	finished := 0
	for _, name := range completed {
		switch {
		case state[name] == "finished":
			finished++
		case state[name] == "canceled" && wasCanceled[name]:
			// The other client's cancel reached the master between this
			// client's lookup and its jobDone: canceled won, once.
		default:
			out.fail("job %s was reported done but is %q", name, state[name])
			return
		}
	}
	switch {
	case accepted != count["running"]+count["pending"]+count["finished"]+counted:
		out.fail("submitted %d != running %d + held %d + finished %d + canceled %d",
			accepted, count["running"], count["pending"], count["finished"], counted)
	case count["finished"] != finished:
		out.fail("%d jobs finished, %d completions took effect", count["finished"], finished)
	case counted != len(canceled):
		out.fail("%d jobs canceled, %d cancels succeeded", counted, len(canceled))
	case count["running"] != rig.fleet.runningCount():
		out.fail("master runs %d jobs, stub fleet runs %d", count["running"], rig.fleet.runningCount())
	}
	for _, name := range rig.fleet.runningNames() {
		if state[name] != "running" {
			out.fail("stub fleet runs %s, which the master lists as %q", name, state[name])
			break
		}
	}
}
