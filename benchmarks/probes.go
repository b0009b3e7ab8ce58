package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"harmony/internal/core"
	"harmony/internal/ctl"
	"harmony/internal/fair"
	"harmony/internal/master"
	"harmony/internal/memstore"
	"harmony/internal/mlapp"
	"harmony/internal/ps"
	"harmony/internal/replay"
	"harmony/internal/rpc"
	"harmony/internal/sim"
	"harmony/internal/subtask"
	"harmony/internal/workload"
)

// The probe pass follows every traced workload. Each probe calls one layer's
// exported functions in isolation, at the input sizes of the workload its
// metric names, and reports the median of the calls it fitted into its time
// slice. The probes are the same whichever workload was traced, so a
// per-layer probe metric means one thing in every traced run.

// probeSlice is how long one probe samples. Probes whose single call takes a
// sizeable part of it take a fixed small number of samples instead.
const probeSlice = 60 * time.Millisecond

type prober struct {
	tr    *tracer
	seed  int64
	smoke bool
	out   map[string]value
}

func (p *prober) put(name string, v float64, n int) {
	m, ok := findMetric(perLayer, name)
	if !ok {
		panic("probe reports unlisted metric " + name)
	}
	p.out[name] = value{Value: v, Unit: m.Unit, N: n}
}

// sample calls fn until the slice is used up (at least minN times) and
// returns every call's duration in nanoseconds. The whole probe is one span.
func (p *prober) sample(layer, name string, minN int, fn func()) []float64 {
	return p.sampleTimed(layer, name, minN, func() time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	})
}

// sampleTimed is sample for calls that need untimed work around the timed
// part: fn reports the duration that counts.
func (p *prober) sampleTimed(layer, name string, minN int, fn func() time.Duration) []float64 {
	sp := p.tr.begin(spanRef{}, layer, "probe "+name)
	defer p.tr.end(sp)
	slice := probeSlice
	if p.smoke {
		slice = 2 * time.Millisecond
	}
	var out []float64
	for start := time.Now(); len(out) < minN || time.Since(start) < slice; {
		out = append(out, float64(fn().Nanoseconds()))
	}
	return out
}

// runProbes runs every probe; short selects the smallest sizes and slices
// (the -smoke size, or a run that is out of time).
func runProbes(tr *tracer, seed int64, short bool) (map[string]value, error) {
	p := &prober{tr: tr, seed: seed, smoke: short, out: make(map[string]value)}
	steps := []func() error{p.coreAndFair, p.masterAndCtl, p.rpcLayer, p.psLayer, p.subtaskLayer,
		p.mlappLayer, p.memstoreLayer, p.simAndReplay, p.workerDeploy}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	return p.out, nil
}

// churnPlan rebuilds, from the constants bootChurn seeds with, the plan the
// churn master holds right after one completion: every group full but one.
func churnPlan(sizes churnSizes) (core.Plan, string) {
	groupSize := sizes.Workers / sizes.Groups
	info := func(i int) core.JobInfo { return hintInfo(churnSeedJob(i, sizes)) }
	var plan core.Plan
	for g := 0; g < sizes.Groups; g++ {
		jobs := []core.JobInfo{info(g)}
		if g > 0 {
			jobs = append(jobs, info(sizes.Groups+g))
		}
		plan.Groups = append(plan.Groups, core.Group{Jobs: jobs, Machines: groupSize})
	}
	return plan, info(1).ID
}

func heldInfos(sizes churnSizes) []core.JobInfo {
	groupSize := sizes.Workers / sizes.Groups
	infos := make([]core.JobInfo, sizes.HeldDepth)
	for i := range infos {
		infos[i] = hintInfo(heldJob(fmt.Sprintf("pre%05d", i), i, groupSize))
	}
	return infos
}

// hintInfo is the scheduler's view of a submitted job before it has run: its
// profile hints (master.Profile does the same conversion on Enqueue).
func hintInfo(req ctl.SubmitRequest) core.JobInfo {
	return core.JobInfo{ID: req.Name, Comp: req.Profile.CompSeconds, Net: req.Profile.NetSeconds,
		JVMHeapFactor: workload.JVMHeapFactor}
}

func (p *prober) coreAndFair() error {
	defer singleP()() // as sim_paper runs them
	simSz := simPaperSizes(p.smoke)
	in, err := buildSimInputs(simSz, p.seed)
	if err != nil {
		return err
	}
	var plan core.Plan
	xs := p.sample("core", "Schedule paper", 5, func() {
		plan = core.Schedule(in.paper, simSz.Machines, core.Options{MemoryCapGB: 25})
	})
	p.put("core.schedule_paper_ms", median(xs)/1e6, len(xs))
	xs = p.sample("core", "Schedule 1k", 3, func() {
		core.Schedule(in.big, simSz.BigMachines, core.Options{MemoryCapGB: 25, MaxJobsPerGroup: 4})
	})
	p.put("core.schedule_1k_ms", median(xs)/1e6, len(xs))
	// The paper plan's largest group is the hardest interleaving problem the
	// net-aware scheduler solves on this workload.
	var widest core.Group
	for _, g := range plan.Groups {
		if len(g.Jobs) > len(widest.Jobs) {
			widest = g
		}
	}
	if len(widest.Jobs) == 0 {
		return fmt.Errorf("core.Schedule returned an empty plan for the paper workload")
	}
	xs = p.sample("core", "SolveInterleave", 5, func() { core.SolveInterleave(widest.Jobs, widest.Machines) })
	p.put("core.solve_interleave_us", median(xs)/1e3, len(xs))

	churnSz := ctlChurnSizes(p.smoke)
	cplan, finished := churnPlan(churnSz)
	held := heldInfos(churnSz)
	opts := core.Options{MaxJobsPerGroup: 2}
	xs = p.sample("core", "Scorer.BestAddition", 5, func() {
		sc := core.NewScorer(cplan, opts)
		for _, h := range held {
			sc.BestAddition(h)
		}
	})
	p.put("core.scorer_best_addition_us", median(xs)/1e3, len(xs))
	full, _ := churnPlan(churnSz)
	full.Groups[0].Jobs = append(full.Groups[0].Jobs, core.JobInfo{ID: "extra", Comp: 0.4, Net: 0.3})
	xs = p.sample("core", "RegroupAfterFinish", 5, func() { core.RegroupAfterFinish(full, finished, held, opts) })
	p.put("core.regroup_after_finish_us", median(xs)/1e3, len(xs))

	sched, err := fair.New(fair.QueueConfig{Name: "tenantA", Quota: 0.6}, fair.QueueConfig{Name: "tenantB", Quota: 0.4})
	if err != nil {
		return err
	}
	fheld := make([]fair.Held, churnSz.HeldDepth)
	for i := range fheld {
		fheld[i] = fair.Held{Job: held[i].ID, Queue: churnQueue(i), Seq: uint64(i + 1), Demand: 1}
	}
	usage := fair.Usage{"tenantA": churnSz.Workers, "tenantB": churnSz.Workers}
	xs = p.sample("fair", "Scheduler.Order", 5, func() { sched.Order(fheld, usage, churnSz.Workers) })
	p.put("fair.order_us", median(xs)/1e3, len(xs))
	xs = p.sample("fair", "Experiment.Run", 3, func() { _, err = in.fairExp.Run() })
	if err != nil {
		return err
	}
	p.put("fair.experiment_ms", median(xs)/1e6, len(xs))
	return nil
}

// masterAndCtl probes the churn master at its steady depth: direct calls
// into the master beside the same operation over HTTP, so the control
// plane's own share is the difference.
func (p *prober) masterAndCtl() error {
	sizes := ctlChurnSizes(p.smoke)
	rig, err := bootChurn(sizes)
	if err != nil {
		return err
	}
	defer rig.close()
	groupSize := sizes.Workers / sizes.Groups
	n := 0
	var callErr error
	xs := p.sampleTimed("master", "Enqueue", 50, func() time.Duration {
		// Enqueue, then an untimed cancel: the depth stays where set-up left
		// it. Each hold wakes a drain pass, as it does under churn, so the
		// tail of this sample is an Enqueue waiting out a pass.
		req := heldJob(fmt.Sprintf("probe-%06d", n), n, groupSize)
		n++
		spec, prof, err := toSpec(req)
		var d time.Duration
		if err == nil {
			t0 := time.Now()
			_, err = rig.m.Enqueue(spec, prof)
			d = time.Since(t0)
		}
		if err == nil {
			err = rig.m.Cancel(req.Name)
		}
		if err != nil && callErr == nil {
			callErr = err
		}
		return d
	})
	if callErr != nil {
		return fmt.Errorf("master.Enqueue: %w", callErr)
	}
	enqueueP50 := median(xs) / 1e3
	p.put("master.enqueue_us_p50", enqueueP50, len(xs))
	p.put("master.enqueue_us_p99", percentile(xs, 99)/1e3, len(xs))
	k := 0
	xs = p.sample("master", "Job", 50, func() { rig.m.Job(rig.held[k%len(rig.held)]); k++ })
	p.put("master.job_status_us", median(xs)/1e3, len(xs))
	xs = p.sample("master", "ListJobs", 5, func() { rig.m.ListJobs() })
	p.put("master.list_jobs_ms", median(xs)/1e6, len(xs))
	xs = p.sample("master", "Snapshot", 3, func() { _, callErr = rig.m.Snapshot() })
	if callErr != nil {
		return fmt.Errorf("master.Snapshot: %w", callErr)
	}
	p.put("master.snapshot_ms", median(xs)/1e6, len(xs))

	client := newAPIClient("http://"+rig.api.Addr(), nil)
	defer client.close()
	get := func(path string) func() {
		return func() {
			if status, _, err := client.do(spanRef{}, http.MethodGet, path, nil, nil); callErr == nil {
				if err != nil {
					callErr = err
				} else if status != http.StatusOK {
					callErr = fmt.Errorf("GET %s: status %d", path, status)
				}
			}
		}
	}
	xs = p.sample("ctl", "GET /healthz", 50, get("/healthz"))
	p.put("ctl.healthz_us", median(xs)/1e3, len(xs))
	xs = p.sample("ctl", "GET /metrics", 3, get("/metrics"))
	p.put("ctl.metrics_scrape_ms", median(xs)/1e6, len(xs))
	var posts []float64
	sp := p.tr.begin(spanRef{}, "ctl", "probe POST /v1/jobs")
	for i := 0; i < 50 || (!p.smoke && i < 200); i++ {
		name := fmt.Sprintf("probe-http-%06d", i)
		_, elapsed, err := client.do(sp, http.MethodPost, "/v1/jobs", heldJob(name, i, groupSize), nil)
		if err != nil {
			callErr = err
			break
		}
		posts = append(posts, float64(elapsed.Nanoseconds()))
		if _, _, err := client.do(sp, http.MethodDelete, "/v1/jobs/"+name, nil, nil); err != nil {
			callErr = err
			break
		}
	}
	p.tr.end(sp)
	if callErr != nil {
		return callErr
	}
	p.put("ctl.submit_self_us", median(posts)/1e3-enqueueP50, len(posts))
	return nil
}

// toSpec converts a submit body the way the control plane does.
func toSpec(req ctl.SubmitRequest) (master.JobSpec, master.Profile, error) {
	kind, err := mlapp.ParseKind(req.Algorithm)
	if err != nil {
		return master.JobSpec{}, master.Profile{}, err
	}
	spec := master.JobSpec{Name: req.Name,
		Config:     mlapp.Config{Kind: kind, Features: req.Features, Classes: req.Classes, Rows: req.Rows},
		Iterations: req.Iterations, Alpha: req.Alpha, Seed: req.Seed, Queue: req.Queue,
		MinWorkers: req.MinWorkers, MaxWorkers: req.MaxWorkers}
	var prof master.Profile
	if req.Profile != nil {
		prof = master.Profile{CompSeconds: req.Profile.CompSeconds, NetSeconds: req.Profile.NetSeconds}
	}
	return spec, prof, nil
}

func (p *prober) rpcLayer() error {
	srv := rpc.NewServer()
	echo := func(b []byte) ([]byte, error) { return append([]byte(nil), b...), nil }
	srv.Handle("probe.echo", echo)
	srv.HandleInline("probe.echoInline", echo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := rpc.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	var callErr error
	call := func(method string, payload []byte) func() {
		return func() {
			body, err := c.Call(method, payload, 30*time.Second)
			if err != nil && callErr == nil {
				callErr = err
			}
			rpc.PutBuffer(body)
		}
	}
	// 64 bytes over the dispatching path is the barrier RPC's shape; 4 MB
	// over the inline path is one live_comm PULL or PUSH.
	xs := p.sample("rpc", "Call 64B", 50, call("probe.echo", make([]byte, 64)))
	p.put("rpc.call_64b_us", median(xs)/1e3, len(xs))
	model := liveCommShapes[0]
	cfg, _ := model.config()
	vals := make([]float64, cfg.ModelSize())
	rng := rand.New(rand.NewSource(p.seed))
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	frame := rpc.AppendFloats(nil, vals)
	xs = p.sample("rpc", "Call 4MB", 3, call("probe.echoInline", frame))
	if callErr != nil {
		return callErr
	}
	p.put("rpc.call_4mb_ms", median(xs)/1e6, len(xs))
	var buf []byte
	var dst []float64
	xs = p.sample("rpc", "AppendFloats+ReadFloats", 5, func() {
		buf = rpc.AppendFloats(buf[:0], vals)
		dst, _, callErr = rpc.ReadFloats(buf, dst)
	})
	if callErr != nil {
		return callErr
	}
	p.put("rpc.float_codec_gbps", 2*float64(len(frame))/median(xs), len(xs)) // bytes per ns = GB/s
	return nil
}

func (p *prober) psLayer() error {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := rpc.NewServer()
		server := ps.NewServer()
		server.Register(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer srv.Close()
		defer server.Close()
		addrs = append(addrs, addr)
	}
	cfg, _ := liveCommShapes[0].config()
	size := cfg.ModelSize()
	if p.smoke {
		size = 4096
	}
	clients := make([]*ps.Client, 2)
	for i := range clients {
		c, err := ps.NewClient(addrs, 30*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i] = c
	}
	model := make([]float64, size)
	delta := make([]float64, size)
	for i := range delta {
		delta[i] = 1e-6
	}
	if err := clients[0].Init("probe", model); err != nil {
		return err
	}
	var callErr error
	note := func(err error) {
		if err != nil && callErr == nil {
			callErr = err
		}
	}
	xs := p.sample("ps", "PullInto", 5, func() { note(clients[0].PullInto("probe", model)) })
	p.put("ps.pull_ms_p50", median(xs)/1e6, len(xs))
	xs = p.sample("ps", "Push", 5, func() { note(clients[0].Push("probe", delta)) })
	p.put("ps.push_ms_p50", median(xs)/1e6, len(xs))
	other := make([]float64, size)
	pair := func(c *ps.Client, model []float64) error {
		if err := c.PullInto("probe", model); err != nil {
			return err
		}
		return c.Push("probe", delta)
	}
	xs = p.sample("ps", "PullInto+Push x2 clients", 3, func() {
		var wg sync.WaitGroup
		var otherErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			otherErr = pair(clients[1], other)
		}()
		err := pair(clients[0], model)
		wg.Wait()
		note(err)
		note(otherErr)
	})
	if callErr != nil {
		return callErr
	}
	p.put("ps.pull_push_contended_ms", median(xs)/1e6, len(xs))
	return nil
}

func (p *prober) subtaskLayer() error {
	exec := subtask.NewExecutor()
	defer exec.Close()
	var callErr error
	i := 0
	xs := p.sample("subtask", "SubmitAt noop", 50, func() {
		done := make(chan struct{})
		if err := exec.SubmitAt(subtask.Comp, "probe", i, func() {}, func() { close(done) }); err != nil {
			callErr = err
			return
		}
		<-done
		i++
	})
	if callErr != nil {
		return callErr
	}
	p.put("subtask.submit_noop_us", median(xs)/1e3, len(xs))
	return nil
}

func (p *prober) mlappLayer() error {
	var genTotal float64
	var genN int
	for _, shape := range liveMixShapes {
		cfg, err := shape.config()
		if err != nil {
			return err
		}
		algo, err := mlapp.New(cfg)
		if err != nil {
			return err
		}
		var shards []*mlapp.Shard
		xs := p.sample("mlapp", "GenerateShards "+shape.Algo, 2, func() {
			shards, err = mlapp.GenerateShards(cfg, 2, p.seed)
		})
		if err != nil {
			return err
		}
		genTotal += median(xs)
		genN += len(xs)
		rng := rand.New(rand.NewSource(p.seed ^ 1))
		model := algo.InitModel(rng)
		var delta []float64
		scratch := &mlapp.Scratch{}
		xs = p.sample("mlapp", "ComputeFused "+shape.Algo, 5, func() {
			delta, _ = mlapp.ComputeFused(algo, delta, model, shards[0], rng, 0, scratch)
		})
		p.put("mlapp.compute_fused_us."+shape.Algo, median(xs)/1e3, len(xs))
		if shape.Algo == "mlr" {
			// One worker block: 32 rows in the columnar layout.
			payload := mlapp.AppendExamples(nil, shards[0].Examples[:32])
			xs = p.sample("mlapp", "DecodeExamples", 20, func() { _, err = mlapp.DecodeExamples(payload) })
			if err != nil {
				return err
			}
			p.put("mlapp.decode_examples_mbps", float64(len(payload))/median(xs)*1e3, len(xs)) // B/ns -> MB/s
		}
	}
	p.put("mlapp.generate_shards_ms", genTotal/1e6, genN)
	return nil
}

func (p *prober) memstoreLayer() error {
	dir, err := scratchDir("probe-memstore")
	if err != nil {
		return err
	}
	store, err := memstore.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	cfg, _ := liveMixShapes[0].config()
	shards, err := mlapp.GenerateShards(cfg, 2, p.seed)
	if err != nil {
		return err
	}
	const blocks = 32
	for b := 0; b < blocks; b++ {
		payload := mlapp.AppendExamples(nil, shards[0].Examples[b*32:(b+1)*32])
		if err := store.Put(&memstore.Block{ID: b, Payload: payload}); err != nil {
			return err
		}
	}
	var callErr error
	i := 0
	xs := p.sample("memstore", "Get resident", 50, func() {
		if _, err := store.Get(i % blocks); err != nil {
			callErr = err
		}
		i++
	})
	p.put("memstore.get_resident_us", median(xs)/1e3, len(xs))
	// At alpha 0.5 half the blocks are on disk; a Get that raises the reload
	// count paid the inline reload. Re-applying alpha spills them again.
	var spilled []float64
	sp := p.tr.begin(spanRef{}, "memstore", "probe Get spilled")
	for round := 0; round < 4 && callErr == nil; round++ {
		if err := store.SetAlpha(0.5); err != nil {
			callErr = err
			break
		}
		for b := 0; b < blocks; b++ {
			_, _, _, before := store.Stats()
			t0 := time.Now()
			_, err := store.Get(b)
			d := time.Since(t0)
			if err != nil {
				callErr = err
				break
			}
			if _, _, _, after := store.Stats(); after > before {
				spilled = append(spilled, float64(d.Nanoseconds()))
			}
		}
	}
	p.tr.end(sp)
	if callErr != nil {
		return callErr
	}
	p.put("memstore.get_spilled_us", median(spilled)/1e3, len(spilled))
	return nil
}

func (p *prober) simAndReplay() error {
	defer singleP()() // as sim_paper runs them
	sizes := simPaperSizes(p.smoke)
	in, err := buildSimInputs(sizes, p.seed)
	if err != nil {
		return err
	}
	runs := []struct {
		metric string
		mode   sim.Mode
		jobs   []sim.Job
	}{
		{"sim.run_harmony_ms", sim.ModeHarmony, in.batch},
		{"sim.run_isolated_ms", sim.ModeIsolated, in.batch},
		{"sim.run_naive_ms", sim.ModeNaive, in.batch},
		{"sim.run_bursty_ms", sim.ModeHarmony, in.bursty},
	}
	for _, r := range runs {
		xs := p.sample("sim", "Run "+r.metric, 3, func() {
			_, err = sim.Run(sim.Config{Machines: sizes.Machines, Mode: r.mode, Seed: p.seed}, r.jobs)
		})
		if err != nil {
			return err
		}
		p.put(r.metric, median(xs)/1e6, len(xs))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sim.Run(sim.Config{Machines: sizes.Machines, Mode: sim.ModeHarmony, Seed: p.seed}, in.batch); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	p.put("sim.mallocs_per_run", float64(after.Mallocs-before.Mallocs), 1)
	xs := p.sample("replay", "Load+Run", 20, func() {
		var snap *master.Snapshot
		if snap, err = replay.Load(in.snapshot); err == nil {
			_, err = replay.Run(snap, replay.Overrides{})
		}
	})
	if err != nil {
		return err
	}
	p.put("replay.load_run_us", median(xs)/1e3, len(xs))
	return nil
}

// workerDeploy times what an admitted submit pays before it returns: shard
// generation, block encoding and PS init on both workers, for each live_mix
// shape, through the real control plane on an otherwise idle cluster.
func (p *prober) workerDeploy() error {
	rig, err := bootLive(core.Options{}, 2, false, "probe-deploy")
	if err != nil {
		return err
	}
	defer rig.close()
	client := newAPIClient(rig.base(), nil)
	defer client.close()
	var xs []float64
	sp := p.tr.begin(spanRef{}, "worker", "probe deploy")
	defer p.tr.end(sp)
	reps := 2
	if p.smoke {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		for i, shape := range liveMixShapes {
			name := fmt.Sprintf("deploy-%d-%s", rep, shape.Algo)
			req := ctl.SubmitRequest{Name: name, Algorithm: shape.Algo, Features: shape.Features,
				Classes: shape.Classes, Rows: shape.Rows, Iterations: 1, Seed: p.seed + int64(i),
				Workers: rig.names}
			status, elapsed, err := client.do(sp, http.MethodPost, "/v1/jobs", req, nil)
			if err != nil {
				return err
			}
			if status != http.StatusCreated {
				return fmt.Errorf("deploy probe %s: status %d", name, status)
			}
			xs = append(xs, float64(elapsed.Nanoseconds()))
			if err := rig.m.WaitJob(name, time.Minute); err != nil {
				return fmt.Errorf("deploy probe %s: %w", name, err)
			}
		}
	}
	p.put("worker.deploy_ms", median(xs)/1e6, len(xs))
	return nil
}
