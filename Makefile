GO ?= go

## VERSION is stamped into the binaries (and harmony_build_info) via the
## linker; override with `make build VERSION=v1.2.3`.
VERSION ?= dev
LDFLAGS := -ldflags "-X harmony/internal/obs.Version=$(VERSION)"

.PHONY: check fmt vet build test race ctl-smoke comm-smoke comp-smoke obs-smoke ps-rebalance-smoke fair-smoke place-smoke admit-smoke snapshot-smoke fuzz-smoke bench-smoke bench-test golden-check loc bench trace-demo

## check: full local gate — gofmt, vet, build, race-enabled tests, a short
## run of the wire fuzzers, bench smoke run, the benchmark harness's own vet
## + tests, and the golden digests of the offline passes
check: fmt vet build ctl-smoke comm-smoke comp-smoke obs-smoke ps-rebalance-smoke fair-smoke place-smoke admit-smoke snapshot-smoke race fuzz-smoke bench-smoke bench-test golden-check

## fmt: fail if any file is not gofmt-formatted
fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

## race: the race detector guards the scheduler search and experiment pool
race:
	$(GO) test -race ./...

## ctl-smoke: fast race-enabled pass over the control plane (HTTP API +
## live-master admission integration)
ctl-smoke:
	$(GO) test -race ./internal/ctl/...

## comm-smoke: short race-enabled pass over the striped pull/push data
## plane (concurrent jobs, snapshots mid-push) and the delta-sync
## property test (mirror == snapshot bit for bit after every step of a
## random push/migrate/replicate/restore interleaving; under concurrent
## sparse pushes with stripes migrating; and across a server that restarts
## between a delta Sync and the next Push, TestDeltaSyncServerRestart),
## plus the touched-set encoder and the mirror's record of what it rewrote
comm-smoke:
	$(GO) test -race -run 'TestCommPathRaceSmoke|TestDeltaSync|TestPushEntry|TestMirrorChanged' ./internal/ps/

## comp-smoke: short race-enabled pass over the fast COMP path: cache
## invalidation vs concurrent spill retunes, the sparse pass against its
## dense reference oracle and the parent's digests, the kernels against
## their per-element oracle (tolerance, Gauss-Seidel order, four chains vs
## one bit for bit), the steady-state allocation bound, and a two-worker
## sparse run whose mirrors must all equal the servers' state
comp-smoke:
	$(GO) test -race -run 'TestCompPathRaceSmoke|TestSparseRunKeepsEveryMirrorExact' ./internal/worker/
	$(GO) test -race -run 'TestComputeFusedMatches|TestKernelsMatch|TestSolveUser|TestRowSums|TestRowDots' ./internal/mlapp/
	$(GO) test -race ./internal/touched/
	$(GO) test -run 'TestComputeFusedSteadyStateAllocs' ./internal/mlapp/

## ps-rebalance-smoke: race-enabled pass over the elastic PS — live
## stripe migration under concurrent pull/push (bit-exact vs a
## no-migration control), the skewed-load rebalance loop, and the
## delta-sync cases that ride on placement (a moved, replicated or
## restored stripe is answered in full, never with a stale delta)
ps-rebalance-smoke:
	$(GO) test -race -run 'TestMigrat|TestPSRebalanceSmoke|TestDeltaSync|TestDelta.*FallsBackToFull|TestDeltaReplicaReads' ./internal/ps/

## fair-smoke: race-enabled pass over the fair scheduler — queue policy
## unit tests, the admission kernel's table, property and parent-log pin
## tests (kernel_test.go), the deterministic two-tenant simulation, and,
## on the live master, the concurrent enqueue/cancel/preempt churn
## property test, the undo of an admission whose deployment fails and the
## reclaim round that must not pick (or spin on) a paused victim
fair-smoke:
	$(GO) test -race ./internal/fair/
	$(GO) test -race -run 'TestFair|TestFailedDeploy|TestReclaim' ./internal/master/ ./internal/ctl/

## place-smoke: race-enabled pass over the network-aware placement layer —
## the interleave solver (determinism, order independence), the link
## model (demand-curve conservation, capacities), the contention physics
## at 100-machine scale, and NetModel parallel/sequential bit-identity
place-smoke:
	$(GO) test -race -run 'TestSolveInterleave|TestCompFloor|TestGroupCompatibility' ./internal/core/
	$(GO) test -race -run 'TestScheduleParallelMatchesSequentialNetModel' ./internal/core/
	$(GO) test -race -run 'TestNewLinkModel|TestDemandCurve|TestGroupDemand|TestLinkContention' ./internal/sim/

## obs-smoke: race-enabled pass over the tracing subsystem (span ring,
## histograms, traced 2-job live cluster with a worker killed mid-run)
obs-smoke:
	$(GO) test -race ./internal/obs/ ./internal/metrics/
	$(GO) test -race -run 'TestExecutorRecordsSpans' ./internal/subtask/
	$(GO) test -race -run 'TestTracedClusterOverHTTP' ./internal/ctl/

## admit-smoke: race-enabled pass over the admission path — Scorer
## bit-identity property tests against the clone-and-rescore oracles,
## zero-full-rescore regression, the coalescing drainer, the
## concurrent status-reader/enqueue-churn stress test, and the reject memo
## (what a hold must not re-score, what a limit or plan change must, and the
## registration that wakes the drainer)
admit-smoke:
	$(GO) test -race -run 'TestScorer|TestIncrementalAdmissionBitIdentical|TestScoreDeltaAllocFree|TestRegroupAfterFinish' ./internal/core/
	$(GO) test -race -run 'TestAdmit|TestWakeDrainerCoalesces|TestWorkerSetKeyOrder|TestHoldDoesNotRescoreQueue|TestVerdictExpires|TestRegisterDrainsHeldJobs' ./internal/master/

## snapshot-smoke: race-enabled pass over snapshot/replay — journal ring
## wraparound under concurrent append/read, state capture on a live
## cluster, the deterministic replay engine with its golden corpus, and
## the capture → replay-twice → /metrics HTTP integration
snapshot-smoke:
	$(GO) test -race -run 'TestJournal|TestSnapshot' ./internal/master/
	$(GO) test -race ./internal/replay/
	$(GO) test -race -run 'TestSnapshotReplayOverHTTP|TestEventsFilters|TestSnapshotEndpoint|TestReplayEndpointFeedsMetrics' ./internal/ctl/

## fuzz-smoke: ten seconds of each wire fuzzer in internal/rpc — the gob
## codec against a decoder built for the one message, the split of a body
## into definitions and value, and the float frames. go test takes one fuzz
## target per run; two workers each keep the run small.
fuzz-smoke:
	for f in FuzzDecodeMatchesFreshGob FuzzTypedefLen FuzzFloatFrame FuzzFloatsRoundTrip; do \
		$(GO) test ./internal/rpc/ -run XXX -fuzz "^$$f$$" -fuzztime 10s -parallel 2 || exit 1; \
	done

## bench-smoke: quick pass over the perf-critical benchmarks with -benchmem
bench-smoke:
	$(GO) test ./internal/core/ -run XXX -bench BenchmarkScheduleLarge -benchmem -benchtime 3x
	$(GO) test ./internal/sim/ -run XXX -bench BenchmarkRunHarmonyBase -benchmem -benchtime 3x
	$(GO) test ./internal/ps/ -run XXX -bench 'BenchmarkPullPush(Sparse)?$$|BenchmarkCheckpoint' -benchmem -benchtime 3x
	$(GO) test ./internal/worker/ -run XXX -bench 'BenchmarkComp/(lda-512k|mlr-128x16|lasso-2048|nmf-128x16|lda-512x8)' -benchmem -benchtime 20x
	$(GO) test ./internal/mlapp/ -run XXX -bench BenchmarkGenerateShards -benchmem -benchtime 5x
	$(GO) test ./internal/rpc/ -run XXX -bench 'BenchmarkCodecRoundTrip|BenchmarkInvokeTyped' -benchmem -benchtime 1000x
	$(GO) test ./internal/master/ -run XXX -bench BenchmarkHoldAtDepth256 -benchmem -benchtime 20x
	$(GO) test . -run XXX -bench BenchmarkFig10Parallel -benchtime 1x

## bench-test: vet and test the benchmark harness. benchmarks/ is its
## own module, so the root `go test ./...` does not reach it; this is what
## catches an internal/ signature change that breaks the harness.
bench-test:
	cd benchmarks && $(GO) vet ./... && $(GO) test ./...

## golden-check: one short run of the offline workload at seed 1, the
## only run that verifies the seed-dependent digests (fair experiment
## event log, 1K-job plan, the four simulator regimes) against
## benchmarks/testdata/golden_sim_paper.json; bench-test's smoke sizes
## skip them. A refactor that changes one scheduling decision fails here.
golden-check:
	bash benchmarks/run.sh -workload sim_paper -seconds 1 -seed 1

## loc: the non-test Go line count ROADMAP.md tracks (benchmarks/ and
## its build cache excluded)
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' -not -path './.bench_build/*' | xargs cat | wc -l

## bench: the repository benchmark (BENCHMARK.json) — all four workloads
## untraced for the end-to-end metrics, then traced for the per-layer
## ones; results under benchmarks/out/ (benchmarks/README.md)
bench:
	bash benchmarks/run.sh -trace 1

## trace-demo: run a traced 2-worker, 2-job live cluster and write
## trace.json (open at https://ui.perfetto.dev)
trace-demo:
	$(GO) run $(LDFLAGS) ./cmd/harmony-trace-demo -o trace.json
