GO ?= go

## VERSION is stamped into the binaries (and harmony_build_info) via the
## linker; override with `make build VERSION=v1.2.3`.
VERSION ?= dev
LDFLAGS := -ldflags "-X harmony/internal/obs.Version=$(VERSION)"

.PHONY: check fmt vet build test race race-stress fuzz-smoke bench-smoke bench-test golden-check loc bench

## check: full local gate — gofmt, vet, build, the tests once plain and once
## under the race detector, a short run of the wire fuzzers, bench smoke
## run, the benchmark harness's own vet + tests, and the golden digests of
## the offline passes
check: fmt vet build test race fuzz-smoke bench-smoke bench-test golden-check

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

## test: the suite without the race detector — in check for the
## allocation bounds (TestComputeFusedSteadyStateAllocs), which are
## asserted on uninstrumented code
test:
	$(GO) test ./...

## race: the race detector guards the experiment pool, the fused COMP pool
## and the live runtime
race:
	$(GO) test -race ./...

## race-stress: the master and the control plane twenty times under the
## race detector, where a scheduling race shows as a failure now and then.
## Not in check: it takes minutes (about 8 on a 2-vCPU box, internal/master
## alone close to go test's 10-minute default timeout, hence -timeout).
race-stress:
	$(GO) test -race -count=20 -timeout 30m ./internal/master ./internal/ctl

## fuzz-smoke: ten seconds of each wire fuzzer, as package:fuzzer pairs —
## in internal/rpc the JSON decode of every control message and the float
## frames; in internal/ps the push request and the pull reply. go test
## takes one fuzz target per run; two workers each keep the run small.
FUZZ_TARGETS := rpc:FuzzDecode rpc:FuzzFloatFrame rpc:FuzzFloatsRoundTrip \
	ps:FuzzPushEntry ps:FuzzPullReply
fuzz-smoke:
	for t in $(FUZZ_TARGETS); do \
		$(GO) test ./internal/$${t%%:*}/ -run XXX -fuzz "^$${t#*:}$$" -fuzztime 10s -parallel 2 || exit 1; \
	done

## bench-smoke: quick pass over the perf-critical benchmarks with -benchmem.
## The core line runs at two P counts: a search whose cost depends on the
## P count shows as two different allocs/op columns.
bench-smoke:
	$(GO) test ./internal/core/ -run XXX -bench 'BenchmarkSchedule(Large|Paper)' -benchmem -benchtime 3x -cpu 1,2
	$(GO) test ./internal/sim/ -run XXX -bench 'BenchmarkRunHarmonyBase|BenchmarkRunPaper' -benchmem -benchtime 3x
	$(GO) test ./internal/ps/ -run XXX -bench 'BenchmarkPullPush(Sparse)?$$|BenchmarkCheckpoint' -benchmem -benchtime 3x
	$(GO) test ./internal/worker/ -run XXX -bench 'BenchmarkComp/(lda-512k|lda-512k-moving|mlr-128x16|lasso-2048|nmf-128x16|lda-512x8)' -benchmem -benchtime 20x
	$(GO) test ./internal/mlapp/ -run XXX -bench 'BenchmarkGenerateShards?$$' -benchmem -benchtime 5x
	$(GO) test ./internal/rpc/ -run XXX -bench 'BenchmarkCodecRoundTrip|BenchmarkInvokeTyped' -benchmem -benchtime 1000x
	$(GO) test ./internal/master/ -run XXX -bench 'BenchmarkHoldAtDepth256|BenchmarkJobStatusHeld' -benchmem -benchtime 20x
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
## its build cache excluded): one line per top-level directory, each
## package of internal/ on its own and the root package as ".", then the
## repository total as the last line
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' -not -path './.bench_build/*' | sort | \
		awk '{ n = split($$0, p, "/"); d = n == 2 ? "." : p[2] == "internal" ? p[2] "/" p[3] : p[2]; \
			while ((getline line < $$0) > 0) { c[d]++; t++ }; close($$0) } \
			END { for (d in c) printf "%-22s %6d\n", d, c[d] | "sort"; close("sort"); print t }'

## bench: the repository benchmark (BENCHMARK.json) — all four workloads
## untraced for the end-to-end metrics, then traced for the per-layer
## ones; results under benchmarks/out/ (benchmarks/README.md)
bench:
	bash benchmarks/run.sh -trace 1
