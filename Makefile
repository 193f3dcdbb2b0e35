GO ?= go
BENCH_OUT ?= BENCH_16.json

.PHONY: all build test race bench bench-smoke bench-json bench-json-smoke bench-e2e-smoke alloc-guard fault-matrix load-smoke shard-smoke stream-smoke gate-smoke index-smoke surface fmt vet check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short-mode race pass over the packages with concurrency stress tests.
race:
	$(GO) test -race -short ./internal/server ./internal/wire ./internal/workstation ./internal/faults ./internal/sched ./internal/vclock ./internal/cluster ./internal/gateway ./internal/index

# Resilience suite: fault injection and the fault x call-shape matrix,
# session resync/degraded serving, and the E-FAULT experiment.
fault-matrix:
	$(GO) test ./internal/faults -run . -count=1
	$(GO) test ./internal/workstation -run 'Resync|Stale|ContextCancelled' -count=1
	$(GO) test . -run 'EFault' -count=1

bench:
	$(GO) test -bench=. -benchmem .

# One-iteration pass over the pipeline, stream and raster/encode benchmarks:
# catches bit-rot in the wire mux, voice-stream, prefetch and page-to-PNG
# benchmark harnesses without paying for a full run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EPipe|Mux|VoiceStreamTCP|AppendPCMSamples|Prefetch|EncodePNG|BitmapOr|ScreenRender' -benchtime=1x . ./internal/wire ./internal/workstation ./internal/image ./internal/screen ./internal/gateway

# Benchmark-regression report: run the E-ALLOC hot-path benchmarks plus
# the E-LOAD mass-session run, the E-SHARD scaling sweep, the E-STREAM
# streaming-delivery experiment and the E-GATE gateway run, and write the
# combined report to $(BENCH_OUT) (committed per PR).
bench-json:
	$(GO) run ./cmd/minos-bench -load -shard -stream -gate -index -out $(BENCH_OUT)

# E-LOAD smoke: ~100 sessions x 200 steps through the load harness with a
# p99 latency bound. Cheap enough to gate every `make check`.
load-smoke:
	$(GO) test -run 'ELoadSmoke' -count=1 .

# E-SHARD smoke: a 2-shard mini run under vclock with a mid-run primary
# failure — proves partitioned routing and replica failover on every check.
shard-smoke:
	$(GO) test -run 'EShardSmoke' -count=1 .

# E-STREAM smoke: a short spoken part streamed over the mux on the modelled
# link — first audio must beat the batch full download by >= 2x, zero
# underruns, and a mid-stream primary kill must resume on the replica.
stream-smoke:
	$(GO) test -run 'EStreamSmoke' -count=1 .

# E-GATE smoke: a small gateway run (16 sessions under vclock, exact step
# count asserted) plus the end-to-end HTTP browse with its /metrics scrape
# assertions.
gate-smoke:
	$(GO) test -run 'EGateSmoke' -count=1 .
	$(GO) test -run 'GatewayBrowseHTTP' -count=1 ./internal/gateway

# E-INDEX smoke: the segmented content index vs a brute-force scan of the
# corpus definition, incremental (seal+merge) vs bulk build equivalence,
# and the experiment invariants (bit-identical segments, planner == naive,
# ~0 allocs per warm query) at 30k docs.
index-smoke:
	$(GO) test -run 'EIndexSmoke' -count=1 .

# One-iteration harness smoke: proves minos-bench still runs and parses
# without overwriting the committed report.
bench-json-smoke:
	$(GO) run ./cmd/minos-bench -benchtime 1x -out - >/dev/null

# The E-E2E benchmark is a module of its own (bench/e2e), which the root
# `go test ./...` does not descend into: vet it and run its short tests so
# an internal/ change that stops the benchmark compiling fails the gate.
bench-e2e-smoke:
	cd bench/e2e && $(GO) vet . && $(GO) test -short .

# Steady-state allocation guards (testing.AllocsPerRun); skipped under
# -race, where the runtime deliberately drops sync.Pool entries.
alloc-guard:
	$(GO) test -run 'Alloc' -count=1 ./internal/image ./internal/voice ./internal/disk ./internal/server ./internal/wire ./internal/cluster ./internal/gateway ./internal/index

# The tracked size numbers (ROADMAP aim 2): non-test Go lines outside the
# benchmark and of the modelling package alone, and exported names (the
# functions, methods, types, constants and variables `go doc -all`
# declares) of the two packages clients program against, the serving and
# modelling packages, and the content index with the two packages its
# in-object search moved between (PR 16: core must not need index).
surface:
	@printf 'non-test Go lines: '; find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@printf 'non-test Go lines in internal/loadgen: '; find internal/loadgen -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@for p in internal/wire internal/workstation internal/server internal/loadgen internal/index internal/core internal/text; do \
		printf 'exported names in %s: ' $$p; \
		$(GO) doc -all ./$$p | grep -cE '^(func|type) |^(const|var) [A-Z]|^	[A-Z][A-Za-z0-9_]*( +=|$$)'; done

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

check: fmt vet build test race fault-matrix bench-smoke alloc-guard bench-json-smoke bench-e2e-smoke load-smoke shard-smoke stream-smoke gate-smoke index-smoke
