GO ?= go

# Tier-1 verification plus formatting, the race detector, and benchmark
# smoke runs. `make ci` is what a CI job should run.
.PHONY: ci fmt-check vet lint build perfbench-build test race fault-smoke fuzz-smoke \
	bench-smoke obs-bench-smoke obs-shard-smoke serve-smoke \
	serve-bench bench bench-json bench-json-smoke

ci: fmt-check vet lint build perfbench-build race fault-smoke fuzz-smoke bench-smoke obs-bench-smoke obs-shard-smoke serve-smoke bench-json-smoke

# gofmt -l prints nonconforming files; any output fails the target.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# numalint: the domain-specific checks go vet cannot know about —
# determinism, hot-path allocation-freedom, tracer guarding, and fault
# purity. Exits non-zero on any finding; see internal/lint and README.
lint:
	$(GO) run ./cmd/numalint ./...

build:
	$(GO) build ./...

# perfbench is its own Go module, so the root `go build ./...` never compiles
# it; vet and build it against the current source of the packages it calls
# (the binary is discarded).
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

# The experiment harness is concurrent (report.Harness singleflight memo,
# per-experiment worker pools); keep the race detector in the loop. The
# second run re-executes the contention hammers by name with -count=1 so a
# cached pass can never mask a freshly introduced race in the memo or the
# panic-isolation path.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 \
		-run 'TestSingleflightUnderConcurrency|TestHarnessPanicIsolation|TestHarnessFailureHammer|TestHarnessFailureEvictedFromMemo' \
		./internal/report
	$(GO) test -race -count=1 -run 'TestRecorderConcurrentRecordAndDump' ./internal/obs

# The chaos suite: a full-fault run (drain + drops + transient allocation
# failures + slow link) must complete deterministically with invariants
# intact. Cheap enough to run on every CI pass.
fault-smoke:
	$(GO) test -run 'TestChaos' -count=1 ./internal/core

# Five seconds of native fuzzing each on the binary miss-trace decoder and
# on the numasimd request path (strict decode, then Build), on top of the
# committed seeds under each package's testdata/fuzz directory.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 5s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzRequest$$' -fuzztime 5s ./internal/serve

# One cheap iteration of the trace-simulator benchmark proves the bench
# harness still builds and runs end to end.
bench-smoke:
	BENCH_SCALE=0.1 $(GO) test -run '^$$' -bench BenchmarkTraceSimThroughput -benchtime 1x .

# The disabled-tracer benchmark doubles as the proof that instrumentation
# costs one branch when off; one iteration keeps CI honest about it building.
obs-bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTracerDisabled|BenchmarkRecorderDisabled' -benchtime 1x ./internal/obs
	$(GO) test -run '^$$' -bench BenchmarkEngineStatsDisabled -benchtime 1x ./internal/sim

# The per-node dispatch stats export must be byte-deterministic: run the
# golden workload twice and diff the JSONL reports.
obs-shard-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/numasim" ./cmd/numasim; \
	for r in a b; do \
		"$$tmp/numasim" -workload engineering -scale 0.05 -duration 4ms \
			-shardstats "$$tmp/$$r.jsonl" >/dev/null || exit 1; \
	done; \
	cmp "$$tmp/a.jsonl" "$$tmp/b.jsonl" || \
		{ echo "obs-shard-smoke: shard-stats not deterministic"; exit 1; }; \
	echo "obs-shard-smoke: shard-stats deterministic"

# End-to-end check of the simulation server: builds the real numasim and
# numasimd binaries, byte-diffs a served response against `numasim -json`,
# hammers the bounded queue (only 200s and deliberate 429s allowed), and
# SIGTERMs the daemon with a request in flight expecting a clean exit 0.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 ./cmd/numasimd

# Machine-readable record of the serving-layer benchmarks: the warm
# cache-hit path and the cold full-simulation path, one iteration each,
# parsed by cmd/benchjson into BENCH_9.json.
serve-bench:
	$(GO) test -run '^$$' -bench 'ServeCachedHit|ServeUncached' \
		-benchmem -benchtime 1x ./internal/serve \
		| $(GO) run ./cmd/benchjson -out BENCH_9.json
	@echo wrote BENCH_9.json

# The full paper-regeneration benchmark suite (see bench_test.go).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Machine-readable record of the throughput benchmarks: one iteration at
# quarter scale, parsed by cmd/benchjson into BENCH_8.json (ns/op, allocs/op,
# Msteps/s, records).
bench-json:
	BENCH_SCALE=0.25 $(GO) test -run '^$$' \
		-bench 'FullSystemEngineering|TraceSimThroughput' -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out BENCH_8.json
	@echo wrote BENCH_8.json

# Smoke: prove the bench-to-JSON pipeline parses current go test output.
bench-json-smoke:
	BENCH_SCALE=0.1 $(GO) test -run '^$$' \
		-bench TraceSimThroughput -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -out /dev/null
