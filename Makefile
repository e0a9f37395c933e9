# Tier-1 verification: everything CI runs, runnable locally with `make`.

GO ?= go

.PHONY: all verify build vet test test-purego test-race-sweep smoke smoke-dist bench bench-hotpath bench-json bench-gate fmt-check lint staticcheck

all: verify

verify: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full build + test with the SIMD kernels compiled out (the purego build
# tag), proving the scalar fallback path is complete — this is what
# machines without AVX2/NEON (or any other GOARCH) run.
test-purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego ./...

# Race-detector pass over the concurrent paths: the sweep engine and the
# distributed coordinator/worker tier (and the packages whose shared
# caches they exercise), the shared job event log and SSE writer that
# serve concurrent subscribers in both tiers (internal/api and the
# cprecycle-bench HTTP surface), the intra-packet parallel symbol decode
# in rx (hard and soft), and the dsp kernel dispatch (shared
# SlideTab/FFT-plan caches + the ForceScalar toggle).
test-race-sweep:
	$(GO) test -race ./internal/sweep/... ./internal/api/ ./cmd/cprecycle-bench/ ./internal/wifi/ ./internal/experiments/ ./internal/rx/ ./internal/dsp/

# Short end-to-end sweep through the engine (sharded workers + waveform
# pool) plus a 2-worker parallel-decode equivalence check, as run in CI.
smoke:
	$(GO) run ./cmd/cprecycle-bench -experiment fig8 -packets 8 -bytes 60 -pool
	$(GO) test -run 'TestDecodeDataParallelMatchesSerial|TestRunPSRParallelDecodeRegression' ./internal/rx/ ./internal/experiments/

# Distributed smoke: coordinator + two worker processes on localhost run
# the same short fig8 sweep, streamed over SSE, and the final table must
# be byte-identical to the single-process engine's.
smoke-dist:
	scripts/smoke_dist.sh

# Full benchmark suite (regenerates every paper table/figure at reduced
# fidelity; slow).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Hot-path micro-benchmarks with allocation reporting: segment
# demodulation (old FFT-per-window vs sliding-DFT batch), multi-segment
# observation, Viterbi, sliding kernels.
bench-hotpath:
	$(GO) test -bench 'BenchmarkSegment' -benchtime 2000x -run '^$$' ./internal/ofdm/
	$(GO) test -bench 'BenchmarkObserve' -benchtime 2000x -run '^$$' ./internal/rx/
	$(GO) test -bench 'BenchmarkViterbiDecode' -benchtime 500x -run '^$$' ./internal/coding/
	$(GO) test -bench 'BenchmarkSliding|BenchmarkForward|BenchmarkFreqShift' -run '^$$' ./internal/dsp/

# Machine-readable perf trajectory: run the hot-path benchmarks with
# allocation reporting and write ns/op, B/op and allocs/op per benchmark
# to BENCH_PR9.json (CI archives it so future PRs can diff against it).
# Each suite runs -count=3 and benchjson keeps the fastest run per
# benchmark (min ns/op), so one noisy-neighbour blip cannot poison the
# trajectory or trip the regression gate; the store suite runs -count=6
# because its Put benchmarks are filesystem-bound and need more samples
# for a stable minimum. The dsp suite includes the
# SIMD kernel benchmarks (BenchmarkPlanar*) and their ForceScalar twins;
# the obs suite pins the metrics layer at 0 allocs per hot-path update;
# the store suite covers the result store's encode/decode/lookup path.
bench-json:
	set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -bench 'BenchmarkObserve' -benchtime 2000x -count 3 -benchmem -run '^$$' ./internal/rx/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkSegment' -benchtime 2000x -count 3 -benchmem -run '^$$' ./internal/ofdm/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkViterbiDecode' -benchtime 500x -count 3 -benchmem -run '^$$' ./internal/coding/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkSliding|BenchmarkForward|BenchmarkFreqShift|BenchmarkPlanar' -count 3 -benchmem -run '^$$' ./internal/dsp/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkMetric|BenchmarkPacketMetrics' -benchtime 100000x -count 3 -benchmem -run '^$$' ./internal/obs/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkStore' -count 6 -benchmem -run '^$$' ./internal/sweep/store/ >> "$$tmp"; \
	$(GO) run ./cmd/benchjson -out BENCH_PR9.json < "$$tmp"
	@echo "wrote BENCH_PR9.json"

# Perf regression gate: regenerate the trajectory on this machine and
# fail when any hot-path benchmark shared with the committed PR8
# trajectory regresses ns/op by more than 25%.
bench-gate: bench-json
	$(GO) run ./cmd/benchjson -baseline BENCH_PR8.json -compare BENCH_PR9.json -max-regress 25

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis: vet + gofmt always; staticcheck when installed (the
# CI lint job installs it, local runs skip gracefully).
lint: vet fmt-check staticcheck

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi
