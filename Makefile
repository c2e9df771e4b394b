# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test check chaos scenarios fleet-smoke trace-goldens race bench bench-json bench-diff experiments examples cover fuzz clean

all: build check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the default verification gate: vet, the chaos package's
# fault-injection tests, the declarative scenario library with the
# gray-failure chaos scenarios (validate + run + coverage gate), the
# fleet-scale smoke run, the full test suite under the race detector (the
# parallel sweep makes race coverage load-bearing), a short fuzz smoke over
# the wire-facing parsers, and the coverage floor.
check: chaos scenarios fleet-smoke trace-goldens
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) fuzz
	$(MAKE) cover

# chaos runs the chaos package's fault-injection recovery tests (see
# EXPERIMENTS.md, "Chaos runs") on their own, under the race detector. The
# gray-failure scenarios themselves are scenario files and run under
# `make scenarios`.
chaos:
	$(GO) test -race -v -run 'TestChaos' ./internal/chaos/

# scenarios validates and runs the declarative scenario library (see
# EXPERIMENTS.md, "Scenario runs"): every file under scenarios/ must parse,
# validate, double-run bit-identically, and pass its declared assertions;
# the fresh summary is then gated against the committed SCENARIOS_suite.json
# baseline (failed invariant, shrunk counts, or a dropped scenario name exits
# non-zero). TestShippedScenariosRun pins each scenario's trace hash and
# fingerprint to the same file.
scenarios:
	$(GO) run ./cmd/simulator validate scenarios/*.yaml
	$(GO) run ./cmd/simulator run -json SCENARIOS_new.json scenarios/*.yaml
	$(GO) run ./cmd/benchdiff -scenarios-old SCENARIOS_suite.json -scenarios-new SCENARIOS_new.json

# fleet-smoke is the seconds-scale fleet gate: the open-loop engine's
# end-to-end and determinism tests (fresh, uncached), then a 20k-job fleet
# run through the real CLI. The full 10k-host / 1M-job scale point lives in
# scenarios/fleet-10k.yaml and runs under `make scenarios`.
fleet-smoke:
	$(GO) test -count=1 -run 'TestEngine' ./internal/fleet/
	$(GO) run ./cmd/experiments -run fleet -fleet-sites 8 -fleet-hosts 16 -fleet-jobs 20000

# trace-goldens re-runs (uncached) the byte-exact observability goldens —
# the Chrome trace_event and JSONL exports, the HTML time-series report —
# plus the causal-analysis and tracer CLI tests. Regenerate intentional
# drift with `go test ./internal/obs/... -run Golden -update`.
trace-goldens:
	$(GO) test -count=1 -run 'Golden|TestChrome|TestBuild|TestDecompose|TestSummarize|TestSpanDurations|TestCausal|TestTable4Jobs|TestAnalyze|TestQuery|TestRoundTrip' ./internal/obs/... ./internal/bench/ ./cmd/tracer/

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-json runs the kernel/data-plane microbenchmarks and emits machine-
# readable results for tracking regressions across commits. BENCHTIME
# stretches each benchmark enough that the 0.1-0.5 s/op FleetSweep whole
# runs get a stable sample.
BENCHTIME ?= 2s
BENCH_PAT = KernelStep|KernelTimerStop|ObsSpan|SimnetThroughput|MPIPingPong|TransferSingle|TransferParallel8|FleetSweep

bench-json:
	$(GO) test -run NONE -bench '$(BENCH_PAT)' -benchtime $(BENCHTIME) -benchmem . | $(GO) run ./cmd/benchjson > BENCH_kernel.json
	@cat BENCH_kernel.json

# bench-diff re-runs the microbenchmarks and gates on regressions against
# the committed BENCH_kernel.json baseline: > BENCH_THRESHOLD relative ns/op
# or allocs/op growth (any growth at all on 0-alloc baselines) exits
# non-zero (see cmd/benchdiff).
BENCH_THRESHOLD ?= 0.10

bench-diff:
	$(GO) test -run NONE -bench '$(BENCH_PAT)' -benchtime $(BENCHTIME) -benchmem . | $(GO) run ./cmd/benchjson > BENCH_new.json
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) BENCH_kernel.json BENCH_new.json

experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/wideareampi
	$(GO) run ./examples/jobsubmit
	$(GO) run ./examples/knapsackrun
	$(GO) run ./examples/nqueens

# COVER_MIN is the statement-coverage floor `make cover` enforces over the
# whole module (cmd binaries included).
COVER_MIN ?= 70

cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
	{ echo "coverage $$total% is below the $(COVER_MIN)% floor"; exit 1; }

# fuzz gives each wire-facing parser a short, deterministic-budget fuzz run:
# the RSL parser, the proxy control-channel decoder, the gridftp MODE E
# block reader, and the scenario-file parser. Crashers land in testdata/fuzz/
# and fail the build until fixed.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/rsl/
	$(GO) test -fuzz FuzzReadMsg -fuzztime $(FUZZTIME) ./internal/proxy/
	$(GO) test -fuzz FuzzReadBlock -fuzztime $(FUZZTIME) ./internal/gridftp/
	$(GO) test -fuzz FuzzScenario -fuzztime $(FUZZTIME) ./internal/scenario/

clean:
	$(GO) clean ./...
