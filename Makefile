# Tier-1 verification and benchmark entry points (see ROADMAP.md).

GO ?= go

.PHONY: build test vet race chaos perfbench-check lint obs-smoke scenario-smoke obs-live-smoke verify bench bench-telemetry bench-coalesce bench-mux bench-obsplane benchsmoke clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the packages with real concurrency: the parallel deployment
# builder, the sweep engine, the peer runtime underneath both, the TCP
# transport with its pooled frame handoff, the multi-process scenario
# orchestrator, and the chaos suite's schedule driver.
race:
	$(GO) test -race ./internal/deploy/... ./internal/experiments/... ./internal/runtime/... ./internal/tcpnet/... ./internal/scenario/... ./internal/chaos/...

# chaos runs the deterministic fault-injection suite under the race
# detector: fixed-seed schedules (crash-restart, partitions, flips)
# against ERB/ERNG invariants plus the beacon bias battery. Failures
# print the seed to replay with `p2pexp -experiment chaos -chaos-seed`.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/...

# perfbench-check vets and tests the benchmark harness. perfbench is its
# own Go module (it pins the end-to-end workloads in BENCHMARK.json), so
# the root module's build, vet and test never compile it; a rename in
# channel or runtime that breaks it would otherwise first show up in a
# benchmark run.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# benchsmoke compiles and runs every benchmark for a single iteration so
# a broken benchmark cannot sit undetected until the next bench run.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# lint runs the project analyzers (cmd/p2plint: determinism, map-order,
# enclave-boundary error handling, lockstep, shadow, nilness, plus the
# interprocedural seal-boundary battery sealflow/keyleak/lockorder — see
# DESIGN.md §9 and §14) over the whole module and fails on gofmt drift.
# Suppressions require `//lint:allow <analyzer> <reason>`; stale
# suppressions are findings themselves.
lint:
	$(GO) run ./cmd/p2plint ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt drift in:"; echo "$$fmt_out"; exit 1; fi

# obs-smoke is the end-to-end observability check: replay one seeded
# crash-restart chaos schedule twice with the tracer and metrics on,
# validate the JSONL schema, and require the two traces byte-identical.
# Any nondeterminism that leaks into an event (wall clock, map order)
# fails the diff with the first diverging line.
obs-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/p2pexp -experiment chaos -chaos-seed 7 \
		-trace "$$dir/a.jsonl" -metrics-out "$$dir/a.prom" >/dev/null && \
	$(GO) run ./cmd/p2pexp -experiment chaos -chaos-seed 7 \
		-trace "$$dir/b.jsonl" -metrics-out "$$dir/b.prom" >/dev/null && \
	$(GO) run ./cmd/p2ptrace -check "$$dir/a.jsonl" && \
	$(GO) run ./cmd/p2ptrace -diff "$$dir/a.jsonl" "$$dir/b.jsonl"

# scenario-smoke is the multi-process end-to-end check (DESIGN.md §13):
# build the real node binary once, run two small manifests — honest ERB
# at n=4 and the ERNG slow-link profile — as actual TCP process fleets
# via cmd/p2pscenario, then validate every run's merged cross-process
# telemetry with p2ptrace -check. The generous Δ override keeps the
# round windows safe on loaded CI hosts; the invariants (agreement,
# acceptance, round bounds) are asserted by the runner itself.
scenario-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/p2pnode" ./cmd/p2pnode && \
	$(GO) run ./cmd/p2pscenario -node-bin "$$dir/p2pnode" -out "$$dir" -keep \
		-testcase erb-honest -instances 4 -param delta=300ms \
		scenarios/honest-sweep.toml && \
	$(GO) run ./cmd/p2pscenario -node-bin "$$dir/p2pnode" -out "$$dir" -keep \
		-param delta=300ms scenarios/slow-link.toml && \
	for f in "$$dir"/*/merged.jsonl; do \
		$(GO) run ./cmd/p2ptrace -check "$$f" || exit 1; done

# obs-live-smoke is the live observability plane check (DESIGN.md §15):
# run a small fleet with -stream on, so every node streams its telemetry
# events, metric deltas and resource-probe gauges over the control
# connection while running; the runner asserts stream parity (streamed ≡
# exit-dumped events) as an invariant and archives streamed.jsonl, which
# is then schema-checked and span-reconstructed — the full path from
# per-process BeginSpan to the cross-process hop histogram.
obs-live-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/p2pnode" ./cmd/p2pnode && \
	$(GO) run ./cmd/p2pscenario -node-bin "$$dir/p2pnode" -out "$$dir" -keep \
		-stream -testcase erb-honest -instances 4 -param delta=300ms \
		scenarios/honest-sweep.toml && \
	$(GO) run ./cmd/p2ptrace -check "$$dir"/*/streamed.jsonl && \
	$(GO) run ./cmd/p2ptrace -spans "$$dir"/*/streamed.jsonl

# verify is the tier-1 gate: build, vet, full test suite, race subset,
# chaos fault-injection suite, the benchmark harness's vet and tests,
# one-iteration benchmark smoke run, the project lint battery, the
# traced-replay determinism smoke, the multi-process scenario smoke,
# and the live-streaming observability smoke.
verify: build vet test race chaos perfbench-check benchsmoke lint obs-smoke scenario-smoke obs-live-smoke

# bench regenerates BENCH_setup.json: setup/broadcast microbenchmarks plus
# the fig2a/fig2b sweeps (ns/op and allocs/op) via cmd/p2pbench.
bench:
	$(GO) run ./cmd/p2pbench -o BENCH_setup.json

# bench-telemetry re-measures the telemetry overhead artifact: the two
# hot-path benchmarks, best-of-10, compared against the pre-telemetry
# baseline (see the methodology note in EXPERIMENTS.md — the baseline
# must be re-measured in the same window to mean anything).
bench-telemetry:
	$(GO) run ./cmd/p2pbench -count 10 -bench seal_open_hot,cluster_broadcast_n64 \
		-baseline BENCH_pretelemetry.json -o BENCH_telemetry.json

# bench-coalesce re-measures the frame-coalescing artifact: the ERB
# broadcast benchmarks at N=64 and N=512, best-of-5, diffed against the
# pre-coalescing baseline (BENCH_telemetry.json) in the snapshot's
# embedded comparison block. They have no unbatched twin: a single
# initiator's frames are all singletons, identical in both modes (the
# live ablation is bench-mux's nobatch row).
bench-coalesce:
	$(GO) run ./cmd/p2pbench -count 5 -bench cluster_broadcast \
		-baseline BENCH_telemetry.json -o BENCH_coalesce.json

# bench-mux re-measures the multiplexed-runtime artifact: aggregate
# broadcast throughput at N=64 with 1/10/100/1000 concurrent instances
# over one standing cluster, against three baselines measured in the
# same window — dedicated deployments (the pre-mux status quo: a fresh
# cluster per broadcast), serial broadcasts on the standing cluster
# (stricter: setup amortized away), and the mux with batching disabled
# (ablation). Best-of-3; the dedicated rows dominate the wall time.
bench-mux:
	$(GO) run ./cmd/p2pbench -count 3 -bench cluster_mux -o BENCH_mux.json

# bench-obsplane re-measures the live-observability artifact: the
# three-rung simnet ablation at N=64 (telemetry off / span recording on /
# recording plus a live streaming consumer — the record-vs-stream delta
# is the streaming overhead the PR is judged on, best-of-5) plus the
# deployment-level proof: a real N=128 process fleet run plain and
# streamed (-live, one run each, minutes of wall time — rounds are
# Δ-gated, so the two wall times must agree).
bench-obsplane:
	$(GO) run ./cmd/p2pbench -count 5 -bench obs_broadcast,obs_live -live \
		-o BENCH_obsplane.json

clean:
	$(GO) clean ./...
