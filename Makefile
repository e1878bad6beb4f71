# Developer and CI entry points. `make ci` is what the GitHub Actions
# workflow runs: the gate-name check (every `-run` and `-fuzz` pattern of a
# recipe still names a test), the formatting gate (gofmt), vet (fail fast),
# the layering gate (the runtime does not link the memsim model), build, plain
# tests, the race detector over the runtime-heavy packages, the flakiness gate
# (the fault-tolerance suites and the root package three times under -race, so
# a nondeterministic retry/breaker/admission/tuner test cannot land green), the
# zero-copy pool smoke (AllocsPerRun, alias checks, leak suite), the
# faults-experiment smoke, the telemetry smokes (trace, explain, Prometheus
# golden), the out-of-core spill smoke, the fuzz smoke (the fuzz targets past
# their seed corpus), the adaptive-planner tune smoke
# (online batch calibration vs the static heuristic), the mozartd
# serve smoke (boot, shed, SIGTERM drain), the observability smoke
# (traceparent echo, span trees, OpenMetrics exemplars, burn rates,
# trace-keyed flight lookup), and the measured benchmark's own test plus a
# quick pass of its harness.

GO ?= go

# The worker-pool tests of internal/core (pool-smoke, and flaky's
# GOMAXPROCS sweep).
POOL_TESTS = TestWorkerPool|TestSteadyState|TestSharedWorkerPool

.PHONY: ci gate-names fmt-check vet layering build test race flaky pool-smoke smoke-faults trace-smoke explain-smoke explain-golden prom-golden bench-quick bench serve-smoke slo-smoke spill-smoke fuzz-smoke tune-smoke soak

ci: gate-names fmt-check vet layering build test race flaky pool-smoke smoke-faults trace-smoke explain-smoke prom-golden spill-smoke fuzz-smoke tune-smoke serve-smoke slo-smoke bench-quick

# `go test -run P` passes when P matches nothing, so a renamed test would
# silently leave its gate. Every |-alternative of every -run pattern in the
# recipes that have one (read from them as make would run them, each written
# `-run '<pattern>' <pkg>`) must match at least one test in its package.
# `go test -fuzz P` also exits 0 when P matches nothing ("no fuzz tests to
# fuzz"), so every -fuzz pattern of fuzz-smoke (written `-fuzz '<pattern>'
# <pkg>`) must match a Fuzz target in its package.
gate-names:
	@$(MAKE) -s -n pool-smoke flaky prom-golden soak explain-golden | grep -o -- "-run '[^']*' [^ ]*" | while read -r _ pat pkg; do \
		pat=$${pat#\'}; pat=$${pat%\'}; \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			n=$$($(GO) test -list "$$alt" $$pkg | grep -c '^\(Test\|Benchmark\|Example\|Fuzz\)'); \
			if [ "$$n" -eq 0 ]; then echo "gate-names: -run $$alt matches no test in $$pkg" >&2; exit 1; fi; \
			echo "gate-names: $$pkg: $$alt matches $$n"; \
		done; \
	done
	@$(MAKE) -s -n fuzz-smoke | grep -o -- "-fuzz '[^']*' [^ ]*" | while read -r _ pat pkg; do \
		pat=$${pat#\'}; pat=$${pat%\'}; \
		n=$$($(GO) test -list "$$pat" $$pkg | grep -c '^Fuzz'); \
		if [ "$$n" -eq 0 ]; then echo "gate-names: -fuzz $$pat matches no fuzz target in $$pkg" >&2; exit 1; fi; \
		echo "gate-names: $$pkg: $$pat matches $$n"; \
	done

# Formatting gate: fails when gofmt would rewrite any file.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt-check: not gofmt-formatted:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# The runtime reports only what it measures: the root package, internal/core
# and internal/obs must not link the memsim machine model or its plan
# lowering. The model is reached from a plan IR through internal/planlower,
# beside the runtime (benchmark/ reports it as memsim.model_s).
layering:
	@for p in . ./internal/core ./internal/obs; do \
		if $(GO) list -deps $$p | grep -x 'mozart/internal/\(memsim\|planlower\)'; then \
			echo "layering: $$p links the model above" >&2; exit 1; \
		fi; \
	done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Flakiness gate: the resilience machinery (retry, breakers, admission,
# fault injection, the spill store, the streaming path, the serving layer)
# is timing-sensitive by nature; run its suites three times under the race
# detector to shake out order dependence (three, not two: a test that leans
# on a process-global counter, like the unknown split type's, can pass twice).
# The obs packages ride along for the tracing/SLO surfaces (concurrent span
# recording, exemplar stamping, burn-rate windows) exercised by the serve
# tests, and the root package for the tuner loop, whose outcome depends on
# measured timings. The worker pool, the fan-out onto it and the reuse of
# dead pieces as destinations then run ten times at each of 1, 2 and 4
# processors: what they pin (who parks, who queues, which goroutine claims
# which share, whose scratch a late share starts on) is scheduling-dependent
# and must hold whatever the core count.
flaky:
	$(GO) test -race -count=3 . ./internal/core ./internal/faultinject ./internal/serve ./internal/spill ./internal/annotations/imagesa ./internal/annotations/framesa ./internal/annotations/checksuite ./internal/tune ./internal/obs ./internal/obs/httpdebug
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -race -count=10 -run '$(POOL_TESTS)|TestFanOut|TestReuseSlots|TestTracerWorkerZeroLane' ./internal/core || exit 1; done

# Zero-copy hot-path gate: the AllocsPerRun == 0 assertions on the warm
# view-split loops, the pointer-identity alias and stitch checks, the
# pooled-buffer leak suite (poison mode) and steady-state zero-spawn proof,
# the allocation ceilings on a whole fresh-session evaluation (the fixed cost
# tiny_pipeline measures), on planning alone and on the out-of-place frame_clean
# chain (whose intermediates are rewritten in place, not reallocated per batch),
# the aliasing recovery regressions (retry/fallback restoring storage that
# pieces alias), and the per-call ceiling of the vmath kernels (parallelFor's
# body closure and nothing else).
pool-smoke:
	$(GO) test -count=1 -run 'TestKernelAllocs' ./internal/vmath
	$(GO) test -count=1 -run 'ZeroAllocs|Stitch|MergeFallback|ViewSplitsCounted' ./internal/annotations/vmathsa
	$(GO) test -count=1 -run '$(POOL_TESTS)|TestPoison' ./internal/core
	$(GO) test -count=1 -run 'TestRuntimeOverheadAllocCeiling|TestPlanAllocCeiling|TestFrameCleanAllocCeiling' .
	$(GO) test -count=1 -run 'TestRetryRestoresAliasedBands|TestFallbackRestoresAliasedBands|TestWriteBackAliasesValue|TestCopySplitterKeepsCopySemantics' ./internal/annotations/imagesa

# mozartd's end-to-end smoke: boot on an ephemeral port, evaluate for a
# well-provisioned tenant, assert the over-budget tenant sheds with 429,
# SIGTERM, and assert the drain returned every carved byte (the binary
# exits non-zero on any violation).
serve-smoke:
	$(GO) run ./cmd/mozartd -smoke

# mozartd's observability smoke: a traced evaluation end to end — the
# traceparent echoed, the span tree served (tree + OTLP/JSON), the latency
# exemplar negotiated via OpenMetrics, a tenant with an unmeetable latency
# objective burning error budget on both windows, a 504's trace id
# resolving to its flight recording, and the structured request log naming
# the trace (the binary exits non-zero on any violation).
slo-smoke:
	$(GO) run ./cmd/mozartd -slo-smoke

# The multi-tenant chaos soak on its own: concurrent tenants through fault
# injection (transient faults + seeded latency) under the race detector.
soak:
	$(GO) test -race -count=2 -run 'TestChaosSoak' ./internal/serve

# Smoke-run the fault-tolerance ablation end to end.
smoke-faults:
	$(GO) run ./cmd/sabench -experiment faults

# Smoke-run the observability layer: trace two workloads, write Chrome
# trace JSON, and re-parse it (the experiment exits non-zero on malformed
# or empty traces).
trace-smoke:
	$(GO) run ./cmd/sabench -experiment trace -scalediv 8

# Smoke-run the plan IR path: print the planner's real plan for every
# workload and validate the rendering against the embedded golden file
# (the experiment exits non-zero on a mismatch).
explain-smoke:
	$(GO) run ./cmd/sabench -experiment explain

# Regenerate the explain golden file after an intentional planner change.
explain-golden:
	SABENCH_UPDATE_GOLDEN=cmd/sabench/testdata/explain.golden $(GO) run ./cmd/sabench -experiment explain
	UPDATE_GOLDEN=1 $(GO) test -run 'TestExplainGolden' .

# The Prometheus exposition contract: the golden rendering and the
# snapshot-consistency test (every /metrics sample accounted for by
# Metrics.Snapshot and vice versa).
prom-golden:
	$(GO) test -count=1 -run 'TestPrometheusGolden|TestPrometheusMatchesSnapshot|TestPrometheusSimGatedOnCounters' ./internal/obs

# Smoke-run the adaptive planner loop on three workloads: the tuner's
# online golden-section sweep against the memsim model, asserting the
# calibrated choice never falls below 0.95x the static heuristic's modeled
# throughput (the experiment exits non-zero otherwise).
tune-smoke:
	SABENCH_TUNE_WORKLOADS=blackscholes-numpy,datacleaning-pandas,crimeindex-pandas $(GO) run ./cmd/sabench -experiment autotune

# Smoke-run the out-of-core ladder end to end: blackscholes-ooc against a
# 4x-undersized Governor budget must finish in streaming mode with exact
# checksums, CRC-checked spill traffic, and zero spill residue (the
# experiment exits non-zero on any violated invariant).
spill-smoke:
	$(GO) run ./cmd/sabench -experiment spill

# The fuzz targets past their seed corpus (plain `go test` runs only the
# seeds): the traceparent parser, the spill store's frame replay, the .sa
# annotation grammar and the mozartd /v1/eval request body.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzztime=10s -fuzz '^FuzzParseTraceparent$$' ./internal/obs
	$(GO) test -run '^$$' -fuzztime=10s -fuzz '^FuzzReplay$$' ./internal/spill
	$(GO) test -run '^$$' -fuzztime=10s -fuzz '^FuzzParse$$' ./internal/satool
	$(GO) test -run '^$$' -fuzztime=10s -fuzz '^FuzzEvalBody$$' ./internal/serve

# The measured wall-clock benchmark (BENCHMARK.json, benchmark/): its own
# module, so tier-1 never compiles it. Run its test, then every workload at
# tiny sizes through the harness with the bit-exact oracle on (measures
# nothing; a full run is `bash benchmark/run.sh`).
bench-quick:
	cd benchmark && $(GO) test .
	bash benchmark/run.sh -quick

# Regenerate the paper's figures/tables (see cmd/sabench).
bench:
	$(GO) run ./cmd/sabench -experiment all
