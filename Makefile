GO ?= go

.PHONY: build test ci fmt-check bench-smoke bench-search bench-guard scale-guard bench-scale bench-serve bench-hetero bench-spot chaos fuzz-smoke trace-smoke diff-smoke recover-smoke serve-smoke hetero-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# ci is the pre-merge gate; each target below says what it checks. The
# race lines cover the packages that share state across goroutines: the
# search workers and their caches, the daemon, and the runtime, its
# collectives and the supervisor that restarts them. The two -bench
# lines run one iteration so the benchmarks cannot rot.
ci: build fmt-check
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) bench-smoke
	$(GO) test -race ./internal/core/... ./internal/perfmodel/... ./internal/memo/... ./internal/planserver/... ./internal/plancache/... ./internal/obs/... ./internal/hardware/... ./internal/collective/...
	$(GO) test -race ./internal/elastic/... ./internal/chaos/... ./internal/runtime/... ./internal/comm/... ./internal/clustersim/...
	$(MAKE) fuzz-smoke
	$(GO) test -run xxx -bench BenchmarkSearchThroughput -benchtime 1x .
	$(GO) test -run xxx -bench . -benchtime 1x ./internal/config
	$(MAKE) bench-guard
	$(MAKE) scale-guard
	$(MAKE) trace-smoke
	$(MAKE) chaos CHAOS_DURATION=10s
	$(MAKE) diff-smoke
	$(MAKE) hetero-smoke
	$(MAKE) recover-smoke
	$(MAKE) serve-smoke

# fmt-check fails when gofmt would change any file of either module.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# bench-smoke vets and tests the repository benchmark (bench/ is a
# module of its own, which the root ./... does not see): every workload
# at tiny size, under 10 s. The benchmark itself is run by
# `go run -C bench .` (bench/README.md), not by ci.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# trace-smoke runs the observability target into a scratch directory:
# it exercises the JSONL tracer, the metrics registry and the breakdown
# auditor on a real search, exiting non-zero on any audit violation.
trace-smoke:
	$(GO) run ./cmd/acesobench -trace-iters 2 -tracefile /tmp/aceso_ci_trace.jsonl trace

# diff-smoke cross-checks the performance model against the simulator
# in model-faithful mode (internal/diffcheck) on DIFF_TRIALS randomized
# tuples: in-flight counts vs Eq.1, term-for-term memory composition,
# per-stage OOM verdicts, GPipe ≥ 1F1B memory, and the signed
# iteration-time band. Violations shrink to BENCH_diff_repro_*.json and
# fail the build.
DIFF_TRIALS ?= 5000
diff-smoke:
	$(GO) run ./cmd/acesobench -diff-trials $(DIFF_TRIALS) -difffile /tmp/aceso_ci_diff.json diff

# fuzz-smoke runs each fuzz target for a few seconds. `go test -fuzz`
# accepts one target per invocation, hence one line per target.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDeviceSplit -fuzztime=5s ./internal/config
	$(GO) test -fuzz=FuzzParseOpKey -fuzztime=5s ./internal/profiler
	$(GO) test -fuzz=FuzzOpKeyRoundTrip -fuzztime=5s ./internal/profiler
	$(GO) test -fuzz=FuzzSearchNeverPanics -fuzztime=5s ./internal/core
	$(GO) test -fuzz=FuzzRestrictExact -fuzztime=5s ./internal/hardware
	$(GO) test -fuzz=FuzzCheckpointLoadNeverPanics -fuzztime=5s ./internal/elastic
	$(GO) test -fuzz=FuzzChurnEventsNeverPanic -fuzztime=5s ./internal/elastic
	$(GO) test -fuzz=FuzzPreemptNoticeNeverPanics -fuzztime=5s ./internal/elastic

# recover-smoke gates the one recovery path, elastic.Supervise. The
# churn target drives a seeded 22-event schedule of preemptions,
# re-additions, stragglers and link derates through it with a
# checkpoint file round trip, then RECOVER_TRIALS randomized chaos
# trials each of the one-fault and churn scenarios; it fails the build
# if the supervised run leaves the uninterrupted trajectory, the
# hysteresis never defers a replan, or any trial panics, hangs, loses
# steps or diverges (BENCH_churn.json goes to /tmp to keep the tree
# clean). The two test lines are the spot half: randomized
# Poisson-hazard reclaim streams with and without notices, and the
# notice-drain end to end — a window at least as long as the checkpoint
# cost must drain with zero lost steps.
RECOVER_TRIALS ?= 12
recover-smoke:
	$(GO) run ./cmd/acesobench -churn-trials $(RECOVER_TRIALS) -churnfile /tmp/aceso_ci_churn.json churn
	$(GO) test -count=1 -run 'TestRunClean/spot' ./internal/chaos
	$(GO) test -count=1 -run 'TestSuperviseNoticeDrainZeroLostSteps|TestSuperviseNoticeMissedFallsBack' ./internal/elastic

# bench-spot re-runs the spot-capacity case study (risk-aware vs
# risk-blind planning under a replayed preemption trace, plus spot
# chaos trials) and rewrites BENCH_spot.json; it exits non-zero if the
# risk-aware plan stops beating the re-priced risk-blind plan or the
# achieved-throughput speedup falls under the 1.2x gate.
bench-spot:
	$(GO) run ./cmd/acesobench -seed 1 spot

# hetero-smoke guards the heterogeneous planning case study against the
# committed BENCH_hetero.json: the mixed-fleet search's explored counts
# and chosen-plan fingerprint must match exactly, the hetero-aware plan
# must strictly beat the best class-blind plan re-priced on the mixed
# fleet, and a short mixed-cluster diffcheck slice must come back with
# zero violations. Part of ci.
hetero-smoke:
	$(GO) run ./cmd/acesobench -guard hetero

# bench-hetero re-runs the heterogeneous planning case study and
# rewrites BENCH_hetero.json.
bench-hetero:
	$(GO) run ./cmd/acesobench hetero

# chaos runs the fault-injection harness (internal/chaos) for a short
# wall budget; it exits non-zero on any panic, invalid plan or
# non-finite score. Lengthen with CHAOS_DURATION=120s etc.
CHAOS_DURATION ?= 30s
chaos:
	$(GO) run ./cmd/acesobench -chaos-duration $(CHAOS_DURATION) chaos

# bench-search re-measures search throughput and rewrites the
# "current" block of BENCH_search.json (the recorded baseline is kept).
bench-search:
	$(GO) run ./cmd/acesobench search

# bench-guard re-measures search throughput and checks it against the
# committed BENCH_search.json without rewriting it: the explored count
# must match exactly (the search is bit-identical by contract) and
# ns/op / allocs/op must stay within the guard tolerances. Part of ci.
bench-guard:
	$(GO) run ./cmd/acesobench -guard search

# scale-guard re-runs the thousand-device scale benchmark against the
# committed BENCH_scale.json without rewriting it: explored counts must
# match exactly, alloc_mb must stay within the allocation tolerance of
# each row, and the 4096-device point may cost at most 5x the
# allocation and 6x the time of the 1024-device one (a search whose
# set-up is linear in the graph pays about 4x). Part of ci.
scale-guard:
	$(GO) run ./cmd/acesobench -guard scale

# bench-scale runs the thousand-device scale benchmark (1024/2048/4096
# synthetic V100s, up to 10240-operator graphs) and rewrites
# BENCH_scale.json, exiting non-zero if any explored count drifted from
# the committed file or the linearity gate fails.
bench-scale:
	$(GO) run ./cmd/acesobench scale

# serve-smoke boots the planning daemon in self-test mode on an
# ephemeral port: cold plan → exact cache hit (bytes must match) →
# SSE stream → /metrics scrape → /healthz → SIGTERM drain. Part of ci.
serve-smoke:
	$(GO) run ./cmd/acesod -smoke

# bench-serve load-tests the planserver over real HTTP (load, overload,
# drain and cache-identity phases) and rewrites BENCH_serve.json,
# exiting non-zero on any error-rate or cache-correctness gate.
bench-serve:
	$(GO) run ./cmd/acesobench serve
