GO ?= go
BENCH = $(GO) run ./cmd/acesobench

.PHONY: build test ci paper fmt-check bench-smoke fuzz-smoke recover-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-<target> runs one acesobench target, which fails on a gate
# that does not hold and writes its report to BENCH_<target>.json.
# `$(BENCH) -list` says what each target does and gates on; ARGS passes
# flags, e.g. `make bench-chaos ARGS='-duration 120s'`. No report is
# committed: the searches the gates run are rows of
# internal/core/testdata/determinism.json.
bench-%:
	$(BENCH) $(ARGS) $*

# OUT receives what is regenerated rather than committed: the gates'
# reports and the paper's evaluation.
OUT ?= /tmp

# paper regenerates every figure and table of the paper (DESIGN.md §4):
# the text into $(OUT)/results_full.txt, the rows into $(OUT)/csv. The
# acesobench target is the artifact; nothing it prints is committed.
# ARGS='-budget 200ms -sizes 2' makes a quick pass.
paper:
	mkdir -p $(OUT)/csv
	$(BENCH) $(ARGS) -csv $(OUT)/csv all > $(OUT)/results_full.txt

# ci is the pre-merge gate. Every package is raced. The -bench line
# runs one iteration of every benchmark of the packages that have any,
# so none can rot, and prints B/op (BenchmarkSearchThroughput's is the
# pinned search's allocation). The acesobench
# gates write their reports into one scratch directory; scale runs in
# a process of its own, because its allocation ratio assumes cold
# arenas; chaos runs for its -duration, the other randomized targets
# their scenarios' own trial counts.
ci: build fmt-check
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) bench-smoke
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem . ./internal/config ./internal/memo ./internal/perfmodel ./internal/profiler
	out=$$(mktemp -d) && $(BENCH) -outdir $$out scale && $(BENCH) -outdir $$out trace diff hetero spot && \
		$(BENCH) -duration 10s chaos && $(MAKE) recover-smoke OUT=$$out

# fmt-check fails when gofmt would change any file of either module.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# bench-smoke vets and tests the repository benchmark (bench/ is a
# module of its own, which the root ./... does not see): every workload
# at tiny size, under 10 s. The benchmark itself is run by
# `go run -C bench .` (bench/README.md), not by ci.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

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

# recover-smoke gates the one recovery path, elastic.Supervise: the
# churn target, then the spot half uncached — randomized Poisson-hazard
# reclaim streams with and without notices, and the notice drain end to
# end (a window at least as long as the checkpoint cost must drain with
# zero lost steps).
recover-smoke:
	$(BENCH) -outdir $(OUT) churn
	$(GO) test -count=1 -run 'TestRunClean/spot' ./internal/chaos
	$(GO) test -count=1 -run 'TestSuperviseNoticeDrainZeroLostSteps|TestSuperviseNoticeMissedFallsBack' ./internal/elastic

# loc prints what ROADMAP item 7 budgets: the non-test Go lines of the
# root module (bench/ is a module of its own) and of cmd/acesobench,
# then the number of directories directly under internal/.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@find cmd/acesobench -name '*.go' -not -name '*_test.go' | xargs cat | wc -l
	@ls -d internal/*/ | wc -l
