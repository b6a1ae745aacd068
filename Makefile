GO ?= go
BENCH = $(GO) run ./cmd/acesobench

.PHONY: build test ci paper fmt-check bench-smoke fuzz-smoke recover-smoke loc layout

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-<target> runs one acesobench target, which prints its tables
# and fails on a gate that does not hold. `$(BENCH) -list` says what
# each target does and gates on; ARGS passes flags, e.g.
# `make bench-chaos ARGS='-duration 120s'` or `ARGS='-csv <dir>'` to
# write the tables as CSV. Nothing a gate prints is committed: the
# searches the gates run are rows of
# internal/core/testdata/determinism.json.
bench-%:
	$(BENCH) $(ARGS) $*

# OUT receives what is regenerated rather than committed: the gates'
# tables and files and the paper's evaluation.
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
# gates write their files and their tables' CSV into one scratch
# directory, removed when the line exits with the line's own status, so
# a table that cannot be written fails ci; scale runs in
# a process of its own, because its allocation ratio assumes cold
# arenas; chaos runs for its -duration, the other randomized targets
# their scenarios' own trial counts.
ci: build fmt-check
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) bench-smoke
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem . ./internal/config ./internal/core ./internal/memo ./internal/perfmodel \
		./internal/planserver ./internal/profiler
	out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && $(BENCH) -outdir $$out -csv $$out scale && $(BENCH) -outdir $$out -csv $$out trace diff hetero && \
		$(BENCH) -duration 10s -csv $$out chaos && $(MAKE) recover-smoke OUT=$$out

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
	$(GO) test -fuzz=FuzzKeyFollowsEdits -fuzztime=5s ./internal/config
	$(GO) test -fuzz=FuzzParseOpKey -fuzztime=5s ./internal/profiler
	$(GO) test -fuzz=FuzzOpKeyRoundTrip -fuzztime=5s ./internal/profiler
	$(GO) test -fuzz=FuzzTermReuseMatchesFresh -fuzztime=5s ./internal/perfmodel
	$(GO) test -fuzz=FuzzTrialBoundContainsEstimate -fuzztime=5s ./internal/perfmodel
	$(GO) test -fuzz=FuzzSearchNeverPanics -fuzztime=5s ./internal/core
	$(GO) test -fuzz=FuzzMoveUndo -fuzztime=5s ./internal/core
	$(GO) test -fuzz=FuzzRestrictExact -fuzztime=5s ./internal/hardware
	$(GO) test -fuzz=FuzzCheckpointLoadNeverPanics -fuzztime=5s ./internal/elastic
	$(GO) test -fuzz=FuzzChurnEventsNeverPanic -fuzztime=5s ./internal/elastic
	$(GO) test -fuzz=FuzzPreemptNoticeNeverPanics -fuzztime=5s ./internal/elastic
	$(GO) test -fuzz=FuzzPlanRequestNeverPanics -fuzztime=5s ./internal/planserver

# recover-smoke gates the one recovery path, elastic.Supervise: the
# churn and spot targets, then the spot half uncached — randomized
# Poisson-hazard reclaim streams with and without notices, and the
# notice drain end to end (a window at least as long as the checkpoint
# cost must drain with zero lost steps).
recover-smoke:
	$(BENCH) -outdir $(OUT) -csv $(OUT) churn spot
	$(GO) test -count=1 -run 'TestRunClean/spot' ./internal/chaos
	$(GO) test -count=1 -run 'TestSuperviseNoticeDrainZeroLostSteps|TestSuperviseNoticeMissedFallsBack' ./internal/elastic

# loc prints what ROADMAP item 7 budgets: the non-test Go lines of the
# root module (bench/ is a module of its own) and of cmd/acesobench,
# then the number of directories directly under internal/.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@find cmd/acesobench -name '*.go' -not -name '*_test.go' | xargs cat | wc -l
	@ls -d internal/*/ | wc -l

# layout builds the benchmark binary into $(OUT) and prints where its
# link put three functions, and that address mod 64: the search entry,
# the stage walk, and the HTTP connection loop. A change to any package
# linked before them moves them; a shift that is not a multiple of 64
# moves timings with no line of the timed path changed. Run it on both
# sides of a change before reading a benchmark difference as the code's.
layout:
	$(GO) build -C bench -o $(abspath $(OUT))/bench-layout .
	@$(GO) tool nm -n $(abspath $(OUT))/bench-layout | while read addr kind name; do \
		case "$$name" in \
		'aceso/internal/core.SearchContext'|'aceso/internal/perfmodel.(*Model).walk'|'net/http.(*conn).serve') \
			echo "$$name 0x$$addr mod 64 = $$((0x$$addr % 64))";; \
		esac; \
	done
