# Build/test entry points. `make ci` is the gate PRs must keep green:
# gofmt + vet + build + race-mode tests on the concurrency-bearing packages
# (exp's worker pool, input memo and cell store, obsv's lock-free instruments,
# cache's shared-model users, pb's parallel binning) + the full test
# suite with coverage + a short fuzz pass over the cache levels'
# location hints, the memory hierarchy's walk and the core's MSHR queue
# + the process-level smokes + a one-pass self-checking benchmark run.

GO ?= go

.PHONY: all build vet test race ci bench bench-compare bench-smoke profile coverage figures-quick fmt-check fuzz-smoke serve-smoke chaos-smoke fleet-smoke stream-smoke

all: ci

build:
	$(GO) build ./...

# perfbench is a separate module, so the root `go vet ./...` skips it.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# Race-mode pass over the packages that actually spawn goroutines or
# share state across them (exp: the worker pool, the input memo, and
# the cell store's single flight (Journal.Do), which campaign cells,
# streamed windows, srv's result cache and fleet runs go through; obsv: lock-free counters/histograms, the
# progress renderer goroutine, and the concurrent event log; srv: the
# worker pool, concurrent identical jobs, drain-under-load and
# faulted-load tests; fault: the lock-free injection registry under
# concurrent hits; client: retry/breaker state across goroutines;
# dist: the fleet coordinator's dispatch slots, steal path, and prober;
# sim/simtest: the scheme runners' per-phase goroutine
# gangs, the machine pool shared by concurrent runs, and the cross-core
# conformance oracle; core/phi/mem/cpu: the per-machine state a pooled
# machine carries from one run's goroutine to the next's).
# (-timeout 30m: exp's race pass alone runs >10m on a 2-core box, past
# go test's default per-binary timeout.)
race:
	$(GO) test -race -timeout 30m ./internal/exp ./internal/obsv ./internal/cache ./internal/pb ./internal/srv ./internal/fault ./internal/client ./internal/dist ./internal/sim ./internal/simtest ./internal/stream ./internal/core ./internal/phi ./internal/mem ./internal/cpu

# Every *-smoke target runs its tests through scripts/smoke, which
# fails when a package's -run/-fuzz pattern passes no test at all (go
# test alone reports success when a pattern matches nothing).
SMOKE = GO=$(GO) $(GO) run ./scripts/smoke

# Short fuzz budget per target, enough to shake out on every CI run,
# without stalling it: a cache level whose location hints disagree
# with a plain scan under any replacement policy (FuzzLevel, with
# reservations and resets between operations); a hierarchy walk that
# diverges from the test-only reference walk over hint-free reference
# levels (FuzzAccess, reference by reference with reservations and
# resets between references; FuzzAccessBatch, through the batch API);
# and divergence of the core's MSHR queue from the slot-scan model it
# replaced (FuzzMSHR). (Plain `go test` already replays each target's
# seed corpus.)
fuzz-smoke:
	$(SMOKE) -run='^$$' -fuzz='^FuzzLevel$$' -fuzztime=10s ./internal/cache
	$(SMOKE) -run='^$$' -fuzz='^FuzzAccessBatch$$' -fuzztime=10s ./internal/mem
	$(SMOKE) -run='^$$' -fuzz='^FuzzAccess$$' -fuzztime=10s ./internal/mem
	$(SMOKE) -run='^$$' -fuzz='^FuzzMSHR$$' -fuzztime=10s ./internal/cpu

# Per-package statement coverage with a total summary line. CI runs
# this in place of the bare `test` target so coverage regressions are
# visible in the log; the profile lands in coverage.out for
# `go tool cover -html=coverage.out` drill-down.
coverage:
	$(GO) test -cover -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -n 1

# Process-level service smoke: re-executes the cobrad test binary as a
# real daemon on an ephemeral port, probes /healthz and /readyz, runs a
# sync job over HTTP (which the daemon runs through exp.Opts.Run), diffs
# the metrics against a direct in-process exp.RunScheme call, then
# SIGTERMs it under load and asserts a clean drain (exit 0).
serve-smoke:
	$(SMOKE) -run '^TestServeSmoke$$' ./cmd/cobrad

# Crash-recovery chaos: re-executes the figures and cobrad test
# binaries as real processes under COBRA_FAULTS schedules that SIGKILL
# them at exact journal appends (optionally after tearing the write),
# then asserts byte-identical resume, a restart-surviving result
# cache, and the slowloris read-header-timeout disconnect.
chaos-smoke:
	$(SMOKE) -run 'TestChaos|TestSlowloris' ./cmd/figures ./cmd/cobrad

# Distributed-campaign smoke: re-executes the figures test binary as
# two real cobrad worker processes, scatters a campaign across them,
# SIGKILLs one worker at its 3rd job admission, and diffs the gathered
# artifact (with the lost cell stolen to the survivor) against a local
# run; then SIGKILLs the coordinator at its 5th journal append and
# diffs the resumed artifact the same way.
fleet-smoke:
	$(SMOKE) -run 'TestFleet' ./cmd/figures

# Streaming-engine smoke: a tiny 3-window streamed run byte-compared
# against the offline oracle (same updates replayed in one batch), both
# in-process (engine conformance, incl. multi-core), through exp's
# journaled RunStream (the window path `figures -fig stream` takes:
# resume, and what exp.checkpoint.recorded counts), and end-to-end over
# HTTP (POST /v1/stream vs a direct engine run, mid-stream kill and
# window-granularity resume through the result-cache journal, and
# concurrent identical stream jobs simulating each window once), plus
# a result-cache journal recorded by an earlier cobrad, whose offline
# cells and stream windows must all replay.
stream-smoke:
	$(SMOKE) -run '^TestStreamOfflineConformance$$' ./internal/stream
	$(SMOKE) -run '^TestRunStream' ./internal/exp
	$(SMOKE) -run '^TestStreamJob' ./internal/srv
	$(SMOKE) -run '^TestParentCacheReplays$$' ./internal/srv

# Benchmark smoke: perfbench is a separate module (it imports this
# one's internal packages through a replace directive), so `go test
# ./...` never builds it. Test it, then run every workload once at
# seed 1: the harness exits 1 unless every run reports `correct: true`
# and the seed-1 simulated-result digests equal perfbench/reference.json.
bench-smoke:
	cd perfbench && $(GO) test ./...
	python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0

ci: fmt-check vet build race coverage fuzz-smoke serve-smoke chaos-smoke fleet-smoke stream-smoke bench-smoke

# Hot-path microbenchmarks (packed cache metadata; the hierarchy's
# walk, L1- and L2-resident and missing every level; the core's issue
# path on a miss-bound stream; the simulated PB-SW bin sweep; PB
# binning). -run='^$$' keeps each package's tests out of the run.
bench:
	$(GO) test -run='^$$' -bench=BenchmarkCacheAccessHot -benchmem ./internal/cache
	$(GO) test -run='^$$' -bench=BenchmarkHierarchyAccess -benchmem ./internal/mem
	$(GO) test -run='^$$' -bench=BenchmarkCoreMissBound -benchmem ./internal/cpu
	$(GO) test -run='^$$' -bench=BenchmarkRunPBSWSweep -benchmem ./internal/sim
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/pb

# Hot-path benchmark comparison against the parent commit: builds
# HEAD~1 in a throwaway worktree, runs the microbenchmarks on both
# trees, and reports via benchstat when installed (raw listings
# otherwise). Informational only: every step tolerates failure, so it
# is not part of `ci`; run it by hand when comparing hot-path changes.
BENCH_CMP_ARGS = -run='^$$' -bench='BenchmarkCacheAccessHot|BenchmarkHierarchyAccess|BenchmarkCoreMissBound|BenchmarkRunPBSWSweep' -benchmem -count=3 -benchtime=0.3s
BENCH_CMP_PKGS = ./internal/cache ./internal/mem ./internal/cpu ./internal/sim

bench-compare:
	-@rm -rf .bench-compare; mkdir -p .bench-compare
	-@git worktree add -q --detach .bench-compare/head1 HEAD~1 2>/dev/null && \
	  (cd .bench-compare/head1 && $(GO) test $(BENCH_CMP_ARGS) $(BENCH_CMP_PKGS)) \
	    > .bench-compare/old.txt 2>&1 || true
	-@$(GO) test $(BENCH_CMP_ARGS) $(BENCH_CMP_PKGS) > .bench-compare/new.txt 2>&1 || true
	-@if command -v benchstat >/dev/null 2>&1; then \
	    benchstat .bench-compare/old.txt .bench-compare/new.txt || true; \
	  else \
	    echo "benchstat not installed; raw results:"; \
	    echo "--- HEAD~1"; cat .bench-compare/old.txt 2>/dev/null; \
	    echo "--- working tree"; cat .bench-compare/new.txt 2>/dev/null; \
	  fi
	-@git worktree remove --force .bench-compare/head1 2>/dev/null || true; rm -rf .bench-compare

# CPU-profile the Fig10 campaign (the hot path): writes cpu.pprof at
# the repo root and prints the top consumers. The default scale is the
# campaign-s14 benchmark workload's; raise PROFILE_SCALE for longer,
# steadier profiles.
PROFILE_SCALE ?= 14
profile:
	$(GO) run ./cmd/figures -fig 10 -scale $(PROFILE_SCALE) -parallel 1 -manifest none \
	  -o /dev/null -cpuprofile cpu.pprof
	$(GO) tool pprof -top -nodecount=15 cpu.pprof

# Smoke-regenerate one figure serially and in parallel (outputs must be
# byte-identical; the exp tests also enforce this).
figures-quick:
	$(GO) run ./cmd/figures -fig 10 -quick -parallel 1
	$(GO) run ./cmd/figures -fig 10 -quick -parallel 0

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
