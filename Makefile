# Build and verification entry points. `make check` is the full gate:
# the tier-1 suite (ROADMAP.md) plus formatting, static analysis, the race
# detector over every package, and the campaign benchmark module's own
# tests.

GO ?= go

.PHONY: all build test check fmt vet race perfbench bench clean

all: build

build:
	$(GO) build ./...

# Tier-1: what every change must keep green.
test: build
	$(GO) test ./...

# gofmt lists every file whose formatting differs; the tree must list none.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# The telemetry registry and tracer accept concurrent writers; the race
# detector is the test that proves it.
race:
	$(GO) test -race ./...

# perfbench/ is its own module, so the root `go test ./...` skips it.
# Its tests check that the stepped campaign and the composed serving
# edge match the library's own runs, and that BENCHMARK.json is current.
perfbench:
	$(GO) -C perfbench test ./...

check: test fmt vet race perfbench

# Experiment benchmarks plus the machine-readable BENCH_*.json reports CI
# uploads. Every overhead or speedup gate times its two arms one way, in
# internal/benchkit: A/B then B/A interleaved, a collected heap before each
# sample, process CPU (rusage user+sys) on one P, and the minimum of N
# samples per arm (DESIGN.md §6). The reports and their gates:
# harvest cold vs warm pass (BENCH_harvest.json); the usage sampler's
# overhead on the fig8 campaign (BENCH_usage.json, < 5%); the planner's
# incremental-prediction speedup on the 200-node/2000-run drop loop
# (BENCH_planner.json, ≥ 5× with an incremental-vs-full equivalence
# gate); the forensics pass, SPC charts and kernel profiler on the shared
# 200-node × 2000-run campaign replay (BENCH_forensics.json,
# BENCH_spc.json, BENCH_sim.json: each < 5%, plus a ≥ 80%-of-baseline
# events/sec floor against the committed BENCH_sim_baseline.json); and
# the public serving edge's storm scenario (BENCH_serving.json: ≥ 1M
# simulated user requests with a late forecast and a flash crowd, and
# zero made-to-stock deadlines displaced).
# Each gate is package:report:test; every gate runs and writes its
# report, and the target fails afterwards if any gate failed.
BENCH_GATES = harvest:harvest:TestEmitBenchReport \
	usage:usage:TestEmitBenchReport \
	core:planner:TestEmitPlannerBenchReport \
	forensics:forensics:TestEmitBenchReport \
	spc:spc:TestEmitBenchReport \
	engineprof:sim:TestEmitBenchReport \
	serving:serving:TestEmitBenchReport

bench:
	$(GO) test -bench . -benchtime 1x -run xxx . ./internal/core ./internal/engineprof ./internal/forensics ./internal/harvest ./internal/serving ./internal/spc ./internal/usage
	@status=0; for g in $(BENCH_GATES); do \
		pkg=$${g%%:*}; rest=$${g#*:}; \
		BENCH_OUT=$(CURDIR)/BENCH_$${rest%%:*}.json BENCH_BASELINE=$(CURDIR)/BENCH_sim_baseline.json \
			$(GO) test -count=1 -run "^$${rest#*:}\$$" -v ./internal/$$pkg || status=1; \
	done; exit $$status

clean:
	$(GO) clean ./...
