# Convenience targets for the OpenMP-MCA reproduction.

GO ?= go

.PHONY: all build vet test test-benchmark tier1-soak race bench experiments \
	taskgraph mesh-smoke api api-check serve loadgen service-smoke \
	chaos chaos-smoke crash-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The full-stack benchmark harness is its own module (benchmark/,
# replaced onto the root): build, vet and test it against the root API.
test-benchmark:
	$(GO) build -C benchmark ./... && $(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# Tier-1 determinism: the scheduler-sensitive packages (the runtime, its
# validation suite, and the MRAPI mutex fast path under it), the region
# tests that run the runtime's join inside fabric domains (on a region
# fabric, on a job service's own fabric, and in ompmca-taskgraph's run),
# and the job event-log tests (a job's task_sent once raced its submit),
# 20 times each, on one and two procs. CI runs this on every push.
SOAK_REGIONS = -run 'TestParallelFor|TestConcurrentRegions|TestDomainLossMidRegion|TestRunSmoke' \
	./internal/offload ./internal/jobservice ./cmd/ompmca-taskgraph
SOAK_EVENTS = -run 'TestJobEvents' ./internal/jobservice
tier1-soak:
	GOMAXPROCS=1 $(GO) test -count=20 ./internal/core ./internal/validation ./internal/mrapi
	GOMAXPROCS=1 $(GO) test -count=20 $(SOAK_REGIONS)
	GOMAXPROCS=1 $(GO) test -count=20 $(SOAK_EVENTS)
	GOMAXPROCS=2 $(GO) test -count=20 ./internal/core ./internal/validation ./internal/mrapi
	GOMAXPROCS=2 $(GO) test -count=20 $(SOAK_REGIONS)
	GOMAXPROCS=2 $(GO) test -count=20 $(SOAK_EVENTS)

race:
	$(GO) test -race ./...

# -run '^$' keeps the unit tests out of the benchmark run (without it
# every package's tests execute first, drowning the timings).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/ompmca-epcc -outer 15 -absolute
	$(GO) run ./cmd/ompmca-npb -class W
	$(GO) run ./cmd/ompmca-info
	$(GO) run ./cmd/ompmca-boot -v
	$(GO) run ./cmd/ompmca-validate
	$(GO) run ./cmd/ompmca-taskgraph

# MTAPI task-fabric demo: irregular graph across domains, work stealing,
# domain-loss fault injection.
taskgraph:
	$(GO) run ./cmd/ompmca-taskgraph

# Peer-steal mesh smoke: the task graph at 3 and 8 domains, each
# asserting at least one direct peer steal and a byte-exact result after
# a domain kill, then the two fixed seed-42 mesh fault campaigns
# (kill-victim-mid-yield, dead-peer-channel). CI runs this on every push.
mesh-smoke:
	$(GO) run ./cmd/ompmca-taskgraph -n 26 -cutoff 18 -leaf-delay 1ms -domains 3 -require-peer-steals
	$(GO) run ./cmd/ompmca-taskgraph -n 26 -cutoff 18 -leaf-delay 1ms -domains 8 -require-peer-steals
	$(GO) run ./cmd/ompmca-chaos -mesh

# Public API surface gate. API.txt is the committed `go doc .` output;
# `make api` regenerates it after an intentional surface change,
# `make api-check` (run in CI) fails when the surface drifted without
# the file being updated.
api:
	$(GO) doc . > API.txt

api-check:
	$(GO) doc . > /tmp/api-now.txt
	diff -u API.txt /tmp/api-now.txt || \
		{ echo "public API surface changed: run 'make api' and commit API.txt"; exit 1; }

# Seeded fault campaigns against offload, fabric and service workloads:
# byte-exact results and zero lost jobs under domain kills, frame
# drops/delays/duplication, admission saturation and group cancellation.
# Usage: make chaos [CHAOS_SEED=42] [CHAOS_CAMPAIGNS=6] [CHAOS_DURATION=2s]
CHAOS_SEED      ?= 42
CHAOS_CAMPAIGNS ?= 6
CHAOS_DURATION  ?= 2s
chaos:
	$(GO) run ./cmd/ompmca-chaos -seed $(CHAOS_SEED) \
		-campaigns $(CHAOS_CAMPAIGNS) -duration $(CHAOS_DURATION) -v

# Short seeded campaign sweep under the race detector; CI runs this on
# every push. Nonzero exit on any lost job, inexact result or
# unclassified error.
chaos-smoke:
	$(GO) run -race ./cmd/ompmca-chaos -seed 42 -campaigns 3 -duration 1s
	$(GO) run -race ./cmd/ompmca-chaos -kill-mid-graph

# Durable-store crash smoke: SIGKILL a loaded ompmca-serve (no graceful
# shutdown) with jobs queued and mid-flight, restart it over the same
# state dir, and require zero lost jobs with byte-exact results — the
# write-ahead journal's recovery contract under genuine process death.
# CI runs this on every push.
crash-smoke:
	$(GO) build -o /tmp/ompmca-serve ./cmd/ompmca-serve
	$(GO) run ./cmd/ompmca-chaos -crash -serve-bin /tmp/ompmca-serve

# Multi-tenant job service: boot the HTTP front end / drive it.
serve:
	$(GO) run ./cmd/ompmca-serve

loadgen:
	$(GO) run ./cmd/ompmca-loadgen

# End-to-end service smoke: boot ompmca-serve, drive it with 1000
# concurrent submitters across 3 tenants with mid-run fault injection,
# require zero lost jobs. CI runs this on every push.
service-smoke:
	$(GO) build -o /tmp/ompmca-serve ./cmd/ompmca-serve
	$(GO) build -o /tmp/ompmca-loadgen ./cmd/ompmca-loadgen
	/tmp/ompmca-serve -addr 127.0.0.1:18080 & \
	SERVE_PID=$$!; \
	trap "kill $$SERVE_PID 2>/dev/null" EXIT; \
	/tmp/ompmca-loadgen -addr http://127.0.0.1:18080 -submitters 1000 -jobs 2 -fault

clean:
	$(GO) clean ./...
