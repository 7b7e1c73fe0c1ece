# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fmt test race check benchmodule benchsmoke calibratesmoke chaossmoke reportsmoke servesmoke reqsmoke walsmoke fuzz bench benchdiff benchreport microbench experiments examples clean

# The default verify path is `make check`: build + vet + gofmt + tests +
# the race detector on the small-graph packages.
all: check

build:
	$(GO) build ./...
	$(GO) vet ./...

vet:
	$(GO) vet ./...

# Every Go file, bench/ included, must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# Race detection runs on the packages whose tests use small graphs; the
# full profile-scale workloads are too slow under the race detector.
race:
	$(GO) test -race ./internal/core/ ./internal/adaptive/ ./internal/sched/ ./internal/gpusim/ ./internal/graph/ ./internal/scan/ ./internal/metrics/ ./internal/trace/ ./internal/obs/ ./internal/benchfmt/ ./internal/chaos/ ./internal/serve/ ./internal/reqctx/ ./internal/wal/ ./internal/dynamic/ ./cmd/cnc/ ./cmd/benchrun/ ./cmd/cncd/ ./cmd/cncload/

# bench/ is its own Go module (replace cncount => ../), so the root
# `go test ./...` never compiles it: vet and test it here so a rename in
# the packages it drives breaks the gate instead of the next benchmark run.
benchmodule:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Tiny end-to-end benchmark matrix (~seconds): exercises the full
# generate → count → record pipeline under the work-stealing scheduler,
# including a multi-worker cell, and discards the report. Catches wiring
# breakage (schema, metrics plumbing, scheduler hangs) that unit tests on
# isolated packages miss.
benchsmoke:
	$(GO) run ./cmd/benchrun -label smoke -profiles WI -scale 0.05 -algos bmp,adaptive -workers 1,2 -reps 1 -out /dev/null

# Calibration smoke: measure a real crossover table on this host, validate
# it (every bucket populated, monotone gallop crossovers — cnc -calibrate
# refuses to print a table that fails this), then count a tiny profile with
# the measured table and verify against the sequential reference.
calibratesmoke:
	$(GO) run ./cmd/cnc -calibrate -profile WI -scale 0.05 -algo adaptive -verify > /dev/null

# Trend/attribution report over the committed benchmark history: proves
# benchreport reads every committed BENCH_*.json (schema drift in either
# direction fails here before it reaches a real analysis session).
reportsmoke:
	$(GO) run ./cmd/benchreport BENCH_*.json > /dev/null

# Seeded chaos stress under the race detector: deterministic fault
# schedules (worker panics, injected delays and stalls, loader read
# errors, short writes and fsync refusals on the WAL path) driven
# through the scheduler, watchdog, cancellation and crash-recovery
# paths. -count=1 defeats test caching so every check reruns the stress.
chaossmoke:
	$(GO) test -race -count=1 -run 'TestSeededStress|TestWatchdogAbortsStalledRun|TestPanicDrain|TestCancellationUnderChaos|TestLoaderReadFault|TestWALRecoveryUnderChaos|TestWALMidLogCorruptionTyped' ./internal/chaos/

# End-to-end smoke of the resident counting service: build cncd and
# cncload, serve a tiny profile, exercise every /v1 endpoint, verify the
# cache reports MISS then HIT, run a short load burst and validate its
# serving report, then require a clean SIGTERM drain
# (see scripts/servesmoke.sh).
servesmoke:
	sh scripts/servesmoke.sh

# End-to-end smoke of request-scoped observability: traceparent
# propagation and echo, hostile-header degradation, identified error
# bodies, the /debug/requests capture ring and inspector page, RED
# request families on /metrics, and structured access-log events
# (see scripts/reqsmoke.sh).
reqsmoke:
	sh scripts/reqsmoke.sh

# End-to-end smoke of durable streaming ingestion: serve with a WAL,
# commit acknowledged update batches, SIGKILL the daemon mid-run,
# restart on the same log, and require the replay banner plus exact
# count equality between the replayed maintained state and a fresh
# recount (see scripts/walsmoke.sh).
walsmoke:
	sh scripts/walsmoke.sh

check: build fmt test race benchmodule benchsmoke calibratesmoke chaossmoke reportsmoke servesmoke reqsmoke walsmoke

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test -fuzz FuzzKernelsAgree -fuzztime 30s ./internal/intersect/
	$(GO) test -fuzz FuzzReadEdgeList -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadMETIS -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzParseTraceparent -fuzztime 30s ./internal/reqctx/
	$(GO) test -fuzz FuzzWALRecord -fuzztime 30s ./internal/wal/

# Continuous benchmark harness: run the graph × algorithm × workers
# matrix and write a schema-versioned BENCH_local.json (~seconds, not
# minutes). Override the label with `make bench LABEL=mybranch`.
LABEL ?= local
bench:
	$(GO) run ./cmd/benchrun -label $(LABEL)

# Diff two benchmark reports; exits non-zero when any matrix cell slowed
# past the threshold: `make benchdiff BASE=BENCH_main.json HEAD=BENCH_pr.json`.
BASE ?= BENCH_main.json
HEAD ?= BENCH_local.json
benchdiff:
	$(GO) run ./cmd/benchrun -baseline $(BASE) -input $(HEAD)

# Human-facing trend + kernel-attribution report over all committed
# reports (a lens, not a gate — benchdiff stays the CI gate):
# `make benchreport` prints text; add REPORT=out.html for the HTML page.
benchreport:
	$(GO) run ./cmd/benchreport $(if $(REPORT),-html $(REPORT)) BENCH_*.json

# Go microbenchmarks (kernel and overhead-guard level).
microbench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's tables and figures (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -experiment all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clustering
	$(GO) run ./examples/recommend
	$(GO) run ./examples/triangles
	$(GO) run ./examples/processors
	$(GO) run ./examples/online

clean:
	$(GO) clean ./...
