# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fmt test race check benchmodule cross benchonce fuzz microbench experiments examples clean

# The default verify path is `make check`: build + vet + gofmt + tests +
# the race detector on the small-graph packages + the bench/ module +
# the cross-architecture build of the kernels' Go fallbacks + one run of
# the kernel and guard benchmarks. Every end-to-end flow (serving,
# request tracing, WAL crash recovery, chaos) is a Go test, so
# `go test ./...` alone runs them all.
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
	$(GO) test -race ./internal/core/ ./internal/sched/ ./internal/gpusim/ ./internal/graph/ ./internal/scan/ ./internal/metrics/ ./internal/trace/ ./internal/obs/ ./internal/chaos/ ./internal/serve/ ./internal/reqctx/ ./internal/wal/ ./internal/dynamic/ ./cmd/cnc/ ./cmd/cncd/

# bench/ is its own Go module (replace cncount => ../), so the root
# `go test ./...` never compiles it: vet and test it here so a rename in
# the packages it drives breaks the gate instead of the next benchmark run.
benchmodule:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Other architectures build the Go fallback of every assembly kernel:
# arm64 vets it, tests included; 386 also checks 32-bit int overflow.
# 386 is build-only because the internal/graph tests use 2^32 constants.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# `go test` compiles benchmarks but never runs them: run the kernel and
# core ones once (BenchmarkKernels*, the BenchmarkCount*Guard overhead
# guards), so one that fails or panics breaks the gate.
benchonce:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/intersect/ ./internal/core/

check: build fmt test race benchmodule cross benchonce

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test -fuzz FuzzKernelsAgree -fuzztime 30s ./internal/intersect/
	$(GO) test -fuzz FuzzReadEdgeList -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzReadMETIS -fuzztime 30s ./internal/graph/
	$(GO) test -fuzz FuzzParseTraceparent -fuzztime 30s ./internal/reqctx/
	$(GO) test -fuzz FuzzWALRecord -fuzztime 30s ./internal/wal/

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
