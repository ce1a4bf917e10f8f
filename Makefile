GO ?= go

.PHONY: build test check lint bench fuzz-smoke fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector gate over the whole suite (vet + build + go test -race).
check:
	./scripts/check.sh

# Project invariants (ring comparisons, RPC-under-mutex, metric names,
# sim determinism, dropped I/O errors) plus gofmt cleanliness. CI runs
# the same; see EXPERIMENTS.md for reading and suppressing findings.
lint:
	./scripts/lint.sh

# Real-engine benchmark harness; writes BENCH_*.json into the repo root.
# CI runs the same with BENCH_SHORT=1.
bench:
	./scripts/bench.sh

# Short bursts of the native fuzz targets; CI runs the same.
fuzz-smoke:
	$(GO) test ./internal/mapreduce -run '^$$' -fuzz FuzzDecodeKVs -fuzztime=10s
	$(GO) test ./internal/mapreduce -run '^$$' -fuzz FuzzGroupAndCombine -fuzztime=10s
	$(GO) test ./internal/kde -run '^$$' -fuzz FuzzPartitionCDF -fuzztime=10s

fmt:
	gofmt -l -w .
