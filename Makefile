# Convenience targets for the dual-cube reproduction.

GO ?= go

.PHONY: all build vet test test-short race bench bench-json experiments figures fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/dcvet ./...
	$(GO) run ./cmd/dcvet -escgate
	gofmt -l .

test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race -short ./internal/machine ./internal/collective ./internal/prefix ./internal/serve

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark sweep plus the E23 serving load sweep: one
# JSON line per point (grid: name, order, ns/op, allocs/op, bytes/op, cycles;
# E23: op, order, clients, max batch, rps, p50/p99, mean batch).
bench-json:
	$(GO) run ./cmd/dcbench -json > BENCH_8.json
	$(GO) run ./cmd/dcserve -load -op prefix -n 5 -clients 64 -dur 1s -sweep 1,8,32 -json >> BENCH_8.json

# Regenerate every experiment table (the content of EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/dcbench

# Reproduce the paper's figures as text.
figures:
	$(GO) run ./cmd/dcinfo -fig 2
	$(GO) run ./cmd/dprefix
	$(GO) run ./cmd/dsort

# Short fuzzing bursts over the two fuzz targets.
fuzz:
	$(GO) test -fuzz=FuzzDPrefixD3 -fuzztime=30s ./internal/prefix
	$(GO) test -fuzz=FuzzDSortD3 -fuzztime=30s ./internal/sortnet

clean:
	$(GO) clean ./...
