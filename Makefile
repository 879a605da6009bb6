# Convenience targets for the dual-cube reproduction.

GO ?= go

.PHONY: all build vet test test-short race bench experiments figures fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/dcvet ./...
	$(GO) run ./cmd/dcvet -escgate
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...
	cd bench && $(GO) test ./...

test-short:
	$(GO) test -short ./...

# The race steps of CI's test and serve-smoke jobs.
race:
	$(GO) test -race -short -count=1 . ./internal/machine/... ./internal/prefix/... ./internal/fault/... ./internal/dcomm/... ./internal/sortnet/... ./internal/collective/... ./internal/topology/... ./internal/emulate/... ./internal/ntt/... ./internal/samplesort/...
	$(GO) test -race -run TestRuntimeConcurrent -count=1 .
	$(GO) test -race -count=1 -cpu 1,2 ./internal/serve/...

bench:
	$(GO) test -bench=. -benchmem ./...

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
