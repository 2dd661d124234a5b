GO ?= go

# Versions of the external dev tools come from tools/go.mod — edit
# the require block there, never the install lines here.
STATICCHECK_VERSION = $(shell awk '$$1 == "honnef.co/go/tools" {print $$2}' tools/go.mod)
GOVULNCHECK_VERSION = $(shell awk '$$1 == "golang.org/x/vuln" {print $$2}' tools/go.mod)

.PHONY: all build test lint fmt vet surf-lint tools staticcheck vulncheck fuzz-smoke clean

all: build test lint

build:
	$(GO) build ./...
	cd lint && $(GO) build ./...

# cmd/surf-perf is a module of its own, so the root ./... skips it;
# its smoke test proves the benchmark still builds against the
# internals and that its replica answers as Engine.FindContext does.
test:
	$(GO) test ./...
	cd lint && $(GO) test ./...
	cd cmd/surf-perf && $(GO) test ./...

# lint is the local entrypoint CI mirrors: gofmt, go vet, then the
# surf-lint analyzer suite over both modules. Requires only the go
# toolchain — no network, no installed tools.
lint: fmt vet surf-lint
	bin/surf-lint ./...
	bin/surf-lint -C lint ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...
	cd lint && $(GO) vet ./...

surf-lint:
	@mkdir -p bin
	cd lint && $(GO) build -o ../bin/surf-lint ./cmd/surf-lint

# tools installs the pinned external checkers (network required).
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

staticcheck:
	staticcheck ./...

vulncheck:
	govulncheck ./...

# fuzz-smoke mirrors the CI randomized pass over the CSV readers, the
# evaluator parity differential, the inference-kernel parity
# differential, the living-store append parity differential, the
# swarm's neighbour-scan differential and the KDE sampler's shuffle
# against rand.Perm; crashers minimize into
# testdata/fuzz corpus files, which are checked in.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzReadCSVDataset' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz 'FuzzReadWorkloadCSV' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz 'FuzzEvaluatorParity' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz 'FuzzKernelParity' -fuzztime 10s ./internal/gbt/kernel
	$(GO) test -run '^$$' -fuzz 'FuzzAppendParity' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz 'FuzzNeighborScan' -fuzztime 10s ./internal/gso
	$(GO) test -run '^$$' -fuzz 'FuzzShuffledPrefix' -fuzztime 10s ./internal/kde

clean:
	rm -rf bin
