GO ?= go

# Versions of the external dev tools come from tools/go.mod — edit
# the require block there, never the install lines here.
STATICCHECK_VERSION = $(shell awk '$$1 == "honnef.co/go/tools" {print $$2}' tools/go.mod)
GOVULNCHECK_VERSION = $(shell awk '$$1 == "golang.org/x/vuln" {print $$2}' tools/go.mod)

.PHONY: all build test lint fmt vet surf-lint tools staticcheck vulncheck fuzz-smoke golden clean

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

# cmd/surf-perf is its own module, so the root ./... skips it.
vet:
	$(GO) vet ./...
	cd lint && $(GO) vet ./...
	cd cmd/surf-perf && $(GO) vet ./...

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

# fuzz-smoke is the randomized pass CI runs over the CSV readers, the
# surrogate-artifact readers, the answer and event JSON decoders
# against their reflection-based reference, the evaluator parity
# differential, the
# inference-kernel parity differential (the compiled kernel, the
# ensemble's only predictor, vs a reference walk of its trees), the
# living-store append parity differential, the swarm's neighbour-scan
# differential and the KDE sampler's shuffle against rand.Perm;
# crashers minimize into testdata/fuzz corpus files, which are checked
# in.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzReadCSVDataset' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz 'FuzzReadWorkloadCSV' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz 'FuzzLoadSurrogate' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz 'FuzzAnswerJSON' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz 'FuzzEvaluatorParity' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz 'FuzzKernelParity' -fuzztime 10s ./internal/gbt/kernel
	$(GO) test -run '^$$' -fuzz 'FuzzAppendParity' -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz 'FuzzNeighborScan' -fuzztime 10s ./internal/gso
	$(GO) test -run '^$$' -fuzz 'FuzzShuffledPrefix' -fuzztime 10s ./internal/kde

# golden rewrites testdata/golden_answers.json from the current
# answers. The hashes are taken at GOAMD64=v1, the only level the
# golden test builds at; regenerate only when a change is meant to
# move answers, and say so in CHANGES.md.
golden:
	GOAMD64=v1 $(GO) test -run 'TestGoldenAnswers' -update .

clean:
	rm -rf bin
