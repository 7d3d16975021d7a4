GO ?= go

# Every test invocation carries an explicit wall-clock ceiling: a hung
# campaign (the exact failure mode the stall watchdog exists for) fails the
# suite with goroutine dumps instead of wedging make or CI forever.
TEST_TIMEOUT ?= 10m

.PHONY: build test vet lint arestlint race check bench fuzz experiments-output

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

vet:
	$(GO) vet ./...

# Race-enabled suite: includes the concurrent netsim.Send stress test and
# the parallel-vs-sequential campaign equivalence tests.
race:
	$(GO) test -race -timeout $(TEST_TIMEOUT) ./...

# Static analysis beyond vet. arestlint (the in-tree determinism-contract
# checker, DESIGN.md §10) always runs — it needs no external install.
# staticcheck/govulncheck skip gracefully when not on PATH locally; CI
# installs both (see .github/workflows/ci.yml).
lint: arestlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

# Machine-checked contracts: the five analyzers of internal/lint/rules
# (determinism, error accounting, context plumbing) over every package
# including _test.go files (stdlib-only, exits non-zero on any finding or
# unjustified suppression). Lock copies are go vet's copylocks check (the
# vet target); the zero-allocation wire path is held by the allocation
# budgets (DESIGN.md §11).
arestlint:
	$(GO) run ./cmd/arestlint -tests ./...

# CI entry point.
check: vet lint race

# Full benchmark sweep: every package, with allocation columns — the
# wire-path allocation budgets (DESIGN.md §11) are regression-gated by
# tests, but the B/op and allocs/op columns here are the numbers to watch.
bench:
	$(GO) test -run 'Benchmark' -bench . -benchmem -timeout $(TEST_TIMEOUT) ./...

# The committed transcript every number in EXPERIMENTS.md was read from.
# The campaign is fully seeded, so this is byte-reproducible; CI regenerates
# it and fails on drift (stale-artifact check).
experiments-output:
	$(GO) run ./cmd/experiments > experiments_output.txt

# Short deterministic fuzz pass over the seeds plus 30 s of mutation per
# target: the archive container reader, the v3 trace payload codec, alias
# resolution over scripted IP-ID counters, the AReST flag analysis
# against its naive reference detector, the streaming Detect fold against
# Detect over the decoded archive, the simulator's SPF against its
# map-based reference, and the Internet checksum against RFC 1071's
# byte-pair reference.
fuzz:
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/archive -run xxx -fuzz 'FuzzReadArchive$$' -fuzztime 30s
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/archive -run xxx -fuzz 'FuzzTraceRecord$$' -fuzztime 30s
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/alias -run xxx -fuzz 'FuzzResolve$$' -fuzztime 30s
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/core -run xxx -fuzz 'FuzzAnalyze$$' -fuzztime 30s
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/exp -run xxx -fuzz 'FuzzDetectStream$$' -fuzztime 30s
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/netsim -run xxx -fuzz 'FuzzSPF$$' -fuzztime 30s
	$(GO) test -timeout $(TEST_TIMEOUT) ./internal/pkt -run xxx -fuzz 'FuzzChecksum$$' -fuzztime 30s
