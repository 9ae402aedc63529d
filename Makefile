# Tier-1 verification: vet, build everything, run the project linter,
# check formatting, then run all tests with the race detector (trace
# emission from StatSAT's key-scoring workers must stay race-free — see
# docs/OBSERVABILITY.md). statlint sits between vet and race so the
# repo's determinism / buffer-aliasing / trace-gating invariants are
# machine-checked on every verify — see docs/LINTING.md.
.PHONY: verify build test vet race bench statlint suppressions doclinks fmt fmtcheck

verify: vet build statlint suppressions doclinks fmtcheck race

vet:
	go vet ./...

build:
	go build ./...

# statlint: the stdlib-only project linter (globalrand, walltime,
# bufretain, tracegate, floateq, ctxflow, lockscope, seedflow).
# Nonzero exit on any finding. Goroutine exits are checked at run
# time instead, by internal/leakcheck inside the race target's tests.
statlint:
	go run ./cmd/statlint ./...

# suppressions: print the //lint:ignore inventory (reviewed, not
# forgotten) and fail on malformed directives or ones naming a check
# that no longer exists — the staleness gate for check renames.
suppressions:
	go run ./cmd/statlint -suppressions

# doclinks: fail verify when any documentation cross-link is dead — a
# markdown link or prose docs/*.md mention in README/DESIGN/ROADMAP,
# docs/*.md or a Go doc comment pointing at a missing file or heading.
doclinks:
	go run ./cmd/statlint -docs

# fmt rewrites; fmtcheck only reports (and fails verify on drift).
fmt:
	gofmt -l -w .

fmtcheck:
	@drift=$$(gofmt -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi

test:
	go test ./...

race:
	go test -race ./...

# Smoke-profile benchmarks: one pass over every table/figure generator
# (see bench_test.go). benchdiff compares against the newest recorded
# baseline (the version-sorted last of BENCH_*.json, so landing a new
# BENCH_prN.json automatically makes it the reference) and warns
# (without failing) when allocs/op regress >20% — allocation counts
# are deterministic, so that is signal, not noise. Pass -fail to
# benchdiff for a hard gate.
BENCH_BASELINE = $(shell ls BENCH_*.json | sort -V | tail -1)

bench:
	go test -run='^$$' -bench=. -benchtime=1x -benchmem . | tee bench.out
	go run ./cmd/benchdiff -baseline $(BENCH_BASELINE) bench.out
