# Tier-1 gate (what CI must keep green) plus the deeper checks.
#
# `make ci` runs the same stages the GitHub workflow runs as separate jobs;
# each stage is also reachable directly (`./ci.sh lint`, `./ci.sh smoke`, …).
# Regenerated artifacts go under results/generated/ (gitignored); the
# committed parent/change ledgers are results/BENCH_<pr>.json.

GO ?= go
ARTIFACTS := results/generated

.PHONY: all build test vet fmt lint race ci fuzz smoke bench bench-compare

all: ci

build:
	$(GO) build ./...

# test, lint, race, fuzz and smoke are ci.sh stages: each stage's package and
# target list exists once, there.
test:
	./ci.sh test

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l . cmd internal)"; if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

lint:
	./ci.sh lint

race:
	./ci.sh race

ci: build test lint race smoke

fuzz:
	./ci.sh fuzz

# Writes the serving replay artifact to $(ARTIFACTS)/BENCH_serving.json.
smoke:
	./ci.sh smoke

bench:
	$(GO) test -bench=. -benchmem ./...

# The one performance gate (cmd/benchgate): the repository benchmark
# (BENCHMARK.json) on PARENT and on the working tree, 10 alternating pairs
# per workload, every run and verdict written to OUT. A PR's ledger entry is
# `make bench-compare PARENT=<rev> OUT=results/BENCH_<pr>.json`; a PR that
# claims a gain adds CLAIM=<metric>@<workload>.
OUT ?= $(ARTIFACTS)/BENCH_compare.json
bench-compare:
	@test -n "$(PARENT)" || { echo "usage: make bench-compare PARENT=<rev> [OUT=results/BENCH_<pr>.json] [CLAIM=<metric>@<workload>]" >&2; exit 2; }
	@mkdir -p $(dir $(OUT))
	$(GO) run ./cmd/benchgate -parent $(PARENT) -out $(OUT) $(if $(CLAIM),-claim $(CLAIM))
