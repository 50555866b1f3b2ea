# Tier-1 gate (what CI must keep green) plus the deeper checks.
#
# `make ci` runs the same stages the GitHub workflow runs as separate jobs;
# each stage is also reachable directly (`./ci.sh lint`, `./ci.sh smoke`, …).
# Regenerated artifacts go under results/generated/ (gitignored); committed
# baselines live directly under results/.

GO ?= go
ARTIFACTS := results/generated

.PHONY: all build test vet fmt lint race ci fuzz smoke bench bench-engine bench-baseline bench-gate serving-baseline

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

# Regenerate the engine/pool + observability + caching + chaos steady-state
# tables (docs/PERFORMANCE.md, docs/OBSERVABILITY.md, docs/ROBUSTNESS.md) as
# a JSON artifact. The ext-chaos failpoints-off row gates the disabled-
# failpoint fast path: compiled-in but disarmed sites must cost nothing.
bench-engine:
	@mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/bpmaxbench -exp ext-engine,ext-metrics,ext-cache,ext-chaos,ext-substrate,ext-partition -json $(ARTIFACTS)/BENCH_engine.json

# Refresh the committed benchmark baseline that ci.sh gates against.
# Run this after an intentional performance change (or on new reference
# hardware) and commit the result.
bench-baseline:
	$(GO) run ./cmd/bpmaxbench -exp ext-engine,ext-metrics,ext-cache,ext-chaos,ext-substrate,ext-partition -repeats 5 -json results/BENCH_baseline.json

# Refresh the committed serving-replay baseline the smoke stage gates
# against: run the smoke once, then keep only the gated ext-serving table
# (the stage-attribution table varies with cache warmth, so it stays out of
# the baseline) and commit the result.
serving-baseline:
	REFRESH_SERVING_BASELINE=1 ./ci.sh smoke
	$(GO) run ./cmd/servingbaseline $(ARTIFACTS)/BENCH_serving.json results/BENCH_serving_baseline.json

# The full regression gate as CI runs it: selftest, regenerate, compare.
bench-gate:
	@mkdir -p $(ARTIFACTS)
	$(GO) run ./cmd/benchgate -baseline results/BENCH_baseline.json -selftest
	$(GO) run ./cmd/bpmaxbench -exp ext-engine,ext-metrics,ext-cache,ext-chaos,ext-substrate,ext-partition -repeats 3 -json $(ARTIFACTS)/BENCH_engine.json
	$(GO) run ./cmd/benchgate -baseline results/BENCH_baseline.json -current $(ARTIFACTS)/BENCH_engine.json
