#!/bin/sh
# CI entry point, split into the stages the GitHub workflow runs as separate
# jobs. Usage:
#
#     ./ci.sh [stage]
#
# Stages:
#
#   lint   vet (root + bench module), gofmt, layering greps, staticcheck
#          (when installed)
#   test   tier-1 build + full test suite, the kernel packages again under
#          `-tags purego` and under GOAMD64=v3, and a GOARCH=arm64 cross-build
#   race   race detector over the goroutine-spawning packages + chaos re-run
#   fuzz   short fuzz smoke over all seven fuzz targets
#   smoke  server smoke: boot bpmaxd, replay the committed trace with
#          bpmaxload -check, SIGTERM, assert a clean drain
#   bench  benchmark smoke, the bench module's tests, and a short
#          cmd/benchgate campaign: the repository benchmark on the previous
#          commit and on this tree
#   all    every stage in order (default; what a minimal container runs)
#
# Regenerated artifacts (bench JSON, serving replay JSON) are written under
# results/generated/ — never the repo root — and are gitignored.
set -eu

STAGE="${1:-all}"
ARTIFACTS="results/generated"

run_lint() (
    set -x
    go vet ./...
    # The bench module is not part of the root build (`go build ./...` never
    # compiles it), so an internal signature change can break it silently.
    go vet -C bench ./...
    test -z "$(gofmt -l . cmd internal)" || { gofmt -l . cmd internal; exit 1; }
    # Structured logging stays at the process edge (cmd/): the solver, the
    # pipeline, and the observability plumbing itself must never log — they
    # report through return values, metrics, and traces. A slog import in
    # any of these packages is a layering regression.
    if grep -rn '"log/slog"' internal/bpmax internal/nussinov internal/fourrussians \
        internal/pipeline internal/metrics internal/trace internal/workload ./*.go; then
        echo "lint: log/slog imported below the cmd/ layer (log at the edge, trace in the core)" >&2
        exit 1
    fi
    # The solver calls live in pipeline.go alone: one attempt path, one
    # cold-solve body. Any other root-package source calling ibpmax.Solve*
    # is a second path growing back.
    if grep -n 'ibpmax\.Solve' $(ls ./*.go | grep -v -e '_test\.go$' -e '^\./pipeline\.go$'); then
        echo "lint: ibpmax.Solve* called outside pipeline.go (route it through the pipeline's cold body)" >&2
        exit 1
    fi
    # One cache step: every cached value — a fold's result, a strand's S or
    # Boltzmann table, an ensemble — goes through cacheDo (breaker → probe →
    # join → lead → retain), the one root function that calls the cache's Do.
    # A direct probe or insert, or a second Do caller, is a cached kind growing
    # its own protocol back — without single-flight, or without the breaker.
    roots="$(ls ./*.go | grep -v '_test\.go$')"
    if grep -n -e '\.c\.Get(' -e '\.c\.Add(' $roots; then
        echo "lint: the cache probed or filled outside the cache step (go through cacheDo)" >&2
        exit 1
    fi
    if [ "$(cat $roots | grep -c '\.c\.Do(')" != 1 ]; then
        echo "lint: pipeline.(*Cache).Do must be called from exactly one root function (cacheDo)" >&2
        exit 1
    fi
    # One table type: the banded scan fills an FTable. The name survives only
    # in internal/metrics (two PoolStats fields the frozen bench/ module sums,
    # always 0) and in bench/ itself.
    if grep -rn --include='*.go' 'WTable' . | grep -v -e '_test\.go:' -e '^\./internal/metrics/' -e '^\./bench/'; then
        echo "lint: WTable is back (a banded table is an FTable with W < N)" >&2
        exit 1
    fi
    # One fill body per table: the k2 stream loop is called from the
    # accumulate/finalize bodies in triangle.go (R0, R1 and R2 — the closure in
    # R1's shape against S² or Ŝ, the substitution with a left column bound),
    # the DMP micro-app, and the substrate's one row body in
    # internal/nussinov/fill.go (an exact max-plus row closed in one sweep from
    # a copy of its seed), nowhere else.
    if grep -rn --include='*.go' '[sS]weep(' . | grep -v -e '_test\.go:' -e '^\./bench/' \
        -e '^\./internal/maxplus/' -e '^\./internal/semiring/' \
        -e '^\./internal/bpmax/triangle\.go:' -e '^\./internal/bpmax/dmp\.go:' \
        -e '^\./internal/nussinov/fill\.go:'; then
        echo "lint: Sweep called outside triangle.go/dmp.go/nussinov's fill.go (a second copy of the fill)" >&2
        exit 1
    fi
    # The pair tables and a strand's weight view (score.Weights) are written a
    # row at a time by lookup in the row base's weight row (score.pairRow).
    # Model.Pair inside a table fill is the per-cell copy of the Model growing
    # back. Anchored on the three functions (BuildInto copies the intra
    # tables out of the views): a renamed one fails the check instead of
    # emptying it.
    awk '/^func (\(w \*Weights\) build|BuildInto|pairRow)\(/ { in_fn = 1; found++ }
         in_fn && /\.Pair\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
         in_fn && /^}/ { in_fn = 0 }
         END { if (found != 3) { print "lint: anchors Weights.build/BuildInto/pairRow not all found in " FILENAME; exit 1 }
               exit bad }' internal/score/score.go >&2 || {
        echo "lint: Model.Pair called in a score table fill, or a fill not found (write rows through pairRow)" >&2
        exit 1
    }
    # An S build reads its strand's weight view, four base rows; the only n²
    # pair tables are internal/score's Tables, which the interaction fill
    # reads. IntraContext, or an n×n table of weights made anywhere the
    # substrate is built, is the single strand's pair table growing back.
    if grep -nE 'IntraContext|make\(\[\](score\.)?(Value|float32), *([A-Za-z_.]+) *\* *\3\)' \
        $(ls *.go internal/bpmax/*.go internal/score/*.go internal/nussinov/*.go | grep -v '_test\.go$'); then
        echo "lint: an n×n single-strand pair table is back (S builds read score.Weights)" >&2
        exit 1
    fi
    # Finalize's R2 goes through Sweep in both of its forms: the closure, one
    # sweep a row from a copy of the row against an R2 table — S² itself for
    # exact max-plus, strand 2's star table Ŝ for partition — and the forward
    # substitution (fractional-weight max-plus), which pushes a row's cells to
    # the columns right of them a chunk at a time. One Accumulate call per
    # finalized cell, each waiting on the last, is the R2 chain growing back.
    if awk '/for j2 :=/ && !in_loop { in_loop = 1; depth = 0 }
            in_loop { if (/s\.acc\(/) { print FILENAME ":" FNR ": " $0; bad = 1 }
                      depth += gsub(/{/, "{") - gsub(/}/, "}"); if (depth <= 0) in_loop = 0 }
            END { exit !bad }' internal/bpmax/triangle.go; then
        echo "lint: s.acc( inside a j2 loop of triangle.go (R2 goes through s.sweep: one closure sweep a row against S² for exact max-plus or Ŝ for partition, or one substitution sweep a chunk)" >&2
        exit 1
    fi
    # The star table retired the generic scalar walk: the substitution's walk
    # is float32 max-plus alone (r2WalkMaxPlus). r2WalkK back is the partition
    # fill substituting again where one sweep against Ŝ is the closure.
    if grep -rn --include='*.go' 'r2WalkK' . | grep -v '_test\.go:'; then
        echo "lint: the retired r2WalkK is back (partition R2 is one closure sweep against the star table Ŝ)" >&2
        exit 1
    fi
    # Finalize applies the pairing terms to a whole row, in every algebra.
    # around[j2] read inside a j2 loop of finalize is the per-cell pairing
    # term growing back. A guard anchored on a function fails when the anchor
    # is gone: a renamed function must not turn it into a check of nothing.
    awk '/^func \(s \*gsolver\[T\]\) finalize\(/ { in_fn = 1; found = 1 }
         in_fn && /for j2 :=/ && !in_loop { in_loop = 1; depth = 0 }
         in_loop { if (/around\[j2\]/) { print FILENAME ":" FNR ": " $0; bad = 1 }
                   depth += gsub(/{/, "{") - gsub(/}/, "}"); if (depth <= 0) in_loop = 0 }
         in_fn && /^}/ { in_fn = 0 }
         END { if (!found) { print "lint: anchor func (s *gsolver[T]) finalize( not found in " FILENAME; exit 1 }
               exit bad }' internal/bpmax/triangle.go >&2 || {
        echo "lint: around[j2] inside a j2 loop of finalize, or finalize not found (the pairing terms are streams over the row)" >&2
        exit 1
    }
    # One single-strand fill: rows stream through the shared kernels. The
    # per-cell scan walks S[s+1, j] down a column (`idx += n`), the gather the
    # paper measures as the slow schedule; it survives as the test oracle and
    # inside the Four-Russians comparator, nowhere on the serving path.
    if grep -rn --include='*.go' 'idx += n\b' . | grep -v -e '^\./bench/' \
        -e '^\./internal/nussinov/reference_test\.go:' -e '^\./internal/fourrussians/'; then
        echo "lint: a column walk over the S table outside the reference oracle (a second per-cell fill growing back)" >&2
        exit 1
    fi
    # A single-strand table's row i starts at i·pitch, and the pitch is N only
    # below SequentialCutoff: row arithmetic by t.N reads the wrong cells of
    # every padded table.
    if grep -nE '\*[[:space:]]*t\.N\b|\bt\.N[[:space:]]*\*' $(ls internal/nussinov/*.go | grep -v '_test\.go$'); then
        echo "lint: row arithmetic by t.N in internal/nussinov (rows go through the pitch)" >&2
        exit 1
    fi
    # The pairing terms are kernel streams: finalize's i2-j2 term and the
    # substrate's seed are the bundle's AccumEach. A solver-side pairRow, or
    # its generic pairRowK, is that stream's second copy growing back.
    if grep -n 'pairRow' $(ls internal/bpmax/*.go | grep -v '_test\.go$'); then
        echo "lint: pairRow/pairRowK is back in internal/bpmax (the pairing term is Kernels.AccumEach)" >&2
        exit 1
    fi
    # One substrate stage: one single-strand table type (Table is an alias of
    # GTable[float32]) and one build call, FillContext, which alone chooses
    # between the inline and the tiled fill. A second table struct, or the
    # cutoff or the tiled body named outside the package, is a second build
    # path — with its own cancellation and engine discipline — growing back.
    if [ "$(cat $(ls internal/nussinov/*.go | grep -v '_test\.go$') | grep -c -E '^type [A-Za-z]*Table[^=]* struct')" != 1 ]; then
        echo "lint: internal/nussinov must declare exactly one table struct (GTable; Table = GTable[float32])" >&2
        exit 1
    fi
    if grep -rn --include='*.go' -e 'SequentialCutoff' -e 'fillTiled' . |
        grep -v -e '_test\.go:' -e '^\./internal/nussinov/'; then
        echo "lint: the inline-vs-tiled choice named outside internal/nussinov (call FillContext; it chooses)" >&2
        exit 1
    fi
    # No user-selected slow path. The Four-Russians tabulation lost to the
    # streamed fill at every size: what is left of it is a comparator for the
    # repository benchmark's probes and the substrate parity fuzzer, and an
    # import from serving code is the second substrate fill growing back.
    if grep -rln --include='*.go' '"github.com/bpmax-go/bpmax/internal/fourrussians"' . |
        grep -v -e '_test\.go$' -e '^\./bench/'; then
        echo "lint: internal/fourrussians imported outside bench/ and tests (the streamed fill is the one substrate fill)" >&2
        exit 1
    fi
    # Likewise the dual-row register tile, the plain/unrolled switch and the
    # forced-substrate names: each selected a path that lost or tied wherever
    # it was measured (docs/PERFORMANCE.md, "Paths retired because they lost").
    if grep -rn --include='*.go' -e 'RegisterTile' -e 'AccumDual' -e 'AccumulateDual' -e 'WithUnrolledKernel' \
        -e 'AlgoFourRussians' -e 'SubstrateFourRussians' . | grep -v '_test\.go:'; then
        echo "lint: a retired option or kernel slot is back (a path nothing wins on is not selectable)" >&2
        exit 1
    fi
    # One memory model: ibpmax.Charge prices every table layout — the budget's
    # rungs, the public estimates — and the result cache adds the footprints
    # beside it. The per-case charge functions it replaced must not return,
    # and the arena's HeldBytesAfter is read in charge.go alone: a second
    # call site is a second charge formula growing back.
    if grep -rn --include='*.go' -e 'EstimateBytesSized' -e 'EstimatePooledBytes' -e 'ChargeBytes' \
        -e 'ChargeWindowedBytes' -e 'chargeBytes' -e 'chargeWindowedBytes' -e 'partitionSubEstimate' . |
        grep -v '_test\.go:'; then
        echo "lint: a retired charge function is back (price a layout with ibpmax.Charge)" >&2
        exit 1
    fi
    if grep -rn --include='*.go' 'HeldBytesAfter(' . |
        grep -v -e '^\./internal/bufpool/' -e '^\./internal/bpmax/charge\.go:'; then
        echo "lint: HeldBytesAfter called outside internal/bpmax/charge.go (a second charge formula)" >&2
        exit 1
    fi
    # One parallel runtime: the Engine is the only code in the solver package
    # that starts or joins goroutines. A `go func` or a WaitGroup anywhere else
    # is the fork-join runtime growing back beside it.
    if grep -n -e 'go func' -e 'sync\.WaitGroup' $(ls internal/bpmax/*.go | grep -v -e '_test\.go$' -e '/engine\.go$'); then
        echo "lint: goroutines started in internal/bpmax outside engine.go (run the loop on the Engine)" >&2
        exit 1
    fi
    # One span stream: the solver records into FoldMetrics, the trace reads it.
    # A callback tracer, an "observed" switch or a flag that arms recording is
    # the second stream (and its result-cache bypass) growing back.
    if grep -rn --include='*.go' -e 'WithTracer' -e 'BeginPhase' -e 'joinedTracer' -e 'observed()' -e 'fold-metrics' . |
        grep -v -e '_test\.go:' -e '^\./bench/'; then
        echo "lint: one span stream: the solver records into FoldMetrics, the trace reads it" >&2
        exit 1
    fi
    # One metrics schema: /metrics/prom walks the fields Snapshot declares. A
    # Snapshot or *Stats field named in prom.go, or a series named by hand (a
    # "bpmax_..." or "_..." name literal), is a second, hand-kept schema
    # growing back; the pool's derived "_hit_rate" is the one named family.
    fields="$(awk '/^type (Snapshot|[A-Za-z]*Stats) struct/ { in_t = 1; next }
                   in_t && /^}/ { in_t = 0 }
                   in_t && /^\t[A-Z]/ { print $1 }' $(ls internal/metrics/*.go | grep -v '_test\.go$') |
        sort -u | paste -sd '|')"
    [ -n "$fields" ] || { echo "lint: no Snapshot/*Stats fields found in internal/metrics" >&2; exit 1; }
    if grep -nE "\.($fields)\b" internal/metrics/prom.go | grep -vE '^[0-9]+:[[:space:]]*//' ||
        grep -noE '"(bpmax)?_[a-z0-9_]*"' internal/metrics/prom.go |
        grep -v -e ':"_"$' -e ':"_total"$' -e ':"_hit_rate"$'; then
        echo "lint: a metric rendered by name in internal/metrics/prom.go (declare the field; WriteProm walks it)" >&2
        exit 1
    fi
    # Assembly lives in one package, behind one set of Go declarations that
    # `go vet`'s asmdecl check (run above) holds it to.
    if find . -name '*.s' -not -path './internal/maxplus/*' | grep .; then
        echo "lint: assembly outside internal/maxplus" >&2
        exit 1
    fi
    # The AVX-512 bodies stay in Z0-Z15: the VZEROUPPER that ends every TEXT
    # cleans the upper halves of those sixteen only, and a dirty Z16-Z31 slows
    # every SSE instruction the Go code after the call runs.
    if grep -nE '\bZ(1[6-9]|2[0-9]|3[01])\b' internal/maxplus/*.s internal/maxplus/*.h; then
        echo "lint: Z16-Z31 in the assembly (VZEROUPPER does not clean them)" >&2
        exit 1
    fi
    # One perf-evidence system. internal/harness is the paper's figures behind
    # cmd/bpmaxbench and nothing else: the load generator, the server and the
    # gate must not grow a dependency on it again.
    if grep -rln --include='*.go' '"github.com/bpmax-go/bpmax/internal/harness"' . | grep -v '^\./cmd/bpmaxbench/'; then
        echo "lint: internal/harness imported outside cmd/bpmaxbench" >&2
        exit 1
    fi
    # Its ext-* experiments are the three that reproduce the paper's text; a
    # number worth defending is a bench/ metric, not a fourth.
    if grep -n 'ID: *"ext-' $(ls internal/harness/*.go | grep -v '_test\.go$') |
        grep -v -e 'ID: *"ext-ablations"' -e 'ID: *"ext-correlate"' -e 'ID: *"ext-mpi"'; then
        echo "lint: a new ext-* harness experiment (gate it as a BENCHMARK.json metric instead)" >&2
        exit 1
    fi
    # Committed results are parent/change ledgers written by cmd/benchgate,
    # never a cross-host baseline.
    if ls results/*.json | grep -v -E '^results/BENCH_[0-9]+\.json$'; then
        echo "lint: results/*.json holds something other than BENCH_<pr>.json" >&2
        exit 1
    fi
    # staticcheck runs only where the pinned tool is installed (the GitHub
    # workflow installs it; minimal containers skip).
    if command -v staticcheck >/dev/null 2>&1; then
        staticcheck ./...
    fi
)

run_test() (
    set -x
    go build ./...
    go test ./...
    # The builds without the vector kernels: the portable Go bodies must pass
    # the same parity suite (they are also its oracle), and the packages must
    # compile where the .s file does not apply.
    go test -tags purego ./internal/maxplus ./internal/semiring ./internal/bpmax \
        ./internal/nussinov ./internal/fourrussians
    GOARCH=arm64 go build ./...
    GOARCH=arm64 go vet ./internal/maxplus
    # GOAMD64=v3 lets the compiler fuse a float64 multiply into the add that
    # follows it. The portable sum-product loops round the product first so
    # that it may not; this run holds them to the vector bodies and to their
    # scalars bit for bit where fusing is on the table. A CPU below v3 cannot
    # start such a binary: build it regardless, run it only where it starts.
    probe="$(mktemp -d)"
    GOAMD64=v3 go test -c -o "$probe/maxplus.test" ./internal/maxplus
    if "$probe/maxplus.test" -test.run '^$' >/dev/null 2>&1; then
        GOAMD64=v3 go test ./internal/maxplus ./internal/semiring
    else
        echo "ci: GOAMD64=v3 test run skipped: this CPU cannot run a v3 binary" >&2
    fi
    rm -rf "$probe"
)

run_race() (
    set -x
    go test -race ./internal/bpmax/ ./internal/nussinov/ \
        ./internal/pipeline/ ./internal/trace/ . ./cmd/bpmax/ ./cmd/bpmaxd/
    # Chaos smoke — the seeded fault schedules, retry/breaker policies and
    # session-drain contract under the race detector (see chaos_test.go and
    # docs/ROBUSTNESS.md). The package -race run above already covers these;
    # this step re-runs them by name so a chaos failure is identified as such.
    go test -race -run 'TestChaos|TestEntryPointContract|TestRetry|TestBreaker|TestSessionShutdownDrains|TestSessionClosed' -count=1 .
)

run_fuzz() (
    set -x
    # Every fuzz target, once (the regression corpus always runs as part of
    # the test stage): the pooled/context/cached parity fuzzers — the paths
    # the pipeline's reuse layers ride on — the semiring-generic fuzzer that
    # pins every schedule, on the full table and on a band of it, bit-identical
    # to the top-down reference and the scaled partition fill to its log-domain
    # oracle, the substrate bit-identity fuzzer that holds every form of the
    # one single-strand fill (the walk and the closure, on every kernel body,
    # into a pooled table's Reset storage, tiled by FillContext) and the
    # Four-Russians comparator to the per-cell reference, and the two input
    # fuzzers (raw
    # sequences, FASTA round trip).
    go test -run '^$' -fuzz FuzzPooledParity -fuzztime 10s .
    go test -run '^$' -fuzz FuzzSemiringParity -fuzztime 10s ./internal/bpmax/
    go test -run '^$' -fuzz FuzzFoldContextParity -fuzztime 10s .
    go test -run '^$' -fuzz FuzzCachedFoldParity -fuzztime 10s .
    go test -run '^$' -fuzz FuzzSubstrateParity -fuzztime 10s ./internal/nussinov/
    go test -run '^$' -fuzz '^FuzzFold$' -fuzztime 10s .
    go test -run '^$' -fuzz FuzzFastaRoundTrip -fuzztime 10s .
)

# Server smoke: boot bpmaxd on a random port, replay the committed trace
# open-loop, then SIGTERM. bpmaxload -check fails on any 5xx, transport
# error, client/server ledger mismatch, or shed rate above 20%; its
# -slowest-trace fetch fails if /debug/requests is missing or empty, so the
# tracing spine is asserted end-to-end; bpmaxd itself exits nonzero if the
# drain drops an in-flight request, and dumps its trace ring as Chrome
# trace-event JSON on the way out. Both trace files must parse. These are
# correctness assertions; the served path's latency is the `serve` workload
# of the repository benchmark (run_bench).
run_smoke() (
    mkdir -p "$ARTIFACTS"
    SMOKE_DIR="$(mktemp -d)"
    SRV=
    # A failed replay or address wait must not leave the server holding its
    # port: kill and reap it ($SRV is cleared once the drain has waited for it).
    trap 'if [ -n "$SRV" ]; then kill "$SRV" 2>/dev/null || true; wait "$SRV" 2>/dev/null || true; fi; rm -rf "$SMOKE_DIR"' EXIT
    set -x
    go build -o "$SMOKE_DIR/bpmaxd" ./cmd/bpmaxd
    go build -o "$SMOKE_DIR/bpmaxload" ./cmd/bpmaxload
    "$SMOKE_DIR/bpmaxd" -addr 127.0.0.1:0 -addr-file "$SMOKE_DIR/addr" \
        -cache 64MB -admit 8 -admit-queue 64 -log-format json \
        -trace-out "$ARTIFACTS/trace-drain.json" 2>"$SMOKE_DIR/bpmaxd.log" &
    SRV=$!
    i=0
    while [ ! -s "$SMOKE_DIR/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 200 ]; then
            echo "bpmaxd never wrote its address" >&2
            cat "$SMOKE_DIR/bpmaxd.log" >&2
            exit 1
        fi
        sleep 0.05
    done
    "$SMOKE_DIR/bpmaxload" -addr "$(cat "$SMOKE_DIR/addr")" \
        -trace testdata/traces/ci-smoke.jsonl -check -max-shed 0.2 \
        -slowest-trace "$ARTIFACTS/trace-slowest.json" \
        -json "$ARTIFACTS/BENCH_serving.json"
    kill -TERM "$SRV"
    wait "$SRV"
    SRV=
    cat "$SMOKE_DIR/bpmaxd.log"
    # Both Chrome trace-event exports (client-fetched slowest, server drain
    # dump) must be loadable JSON with a non-empty traceEvents array.
    cat > "$SMOKE_DIR/validate_chrome.go" <<'EOF'
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	for _, path := range os.Args[1:] {
		blob, err := os.ReadFile(path)
		if err == nil {
			var f struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if e := json.Unmarshal(blob, &f); e != nil {
				err = e
			} else if len(f.TraceEvents) == 0 {
				err = fmt.Errorf("no traceEvents")
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "chrome trace %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}
EOF
    go run "$SMOKE_DIR/validate_chrome.go" \
        "$ARTIFACTS/trace-slowest.json" "$ARTIFACTS/trace-drain.json"
)

run_bench() (
    set -x
    mkdir -p "$ARTIFACTS"
    # One-iteration benchmark smoke: catches benchmarks that no longer
    # compile or crash.
    go test -run '^$' -bench . -benchtime 1x ./...
    # The repository benchmark is its own module; its tests hold bench/ and
    # BENCHMARK.json together.
    go test -C bench ./...
    # The one perf gate: the repository benchmark on the parent and on this
    # tree, three alternating pairs per workload, metrics and bounds from
    # BENCHMARK.json. The parent is HEAD while the tree has uncommitted
    # changes (a developer's run) and HEAD~1 once it is committed (CI).
    parent=HEAD~1
    if [ -n "$(git status --porcelain)" ]; then
        parent=HEAD
    fi
    go run ./cmd/benchgate -parent "$parent" -pairs 3 -out "$ARTIFACTS/BENCH_compare.json"
)

case "$STAGE" in
lint) run_lint ;;
test) run_test ;;
race) run_race ;;
fuzz) run_fuzz ;;
smoke) run_smoke ;;
bench) run_bench ;;
all)
    run_lint
    run_test
    run_race
    run_fuzz
    run_smoke
    run_bench
    ;;
*)
    echo "ci.sh: unknown stage '$STAGE' (lint|test|race|fuzz|smoke|bench|all)" >&2
    exit 2
    ;;
esac
