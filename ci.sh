#!/usr/bin/env sh
# Local CI gate: formatting, lints-as-errors, docs-as-errors, full test
# suite, example smoke-runs, and a fresh report_output.txt.
# Run from the repository root before pushing.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark/: builds against the workspace API, lockfile current, tests pass"
# The benchmark is its own workspace; nothing above compiles it, so an
# API change it depends on or a stale benchmark/Cargo.lock shows here.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> chaos invariants under pinned seeds"
HNI_CHAOS_SEEDS="20260806,1991" cargo test -q -p hni-bench --test chaos

echo "==> smoke: examples trace_waterfall / profile_bottleneck, report r-r1"
cargo run -q -p hni-bench --example trace_waterfall --release > /dev/null
cargo run -q -p hni-bench --example profile_bottleneck --release > /dev/null
cargo run -q -p hni-bench --bin report --release -- r-r1 > /dev/null

echo "==> bench smoke: report perf --fast emits a valid BENCH_PERF.json"
cargo run -q -p hni-bench --bin report --release -- perf --fast bench_perf_smoke.json > /dev/null
for key in '"schema": "hni-bench-perf/1"' '"hot_loops"' '"cells_per_sec"' \
           '"speedup"' '"cores"' '"jobs"' \
           'aal5_sar_slab' 'hec_delineation' 'rx_reassembly' 'e2e_cells' \
           'vc_lookup'; do
    grep -q "$key" bench_perf_smoke.json || {
        echo "BENCH_PERF schema: missing $key" >&2; exit 1; }
done
grep -q '"telemetry_overhead"' bench_perf_smoke.json || {
    echo "BENCH_PERF schema: missing telemetry_overhead" >&2; exit 1; }
grep -q '"reservoir_overhead"' bench_perf_smoke.json || {
    echo "BENCH_PERF schema: missing reservoir_overhead" >&2; exit 1; }
grep -q '"transport_overhead"' bench_perf_smoke.json || {
    echo "BENCH_PERF schema: missing transport_overhead" >&2; exit 1; }

echo "==> perf gate: hec_delineation sustains OC-12 line rate (1.47M cells/s)"
# The burst delineator must stay comfortably past the 622.08 Mb/s line
# cell rate (622.08e6 / 424 = 1,467,170 cells/s) even in fast mode.
hec_rate=$(tr ',' '\n' < bench_perf_smoke.json \
    | sed -n '/"name": "hec_delineation"/,/"name"/p' \
    | sed -n 's/.*"cells_per_sec": \([0-9.e+]*\).*/\1/p' | head -n 1)
[ -n "$hec_rate" ] || { echo "perf gate: no hec_delineation rate" >&2; exit 1; }
awk -v r="$hec_rate" 'BEGIN { exit !(r + 0 >= 1470000) }' || {
    echo "perf gate: hec_delineation $hec_rate cells/s < OC-12 1.47M" >&2
    exit 1; }
rm -f bench_perf_smoke.json

echo "==> expfmt lint: live expositions pass the conformance validator"
for id in r-f1 r-f2 r-f3; do
    cargo run -q -p hni-bench --bin report --release -- promlint "$id" > /dev/null || {
        echo "promlint $id failed" >&2; exit 1; }
done

echo "==> tail anatomy: blame line present, diff exits, exemplars stable across HNI_JOBS"
# The attributor must name a dominant stage on the canonical loaded run.
cargo run -q -p hni-bench --bin report --release -- tail r-f3 > tail_smoke.txt
grep -q 'p99 excess is' tail_smoke.txt || {
    echo "report tail r-f3: blame headline missing" >&2; exit 1; }
grep -q 'hni_tail_stage_share' tail_smoke.txt || {
    echo "report tail r-f3: Prometheus stage-share family missing" >&2; exit 1; }
rm -f tail_smoke.txt
# diff against itself succeeds; a stage-schema mismatch must exit 2.
cargo run -q -p hni-bench --bin report --release -- diff r-f3 r-f3 > /dev/null || {
    echo "report diff r-f3 r-f3 should succeed" >&2; exit 1; }
if cargo run -q -p hni-bench --bin report --release -- \
    diff r-f3 r-f1 > /dev/null 2>&1; then
    echo "report diff r-f3 r-f1: schema mismatch must exit non-zero" >&2; exit 1
fi
# The always-on reservoir is part of the deterministic contract: the
# exemplar report must be byte-identical across worker counts.
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- \
    exemplars r-f3 > exemplars_j1.txt
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- \
    exemplars r-f3 > exemplars_j4.txt
cmp exemplars_j1.txt exemplars_j4.txt || {
    echo "exemplar reservoir diverged across worker counts" >&2; exit 1; }
rm -f exemplars_j1.txt exemplars_j4.txt

echo "==> sentinel smoke: fresh baseline passes, doctored baseline trips"
rm -f sentinel_smoke_history.jsonl sentinel_smoke_perf.json
# Record a baseline, then re-check against it with a generous tolerance
# (fast-mode timings are noisy; the exact 20%-at-tight-tolerance logic
# is pinned by the deterministic sentinel unit tests).
cargo run -q -p hni-bench --bin report --release -- \
    perf --fast sentinel_smoke_perf.json --history sentinel_smoke_history.jsonl > /dev/null
cargo run -q -p hni-bench --bin report --release -- \
    perf --fast sentinel_smoke_perf.json --history sentinel_smoke_history.jsonl \
    --check --tolerance 3.0 > /dev/null || {
    echo "sentinel: fresh baseline should pass --check" >&2; exit 1; }
# Doctor the baseline 100x faster than reality: the check must fail 2.
sed 's/"median_ns":\([0-9]*\)\./"median_ns":0.\1/g' \
    sentinel_smoke_history.jsonl > sentinel_smoke_doctored.jsonl
if cargo run -q -p hni-bench --bin report --release -- \
    perf --fast sentinel_smoke_perf.json --history sentinel_smoke_doctored.jsonl \
    --check --tolerance 0.2 > /dev/null 2>&1; then
    echo "sentinel: doctored baseline must trip --check" >&2; exit 1
fi
rm -f sentinel_smoke_history.jsonl sentinel_smoke_doctored.jsonl sentinel_smoke_perf.json

echo "==> sampled trace identical across HNI_JOBS (1-in-1024, pinned seed)"
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- \
    trace r-f1 --sample 1024 --seed 7 > sampled_trace_j1.jsonl
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- \
    trace r-f1 --sample 1024 --seed 7 > sampled_trace_j4.jsonl
cmp sampled_trace_j1.jsonl sampled_trace_j4.jsonl || {
    echo "sampled trace diverged across worker counts" >&2; exit 1; }
rm -f sampled_trace_j1.jsonl sampled_trace_j4.jsonl

echo "==> report all: golden verdicts, identical across HNI_JOBS (1 vs 4)"
# One regeneration per worker count covers every experiment's
# determinism contract: parallelism must never leak into a published
# number. The serial output becomes report_output.txt.
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- all > report_output.txt
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- all > report_all_j4.txt
cmp report_output.txt report_all_j4.txt || {
    echo "report all diverged across worker counts" >&2; exit 1; }
rm -f report_all_j4.txt
# The closed-loop report must render its PASS verdict (EPD/PPD dominance
# sharpened at the matched congestion point, satellite 10%-loss goodput
# nonzero).
sed -n '/^R-W1 /,/^R-S1 /p' report_output.txt | grep -q 'golden verdict: PASS' || {
    echo "report r-w1: golden verdict is not PASS" >&2; exit 1; }
# The scale report must render its PASS verdict (flat-ish lookup cost,
# bounded memory per idle VC, goodput that does not collapse at 1M VCs).
sed -n '/^R-S1 /,$p' report_output.txt | grep -q 'golden verdict: PASS' || {
    echo "report r-s1: golden verdict is not PASS" >&2; exit 1; }

echo "CI OK"
