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

echo "==> perf gate: perfbench nic-bulk is correct and delineates inside OC-12's cell time"
# A short traced run of the wall-clock benchmark on the real byte path
# through two Nics. Delineation (Delineator::push_slice on real SONET
# payloads) must stay inside one OC-12 cell time: 424 bits at
# 622.08 Mb/s is 681.6 ns. perfbench exits non-zero unless every output
# check passes, and a passing run reports only finite metrics.
cargo run -q --release --offline --locked --manifest-path benchmark/Cargo.toml -- \
    --workload nic-bulk --seconds 3 --trace 1 --json perfbench_smoke.json > /dev/null || {
    echo "perfbench nic-bulk: run failed or its result is not correct" >&2; exit 1; }
grep -q '"correct": true' perfbench_smoke.json || {
    echo "perfbench nic-bulk: result is not correct" >&2; exit 1; }
delineate_ns=$(sed -n 's/.*"atm\.delineate_ns": {"value": \([^,]*\),.*/\1/p' perfbench_smoke.json)
rm -f perfbench_smoke.json
[ -n "$delineate_ns" ] || { echo "perf gate: no atm.delineate_ns" >&2; exit 1; }
awk -v t="$delineate_ns" 'BEGIN { exit !(t + 0 < 681.6) }' || {
    echo "perf gate: atm.delineate_ns $delineate_ns >= OC-12 cell time 681.6 ns" >&2
    exit 1; }

echo "==> expfmt lint and always-on dump for every id report list marks"
# The ids come from the canonical-run declarations, through report list:
# every id marked prom or hist has live expositions to lint, and every
# id marked metrics a dump whose cell ledger must reconcile.
list=$(cargo run -q -p hni-bench --bin report --release -- list)
lint_ids=$(printf '%s\n' "$list" | awk '/[[ ](prom|hist)[] ]/ { print $1 }')
metrics_ids=$(printf '%s\n' "$list" | awk '/[[ ]metrics[] ]/ { print $1 }')
[ -n "$lint_ids" ] && [ -n "$metrics_ids" ] || {
    echo "report list marks no prom/hist or metrics ids" >&2; exit 1; }
for id in $lint_ids; do
    cargo run -q -p hni-bench --bin report --release -- promlint "$id" > /dev/null || {
        echo "promlint $id failed" >&2; exit 1; }
done
for id in $metrics_ids; do
    dump=$(cargo run -q -p hni-bench --bin report --release -- metrics "$id") || {
        echo "report metrics $id failed" >&2; exit 1; }
    if printf '%s\n' "$dump" | grep '^ledger\.reconciles ' | grep -qv ' true$'; then
        echo "report metrics $id: cell ledger does not reconcile" >&2; exit 1
    fi
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
