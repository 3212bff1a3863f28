#!/usr/bin/env sh
# Local CI gate: formatting, lints-as-errors, docs-as-errors, full test
# suite, example smoke-runs, and a fresh report_output.txt.
# Run from the repository root before pushing.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> reach: no public item in crates/*/src is named only at its definition"
# A name-level census. The corpus is crates/*/src, examples/ and
# benchmark/src, each file up to its first #[cfg(test)] (or its
# file-level #![cfg(test)]) and without //
# comments or `pub use` re-exports, plus tests/ and benchmark/tests
# whole. A `pub fn|struct|enum|trait|type|const|static` outside the
# proptest and criterion shims whose name occurs once in the corpus is
# reached by nothing but its own unit tests. This guards against
# regrowth; it does not prove reachability: a shared name such as `new`
# always passes.
# Allowlist: name, then why it stays although only tests reach it.
reach_allow='
crc32_reference    bitwise oracle the table CRC-32 is property-tested against
crc10_reference    bitwise oracle the table CRC-10 is property-tested against
conforms           the GCRA policer shaped_stream_conforms_at_policer checks against
as_bytes_mut       delineation tests damage cells through it
cells_of           the pool reference-model property reads chain lengths through it
in_progress        aal5 tests check expiry and OAM cells leave no reassembly state
generation         the vctable_churn property checks ABA safety through it
card               the line-card sync test reads a port through it
overloaded         R-R1 shape test picks the overloaded rows with it
rx_config          NicConfig -> rxsim config, for the Nic/rxsim differential oracle
send_oam_loopback  the OAM loopback responder DESIGN.md and README document
queue_len          the switch property test checks per-port cell conservation through it
'
REACH_ALLOW=$reach_allow awk '
BEGIN { n = split(ENVIRON["REACH_ALLOW"], a, "\n")
        for (i = 1; i <= n; i++) if (split(a[i], w, " ")) allow[w[1]] = 1 }
FNR == 1 { cut = 0; inuse = 0; whole = FILENAME ~ /^(benchmark\/)?tests\// }
!whole && /^#!?\[cfg\(test\)\]/ { cut = 1 }
cut { next }
{ sub(/\/\/.*/, "") }
/^[ \t]*pub use / { inuse = 1 }
inuse { if (/;/) inuse = 0; next }
FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /-shim\// &&
match($0, /^[ \t]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*/) {
    d = substr($0, RSTART, RLENGTH); sub(/.* /, "", d); nd++; def[nd] = d; at[nd] = FILENAME }
{ m = split($0, t, /[^A-Za-z0-9_]+/); for (i = 1; i <= m; i++) seen[t[i]]++ }
END { for (i = 1; i <= nd; i++) if (seen[def[i]] == 1) {
          lone[def[i]] = 1
          if (!(def[i] in allow)) { print "reach: " at[i] ": `" def[i] "` is named only at its definition"; bad = 1 } }
      for (x in allow) if (!(x in lone)) { print "reach: allowlisted `" x "` is no longer lone; drop it from ci.sh"; bad = 1 }
      exit bad }
' $(find crates/*/src examples benchmark/src -name '*.rs' | sort) \
  $(find tests benchmark/tests -name '*.rs' | sort) >&2

echo "==> forks: one probed entry point per component"
# A component takes its probes through its one entry point; a second
# `pub fn` named *_traced, *_instrumented or *_profiled beside it is a
# fork. The scan covers crates/*/src, each file up to its first
# #[cfg(test)] or #![cfg(test)].
# Allowlist: name, then why it stays.
fork_allow='
run_e2e_instrumented  perfbench sim.rs imports it; ROADMAP 4(b) deletes it
run_e2e_profiled      perfbench sim.rs imports it; ROADMAP 4(b) deletes it
'
FORK_ALLOW=$fork_allow awk '
BEGIN { n = split(ENVIRON["FORK_ALLOW"], a, "\n")
        for (i = 1; i <= n; i++) if (split(a[i], w, " ")) allow[w[1]] = 1 }
FNR == 1 { cut = 0 }
/^#!?\[cfg\(test\)\]/ { cut = 1 }
cut { next }
match($0, /^[ \t]*pub ((const|unsafe|async) )*fn [A-Za-z_][A-Za-z0-9_]*_(traced|instrumented|profiled)[^A-Za-z0-9_]/) {
    d = substr($0, RSTART, RLENGTH - 1); sub(/.* /, "", d); found[d] = 1
    if (!(d in allow)) { print "forks: " FILENAME ": `" d "` is a probed fork; fold it into its plain entry point"; bad = 1 } }
END { for (x in allow) if (!(x in found)) { print "forks: allowlisted `" x "` no longer exists; drop it from ci.sh"; bad = 1 }
      exit bad }
' $(find crates/*/src -name '*.rs' | sort) >&2

echo "==> census: non-test lines and pub definitions (printed, not gated)"
# The lean-code aim is measured in lines and public items. Each file
# counts up to its first #[cfg(test)] or #![cfg(test)] (a test-only
# module file counts only its docs): all lines under crates/*/src,
# crates/*/benches and examples/, and the
# `pub fn|struct|enum|trait|type|const|static|mod` lines under
# crates/*/src.
awk '
FNR == 1 { cut = 0; src = FILENAME ~ /^crates\/[^\/]+\/src\// }
/^#!?\[cfg\(test\)\]/ { cut = 1 }
cut { next }
{ lines++ }
src && /^[ \t]*pub (fn|struct|enum|trait|type|const|static|mod) / { defs++ }
END { printf "census: %d non-test lines, %d pub definitions\n", lines, defs }
' $(find crates/*/src examples -name '*.rs' | sort) \
  $(find crates -path 'crates/*/benches/*.rs' | sort)

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

echo "==> smoke: every example, report bottleneck r-f1, report r-r1"
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    cargo run -q -p hni-bench --example "$name" --release > /dev/null || {
        echo "example $name failed" >&2; exit 1; }
done
cargo run -q -p hni-bench --bin report --release -- bottleneck r-f1 > /dev/null
cargo run -q -p hni-bench --bin report --release -- r-r1 > /dev/null

echo "==> perf gate: perfbench nic-bulk is correct and delineates inside OC-12's cell time; nic-bulk and nic-small carry OC-12's cell rate"
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
# Untraced runs of the same workload and of nic-small (1-12 cell SDUs,
# where per-packet work weighs most) must each carry at least OC-12's
# cell slot rate, LineRate::Oc12.cell_slots_per_second(): 599.04 Mb/s
# of payload over 424 bits per cell is 1,412,830 cells/s.
for workload in nic-bulk nic-small; do
    cargo run -q --release --offline --locked --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 3 --json perfbench_rate.json > /dev/null || {
        echo "perfbench $workload (untraced): run failed or its result is not correct" >&2; exit 1; }
    grep -q '"correct": true' perfbench_rate.json || {
        echo "perfbench $workload (untraced): result is not correct" >&2; exit 1; }
    cells_per_s=$(sed -n 's/.*"cells_per_s": {"value": \([^,]*\),.*/\1/p' perfbench_rate.json)
    rm -f perfbench_rate.json
    [ -n "$cells_per_s" ] || { echo "perf gate: no cells_per_s for $workload" >&2; exit 1; }
    awk -v r="$cells_per_s" 'BEGIN { exit !(r + 0 >= 1412830) }' || {
        echo "perf gate: $workload cells_per_s $cells_per_s < OC-12 cell slot rate 1412830" >&2
        exit 1; }
done

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
# The exemplars are selected from the traced lives by a total order:
# the report must be byte-identical across worker counts.
HNI_JOBS=1 cargo run -q -p hni-bench --bin report --release -- \
    exemplars r-f3 > exemplars_j1.txt
HNI_JOBS=4 cargo run -q -p hni-bench --bin report --release -- \
    exemplars r-f3 > exemplars_j4.txt
cmp exemplars_j1.txt exemplars_j4.txt || {
    echo "report exemplars r-f3 diverged across worker counts" >&2; exit 1; }
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
