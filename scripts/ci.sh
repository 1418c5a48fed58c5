#!/usr/bin/env bash
# The whole CI, run as-is by .github/workflows/ci.yml and locally:
# formatting, lints, the tier-1 gate, the perf-trajectory gate and the
# smokes. The build is fully offline — no network needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors: broken intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q --workspace --release

echo "==> hot-path crates' tests in the debug profile (debug asserts and overflow checks on)"
# Every other test step builds --release, which compiles out the
# debug_assert! checks (heap bounds, array indices, access widths) and
# integer-overflow checks; this step runs the crates under the dispatch
# loop with both on. hpm is among them: every heap access reaches
# HpmSystem::on_event as it issues, and the PEBS countdown and the poll's
# swapped buffers run there. The vm tests pin every hook stamp, so the
# stamp arithmetic runs with overflow checks too.
cargo test -q -p hpmopt-prim -p hpmopt-bytecode -p hpmopt-memsim -p hpmopt-gc -p hpmopt-jit -p hpmopt-hpm -p hpmopt-vm

echo "==> benchmark package: build and test perfbench"
# perfbench is a package of its own that drives the system through public
# APIs, so no workspace step compiles it; building it here catches an API
# change before a benchmark run does. Its committed Cargo.lock is stale
# and the build rewrites it, but that file changes only together with the
# benchmark, so it is put back whether or not the tests pass.
cp perfbench/Cargo.lock target/perfbench-Cargo.lock.orig
perfbench_status=0
cargo test --release --offline --manifest-path perfbench/Cargo.toml || perfbench_status=$?
cp target/perfbench-Cargo.lock.orig perfbench/Cargo.lock
[ "$perfbench_status" -eq 0 ]

echo "==> smoke: hpmopt-report db (fails on nonzero telemetry perturbation)"
cargo run --release --bin hpmopt-report -- db -o target/ci-report-db.json >/dev/null

echo "==> smoke: hpmopt-report --prom (deterministic Prometheus exposition)"
cargo run --release --bin hpmopt-report -- fop --prom -o target/ci-report-fop-prom.json \
    >target/ci-prom-a.txt 2>/dev/null
cargo run --release --bin hpmopt-report -- fop --prom -o target/ci-report-fop-prom.json \
    >target/ci-prom-b.txt 2>/dev/null
cmp target/ci-prom-a.txt target/ci-prom-b.txt

echo "==> smoke: fast hpmopt-bench measurement (one workload, two seeds)"
# --no-serve skips the open-loop serve row: this smoke only proves the
# measurement path writes a parseable baseline.
cargo run --release -p hpmopt-bench --bin hpmopt-bench -- --update --no-serve \
    --workloads fop --seeds 2 --out target/ci-bench-smoke.json >/dev/null

echo "==> perf trajectory gate: hpmopt-bench --check vs committed baseline"
# Gates workload cycles, stress digests, perturbation, and the serve
# open-loop row (queue-wait tail, evictions, multi-worker speedup).
cargo run --release -p hpmopt-bench --bin hpmopt-bench -- --check

echo "==> smoke: warm-start a profile and inspect it"
rm -f target/ci-db.hpmprof
cargo run --release --bin hpmopt-report -- db --profile target/ci-db.hpmprof \
    -o target/ci-report-db-warm.json >/dev/null
cargo run --release -p hpmopt-profile -- inspect target/ci-db.hpmprof >/dev/null

echo "==> smoke: bounded stress run (differential oracles over fresh seeds)"
# Every seed now also runs arm G: the full tiered pipeline (tier-2
# region compilation, deopt, 4 KiB LRU code cache) under monitoring,
# checking digest equality and zero sample misattribution across churn.
cargo run --release -p hpmopt-stress -- run --seeds 25 --time-budget 60

echo "==> smoke: stress corpus replays as recorded"
cargo run --release -p hpmopt-stress -- replay tests/corpus/*.case

echo "==> smoke: hpmopt-serve bench (zero perturbation, warm beats cold)"
# --check fails the run unless every completed job's digest matches the
# unmonitored baseline, warm jobs beat cold to the first decision, AND
# the open-loop section shows 4 virtual workers strictly outrunning 1.
cargo run --release --bin hpmopt-serve -p hpmopt-serve -- bench --workers 1 --check \
    >target/ci-serve-w1.txt 2>/dev/null
cargo run --release --bin hpmopt-serve -p hpmopt-serve -- bench --workers 4 --check \
    >target/ci-serve-w4.txt 2>/dev/null
# The deterministic summary — closed-loop rounds AND the QPS-paced
# open-loop section — must be byte-identical at any concurrency.
cmp target/ci-serve-w1.txt target/ci-serve-w4.txt

echo "CI OK"
