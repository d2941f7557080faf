#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests, docs. Run from the repo root.
# Fails fast on the first broken step, with the same settings the repo's
# tooling assumes (clippy warnings are errors, rustdoc must be clean).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> oarsmt-lint (interprocedural determinism / zero-alloc / panic-freedom invariants)"
# --deny-stale keeps lint-baseline.txt honest (a fixed finding must leave
# the baseline); the JSON report is a checked CI artifact with call-chain
# attribution for every transitive finding.
mkdir -p target
cargo run -q -p oarsmt-lint -- --deny-stale --json > target/lint-report.json \
    || { cat target/lint-report.json; exit 1; }

echo "==> feature matrix (naive-ref oracle, no-default-features, telemetry-timing)"
cargo check -q -p oarsmt-nn --features naive-ref
cargo check -q --workspace --no-default-features
cargo check -q -p oarsmt-telemetry --features telemetry-timing
cargo test -q -p oarsmt-telemetry --features telemetry-timing

echo "==> kernel lanes (default build: every lane the host has == scalar tiles bit for bit; no-default-features: scalar-only forbid(unsafe_code) build)"
# Names the host's lanes; the lane tests below run each of them.
cargo test -q -p oarsmt-nn host_lanes_are_ordered -- --nocapture | grep "kernel lanes"
cargo clippy -q -p oarsmt-nn --all-targets -- -D warnings
cargo test -q -p oarsmt-nn
cargo test -q -p oarsmt-nn --no-default-features --features naive-ref

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> e2e_bench tests (its own workspace: catches public-API breaks the root workspace cannot see)"
cargo test --release --offline --manifest-path e2e_bench/Cargo.toml

echo "==> counter determinism (bit-identical totals across thread counts, span recorder armed)"
cargo test -q --test parallel_determinism counter_totals

echo "==> allocation sanitizer (zero steady-state allocs on registered hot paths; neural inference on every kernel lane the host has)"
cargo test --release -q -p oarsmt-lint --features alloc-count --test alloc_sanitizer

echo "==> route-context property tests"
cargo test -q -p oarsmt-router --test context_properties

echo "==> queue-policy equivalence (Auto == heap oracle trees bit for bit incl. bounded; exact op counts polish-free, no more pops with A* polish; golden pins)"
cargo test -q -p oarsmt-router --test queue_equivalence

echo "==> resumable Prim frontier equivalence (persisted-frontier builds == fresh-search-per-step reference)"
cargo test -q -p oarsmt-router --test prim_frontier

echo "==> batched fit-path equivalence (B in {4,16} == per-sample B=1 passes of the same kernel, bit for bit, at nn/rl levels)"
cargo test -q -p oarsmt-nn batch
cargo test -q -p oarsmt-rl --test batch_equivalence

echo "==> oarsmt_bench dijkstra smoke (quick mode, asserts heap/Auto checksum identity, Auto pops <= heap, polish-free op-count identity)"
cargo run --release -q -p oarsmt-bench --bin oarsmt_bench -- dijkstra --quick \
    --out target/BENCH_dijkstra_smoke.json

echo "==> oarsmt_bench critic smoke (quick mode, checks fresh/reused bit-identity)"
cargo run --release -q -p oarsmt-bench --bin oarsmt_bench -- critic --quick \
    --out target/BENCH_critic_smoke.json

echo "==> oarsmt_bench unet smoke (quick mode, asserts GEMM == naive oracle and baseline checksums)"
cargo run --release -q -p oarsmt-bench --bin oarsmt_bench -- unet --quick \
    --out target/BENCH_unet_smoke.json

echo "==> oarsmt_bench batch smoke (quick mode, fit only: asserts fit_batch == fit_batch_sequential loss bits)"
cargo run --release -q -p oarsmt-bench --bin oarsmt_bench -- batch --quick \
    --out target/BENCH_batch_smoke.json

echo "==> oarsmt report smoke (renders the telemetry embedded in the quick artifacts)"
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report \
    target/BENCH_critic_smoke.json > /dev/null
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report \
    target/BENCH_critic_smoke.json target/BENCH_unet_smoke.json > /dev/null

echo "==> regression gate (report --check: quick smokes vs committed baselines under report.toml)"
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report --check \
    target/BENCH_critic_smoke.json \
    crates/bench/artifacts/BENCH_critic_quick_baseline.json --policy report.toml
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report --check \
    target/BENCH_dijkstra_smoke.json \
    crates/bench/artifacts/BENCH_dijkstra_quick_baseline.json --policy report.toml
# The gate must actually gate: a perturbed counter in a copy of the
# artifact has to fail the check with a nonzero exit.
sed '/"record":"counter","name":"dijkstra_pops"/s/"value":[0-9]*/"value":1/' \
    target/BENCH_critic_smoke.json > target/BENCH_critic_perturbed.json
if cargo run --release -q -p oarsmt-repro --bin oarsmt -- report --check \
    target/BENCH_critic_perturbed.json \
    crates/bench/artifacts/BENCH_critic_quick_baseline.json \
    --policy report.toml > /dev/null 2>&1; then
    echo "ERROR: report --check passed a perturbed counter" >&2
    exit 1
fi

echo "==> trace smoke (flight-record a route, export + verify Chrome trace_event JSON)"
cargo run --release -q -p oarsmt-repro --bin oarsmt -- \
    gen 8 8 2 4 42 target/trace_case.json > /dev/null
cargo run --release -q -p oarsmt-repro --bin oarsmt -- \
    trace target/trace_case.json --out target/trace_smoke.json > /dev/null
cargo run --release -q -p oarsmt-repro --bin oarsmt -- \
    trace --verify target/trace_smoke.json

echo "==> lane trace export (oarsmt_bench critic --trace through the rung contexts, then verify the Chrome JSON)"
cargo run --release -q -p oarsmt-bench --bin oarsmt_bench -- critic --quick \
    --out target/BENCH_critic_trace_smoke.json \
    --trace target/critic_trace.json > /dev/null
cargo run --release -q -p oarsmt-repro --bin oarsmt -- \
    trace --verify target/critic_trace.json

echo "==> runlog round-trip (bench writes runs/<id>/metrics.jsonl, report renders it)"
rm -rf target/runs/ci-smoke
cargo run --release -q -p oarsmt-bench --bin oarsmt_bench -- critic --quick \
    --out target/BENCH_critic_runlog_smoke.json \
    --runlog target/runs/ci-smoke > /dev/null
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report \
    target/runs/ci-smoke > /dev/null

echo "==> BENCH_summary.json (regenerate from committed artifacts, must match the committed file)"
cargo run --release -q -p oarsmt-repro --bin oarsmt -- report \
    --summary crates/bench/artifacts --out target/BENCH_summary.json > /dev/null
cmp target/BENCH_summary.json BENCH_summary.json

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> ci.sh: all green"
