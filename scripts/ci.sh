#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, lint-clean under clippy.
# Run from the repository root:  ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The adaptive-executor lanes are timing-sensitive (schedulers sampling
# real thread interleavings): on low-core CI hosts the default test
# parallelism oversubscribes the machine and produces spurious timeouts.
# Run them with a thread count derived from the core count (floor of 2 so
# cross-thread paths still run), and retry a failing lane once serially —
# a genuine regression fails both runs, a scheduling flake only the first.
CORES="$(nproc 2>/dev/null || echo 1)"
TEST_THREADS=$(( CORES < 2 ? 2 : CORES ))
run_adaptive_lane() {
    if ! PCP_EXECUTOR=adaptive cargo test -q "$@" -- --test-threads="$TEST_THREADS"; then
        echo "==> adaptive lane failed at --test-threads=$TEST_THREADS; retrying serially"
        PCP_EXECUTOR=adaptive cargo test -q "$@" -- --test-threads=1
    fi
}

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --examples --release"
cargo build --examples --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q -p pcp-shard --test kv_service --test frame_assembly (TCP service e2e + frame assembly)"
cargo test -q -p pcp-shard --test kv_service --test frame_assembly

echo "==> cargo test -q -p pcp-shard --test replication (replication e2e + seeded kill/promote matrix)"
cargo test -q -p pcp-shard --test replication

echo "==> PCP_EXECUTOR=adaptive engine e2e (full engine suites under the forced adaptive default)"
run_adaptive_lane --test adaptive_scheduler --test engine_with_executors --test fault_injection
run_adaptive_lane -p pcp-shard

echo "==> cargo test -q -p pcp-lint (lint engine: rule fixtures, lexer property test, repo-clean gate)"
cargo test -q -p pcp-lint

echo "==> cargo run -p pcp-lint --release (architectural lint, L1-L8; JSON report archived)"
mkdir -p bench_results
cargo run -q -p pcp-lint --release -- --format json > bench_results/lint_findings.json
# The JSON lane already failed the build on any finding (nonzero exit);
# surface the human-readable summary and rule rationales for the log.
cargo run -q -p pcp-lint --release
cargo run -q -p pcp-lint --release -- --explain L6 L7 L8 > /dev/null

echo "==> cargo test -q --features lock_order (runtime lock-order witness)"
cargo test -q --features lock_order

echo "==> cargo bench -p pcp-bench --bench write_concurrency (group-commit smoke, quick mode)"
cargo bench -p pcp-bench --bench write_concurrency

echo "==> cargo bench -p pcp-bench --bench adaptive (adaptive-vs-fixed-shapes smoke, quick mode)"
cargo bench -p pcp-bench --bench adaptive

echo "==> cargo bench -p pcp-bench --bench scan (readahead + framed-encoding smoke, quick mode)"
cargo bench -p pcp-bench --bench scan

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> ci green"
