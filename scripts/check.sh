#!/usr/bin/env bash
# Full local gate: everything CI would run, in dependency order.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One fan-out: every parallel loop in the crates goes through
# crates/core/src/par.rs, so core counting and the scoped-thread crate
# may appear nowhere else.
echo "==> one fan-out (par.rs only)"
if grep -rnE 'available_parallelism|crossbeam' crates/ | grep -v '^crates/core/src/par\.rs:'; then
    echo "hand-rolled fan-out above: use crates/core/src/par.rs" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

# The end-to-end benchmark has its own empty [workspace], so neither the
# build above nor the workspace tests compile it: build it here so an
# API change that breaks it fails this gate, not the next benchmark run.
echo "==> cargo build --release --offline --manifest-path e2ebench/Cargo.toml"
cargo build --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets --all-features -- -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> cargo test --workspace"
cargo test --workspace --quiet

# Allocation gate: the zero-copy scan path must stay O(1) allocations
# per batch (zero for well-formed steady state). Runs in its own
# process because the counting global allocator is process-wide.
echo "==> allocation regression (zero-copy scan path)"
cargo test --quiet --test alloc_regression

# Chaos soaks across the CI fault-seed matrix: every seed drives a
# deterministic fault-injected run — distribution faults must still
# converge, ingestion faults must be quarantined without losing recall.
CHAOS_SEEDS="${CHAOS_SEEDS:-1,2,3,4,5}"
echo "==> chaos soak (seeds ${CHAOS_SEEDS})"
CHAOS_SEEDS="$CHAOS_SEEDS" cargo test --quiet --test chaos

echo "==> ingest chaos soak (seeds ${CHAOS_SEEDS})"
CHAOS_SEEDS="$CHAOS_SEEDS" cargo test --quiet --test ingest_chaos

echo "==> net chaos soak (seeds ${CHAOS_SEEDS})"
CHAOS_SEEDS="$CHAOS_SEEDS" cargo test --quiet --test net_chaos

# Crash-recovery soak: the WAL-backed state store against the full
# disk-fault taxonomy — seeded sick-disk runs plus the crash matrix
# (every mutating I/O point x before/torn/after), with recovered state
# required to be an exact prefix of the applied operation stream.
DISK_SEEDS="${DISK_SEEDS:-1,2,3,4,5}"
echo "==> disk crash-recovery soak (seeds ${DISK_SEEDS})"
DISK_SEEDS="$DISK_SEEDS" cargo test --quiet --test disk_chaos

# Semantic analyze gate: generate two consecutive signature generations
# and require the analyzer to prove the shipped set free of dead/FP
# signatures and the linter to find no Error in it (exit 1 on any
# finding fails the gate via set -e), then exercise the generation diff
# between them.
echo "==> analyze gate"
cargo build --release -p leaksig-cli
ANALYZE_DIR="$(mktemp -d)"
trap 'rm -rf "$ANALYZE_DIR"' EXIT
CLI=target/release/leaksig-cli
"$CLI" market --out "$ANALYZE_DIR/cap1.lsc" --device "$ANALYZE_DIR/dev1.txt" --seed 42 --scale 0.02
"$CLI" market --out "$ANALYZE_DIR/cap2.lsc" --device "$ANALYZE_DIR/dev2.txt" --seed 43 --scale 0.02
"$CLI" generate --capture "$ANALYZE_DIR/cap1.lsc" --device "$ANALYZE_DIR/dev1.txt" --out "$ANALYZE_DIR/gen1.txt" --n 120
"$CLI" generate --capture "$ANALYZE_DIR/cap2.lsc" --device "$ANALYZE_DIR/dev2.txt" --out "$ANALYZE_DIR/gen2.txt" --n 120
"$CLI" analyze --sigs "$ANALYZE_DIR/gen1.txt"
"$CLI" analyze --sigs "$ANALYZE_DIR/gen2.txt"
"$CLI" lint --sigs "$ANALYZE_DIR/gen1.txt"
"$CLI" lint --sigs "$ANALYZE_DIR/gen2.txt"
"$CLI" analyze --diff "$ANALYZE_DIR/gen1.txt" --new "$ANALYZE_DIR/gen2.txt"

echo "==> bench smoke"
scripts/bench.sh --smoke

echo "All checks passed."
