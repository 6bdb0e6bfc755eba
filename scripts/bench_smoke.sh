#!/usr/bin/env bash
# Benchmark smoke: one traced canonical run validated against the
# documented trace schema, a Perfetto export and every trace-analysis
# command over that capture, the reduced run of every benchmark axis
# (its scale axis runs the 2^20-host flat, so this takes minutes), and
# a rustdoc build with warnings denied.
#
# Every check lives in Rust: `tracesmoke` validates its traces and
# exports, `benchrun` validates its document before writing it, and
# `benchcheck` re-validates that document and the committed
# BENCH.json with the same `epnet_bench::axis::validate`. The in-process
# twin, tests/tests/bench_smoke.rs, calls that validator too, so
# `cargo test` keeps these paths honest without nesting cargo
# invocations.
set -euo pipefail
cd "$(dirname "$0")/.."

# One traced run of the canonical scenario: every JSONL line must pass
# the documented schema, with controller and reactivation events
# present. The bin finishes by chrome-trace-exporting the capture,
# whose per-category counts must match the TraceStats.
cargo run --offline --release -p epnet-bench --bin tracesmoke -- target/tracesmoke.jsonl

# The trace tools over that capture: the Perfetto export with the
# canonical track layout (FBFLY(2,8,2): 16 hosts, 9 ports/switch) and
# every analysis command, in CSV and table form, so a formatter panic
# fails the smoke.
tracetool() { cargo run --offline --release --quiet -p epnet-bench --bin tracetool -- "$@"; }
tracetool export target/tracesmoke.jsonl target/tracesmoke.perfetto.json --layout 16,9
for cmd in residency churn reactivation credit outcomes; do
    tracetool "$cmd" target/tracesmoke.jsonl --csv > "target/trace_${cmd}.csv"
    tracetool "$cmd" target/tracesmoke.jsonl > /dev/null
done

# Every axis, reduced, one repeat, under the counting allocator. The
# runner refuses to write a document that fails validation.
cargo run --offline --release -p epnet-bench --bin benchrun -- \
    --reduced --out target/bench_smoke.json
cargo run --offline --release -p epnet-bench --bin benchcheck -- \
    target/bench_smoke.json BENCH.json

# Docs must build clean — the observability docs are part of the API.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet
