#!/usr/bin/env bash
# Benchmark smoke: a rustfmt check, a clippy check, one traced
# canonical run validated against the documented trace schema, a
# Perfetto export and every trace-analysis command over that capture,
# the reduced run of every benchmark axis (its scale axis runs the
# 2^20-host flat, so this takes minutes), a rustdoc build with warnings
# denied, and the reference benchmark package's tests.
#
# Every check lives in Rust: `tracesmoke` validates its traces and
# exports, and `benchrun` validates its document with
# `epnet_bench::axis::validate` before writing it. The in-process twin,
# tests/tests/bench_smoke.rs, runs that validator on the committed
# BENCH.json, so `cargo test` keeps the record honest without nesting
# cargo invocations.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting first: it is the cheapest check and nothing else runs it.
cargo fmt --all --check

# Lints next, with warnings denied, over every target of the workspace.
cargo clippy --workspace --offline --all-targets -- -D warnings

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
# runner refuses to write a document that fails validation, and fails
# unless every hybrid scale point (up to 2^20 hosts, beyond `cargo
# test`'s reach) reproduces its report digest in the committed
# BENCH.json.
cargo run --offline --release -p epnet-bench --bin benchrun -- \
    --reduced --out target/bench_smoke.json

# Docs must build clean — the observability docs are part of the API.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

# The reference benchmark is its own Cargo package (its own workspace),
# so the workspace's `cargo test` never compiles it: build and test it
# here so a library API change cannot silently break the measuring tool.
cargo test --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
