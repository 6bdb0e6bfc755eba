#!/usr/bin/env bash
# Seconds-long benchmark smoke: the scheduler hold-model microbenchmark
# (calendar queue vs binary heap at 100k pending events), one small
# sensitivity sweep at 1 and 4 worker threads, the canonical engine
# throughput scenario (rewrites BENCH_engine.json at the repo root),
# one traced run validated against the documented trace schema plus a
# line-identical width-4 parallel re-run of it, a Perfetto export and
# trace-analysis smoke over that capture (CSV headers pinned), the
# scaling sweep with its threads and hybrid-threads axes (the
# hybrid-threads axis runs the 2^20-host flat), and a rustdoc build
# with warnings denied.
#
# Runs only the benchmarks whose names contain "smoke" — the full
# grids live in `cargo bench -p epnet-bench --bench scheduler` and
# `--bench engine`. The same paths are exercised in-process by
# tests/tests/bench_smoke.rs so `cargo test` keeps them honest without
# nesting cargo invocations.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench --offline -p epnet-bench --bench scheduler -- smoke
cargo bench --offline -p epnet-bench --bench engine -- smoke

# One traced run of the canonical scenario: every JSONL line must pass
# the documented schema, with controller and reactivation events
# present. The bin then re-runs the scenario at parallel width 4 and
# exits non-zero unless the merged parallel trace is line-identical to
# the serial one (the reduced parallel-determinism check; the full
# width × mode matrix lives in tests/tests/par_modes.rs), and finishes
# by chrome-trace-exporting both captures: counts must match the
# TraceStats and the behavior-only exports must be byte-identical.
cargo run --offline --release -p epnet-bench --bin tracesmoke -- target/tracesmoke.jsonl

# Export + analysis smoke over the trace the canonical run just wrote:
# convert it to the Perfetto-loadable chrome-trace form with the
# canonical track layout (FBFLY(2,8,2): 16 hosts, 9 ports/switch), run
# every analysis command, and pin the CSV headers downstream plots key
# on. Table forms run too, so a formatter panic fails the smoke.
cargo run --offline --release -p epnet-bench --bin tracetool -- \
    export target/tracesmoke.jsonl target/tracesmoke.perfetto.json --layout 16,9
test -s target/tracesmoke.perfetto.json || { echo "perfetto export missing" >&2; exit 1; }
for cmd in residency churn reactivation credit outcomes; do
    cargo run --offline --release -p epnet-bench --bin tracetool -- \
        "$cmd" target/tracesmoke.jsonl --csv > "target/trace_${cmd}.csv"
    cargo run --offline --release -p epnet-bench --bin tracetool -- \
        "$cmd" target/tracesmoke.jsonl > /dev/null
done
python3 - <<'EOF'
import json
doc = json.load(open("target/tracesmoke.perfetto.json"))
events = doc["traceEvents"]
stats = doc["epnet"]
assert len(events) == stats["trace_events"] + stats["metadata_events"], (
    len(events), stats)
assert sum(stats["records"].values()) > 0, "export consumed no records"
print(f'perfetto export: {len(events)} events from '
      f'{sum(stats["records"].values())} records '
      f'({", ".join(f"{k}={v}" for k, v in stats["records"].items())})')
headers = {
    "residency": "rate,fraction",
    "churn": "channel,decisions,transitions,upshifts,downshifts,reversals",
    "reactivation": "count,unmatched,min_ps,p50_ps,p90_ps,p99_ps,max_ps,mean_ps",
    "credit": "channel,stalls,total_ps,max_ps,unmatched",
    "outcomes": "reason,count,share",
}
for cmd, header in headers.items():
    with open(f"target/trace_{cmd}.csv") as f:
        first = f.readline().strip()
    assert first == header, f"{cmd}: header {first!r} != {header!r}"
    print(f"trace_{cmd}.csv: header ok")
EOF

# Reduced topology-scaling sweep under the counting allocator (rewrites
# BENCH_scale.json at the repo root), plus the parallel threads axis
# on the canonical point — every width's report is asserted
# byte-identical to serial before its timing is recorded — the v4
# hybrid-model additions (bulk-flow points, the models axis asserting
# hybrid-vs-packet delivered-bytes and relative-power agreement), and
# the v5 additions: a true 2^20-host hybrid point and its own
# hybrid_threads axis running that million-host flat in parallel.
# The binary schema-validates its own output; the steady-state
# allocation bound, the hybrid memory bound, the million-host budgets,
# and all the axes are re-checked below.
cargo run --offline --release -p epnet-bench --bin scalebench -- --reduced

# Reduced offered-load sweep (rewrites BENCH_load.json at the repo
# root): both epoch modes per point, byte-identity cross-checked
# by the binary itself; the epoch-work bound is re-checked below.
cargo run --offline --release -p epnet-bench --bin loadbench -- --reduced

# Docs must build clean — the observability docs are part of the API.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet

# The engine smoke must have left a parseable BENCH_engine.json behind.
test -s BENCH_engine.json || { echo "BENCH_engine.json missing" >&2; exit 1; }
python3 - <<'EOF'
import json
doc = json.load(open("BENCH_engine.json"))
assert doc["schema"] == "epnet-bench-engine/v1", doc["schema"]
assert doc["benches"], "no benches recorded"
for b in doc["benches"]:
    print(f'{b["name"]}: {b["events_per_sec"]:.3e} events/s, '
          f'{b["delivered_bytes_per_sec"]:.3e} delivered B/s')
EOF

# Same treatment for the scaling sweep artifact: schema plus the
# steady-state allocation bound every point must satisfy. Hybrid-model
# points get a looser ratio (their event count is ~10^3 smaller — one
# event per message plus epoch ticks, no per-packet events — so flow
# bookkeeping isn't amortized the way packet free-lists are) and a
# peak-memory bound instead: million-host scale only works if per-host
# state stays a few KiB.
test -s BENCH_scale.json || { echo "BENCH_scale.json missing" >&2; exit 1; }
python3 - <<'EOF'
import json
doc = json.load(open("BENCH_scale.json"))
assert doc["schema"] == "epnet-bench-scale/v6", doc["schema"]
assert doc["benches"], "no benches recorded"
for b in doc["benches"]:
    for field in ("model", "hosts", "channels", "events_per_sec",
                  "delivered_bytes_per_sec", "allocs_per_event",
                  "peak_alloc_bytes", "measured_events", "measured_allocs"):
        assert field in b, f'{b["name"]}: missing {field}'
    limit = 0.1 if b["model"] == "hybrid" else 0.01
    assert b["allocs_per_event"] < limit, (
        f'{b["name"]}: {b["allocs_per_event"]:.4f} allocs/event '
        f'(>= {limit})')
    if b["model"] == "hybrid":
        per_host = b["peak_alloc_bytes"] / b["hosts"]
        assert per_host < 4096, (
            f'{b["name"]}: {per_host:.0f} peak bytes/host (>= 4096)')
    print(f'{b["name"]} [{b["model"]}]: {b["hosts"]} hosts, '
          f'{b["events_per_sec"]:.3e} events/s, '
          f'{b["allocs_per_event"]:.5f} allocs/event')
# The hybrid model's reason to exist: a sweep point past 10^5 hosts
# that actually completed its horizon.
big = [b for b in doc["benches"]
       if b["model"] == "hybrid" and b["hosts"] >= 100_000]
assert big, "no hybrid point at >= 1e5 hosts"
for b in big:
    assert b["sim_delivered_bytes"] > 0, f'{b["name"]}: delivered nothing'
    print(f'{b["name"]}: {b["hosts"]} hosts at '
          f'{b["peak_alloc_bytes"] / b["hosts"]:.0f} peak B/host')
# The v5 headline: a true 2^20-host hybrid point that completed the
# full horizon inside the pinned wall budget (mirrors validate()).
million = [b for b in big if b["hosts"] >= 1_048_576]
assert million, "no hybrid point at >= 2^20 hosts"
for b in million:
    assert b["wall_ms"] <= 120_000.0, (
        f'{b["name"]}: {b["wall_ms"]:.0f} ms exceeds the million-host '
        f'wall budget')
    print(f'{b["name"]}: million-host point in {b["wall_ms"]:.0f} ms')
# The models axis: every packet point re-run under both models, with
# agreement errors inside the documented tolerance.
models = doc["models"]
assert models["runs"], "models axis recorded no validation points"
for r in models["runs"]:
    for field in ("bytes_rel_err", "power_abs_err"):
        assert r[field] <= models["tolerance"], (
            f'{r["point"]}: {field} {r[field]:.4f} exceeds '
            f'{models["tolerance"]}')
    print(f'{r["point"]} models: bytes_err={r["bytes_rel_err"]:.4f} '
          f'power_err={r["power_abs_err"]:.4f}')
# The parallel threads axis: serial baseline plus every width, with
# honest speedups (no scaling claim is asserted — the container may be
# single-core, where the axis measures determinism overhead instead).
axis = doc["threads"]
runs = axis["runs"]
assert axis["hw_threads"] >= 1, "threads axis must report hw_threads"
assert runs and runs[0]["threads"] == 0, "serial baseline must come first"
assert len(runs) >= 2, "threads axis needs at least one parallel width"
for r in runs:
    assert r["wall_ms"] > 0 and r["speedup_vs_serial"] > 0, r
    print(f'{axis["point"]} threads={r["threads"]}: '
          f'{r["events_per_sec"]:.3e} events/s, '
          f'{r["speedup_vs_serial"]:.2f}x '
          f'(host has {axis["hw_threads"]} hw threads)')
# The v5 hybrid-threads axis: the million-host flat re-run in parallel,
# byte-identity asserted by the binary before timing.
haxis = doc["hybrid_threads"]
hruns = haxis["runs"]
assert hruns and hruns[0]["threads"] == 0, "hybrid serial baseline first"
assert len(hruns) >= 2, "hybrid threads axis needs a parallel width"
for r in hruns:
    assert r["wall_ms"] > 0 and r["speedup_vs_serial"] > 0, r
    print(f'{haxis["point"]} hybrid threads={r["threads"]}: '
          f'{r["wall_ms"]:.0f} ms, {r["speedup_vs_serial"]:.2f}x')
EOF

# And the load sweep artifact: schema, plus the activity-proportional
# bound — at low load the active-set epoch path must evaluate far fewer
# decisions per tick than the channel count (the sweep mode's O(links)
# work), not merely a constant factor fewer.
test -s BENCH_load.json || { echo "BENCH_load.json missing" >&2; exit 1; }
python3 - <<'EOF'
import json
doc = json.load(open("BENCH_load.json"))
assert doc["schema"] == "epnet-bench-load/v1", doc["schema"]
assert doc["benches"], "no benches recorded"
for b in doc["benches"]:
    for mode in ("sweep", "active"):
        for field in ("wall_ms", "events_per_sec", "decisions_per_tick",
                      "epoch_ticks", "controller_decisions",
                      "controller_wall_ms"):
            assert field in b[mode], f'{b["name"]}/{mode}: missing {field}'
    if b["offered_load"] <= 0.1:
        active = b["active"]["decisions_per_tick"]
        assert active < b["channels"], (
            f'{b["name"]}: {active:.1f} decisions/tick not O(active) '
            f'against {b["channels"]} channels')
        assert b["decisions_speedup"] >= 2.0, (
            f'{b["name"]}: speedup {b["decisions_speedup"]:.2f}x < 2x '
            f'at {b["offered_load"]:.0%} load')
    print(f'{b["name"]}: sweep {b["sweep"]["decisions_per_tick"]:.1f} '
          f'-> active {b["active"]["decisions_per_tick"]:.1f} dec/tick '
          f'({b["decisions_speedup"]:.1f}x)')
EOF
