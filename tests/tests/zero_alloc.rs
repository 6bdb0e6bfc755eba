//! Zero-allocation steady state: after warmup, the engine must serve
//! (almost) every event from recycled storage — packet arena slots,
//! message records, pooled credit buffers, per-port queues, the
//! workload future-list, and the calendar queue's bucket pool.
//!
//! This lives in its own integration-test binary because it installs a
//! process-wide counting allocator; sharing a binary with unrelated
//! tests would pollute the counters (cargo runs tests in parallel
//! threads within one binary).

use epnet::sim::{SimModel, SimTime};
use epnet_bench::axis::{
    self, Point, Recipe, Topo, Variant, HYBRID_ALLOCS_PER_EVENT, PACKET_ALLOCS_PER_EVENT,
};

epnet_bench::counting_allocator!();

/// The counting allocator is process-wide, so the tests of this binary
/// take turns: a run in another thread would land in the window.
static METER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn metered(point: Point, variant: Variant) -> axis::Record {
    let _turn = METER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = axis::Axis {
        name: "scale",
        cases: vec![(point, vec![variant])],
    };
    axis::run(&run, 1, &counting::Meter).remove(0)
}

/// The canonical scenario merges 30% uniform-random with search-like
/// bursty traffic — the burst-heavy pattern that historically made
/// `pending_credits` queues and calendar buckets reallocate. After the
/// half-horizon warmup every pool is at its high-water mark, so the
/// steady-state window must average under one allocation per hundred
/// events (the same budget the benchmark's `scale` axis is held to).
#[test]
fn burst_heavy_run_allocates_nothing_per_event_after_warmup() {
    let point = Point {
        name: "fbfly_2x8x2_zero_alloc".to_string(),
        topo: Topo::Fbfly { c: 2, k: 8, n: 2 },
        recipe: Recipe::Canonical,
        horizon: SimTime::from_ms(4),
        model: SimModel::Packet,
    };
    let record = metered(point, Variant::model(SimModel::Packet));
    let alloc = record.alloc.expect("serial runs are metered");
    assert!(
        alloc.measured_events > 10_000,
        "window too small to be meaningful: {} events",
        alloc.measured_events
    );
    let ape = alloc.per_event();
    assert!(
        ape < PACKET_ALLOCS_PER_EVENT,
        "steady state allocates: {} allocs over {} events ({ape:.4}/event)",
        alloc.measured_allocs,
        alloc.measured_events
    );
}

/// The hybrid model's epoch ticks reuse retained storage too: the
/// controller's decision plan, the paired-link bitmap and the list of
/// flows released in a fluid-advance pass are sized once and kept
/// across ticks, never reallocated per tick. Bulk flows on the 960-host
/// grouped 3-flat (the smallest hybrid `scale` point) are held to the
/// hybrid per-event budget over the second half of the horizon.
#[test]
fn hybrid_bulk_flows_allocate_nothing_per_tick_after_warmup() {
    let point = Point {
        name: "hybrid_fbfly_15x8x3_zero_alloc".to_string(),
        topo: Topo::FbflyGrouped { c: 15, k: 8, n: 3 },
        recipe: Recipe::BulkFlows,
        horizon: SimTime::from_ms(4),
        model: SimModel::Hybrid,
    };
    let record = metered(point, Variant::model(SimModel::Hybrid));
    let alloc = record.alloc.expect("serial runs are metered");
    assert!(record.delivered_bytes > 0, "no bulk bytes delivered");
    assert!(
        alloc.measured_events > 200,
        "window too small to be meaningful: {} events",
        alloc.measured_events
    );
    let ape = alloc.per_event();
    assert!(
        ape < HYBRID_ALLOCS_PER_EVENT,
        "hybrid steady state allocates: {} allocs over {} events ({ape:.4}/event)",
        alloc.measured_allocs,
        alloc.measured_events
    );
}
