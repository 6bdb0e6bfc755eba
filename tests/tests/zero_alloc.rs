//! Zero-allocation steady state: after warmup, the engine must serve
//! (almost) every event from recycled storage — packet arena slots,
//! message records, pooled queue and credit-spill chunks, the workload
//! future-list, and the calendar queue's bucket pool. The same meter
//! pins the hybrid model's peak heap per channel.
//!
//! This lives in its own integration-test binary because it installs a
//! process-wide counting allocator; sharing a binary with unrelated
//! tests would pollute the counters (cargo runs tests in parallel
//! threads within one binary).

use epnet::sim::{SimModel, SimTime};
use epnet_bench::axis::{
    self, Point, Recipe, Topo, Variant, HYBRID_ALLOCS_PER_EVENT, PACKET_ALLOCS_PER_EVENT,
};
use epnet_bench::scalebench::REDUCED_HORIZON;

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

/// Peak live heap per channel of the hybrid `scale` axis's 4,096-host
/// multi-pod Clos (131,072 channels, 32 per host), where per-channel
/// state dominates the heap. It measures about 114 B/channel in debug and
/// release builds alike (166 before the output queues, wire delays and
/// channel targets left the per-channel arrays). The count is
/// deterministic, so the bound leaves only ~5% headroom: any new
/// per-channel array of 8 bytes or more crosses it.
const CLOS_PEAK_HEAP_PER_CHANNEL: u64 = 120;

/// The hybrid model's heap is per-channel state, so its per-channel
/// peak is pinned here rather than first surfacing in the benchmark's
/// million-host point.
#[test]
fn hybrid_peak_heap_per_channel_stays_pinned() {
    let point = Point {
        name: "hybrid_clos_16p16_heap".to_string(),
        topo: Topo::ClosMultiPod { c: 16, pods: 16 },
        recipe: Recipe::BulkFlows,
        horizon: REDUCED_HORIZON,
        model: SimModel::Hybrid,
    };
    let record = metered(point, Variant::model(SimModel::Hybrid));
    let alloc = record.alloc.expect("serial runs are metered");
    assert!(record.channels >= 100_000, "{} channels", record.channels);
    assert!(record.delivered_bytes > 0, "no bulk bytes delivered");
    let per_channel = alloc.peak_bytes / record.channels;
    assert!(
        per_channel <= CLOS_PEAK_HEAP_PER_CHANNEL,
        "peak heap {} B over {} channels is {per_channel} B/channel, over the \
         {CLOS_PEAK_HEAP_PER_CHANNEL} B/channel bound",
        alloc.peak_bytes,
        record.channels
    );
}
