//! Width-1 overhead guard for the sharded parallel engine: running
//! it at width 1 on the canonical FBFLY(2, 8, 2) bursty workload must
//! cost about what the serial engine costs. With pairwise lookahead a
//! single shard owns no cross-shard channels, so nothing bounds its
//! windows and the coordinator drains long stretches between barriers —
//! the replay pass and window scratch are the only overhead left.
//!
//! The guard is deliberately structural, not wall-clock: it bounds
//! events executed (via the byte-identical report and the window
//! diagnostics) and heap allocations (via a counting allocator), both
//! of which are deterministic. Timing assertions would flake on shared
//! CI hardware.
//!
//! Lives in its own binary because the process-wide counting allocator
//! would pollute any co-resident test's numbers.

use epnet::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// `System` with counted calls, same scheme as `zero_alloc.rs`.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The canonical determinism-suite scenario (same shape and seed as
/// `par_modes.rs`) at parallel width `par` (0 is serial), returning the
/// report and the allocation count the run charged.
fn run_canonical(par: usize) -> (SimReport, u64) {
    let fabric = FlattenedButterfly::new(2, 8, 2)
        .expect("valid shape")
        .build_fabric();
    let config = SimConfig::builder().build();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .offered_load(0.08)
        .seed(11)
        .horizon(horizon)
        .build();
    let options = RunOptions {
        par: Some(par),
        ..RunOptions::default()
    };
    let mut sim = Simulator::with_options(fabric.clone(), config, src, options);
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let before = ALLOCS.load(Relaxed);
    let report = sim.run_until(horizon);
    let allocs = ALLOCS.load(Relaxed) - before;
    (report, allocs)
}

/// One shard must stay within a small constant factor of the serial
/// engine — same events, same bytes, and no more than a generous
/// allocation multiple (setup buys shard queues, the replica arena,
/// and window scratch; steady state recycles all of it).
#[test]
fn width_one_overhead_is_bounded() {
    let (serial_report, serial_allocs) = run_canonical(0);
    let (par_report, par_allocs) = run_canonical(1);

    // The contract first: identical serialized reports (this also pins
    // events_processed — the parallel engine executes the same events).
    let serial_json = serde_json::to_string_pretty(&serial_report).expect("serializes");
    let par_json = serde_json::to_string_pretty(&par_report).expect("serializes");
    assert_eq!(serial_json, par_json, "width 1 diverged from serial");

    // Window diagnostics must be internally consistent: every window
    // event is replayed at the barrier, and a cross-window event's two
    // halves (route + credit) at most double the replay count. At
    // width 1 there are no cross-shard channels at all.
    let d = |k: &str| *par_report.diagnostics.get(k).unwrap_or(&0);
    assert!(d("par_windows") > 0, "width 1 must still run windows");
    assert_eq!(d("par_cross_batches"), 0, "one shard cannot cross-talk");
    assert!(
        d("par_window_events") <= par_report.events_processed,
        "windows executed more events ({}) than the run processed ({})",
        d("par_window_events"),
        par_report.events_processed
    );
    assert!(
        d("par_replay_events") <= 2 * par_report.events_processed,
        "replay walked more records ({}) than two halves per event allow ({} events)",
        d("par_replay_events"),
        par_report.events_processed
    );

    // Allocation overhead: generous 3x factor plus a flat setup
    // allowance for the shard, its queues, and the replica arena.
    let bound = 3 * serial_allocs + 50_000;
    assert!(
        par_allocs <= bound,
        "width 1 allocated {par_allocs} times vs {serial_allocs} serial \
         (bound {bound})"
    );
}
