//! Topology-scaling benchmark: writes `BENCH_scale.json`.
//!
//! ```text
//! cargo run --release -p epnet-bench --bin scalebench [-- --reduced]
//! ```
//!
//! Sweeps the fabrics in `epnet_bench::scalebench::sweep` under the
//! canonical traffic recipe and records throughput plus steady-state
//! allocator behaviour. The process runs under a counting global
//! allocator (a `std::alloc::System` wrapper — no external crates):
//! every allocation and reallocation bumps an atomic counter and the
//! live-byte high-water mark, and the sweep meters the window from
//! half-horizon to end of each run. A warmed-up engine serves packets,
//! messages, credit buffers, and queue storage from free-lists, so
//! `allocs_per_event` in that window is expected to be ~0 (the smoke
//! suite enforces `< 0.01` at every point).
//!
//! `--reduced` trims the sweep for smoke runs; `--stdout` prints the
//! document instead of writing `BENCH_scale.json`.

use epnet_bench::scalebench::{self, AllocMeter, AllocWindow};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocation calls since process start (alloc + realloc).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes right now.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `LIVE` since the last `Meter::begin`.
static PEAK: AtomicU64 = AtomicU64::new(0);
/// `ALLOCS` snapshot taken at `Meter::begin`.
static WINDOW_BASE: AtomicU64 = AtomicU64::new(0);

/// `System`, with every call counted. Relaxed ordering is fine: the
/// sweep is single-threaded and the counters are monotone bookkeeping,
/// not synchronization.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        let live = LIVE.fetch_add(layout.size() as u64, Relaxed) + layout.size() as u64;
        PEAK.fetch_max(live, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        let old = layout.size() as u64;
        let new = new_size as u64;
        if new >= old {
            let live = LIVE.fetch_add(new - old, Relaxed) + (new - old);
            PEAK.fetch_max(live, Relaxed);
        } else {
            LIVE.fetch_sub(old - new, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The sweep's view of the counters above.
struct Meter;

impl AllocMeter for Meter {
    fn begin(&self) {
        WINDOW_BASE.store(ALLOCS.load(Relaxed), Relaxed);
        PEAK.store(LIVE.load(Relaxed), Relaxed);
    }

    fn end(&self) -> AllocWindow {
        AllocWindow {
            allocs: ALLOCS.load(Relaxed) - WINDOW_BASE.load(Relaxed),
            peak_bytes: PEAK.load(Relaxed),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reduced = args.iter().any(|a| a == "--reduced");
    let to_stdout = args.iter().any(|a| a == "--stdout");
    if let Some(bad) = args.iter().find(|a| *a != "--reduced" && *a != "--stdout") {
        eprintln!("unknown argument '{bad}' (expected --reduced and/or --stdout)");
        std::process::exit(2);
    }

    let points = scalebench::sweep(reduced);
    let mut runs = Vec::new();
    for point in &points {
        let run = scalebench::measure(point, &Meter);
        eprintln!(
            "{:<14} hosts={:<5} {:>10.0} events/s  allocs/event={:.6} peak={} B",
            run.name,
            run.hosts,
            run.events_per_sec(),
            run.allocs_per_event(),
            run.peak_alloc_bytes,
        );
        runs.push(run);
    }

    // The threads axis: serial baseline then every parallel width,
    // each report asserted byte-identical to serial before its timing
    // counts. The full sweep measures the paper-scale 15-ary 2-flat
    // (the fabric the parallel engine exists for) — the last *packet*
    // point, since the hybrid tail has its own axis below; the reduced
    // smoke uses the canonical point to stay seconds-long.
    let axis_point = if reduced {
        &points[0]
    } else {
        scalebench::axis_point(&points)
    };
    let axis = scalebench::measure_threads(axis_point);
    let baseline = axis.runs[0].wall_ms;
    for r in &axis.runs {
        eprintln!(
            "{:<14} threads={:<2} {:>10.0} events/s  speedup={:.2}x (of {} hw threads)",
            axis.point,
            r.threads,
            r.events_per_sec(),
            baseline / r.wall_ms,
            axis.hw_threads,
        );
    }

    // The hybrid threads axis: the million-host hybrid point re-run
    // serially and at widths {1, 2, 4}, byte-identity asserted at each
    // width before its timing is recorded.
    let hybrid_axis = scalebench::measure_threads_over(
        scalebench::hybrid_axis_point(&points),
        &scalebench::HYBRID_THREAD_WIDTHS,
    );
    let hybrid_baseline = hybrid_axis.runs[0].wall_ms;
    for r in &hybrid_axis.runs {
        eprintln!(
            "{:<14} threads={:<2} {:>10.0} events/s  speedup={:.2}x (of {} hw threads)",
            hybrid_axis.point,
            r.threads,
            r.events_per_sec(),
            hybrid_baseline / r.wall_ms,
            hybrid_axis.hw_threads,
        );
    }

    // The models axis: every packet point re-run under both models at
    // the reduced horizon, hybrid-vs-packet agreement asserted within
    // the documented tolerance before anything is written.
    let models = scalebench::measure_models(&points);
    for r in &models.runs {
        eprintln!(
            "{:<14} models: bytes_err={:.4} power_err={:.4} wall packet={:.0}ms hybrid={:.0}ms",
            r.point,
            r.bytes_rel_err(),
            r.power_abs_err(),
            r.packet_wall_ms,
            r.hybrid_wall_ms,
        );
    }

    let doc = scalebench::render(&runs, &axis, &hybrid_axis, &models);
    scalebench::validate(&doc).expect("freshly rendered document validates");
    if to_stdout {
        print!("{doc}");
    } else {
        let path = scalebench::output_path();
        std::fs::write(&path, doc).expect("BENCH_scale.json written");
        eprintln!("wrote {}", path.display());
    }
}
