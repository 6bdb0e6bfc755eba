//! The one benchmark harness: axes of measured points, one record
//! schema, one validator.
//!
//! An [`Axis`] is a list of [`Point`]s (fabric × traffic × horizon),
//! each with the [`Variant`]s it runs under — every variant a
//! [`RunOptions`] value. [`run`] measures an axis: for each point it
//! runs every variant `repeats` times, *interleaved* (A, B, A, B, …),
//! so slow drift of the host hits every variant alike and a regression
//! can be told apart from drift. Each (point, variant) becomes one
//! [`Record`]: the fabric, the options, the wall-clock samples with
//! their median and min/max, the simulation counters, a digest of the
//! serialized report, the mean host time per engine layer, and — under a counting
//! allocator ([`counting_allocator!`](crate::counting_allocator)) — the
//! steady-state allocation meter.
//!
//! [`validate`] is the only checker of a benchmark document. Two
//! callers run it: the `benchrun` binary before it writes, and the
//! in-process twin `tests/tests/bench_smoke.rs` on the committed
//! `BENCH.json`. It holds
//! every record to the schema (its six engine layers must add up to
//! its wall time within [`LAYER_SUM_TOLERANCE`]), the `load` axis to
//! one report digest across its variants, and the budgets below to
//! their bounds:
//!
//! | Axis | Points | Variants | Held to |
//! |---|---|---|---|
//! | `load` | uniform 512 KiB, 2.5–100% load | epoch sweep, active set | one digest; activity bound at low load |
//! | `scale` | FBFLY and Clos up to 2^20 hosts | the point's model | allocation, heap and wall budgets |
//! | `models` | small packet points | packet, hybrid model | [`HYBRID_TOLERANCE`] |

use crate::{loadbench, scalebench};
use epnet_power::LinkPowerProfile;
use epnet_sim::{
    EpochMode, Layer, MergedSource, Message, RunOptions, SimConfig, SimModel, SimReport, SimTime,
    Simulator, TrafficSource,
};
use epnet_topology::{FabricGraph, FlattenedButterfly, RoutingTopology, TwoTierClos};
use epnet_workloads::{ServiceTrace, ServiceTraceConfig, UniformRandom};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Schema tag of every document [`render`] writes.
pub const SCHEMA: &str = "epnet-bench/v4";

/// Every axis, in the order `benchrun` measures them.
pub const AXES: [&str; 3] = ["load", "scale", "models"];

/// Repeats per (point, variant) of a full run: enough for a median
/// and a range on a host that drifts ±20–40% between runs.
pub const REPEATS: usize = 3;

/// Steady-state heap allocations per event a packet-model `scale`
/// point may make after warmup. Free-lists serve packets, messages,
/// credit buffers and queue storage, so a warmed-up engine measures
/// ~0.0005.
pub const PACKET_ALLOCS_PER_EVENT: f64 = 0.01;

/// The same bound for hybrid-model points, looser because their event
/// count is ~10^3 smaller (one event per message plus epoch ticks), so
/// flow bookkeeping is not amortized the way packet free-lists are.
pub const HYBRID_ALLOCS_PER_EVENT: f64 = 0.1;

/// Peak live heap per fabric channel a hybrid `scale` point may reach,
/// in bytes. Channel state dominates the hybrid model's heap, so every
/// hybrid point measures 240–275 B/channel whatever its shape: ~1.2
/// KiB/host on the 2^20-host flat (~4.9 channels/host), ~7.7 KiB/host on
/// the 4,096-host multi-pod Clos (32 channels/host). The bound leaves
/// ~2× headroom at every size and caps the million-host point near
/// 2.5 KiB/host.
pub const HYBRID_PEAK_HEAP_PER_CHANNEL: u64 = 512;

/// Host count of the first true 10^6-host point
/// (`FlattenedButterfly::grouped(32, 32, 4)`: 2^20 hosts on 32,768
/// switches). The `scale` axis must carry a hybrid point this large.
pub const MILLION_HOSTS: u64 = 1 << 20;

/// Median wall-clock budget of that point, milliseconds. The serial
/// run completes its 2 ms horizon in ~10 s on a 2-vCPU VM; the budget
/// leaves ~10× headroom while still catching a complexity regression
/// (a packet simulation of the same point would take hours).
pub const MILLION_HOST_WALL_BUDGET_MS: f64 = 120_000.0;

/// The Solnushkin-scale threshold: the `scale` axis must carry a hybrid
/// point at least this large that delivered bytes.
pub const SOLNUSHKIN_HOSTS: u64 = 100_000;

/// Agreement tolerance between the hybrid and packet models on the
/// `models` axis: delivered-bytes relative error and relative-power
/// absolute error must both stay under it.
///
/// The residual disagreement is structural, not noise: the fluid
/// regime delivers a flow's bytes at the path fair share with no
/// queueing, serialization, or adaptive detours, while the packet
/// regime pays all three. Measured errors sit near 1% (bytes ≤ 1.2%,
/// relative power ≤ 1.6 points); the bound leaves ~3× headroom. See
/// DESIGN.md ("Hybrid flow/packet model").
pub const HYBRID_TOLERANCE: f64 = 0.05;

/// Largest relative gap between a record's summed `layers_ms` and the
/// mean of its wall samples. The layers are exclusive and cover a run
/// from prime to report, so they miss only the harness's own calls
/// between the phased API's steps.
pub const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// Offered load at or below which the `load` axis must show
/// activity-proportional epoch work.
pub const LOW_LOAD: f64 = 0.1;

/// Minimum sweep-over-active decisions-per-tick quotient at
/// [`LOW_LOAD`] or below.
pub const LOW_LOAD_DECISIONS_SPEEDUP: f64 = 2.0;

/// Message size of [`Recipe::BulkFlows`]: well past the engine's
/// 64 KiB absorption threshold, so the hybrid model carries essentially
/// all of the traffic as fluid flows.
pub const BULK_MESSAGE_BYTES: u64 = 4 * 1024 * 1024;

/// Offered load of [`Recipe::BulkFlows`], as a fraction of the 40 Gb/s
/// host line rate: low enough that the Solnushkin-scale points stay
/// uncongested, high enough that the controller sees real utilization.
pub const BULK_LOAD: f64 = 0.05;

/// A fabric shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// `FlattenedButterfly::new(c, k, n)`.
    Fbfly {
        /// Concentration (hosts per switch).
        c: u16,
        /// Radix of each dimension.
        k: u16,
        /// Flat dimension count.
        n: usize,
    },
    /// `FlattenedButterfly::grouped(c, k, n)`: the Solnushkin-style
    /// scale targets (grouped racks at 10^3–10^6 hosts).
    FbflyGrouped {
        /// Concentration (hosts per switch).
        c: u16,
        /// Radix of each dimension.
        k: u16,
        /// Flat dimension count.
        n: usize,
    },
    /// `TwoTierClos::non_blocking(c)`.
    ClosNonBlocking {
        /// Concentration (hosts per leaf).
        c: u16,
    },
    /// `TwoTierClos::multi_pod(c, pods)`.
    ClosMultiPod {
        /// Concentration (hosts per leaf).
        c: u16,
        /// Pod count (each pod is `c` leaves).
        pods: u32,
    },
}

impl Topo {
    /// Builds the fabric.
    ///
    /// # Panics
    ///
    /// Panics on a shape its constructor rejects.
    pub fn build(self) -> FabricGraph {
        let bad = "benchmark shapes are valid";
        match self {
            Topo::Fbfly { c, k, n } => FlattenedButterfly::new(c, k, n).expect(bad).build_fabric(),
            Topo::FbflyGrouped { c, k, n } => FlattenedButterfly::grouped(c, k, n)
                .expect(bad)
                .build_fabric(),
            Topo::ClosNonBlocking { c } => TwoTierClos::non_blocking(c).expect(bad).build_fabric(),
            Topo::ClosMultiPod { c, pods } => {
                TwoTierClos::multi_pod(c, pods).expect(bad).build_fabric()
            }
        }
    }

    fn label(self) -> String {
        match self {
            Topo::Fbfly { c, k, n } => format!("fbfly({c},{k},{n})"),
            Topo::FbflyGrouped { c, k, n } => format!("fbfly_grouped({c},{k},{n})"),
            Topo::ClosNonBlocking { c } => format!("clos_non_blocking({c})"),
            Topo::ClosMultiPod { c, pods } => format!("clos_multi_pod({c},{pods})"),
        }
    }
}

/// Traffic recipe of a point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Recipe {
    /// The canonical mix: 30% uniform-random merged with search-like
    /// bursts.
    Canonical,
    /// Uniform-random [`BULK_MESSAGE_BYTES`] transfers at
    /// [`BULK_LOAD`]: the steady flows the hybrid model absorbs.
    BulkFlows,
    /// Uniform-random 512 KiB messages with exponential gaps (the
    /// paper's §4.2 recipe) at `load`.
    Uniform {
        /// Offered load as a fraction of the host line rate.
        load: f64,
    },
}

impl Recipe {
    fn label(self) -> &'static str {
        match self {
            Recipe::Canonical => "uniform30+search",
            Recipe::BulkFlows => "bulk4MiB",
            Recipe::Uniform { .. } => "uniform512KiB",
        }
    }

    /// The uniform component's offered load.
    pub fn offered_load(self) -> f64 {
        match self {
            Recipe::Canonical => 0.3,
            Recipe::BulkFlows => BULK_LOAD,
            Recipe::Uniform { load } => load,
        }
    }
}

/// One measured scenario: a fabric, its traffic, and its horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Stable point name used in the document.
    pub name: String,
    /// The fabric to build.
    pub topo: Topo,
    /// Traffic recipe to run.
    pub recipe: Recipe,
    /// Simulated end time.
    pub horizon: SimTime,
    /// The model the point is meant for; axes build their variants'
    /// options from it.
    pub model: SimModel,
}

/// A point's traffic source: one variant per [`Recipe`] shape.
#[derive(Debug)]
pub enum PointSource {
    /// [`Recipe::Canonical`] (boxed: the merged generator dwarfs the
    /// uniform variant).
    Canonical(Box<MergedSource<UniformRandom, ServiceTrace>>),
    /// [`Recipe::BulkFlows`] and [`Recipe::Uniform`].
    Uniform(UniformRandom),
}

impl TrafficSource for PointSource {
    fn next_message(&mut self) -> Option<Message> {
        match self {
            PointSource::Canonical(s) => s.next_message(),
            PointSource::Uniform(s) => s.next_message(),
        }
    }
}

/// Builds a simulator for `point` under `options`: the point's fabric,
/// its recipe scaled to the host count, the default §4.1 configuration.
pub fn simulator_for(point: &Point, options: RunOptions) -> Simulator<PointSource> {
    let fabric = point.topo.build();
    let hosts = fabric.num_hosts() as u32;
    let mut uniform = UniformRandom::builder(hosts);
    uniform
        .offered_load(point.recipe.offered_load())
        .horizon(point.horizon);
    let source = match point.recipe {
        Recipe::Canonical => PointSource::Canonical(Box::new(MergedSource::new(
            uniform.build(),
            ServiceTrace::builder(hosts, ServiceTraceConfig::search_like())
                .horizon(point.horizon)
                .build(),
        ))),
        Recipe::BulkFlows => {
            PointSource::Uniform(uniform.message_bytes(BULK_MESSAGE_BYTES).build())
        }
        Recipe::Uniform { .. } => PointSource::Uniform(uniform.build()),
    };
    Simulator::with_options(fabric, SimConfig::default(), source, options)
}

/// One way of running a point.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name used in the document.
    pub name: String,
    /// The options the point runs under.
    pub options: RunOptions,
}

impl Variant {
    /// A variant named `name` running `options`.
    pub fn new(name: impl Into<String>, options: RunOptions) -> Self {
        Self {
            name: name.into(),
            options,
        }
    }

    /// The default options under `model`, named after the model.
    pub fn model(model: SimModel) -> Self {
        Self::new(
            model.name(),
            RunOptions {
                model,
                ..RunOptions::default()
            },
        )
    }
}

/// A named list of points, each with the variants it runs under.
#[derive(Debug, Clone)]
pub struct Axis {
    /// One of [`AXES`].
    pub name: &'static str,
    /// The points, in measurement order.
    pub cases: Vec<(Point, Vec<Variant>)>,
}

/// Every axis: the full sweep, or the seconds-to-minutes `reduced`
/// one.
pub fn axes(reduced: bool) -> Vec<Axis> {
    let points = scalebench::sweep(reduced);
    vec![
        loadbench::axis(reduced),
        scalebench::scale_axis(&points),
        scalebench::models_axis(&points),
    ]
}

/// Heap-allocation counts over a measurement window.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocWindow {
    /// Allocation calls (alloc + realloc) inside the window.
    pub allocs: u64,
    /// Peak bytes live at any instant inside the window.
    pub peak_bytes: u64,
}

/// Hook pair around the steady-state window of a serial run,
/// implemented by whoever owns the process's counting allocator.
pub trait AllocMeter {
    /// Opens the window (snapshot the counter, reset the peak to the
    /// current live size).
    fn begin(&self);
    /// Closes the window; `None` when the process counts nothing.
    fn end(&self) -> Option<AllocWindow>;
}

/// An [`AllocMeter`] for processes without a counting allocator.
pub struct NoopMeter;

impl AllocMeter for NoopMeter {
    fn begin(&self) {}
    fn end(&self) -> Option<AllocWindow> {
        None
    }
}

/// Installs a counting global allocator in the calling crate and
/// defines `counting::Meter`, its [`AllocMeter`] view.
///
/// Every allocation and reallocation bumps an atomic counter and the
/// live-byte high-water mark (`std::alloc::System` underneath, no
/// external crates). It is a macro because a `GlobalAlloc` impl needs
/// `unsafe`, which this library forbids in its own code, and because a
/// process may install only one global allocator.
#[macro_export]
macro_rules! counting_allocator {
    () => {
        mod counting {
            use std::alloc::{GlobalAlloc, Layout, System};
            use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

            static ALLOCS: AtomicU64 = AtomicU64::new(0);
            static LIVE: AtomicU64 = AtomicU64::new(0);
            static PEAK: AtomicU64 = AtomicU64::new(0);
            static WINDOW_BASE: AtomicU64 = AtomicU64::new(0);

            struct CountingAlloc;

            // SAFETY: every call forwards to `System` unchanged; the
            // counters are relaxed bookkeeping, not synchronization.
            unsafe impl GlobalAlloc for CountingAlloc {
                unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                    ALLOCS.fetch_add(1, Relaxed);
                    let size = layout.size() as u64;
                    PEAK.fetch_max(LIVE.fetch_add(size, Relaxed) + size, Relaxed);
                    System.alloc(layout)
                }

                unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                    LIVE.fetch_sub(layout.size() as u64, Relaxed);
                    System.dealloc(ptr, layout)
                }

                unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                    ALLOCS.fetch_add(1, Relaxed);
                    let (old, new) = (layout.size() as u64, new_size as u64);
                    if new >= old {
                        PEAK.fetch_max(LIVE.fetch_add(new - old, Relaxed) + (new - old), Relaxed);
                    } else {
                        LIVE.fetch_sub(old - new, Relaxed);
                    }
                    System.realloc(ptr, layout, new_size)
                }
            }

            #[global_allocator]
            static ALLOCATOR: CountingAlloc = CountingAlloc;

            /// The harness's view of the counters.
            pub struct Meter;

            impl $crate::axis::AllocMeter for Meter {
                fn begin(&self) {
                    WINDOW_BASE.store(ALLOCS.load(Relaxed), Relaxed);
                    PEAK.store(LIVE.load(Relaxed), Relaxed);
                }

                fn end(&self) -> Option<$crate::axis::AllocWindow> {
                    Some($crate::axis::AllocWindow {
                        allocs: ALLOCS.load(Relaxed) - WINDOW_BASE.load(Relaxed),
                        peak_bytes: PEAK.load(Relaxed),
                    })
                }
            }
        }
    };
}

/// Wall-clock samples of the repeats, with their median and range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// One sample per repeat, in run order, milliseconds.
    pub samples: Vec<f64>,
    /// Median of the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples` (at least one).
    pub fn of(samples: Vec<f64>) -> Self {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0;
        Self {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            samples,
        }
    }
}

/// The steady-state allocation meter of a serial record: the window
/// from half the horizon to its end, worst repeat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alloc {
    /// Events inside the window.
    pub measured_events: u64,
    /// Heap allocations inside the window.
    pub measured_allocs: u64,
    /// Peak live heap bytes inside the window.
    pub peak_bytes: u64,
}

impl Alloc {
    /// Allocations per event inside the window.
    pub fn per_event(&self) -> f64 {
        self.measured_allocs as f64 / self.measured_events.max(1) as f64
    }
}

/// One (point, variant) of an axis: the one record shape of the
/// schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// One of [`AXES`].
    pub axis: String,
    /// Point name.
    pub point: String,
    /// Variant name.
    pub variant: String,
    /// Fabric constructor, e.g. `fbfly(2,8,2)`.
    pub topology: String,
    /// Host count of the fabric.
    pub hosts: u64,
    /// Channel count of the fabric.
    pub channels: u64,
    /// Traffic recipe label.
    pub workload: String,
    /// Offered load of the recipe's uniform component.
    pub offered_load: f64,
    /// Simulated horizon, milliseconds.
    pub horizon_ms: f64,
    /// The run options, serialized by their `epnet_sim` names (an
    /// unknown name fails to parse).
    pub options: RunOptions,
    /// Wall clock of each repeat's run, from prime to report.
    pub wall_ms: Spread,
    /// Events popped by the engine.
    pub events: u64,
    /// Packets delivered end to end.
    pub packets: u64,
    /// Bytes delivered end to end.
    pub delivered_bytes: u64,
    /// Epoch ticks processed.
    pub epoch_ticks: u64,
    /// Controller rate decisions evaluated.
    pub controller_decisions: u64,
    /// Network power relative to an always-full network (measured link
    /// profile).
    pub relative_power: f64,
    /// FNV-1a 64 digest of the serialized report; every repeat
    /// reproduces it.
    pub report_digest: String,
    /// Mean wall clock per engine layer across repeats, milliseconds:
    /// one key per [`Layer`], named by [`Layer::name`].
    pub layers_ms: BTreeMap<String, f64>,
    /// Steady-state allocation meter (serial runs under a counting
    /// allocator only).
    pub alloc: Option<Alloc>,
}

impl Record {
    /// Median engine events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 * 1e3 / self.wall_ms.median
    }

    /// Mean controller decisions per epoch tick.
    pub fn decisions_per_tick(&self) -> f64 {
        self.controller_decisions as f64 / self.epoch_ticks.max(1) as f64
    }

    /// One human-readable line: what ran and what it cost.
    pub fn summary(&self) -> String {
        let alloc = self.alloc.map_or(String::new(), |a| {
            format!(
                "  allocs/event={:.5} peak={} B",
                a.per_event(),
                a.peak_bytes
            )
        });
        format!(
            "{:<14} {:<22} {:<14} {:>9.1} ms [{:.1}, {:.1}]  {:>10.0} events/s{alloc}",
            self.axis,
            self.point,
            self.variant,
            self.wall_ms.median,
            self.wall_ms.min,
            self.wall_ms.max,
            self.events_per_sec(),
        )
    }
}

/// One run of one variant.
struct Sample {
    wall_ms: f64,
    report: SimReport,
    digest: String,
    alloc: Option<Alloc>,
    hosts: u64,
    channels: u64,
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// Runs `point` once under `options`, through the phased API so
/// `meter` can watch the second half of the horizon (well past warmup,
/// every free-list at its high-water mark).
fn measure(point: &Point, options: RunOptions, meter: &dyn AllocMeter) -> Sample {
    let mut sim = simulator_for(point, options);
    let hosts = sim.fabric().num_hosts() as u64;
    let channels = sim.fabric().num_channels() as u64;
    let start = Instant::now();
    sim.prime(point.horizon);
    sim.advance_until(SimTime::from_ps(point.horizon.as_ps() / 2));
    let warm = sim.events_processed();
    meter.begin();
    sim.advance_until(point.horizon);
    let alloc = meter.end().map(|w| Alloc {
        measured_events: sim.events_processed() - warm,
        measured_allocs: w.allocs,
        peak_bytes: w.peak_bytes,
    });
    let report = sim.finalize();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    Sample {
        wall_ms,
        digest: digest(json.as_bytes()),
        report,
        alloc,
        hosts,
        channels,
    }
}

/// Measures `axis`: every point's variants, `repeats` rounds,
/// interleaved. Returns one record per (point, variant).
///
/// # Panics
///
/// Panics if a repeat serializes a different report than the first
/// run of its variant: the engine is deterministic, so that is a bug,
/// and its timings would be meaningless.
pub fn run(axis: &Axis, repeats: usize, meter: &dyn AllocMeter) -> Vec<Record> {
    assert!(repeats > 0, "at least one repeat");
    let mut records = Vec::new();
    for (point, variants) in &axis.cases {
        let mut samples: Vec<Vec<Sample>> = variants.iter().map(|_| Vec::new()).collect();
        for _ in 0..repeats {
            for (variant, runs) in variants.iter().zip(&mut samples) {
                runs.push(measure(point, variant.options, meter));
            }
        }
        for (variant, runs) in variants.iter().zip(samples) {
            records.push(record(axis.name, point, variant, runs));
        }
    }
    records
}

fn record(axis: &str, point: &Point, variant: &Variant, runs: Vec<Sample>) -> Record {
    let first = &runs[0];
    assert!(
        runs.iter().all(|s| s.digest == first.digest),
        "{axis}/{}/{}: a repeat reproduced a different report",
        point.name,
        variant.name
    );
    let layers_ms = Layer::ALL
        .into_iter()
        .map(|layer| {
            let sum: f64 = runs.iter().map(|s| s.report.layers.ms(layer)).sum();
            (layer.name().to_string(), sum / runs.len() as f64)
        })
        .collect();
    let alloc = runs
        .iter()
        .filter_map(|s| s.alloc)
        .reduce(|worst, a| Alloc {
            peak_bytes: worst.peak_bytes.max(a.peak_bytes),
            ..if a.per_event() > worst.per_event() {
                a
            } else {
                worst
            }
        });
    let report = &first.report;
    Record {
        axis: axis.to_string(),
        point: point.name.clone(),
        variant: variant.name.clone(),
        topology: point.topo.label(),
        hosts: first.hosts,
        channels: first.channels,
        workload: point.recipe.label().to_string(),
        offered_load: point.recipe.offered_load(),
        horizon_ms: point.horizon.as_ps() as f64 / 1e9,
        options: variant.options,
        wall_ms: Spread::of(runs.iter().map(|s| s.wall_ms).collect()),
        events: report.events_processed,
        packets: report.packets_delivered,
        delivered_bytes: report.delivered_bytes,
        epoch_ticks: report.epoch_ticks,
        controller_decisions: report.controller_decisions,
        relative_power: report.relative_power(&LinkPowerProfile::Measured),
        report_digest: first.digest.clone(),
        layers_ms,
        alloc,
    }
}

/// A benchmark document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// [`SCHEMA`].
    pub schema: String,
    /// Hardware threads of the measuring host: the context for every
    /// wall-clock number.
    pub hw_threads: u64,
    /// Repeats per (point, variant).
    pub repeats: u64,
    /// The axes measured; each has records, and no other axis does.
    pub axes: Vec<String>,
    /// The records, in measurement order.
    pub records: Vec<Record>,
}

/// Renders `records` of the listed `axes` as a document.
pub fn render(axes: &[&str], repeats: usize, records: &[Record]) -> String {
    let doc = Document {
        schema: SCHEMA.to_string(),
        hw_threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        repeats: repeats as u64,
        axes: axes.iter().map(|a| a.to_string()).collect(),
        records: records.to_vec(),
    };
    let mut out = serde_json::to_string_pretty(&doc).expect("document serializes");
    out.push('\n');
    out
}

/// Path of the committed `BENCH.json` at the repository root.
pub fn output_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH.json")
}

/// Validates a benchmark document against the schema, the identity
/// contracts and the budgets; returns it parsed.
///
/// # Errors
///
/// Describes the first violation.
pub fn validate(text: &str) -> Result<Document, String> {
    let raw: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    match raw.get("schema").and_then(serde_json::Value::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema '{other}' (want {SCHEMA})")),
        None => return Err("missing 'schema'".into()),
    }
    let doc: Document =
        serde_json::from_str(text).map_err(|e| format!("malformed document: {e}"))?;
    if doc.hw_threads == 0 {
        return Err("'hw_threads' is zero".into());
    }
    if doc.repeats == 0 {
        return Err("'repeats' is zero".into());
    }
    if doc.axes.is_empty() {
        return Err("no axes listed".into());
    }
    for (i, axis) in doc.axes.iter().enumerate() {
        if !AXES.contains(&axis.as_str()) {
            return Err(format!(
                "unknown axis '{axis}' (valid: {})",
                AXES.join(", ")
            ));
        }
        if doc.axes[..i].contains(axis) {
            return Err(format!("axis '{axis}' listed twice"));
        }
        if !doc.records.iter().any(|r| &r.axis == axis) {
            return Err(format!("missing '{axis}' axis: no records"));
        }
    }
    let mut groups: Vec<Vec<&Record>> = Vec::new();
    for r in &doc.records {
        if !doc.axes.contains(&r.axis) {
            return Err(format!("record of unlisted axis '{}'", r.axis));
        }
        check_record(r, doc.repeats as usize)?;
        match groups
            .iter_mut()
            .find(|g| g[0].axis == r.axis && g[0].point == r.point)
        {
            Some(g) if g.iter().any(|o| o.variant == r.variant) => {
                return Err(format!(
                    "{}/{}/{}: duplicate record",
                    r.axis, r.point, r.variant
                ));
            }
            Some(g) => g.push(r),
            None => groups.push(vec![r]),
        }
    }
    for g in &groups {
        check_group(g)?;
    }
    if doc.axes.iter().any(|a| a == "scale") {
        check_scale_reach(&doc.records)?;
    }
    Ok(doc)
}

fn check_record(r: &Record, repeats: usize) -> Result<(), String> {
    let id = format!("{}/{}/{}", r.axis, r.point, r.variant);
    let w = &r.wall_ms;
    if w.samples.len() != repeats {
        return Err(format!(
            "{id}: {} wall samples for {repeats} repeats",
            w.samples.len()
        ));
    }
    if !w.samples.iter().all(|x| x.is_finite() && *x > 0.0) {
        return Err(format!("{id}: non-positive wall sample"));
    }
    if Spread::of(w.samples.clone()) != *w {
        return Err(format!("{id}: median/min/max disagree with the samples"));
    }
    for key in r.layers_ms.keys() {
        if !Layer::ALL.iter().any(|l| l.name() == key) {
            return Err(format!("{id}: unknown layer '{key}'"));
        }
    }
    if let Some(l) = Layer::ALL
        .iter()
        .find(|l| !r.layers_ms.contains_key(l.name()))
    {
        return Err(format!("{id}: missing layer '{}'", l.name()));
    }
    let layers: f64 = r.layers_ms.values().sum();
    let wall = w.samples.iter().sum::<f64>() / repeats as f64;
    if (layers - wall).abs() > LAYER_SUM_TOLERANCE * wall {
        return Err(format!(
            "{id}: layers sum to {layers:.1} ms against a mean wall of {wall:.1} ms"
        ));
    }
    let hybrid = r.options.model == SimModel::Hybrid;
    if r.hosts == 0 || r.channels == 0 || r.events == 0 {
        return Err(format!("{id}: empty fabric or no events simulated"));
    }
    if !(r.offered_load > 0.0 && r.offered_load <= 1.0) {
        return Err(format!(
            "{id}: offered load {} out of range",
            r.offered_load
        ));
    }
    if !(r.relative_power.is_finite() && r.relative_power > 0.0) {
        return Err(format!("{id}: invalid relative power"));
    }
    if r.axis != "scale" {
        return Ok(());
    }
    let a = r
        .alloc
        .ok_or_else(|| format!("{id}: scale records need the allocation meter"))?;
    let budget = if hybrid {
        HYBRID_ALLOCS_PER_EVENT
    } else {
        PACKET_ALLOCS_PER_EVENT
    };
    if a.per_event() >= budget {
        return Err(format!(
            "{id}: {:.4} allocs/event over the {budget} budget",
            a.per_event()
        ));
    }
    if hybrid && a.peak_bytes > r.channels.saturating_mul(HYBRID_PEAK_HEAP_PER_CHANNEL) {
        return Err(format!(
            "{id}: peak heap {} B/channel exceeds the {HYBRID_PEAK_HEAP_PER_CHANNEL} B/channel bound",
            a.peak_bytes / r.channels
        ));
    }
    Ok(())
}

/// The per-point rules of each axis; `group` holds one point's
/// records.
fn check_group(group: &[&Record]) -> Result<(), String> {
    let (axis, point) = (group[0].axis.as_str(), &group[0].point);
    let find = |pick: &dyn Fn(&RunOptions) -> bool, what: &str| {
        group
            .iter()
            .find(|r| pick(&r.options))
            .copied()
            .ok_or_else(|| format!("{axis}/{point}: no {what} variant"))
    };
    match axis {
        "load" => {
            if let Some(r) = group
                .iter()
                .find(|r| r.report_digest != group[0].report_digest)
            {
                return Err(format!(
                    "{axis}/{point}: variant '{}' serialized a different report than '{}'",
                    r.variant, group[0].variant
                ));
            }
            let sweep = find(&|o| o.epoch == EpochMode::Sweep, "epoch-sweep")?;
            let active = find(&|o| o.epoch == EpochMode::ActiveSet, "active-set")?;
            if sweep.epoch_ticks == 0 {
                return Err(format!("{axis}/{point}: processed no epochs"));
            }
            let speedup = loadbench::decisions_speedup(sweep, active);
            if sweep.offered_load <= LOW_LOAD
                && (active.decisions_per_tick() >= sweep.channels as f64
                    || speedup < LOW_LOAD_DECISIONS_SPEEDUP)
            {
                return Err(format!(
                    "{axis}/{point}: {:.1} active decisions/tick over {} channels ({speedup:.2}x) \
                     is not activity-proportional",
                    active.decisions_per_tick(),
                    sweep.channels
                ));
            }
            Ok(())
        }
        "models" => {
            let packet = find(&|o| o.model == SimModel::Packet, "packet-model")?;
            let hybrid = find(&|o| o.model == SimModel::Hybrid, "hybrid-model")?;
            let bytes = (hybrid.delivered_bytes as f64 - packet.delivered_bytes as f64).abs()
                / packet.delivered_bytes.max(1) as f64;
            let power = (hybrid.relative_power - packet.relative_power).abs();
            if bytes > HYBRID_TOLERANCE || power > HYBRID_TOLERANCE {
                return Err(format!(
                    "{axis}/{point}: bytes error {bytes:.4} / power error {power:.4} exceed \
                     the {HYBRID_TOLERANCE} tolerance"
                ));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// The `scale` axis must reach Solnushkin scale with delivered bytes,
/// and carry the million-host hybrid point inside its wall budget.
fn check_scale_reach(records: &[Record]) -> Result<(), String> {
    let hybrid = |r: &&Record| r.axis == "scale" && r.options.model == SimModel::Hybrid;
    if !records
        .iter()
        .filter(hybrid)
        .any(|r| r.hosts >= SOLNUSHKIN_HOSTS && r.delivered_bytes > 0)
    {
        return Err(format!(
            "no delivering hybrid scale point at >= {SOLNUSHKIN_HOSTS} hosts"
        ));
    }
    let million = records
        .iter()
        .filter(hybrid)
        .find(|r| r.hosts >= MILLION_HOSTS)
        .ok_or_else(|| {
            format!("no hybrid scale point at >= {MILLION_HOSTS} hosts (the million-host point)")
        })?;
    if million.wall_ms.median > MILLION_HOST_WALL_BUDGET_MS {
        return Err(format!(
            "{}: median wall {:.0} ms exceeds the million-host budget of \
             {MILLION_HOST_WALL_BUDGET_MS:.0} ms",
            million.point, million.wall_ms.median
        ));
    }
    Ok(())
}

/// Checks that every hybrid `scale` record of `measured` carries the
/// report digest of the `reference` record for the same point and
/// variant: the exactness guard at the 2^17- and 2^20-host points,
/// which `cargo test` cannot reach. Returns the number compared.
///
/// # Errors
///
/// Names the first record whose digest differs, or says that no record
/// could be compared, so the guard cannot lapse unnoticed.
pub fn check_digests(measured: &Document, reference: &Document) -> Result<usize, String> {
    let mut compared = 0;
    let hybrid_scale = |r: &&Record| r.axis == "scale" && r.options.model == SimModel::Hybrid;
    for r in measured.records.iter().filter(hybrid_scale) {
        let Some(old) = reference
            .records
            .iter()
            .find(|o| o.axis == r.axis && o.point == r.point && o.variant == r.variant)
        else {
            continue;
        };
        if old.report_digest != r.report_digest {
            return Err(format!(
                "{}/{}/{}: report digest {} differs from the reference's {}",
                r.axis, r.point, r.variant, r.report_digest, old.report_digest
            ));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err("no hybrid scale record has a reference to compare with".to_string());
    }
    Ok(compared)
}

/// A synthetic record for validator tests: a 16-host packet point with
/// one 10 ms wall sample, metered.
#[cfg(test)]
pub(crate) fn sample(axis: &str, point: &str, variant: &str) -> Record {
    Record {
        axis: axis.into(),
        point: point.into(),
        variant: variant.into(),
        topology: "fbfly(2,8,2)".into(),
        hosts: 16,
        channels: 88,
        workload: "uniform30+search".into(),
        offered_load: 0.3,
        horizon_ms: 2.0,
        options: RunOptions::default(),
        wall_ms: Spread::of(vec![10.0]),
        events: 1_000,
        packets: 100,
        delivered_bytes: 64_000,
        epoch_ticks: 100,
        controller_decisions: 8_800,
        relative_power: 0.6,
        report_digest: "00000000000000aa".into(),
        layers_ms: BTreeMap::new(),
        alloc: Some(Alloc {
            measured_events: 500,
            measured_allocs: 0,
            peak_bytes: 1 << 20,
        }),
    }
    .with_wall(10.0)
}

#[cfg(test)]
impl Record {
    /// This record with one wall sample of `ms`, all of it events.
    pub(crate) fn with_wall(mut self, ms: f64) -> Record {
        self.wall_ms = Spread::of(vec![ms]);
        self.layers_ms = Layer::ALL
            .into_iter()
            .map(|l| {
                (
                    l.name().to_string(),
                    if l == Layer::Events { ms } else { 0.0 },
                )
            })
            .collect();
        self
    }
}

/// Renders `records` as a one-repeat document over the axes they use.
#[cfg(test)]
pub(crate) fn render_sample(records: &[Record]) -> String {
    let mut axes: Vec<&str> = Vec::new();
    for r in records {
        if !axes.contains(&r.axis.as_str()) {
            axes.push(&r.axis);
        }
    }
    render(&axes, 1, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_takes_the_middle_of_the_samples() {
        let s = Spread::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        assert_eq!(s.samples, vec![3.0, 1.0, 2.0], "run order kept");
        assert_eq!(Spread::of(vec![4.0, 1.0, 2.0, 3.0]).median, 2.5);
    }

    /// One `load` point under both epoch modes, agreeing on the report.
    fn load_pair() -> [Record; 2] {
        let mut sweep = sample("load", "p", "a");
        sweep.options.epoch = EpochMode::Sweep;
        [sweep, sample("load", "p", "b")]
    }

    #[test]
    fn validate_checks_the_record_shape() {
        let good = render_sample(&load_pair());
        validate(&good).expect("sample document validates");
        for (from, to, why) in [
            (
                "\"median\": 10.0",
                "\"median\": 11.0",
                "median off its samples",
            ),
            (
                "\"repeats\": 1",
                "\"repeats\": 2",
                "sample count off repeats",
            ),
            (
                "\"epoch\": \"sweep\"",
                "\"epoch\": \"lazy\"",
                "unknown option",
            ),
            (
                "\"axes\": [\n    \"load\"",
                "\"axes\": [\n    \"engine\"",
                "unknown axis",
            ),
            (
                "\"variant\": \"b\"",
                "\"variant\": \"a\"",
                "duplicate record",
            ),
            ("\"events\": 1000", "\"events\": 0", "no events"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{why}: pattern not found");
            assert!(validate(&bad).is_err(), "{why} must be rejected");
        }
        // A listed axis without records.
        let doc = render(&["load", "scale"], 1, &load_pair());
        assert!(validate(&doc).unwrap_err().contains("missing 'scale'"));
        // The layers: all six, no others, adding up to the wall time.
        for (key, value, why) in [
            ("dyntopo", None, "missing layer 'dyntopo'"),
            ("warmup", Some(0.0), "unknown layer 'warmup'"),
            ("events", Some(10.6), "layers sum to 10.6"),
        ] {
            let mut pair = load_pair();
            let layers = &mut pair[1].layers_ms;
            match value {
                Some(ms) => layers.insert(key.into(), ms),
                None => layers.remove(key),
            };
            let err = validate(&render_sample(&pair)).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        }
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        // Earlier schemas are not this one: v2 still carried the
        // `engine` axis and a `routes` option per record, v3 the
        // overlapping `phases_ms`.
        for old in [
            r#"{"schema": "epnet-bench/v1"}"#,
            r#"{"schema": "epnet-bench/v3", "axes": ["load"], "records": []}"#,
            r#"{"schema": "epnet-bench/v2", "axes": ["engine"], "records": []}"#,
            r#"{"schema": "epnet-bench-engine/v1", "benches": []}"#,
        ] {
            assert!(validate(old).unwrap_err().contains("unexpected schema"));
        }
        assert!(
            validate(&render_sample(&[])).is_err(),
            "a document without axes must be rejected"
        );
        // Epoch modes that disagree on the report break the contract.
        let [sweep, mut active] = load_pair();
        active.report_digest = "00000000000000bb".into();
        let split = render_sample(&[sweep, active]);
        assert!(validate(&split).unwrap_err().contains("different report"));
    }

    #[test]
    fn check_digests_compares_hybrid_scale_records_by_point_and_variant() {
        let hybrid = |point: &str, digest: &str| {
            let mut r = sample("scale", point, "hybrid");
            r.options.model = SimModel::Hybrid;
            r.report_digest = digest.into();
            r
        };
        let doc = |records: Vec<Record>| Document {
            schema: SCHEMA.into(),
            hw_threads: 2,
            repeats: 1,
            axes: vec!["scale".into()],
            records,
        };
        let reference = doc(vec![
            hybrid("a", "00000000000000aa"),
            hybrid("b", "00000000000000bb"),
        ]);
        // A reduced run measures a subset of the reference's points.
        let same = doc(vec![hybrid("b", "00000000000000bb")]);
        assert_eq!(check_digests(&same, &reference), Ok(1));
        let drifted = doc(vec![hybrid("b", "00000000000000cc")]);
        let err = check_digests(&drifted, &reference).unwrap_err();
        assert!(err.contains("scale/b/hybrid"), "{err}");
        // Packet scale records and unmatched points are not compared;
        // comparing nothing is an error.
        let mut packet = sample("scale", "a", "hybrid");
        packet.report_digest = "00000000000000cc".into();
        let unmatched = doc(vec![packet, hybrid("z", "00000000000000cc")]);
        assert!(check_digests(&unmatched, &reference).is_err());
    }
}
