//! The topology-scaling benchmark behind `BENCH_scale.json`.
//!
//! Where `enginebench` pins one canonical scenario, this sweep grows
//! the fabric from the toy FBFLY(2,8,2) up to the paper's 15-ary
//! 2-flat (225 hosts, Figure 7/8 scale) plus the bisection-comparable
//! [`TwoTierClos`], running the same merged uniform-random + search
//! traffic recipe at every point. Each point reports throughput
//! (events/s, delivered bytes/s) *and* allocator behaviour: the run is
//! split at half the horizon via the engine's phased
//! `prime`/`advance_until`/`finalize` API, and a counting global
//! allocator (installed by the `scalebench` binary — `std::alloc`
//! only, no external crates) measures heap allocations across the
//! second half. A warmed-up engine recycles packets, messages, credit
//! buffers, and queue storage from free-lists, so allocations per
//! event in that window should be ~0; `BENCH_scale.json` records the
//! figure and the smoke suite schema-validates it.

use crate::enginebench::CanonicalSource;
use epnet_power::LinkPowerProfile;
use epnet_sim::{
    MergedSource, Message, RunOptions, SimConfig, SimModel, SimTime, Simulator, TrafficSource,
};
use epnet_topology::{FlattenedButterfly, RoutingTopology, TwoTierClos};
use epnet_workloads::{ServiceTrace, ServiceTraceConfig, UniformRandom};
use serde_json::Value;
use std::time::Instant;

/// Schema tag written into `BENCH_scale.json`. `v2` added the
/// `threads` axis (the parallel-width sweep on the canonical point);
/// `v3` renamed its `hardware_threads` field to `hw_threads` and added
/// a `lookahead` probe comparing two window bounds; `v4` added the
/// hybrid flow/packet model: a `model` field on every bench, hybrid
/// sweep points at Solnushkin scale (10^5+ hosts), and the `models`
/// validation axis comparing delivered bytes and relative power
/// between the two models on every small packet-mode point; `v5` added
/// the parallel hybrid engine: the [`MILLION_HOSTS`]
/// `hybrid_fbfly_32x32x4` sweep point (with pinned peak-heap-per-host
/// and wall-clock budgets) and the `hybrid_threads` axis — the
/// parallel-width sweep on that million-host point, byte-identity
/// asserted at every width; `v6` dropped the `lookahead` probe with the
/// legacy bound it measured against.
pub const SCHEMA: &str = "epnet-bench-scale/v6";

/// Worker widths measured by the threads axis, matching the
/// determinism matrix in `tests/tests/par_modes.rs`. Width 0 stands
/// for the serial engine and is always measured
/// first as the speedup baseline.
pub const THREAD_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Worker widths measured by the `hybrid_threads` axis. Narrower than
/// [`THREAD_WIDTHS`]: every run simulates the [`MILLION_HOSTS`] fabric
/// end to end, and width 8 adds no information a 1–4 sweep does not
/// already give about the coordinator's per-width overhead.
pub const HYBRID_THREAD_WIDTHS: [usize; 3] = [1, 2, 4];

/// Host count of the `hybrid_fbfly_32x32x4` sweep point — the first
/// true 10^6-host measured point (`FlattenedButterfly::grouped(32, 32,
/// 4)`: 2^20 hosts on 32,768 switches).
pub const MILLION_HOSTS: u64 = 1 << 20;

/// Peak live heap per host the hybrid benches must stay under, in
/// bytes. The million-host point measures 1,203 B/host (the channel
/// state dominates: ~4.9 channels/host at ~230 B each); the bound
/// leaves ~3.4× headroom for state growth without letting per-host
/// memory drift back toward packet-simulation territory.
pub const HYBRID_PEAK_HEAP_PER_HOST: u64 = 4096;

/// Wall-clock budget of the million-host hybrid bench, milliseconds.
/// The measured serial run completes its full 2 ms horizon in ~25 s on
/// the reference container; the budget leaves ~5× headroom for slower
/// hardware while still catching a complexity regression (a packet
/// simulation of the same point would be hours, not minutes).
pub const MILLION_HOST_WALL_BUDGET_MS: f64 = 120_000.0;

/// Simulated horizon of the full sweep (matches the canonical bench).
pub const FULL_HORIZON: SimTime = SimTime::from_ms(10);

/// Simulated horizon of the reduced (smoke) sweep. Long enough that
/// every free-list reaches its high-water mark before the half-horizon
/// allocation-meter window opens — the search-like workload keeps
/// producing never-seen-before burst sizes for the first millisecond
/// or so.
pub const REDUCED_HORIZON: SimTime = SimTime::from_ms(2);

/// Message size of the [`Recipe::BulkFlows`] workload: well past the
/// engine's 64 KiB absorption threshold, so the hybrid model carries
/// essentially all of the traffic as fluid flows.
pub const BULK_MESSAGE_BYTES: u64 = 4 * 1024 * 1024;

/// Offered load of the [`Recipe::BulkFlows`] workload, as a fraction
/// of the 40 Gb/s host line rate. Low enough that the Solnushkin-scale
/// points stay uncongested (no packet demotions), high enough that the
/// epoch controller sees real utilization.
pub const BULK_LOAD: f64 = 0.05;

/// One topology in the sweep.
#[derive(Debug, Clone, Copy)]
pub enum ScaleTopo {
    /// `FlattenedButterfly::new(c, k, n)`.
    Fbfly {
        /// Concentration (hosts per switch).
        c: u16,
        /// Radix of each dimension.
        k: u16,
        /// Flat dimension count.
        n: usize,
    },
    /// `FlattenedButterfly::grouped(c, k, n)` — the Solnushkin-style
    /// scale targets (same construction, named for intent: grouped
    /// racks at 10^3–10^5 hosts).
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
    /// `TwoTierClos::multi_pod(c, pods)` — the multi-pod datacenter
    /// Clos scale target.
    ClosMultiPod {
        /// Concentration (hosts per leaf).
        c: u16,
        /// Pod count (each pod is `c` leaves).
        pods: u32,
    },
}

/// Traffic recipe of a sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// The canonical mix: 30% uniform-random merged with search-like
    /// bursts — every packet-mode point runs this.
    Canonical,
    /// Bulk steady flows: uniform-random [`BULK_MESSAGE_BYTES`]
    /// messages at [`BULK_LOAD`] load — the Solnushkin-scale recipe
    /// whose long transfers the hybrid model aggregates into fluid
    /// flow state.
    BulkFlows,
}

/// One point of the sweep: a topology plus its simulated horizon,
/// traffic recipe, and simulation model.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Stable point name used in `BENCH_scale.json`.
    pub name: String,
    /// The fabric to build.
    pub topo: ScaleTopo,
    /// Simulated end time.
    pub horizon: SimTime,
    /// Traffic recipe to run.
    pub recipe: Recipe,
    /// Simulation model ([`SimModel::Packet`] or [`SimModel::Hybrid`]).
    pub model: SimModel,
}

/// Stable lowercase name of a model, as written into
/// `BENCH_scale.json` (matches the `EPNET_MODEL` values).
pub fn model_name(model: SimModel) -> &'static str {
    match model {
        SimModel::Packet => "packet",
        SimModel::Hybrid => "hybrid",
    }
}

/// The sweep: canonical toy up to the paper-scale 15-ary 2-flat, plus
/// the non-blocking two-tier Clos, followed by the hybrid-model
/// Solnushkin-scale points (appended last so every packet point keeps
/// its historical position). `reduced` trims the packet points to the
/// smallest three at a 2 ms horizon for the smoke suite but keeps the
/// ≥10^5-host hybrid point — reaching that scale is the hybrid
/// model's acceptance criterion, and only the flow abstraction makes
/// it affordable.
pub fn sweep(reduced: bool) -> Vec<ScalePoint> {
    let horizon = if reduced {
        REDUCED_HORIZON
    } else {
        FULL_HORIZON
    };
    let point = |name: &str, topo| ScalePoint {
        name: name.to_string(),
        topo,
        horizon,
        recipe: Recipe::Canonical,
        model: SimModel::Packet,
    };
    let hybrid = |name: &str, topo| ScalePoint {
        name: name.to_string(),
        topo,
        // Hybrid points always run the reduced horizon: the fluid
        // regime reaches steady state within a few hundred epochs, and
        // the point of these entries is scale, not duration.
        horizon: REDUCED_HORIZON,
        recipe: Recipe::BulkFlows,
        model: SimModel::Hybrid,
    };
    let mut points = vec![
        point("fbfly_2x8x2", ScaleTopo::Fbfly { c: 2, k: 8, n: 2 }),
        point("fbfly_4x8x2", ScaleTopo::Fbfly { c: 4, k: 8, n: 2 }),
        point("clos_nb4", ScaleTopo::ClosNonBlocking { c: 4 }),
    ];
    if !reduced {
        points.push(point("fbfly_8x8x2", ScaleTopo::Fbfly { c: 8, k: 8, n: 2 }));
        // The grouped 3-flat: two switch dimensions, so dimension-1
        // links are optical while dimension-0 stays electrical — the
        // link heterogeneity the pairwise lookahead bounds exploit
        // (contiguous shards cut only the optical dimension).
        points.push(point("fbfly_8x4x3", ScaleTopo::Fbfly { c: 8, k: 4, n: 3 }));
        points.push(point("clos_nb8", ScaleTopo::ClosNonBlocking { c: 8 }));
        points.push(point(
            "fbfly_15x15x2",
            ScaleTopo::Fbfly { c: 15, k: 15, n: 2 },
        ));
    }
    // Hybrid-model scale points, smallest first: the 960-host grouped
    // 3-flat (cheap enough for the in-process smoke twin), the 4,096-
    // host multi-pod Clos (full sweep only), the 131,072-host grouped
    // 4-flat — past the 10^5-host Solnushkin threshold that a packet
    // simulation cannot reach — and the 2^20-host grouped 4-flat, the
    // first true million-host measured point.
    points.push(hybrid(
        "hybrid_fbfly_15x8x3",
        ScaleTopo::FbflyGrouped { c: 15, k: 8, n: 3 },
    ));
    if !reduced {
        points.push(hybrid(
            "hybrid_clos_16p16",
            ScaleTopo::ClosMultiPod { c: 16, pods: 16 },
        ));
    }
    points.push(hybrid(
        "hybrid_fbfly_32x16x4",
        ScaleTopo::FbflyGrouped { c: 32, k: 16, n: 4 },
    ));
    points.push(hybrid(
        "hybrid_fbfly_32x32x4",
        ScaleTopo::FbflyGrouped { c: 32, k: 32, n: 4 },
    ));
    points
}

/// The sweep point the packet-model threads axis runs on: the last
/// *packet-model* point. The hybrid tail has
/// its own axis ([`hybrid_axis_point`]) — mixing models here would
/// make the two speedup columns incomparable across schema versions.
///
/// # Panics
///
/// Panics if the sweep has no packet-model point.
pub fn axis_point(points: &[ScalePoint]) -> &ScalePoint {
    points
        .iter()
        .rev()
        .find(|p| p.model == SimModel::Packet)
        .expect("sweep always has packet points")
}

/// The sweep point the `hybrid_threads` axis runs on: the last hybrid
/// point — the million-host grouped flat in both the full and reduced
/// sweeps.
///
/// # Panics
///
/// Panics if the sweep has no hybrid-model point.
pub fn hybrid_axis_point(points: &[ScalePoint]) -> &ScalePoint {
    points
        .iter()
        .rev()
        .find(|p| p.model == SimModel::Hybrid)
        .expect("sweep always has hybrid points")
}

/// A sweep point's traffic source: one variant per [`Recipe`].
#[derive(Debug)]
pub enum ScaleSource {
    /// [`Recipe::Canonical`] — the merged uniform + search mix
    /// (boxed: the merged generator dwarfs the bulk variant).
    Canonical(Box<CanonicalSource>),
    /// [`Recipe::BulkFlows`] — bulk uniform-random transfers.
    Bulk(UniformRandom),
}

impl TrafficSource for ScaleSource {
    fn next_message(&mut self) -> Option<Message> {
        match self {
            ScaleSource::Canonical(s) => s.next_message(),
            ScaleSource::Bulk(s) => s.next_message(),
        }
    }
}

/// Builds a simulator for one sweep point: the point's topology,
/// recipe (scaled to its host count), and simulation model, on the
/// parallel engine at width `par` (0 is the serial engine).
pub fn simulator_for(point: &ScalePoint, par: usize) -> Simulator<ScaleSource> {
    let fabric = match point.topo {
        ScaleTopo::Fbfly { c, k, n } => FlattenedButterfly::new(c, k, n)
            .expect("sweep shapes are valid")
            .build_fabric(),
        ScaleTopo::FbflyGrouped { c, k, n } => FlattenedButterfly::grouped(c, k, n)
            .expect("sweep shapes are valid")
            .build_fabric(),
        ScaleTopo::ClosNonBlocking { c } => TwoTierClos::non_blocking(c)
            .expect("sweep shapes are valid")
            .build_fabric(),
        ScaleTopo::ClosMultiPod { c, pods } => TwoTierClos::multi_pod(c, pods)
            .expect("sweep shapes are valid")
            .build_fabric(),
    };
    let hosts = fabric.num_hosts() as u32;
    let source = match point.recipe {
        Recipe::Canonical => ScaleSource::Canonical(Box::new(MergedSource::new(
            UniformRandom::builder(hosts)
                .offered_load(0.3)
                .horizon(point.horizon)
                .build(),
            ServiceTrace::builder(hosts, ServiceTraceConfig::search_like())
                .horizon(point.horizon)
                .build(),
        ))),
        Recipe::BulkFlows => ScaleSource::Bulk(
            UniformRandom::builder(hosts)
                .message_bytes(BULK_MESSAGE_BYTES)
                .offered_load(BULK_LOAD)
                .horizon(point.horizon)
                .build(),
        ),
    };
    let options = RunOptions {
        model: point.model,
        par: Some(par),
        ..RunOptions::default()
    };
    Simulator::with_options(fabric, SimConfig::default(), source, options)
}

/// Heap-allocation counts over a measurement window.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocWindow {
    /// Allocation calls (alloc + realloc) inside the window.
    pub allocs: u64,
    /// Peak bytes live at any instant inside the window.
    pub peak_bytes: u64,
}

/// Hook pair around the steady-state measurement window, implemented
/// by whoever owns the process's counting allocator (the `scalebench`
/// binary, or a test harness). [`NoopMeter`] reports zeros for callers
/// without one.
pub trait AllocMeter {
    /// Marks the start of the window (typically: snapshot the counter
    /// and reset the peak to the current live size).
    fn begin(&self);
    /// Closes the window and returns its counts.
    fn end(&self) -> AllocWindow;
}

/// An [`AllocMeter`] for processes without a counting allocator.
pub struct NoopMeter;

impl AllocMeter for NoopMeter {
    fn begin(&self) {}
    fn end(&self) -> AllocWindow {
        AllocWindow::default()
    }
}

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// Point name.
    pub name: String,
    /// Simulation model the point ran under.
    pub model: SimModel,
    /// Host count of the fabric.
    pub hosts: u64,
    /// Channel count of the fabric.
    pub channels: u64,
    /// Wall-clock duration of the whole run, in milliseconds.
    pub wall_ms: f64,
    /// Events popped by the engine's scheduler.
    pub sim_events: u64,
    /// Packets delivered end to end.
    pub sim_packets: u64,
    /// Bytes delivered end to end.
    pub sim_delivered_bytes: u64,
    /// Events inside the steady-state (second-half) window.
    pub measured_events: u64,
    /// Heap allocations inside that window.
    pub measured_allocs: u64,
    /// Peak live heap bytes inside that window.
    pub peak_alloc_bytes: u64,
}

impl ScaleRun {
    /// Engine events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.sim_events as f64 * 1e3 / self.wall_ms
    }

    /// Delivered payload bytes per wall-clock second.
    pub fn delivered_bytes_per_sec(&self) -> f64 {
        self.sim_delivered_bytes as f64 * 1e3 / self.wall_ms
    }

    /// Heap allocations per event in the steady-state window.
    pub fn allocs_per_event(&self) -> f64 {
        if self.measured_events == 0 {
            return 0.0;
        }
        self.measured_allocs as f64 / self.measured_events as f64
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("model".into(), Value::Str(model_name(self.model).into())),
            ("hosts".into(), Value::U64(self.hosts)),
            ("channels".into(), Value::U64(self.channels)),
            ("events_per_sec".into(), Value::F64(self.events_per_sec())),
            (
                "delivered_bytes_per_sec".into(),
                Value::F64(self.delivered_bytes_per_sec()),
            ),
            (
                "allocs_per_event".into(),
                Value::F64(self.allocs_per_event()),
            ),
            ("peak_alloc_bytes".into(), Value::U64(self.peak_alloc_bytes)),
            ("measured_events".into(), Value::U64(self.measured_events)),
            ("measured_allocs".into(), Value::U64(self.measured_allocs)),
            ("sim_events".into(), Value::U64(self.sim_events)),
            ("sim_packets".into(), Value::U64(self.sim_packets)),
            (
                "sim_delivered_bytes".into(),
                Value::U64(self.sim_delivered_bytes),
            ),
            ("wall_ms".into(), Value::F64(self.wall_ms)),
        ])
    }
}

/// One width of the threads axis.
#[derive(Debug, Clone, Copy)]
pub struct ThreadsRun {
    /// Parallel-engine width; 0 is the serial engine.
    pub threads: u64,
    /// Wall-clock duration of the run, in milliseconds.
    pub wall_ms: f64,
    /// Events popped by the engine (identical at every width — the
    /// reports are asserted byte-identical before this is recorded).
    pub sim_events: u64,
}

impl ThreadsRun {
    /// Engine events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.sim_events as f64 * 1e3 / self.wall_ms
    }
}

/// The threads axis: one sweep point re-run at every parallel-engine
/// width, against the serial engine as baseline.
#[derive(Debug, Clone)]
pub struct ThreadsAxis {
    /// Name of the sweep point the axis ran on.
    pub point: String,
    /// Hardware threads the host actually offers — the honest context
    /// for the speedup column (a 1-hardware-thread container cannot
    /// speed up, it can only measure determinism overhead).
    pub hw_threads: u64,
    /// Serial baseline first, then one entry per width.
    pub runs: Vec<ThreadsRun>,
}

/// Measures the threads axis on `point` at [`THREAD_WIDTHS`]; see
/// [`measure_threads_over`].
pub fn measure_threads(point: &ScalePoint) -> ThreadsAxis {
    measure_threads_over(point, &THREAD_WIDTHS)
}

/// Measures a threads axis on `point`: the serial engine first, then
/// the parallel engine at each of `widths`, each a fresh full run of
/// the identical scenario.
///
/// Every parallel report is asserted **byte-identical** to the serial
/// one before its timing is recorded — a wrong-but-fast engine never
/// makes it into `BENCH_scale.json`.
///
/// # Panics
///
/// Panics if any width's serialized report differs from serial.
pub fn measure_threads_over(point: &ScalePoint, widths: &[usize]) -> ThreadsAxis {
    let one = |threads: usize| -> (ThreadsRun, String) {
        let sim = simulator_for(point, threads);
        let start = Instant::now();
        let report = sim.run_until(point.horizon);
        let wall = start.elapsed();
        let doc = serde_json::to_string_pretty(&report).expect("report serializes");
        (
            ThreadsRun {
                threads: threads as u64,
                wall_ms: wall.as_secs_f64() * 1e3,
                sim_events: report.events_processed,
            },
            doc,
        )
    };
    let (serial, serial_doc) = one(0);
    let mut runs = vec![serial];
    for &width in widths {
        let (run, doc) = one(width);
        assert_eq!(
            doc, serial_doc,
            "{}: width-{width} report diverged from serial",
            point.name
        );
        runs.push(run);
    }
    ThreadsAxis {
        point: point.name.clone(),
        hw_threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        runs,
    }
}

impl ThreadsAxis {
    fn to_value(&self) -> Value {
        let baseline = self.runs[0].wall_ms;
        Value::Map(vec![
            ("point".into(), Value::Str(self.point.clone())),
            ("hw_threads".into(), Value::U64(self.hw_threads)),
            (
                "runs".into(),
                Value::Seq(
                    self.runs
                        .iter()
                        .map(|r| {
                            Value::Map(vec![
                                ("threads".into(), Value::U64(r.threads)),
                                ("wall_ms".into(), Value::F64(r.wall_ms)),
                                ("events_per_sec".into(), Value::F64(r.events_per_sec())),
                                ("speedup_vs_serial".into(), Value::F64(baseline / r.wall_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs one sweep point, metering allocations across the second half
/// of the horizon (well past the engine's 50 µs statistical warmup, so
/// every free-list has reached its high-water mark).
pub fn measure(point: &ScalePoint, meter: &dyn AllocMeter) -> ScaleRun {
    let mut sim = simulator_for(point, 0);
    let hosts = sim.fabric().num_hosts() as u64;
    let channels = sim.fabric().num_channels() as u64;
    let boundary = SimTime::from_ps(point.horizon.as_ps() / 2);
    let start = Instant::now();
    sim.prime(point.horizon);
    sim.advance_until(boundary);
    let warm_events = sim.events_processed();
    meter.begin();
    sim.advance_until(point.horizon);
    let window = meter.end();
    let measured_events = sim.events_processed() - warm_events;
    let report = sim.finalize();
    let wall = start.elapsed();
    ScaleRun {
        name: point.name.clone(),
        model: point.model,
        hosts,
        channels,
        wall_ms: wall.as_secs_f64() * 1e3,
        sim_events: report.events_processed,
        sim_packets: report.packets_delivered,
        sim_delivered_bytes: report.delivered_bytes,
        measured_events,
        measured_allocs: window.allocs,
        peak_alloc_bytes: window.peak_bytes,
    }
}

/// Documented agreement tolerance between the hybrid and packet models
/// on the small validation points: delivered-bytes relative error and
/// relative-power absolute error must both stay under this bound.
///
/// The residual disagreement is structural, not noise: the fluid
/// regime delivers a flow's bytes at the path fair share with no
/// queueing, serialization, or adaptive detours, while the packet
/// regime pays all three. Measured on the reduced sweep's canonical
/// recipe the errors sit near 1% (bytes ≤ 1.2%, relative power
/// ≤ 1.6%); the bound leaves ~3× headroom for workload drift. See
/// DESIGN.md ("Hybrid flow/packet model") for the methodology.
pub const HYBRID_TOLERANCE: f64 = 0.05;

/// One point of the models axis: the same fabric and traffic run under
/// both simulation models.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// Name of the sweep point both models ran.
    pub point: String,
    /// Host count of the fabric.
    pub hosts: u64,
    /// End-to-end bytes delivered by the packet model.
    pub packet_delivered_bytes: u64,
    /// End-to-end bytes delivered by the hybrid model.
    pub hybrid_delivered_bytes: u64,
    /// Network power relative to baseline under the packet model
    /// (measured profile).
    pub packet_relative_power: f64,
    /// Network power relative to baseline under the hybrid model.
    pub hybrid_relative_power: f64,
    /// Wall-clock duration of the packet run, milliseconds.
    pub packet_wall_ms: f64,
    /// Wall-clock duration of the hybrid run, milliseconds.
    pub hybrid_wall_ms: f64,
}

impl ModelRun {
    /// Relative delivered-bytes error of the hybrid model against the
    /// packet baseline.
    pub fn bytes_rel_err(&self) -> f64 {
        if self.packet_delivered_bytes == 0 {
            return if self.hybrid_delivered_bytes == 0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.hybrid_delivered_bytes as f64 - self.packet_delivered_bytes as f64).abs()
            / self.packet_delivered_bytes as f64
    }

    /// Absolute relative-power error of the hybrid model against the
    /// packet baseline (both are already normalized to [0, 1]).
    pub fn power_abs_err(&self) -> f64 {
        (self.hybrid_relative_power - self.packet_relative_power).abs()
    }

    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("point".into(), Value::Str(self.point.clone())),
            ("hosts".into(), Value::U64(self.hosts)),
            (
                "packet_delivered_bytes".into(),
                Value::U64(self.packet_delivered_bytes),
            ),
            (
                "hybrid_delivered_bytes".into(),
                Value::U64(self.hybrid_delivered_bytes),
            ),
            ("bytes_rel_err".into(), Value::F64(self.bytes_rel_err())),
            (
                "packet_relative_power".into(),
                Value::F64(self.packet_relative_power),
            ),
            (
                "hybrid_relative_power".into(),
                Value::F64(self.hybrid_relative_power),
            ),
            ("power_abs_err".into(), Value::F64(self.power_abs_err())),
            ("packet_wall_ms".into(), Value::F64(self.packet_wall_ms)),
            ("hybrid_wall_ms".into(), Value::F64(self.hybrid_wall_ms)),
        ])
    }
}

/// The models validation axis: every small packet-mode sweep point
/// re-run under both models, with the agreement errors and the
/// documented tolerance they were checked against.
#[derive(Debug, Clone)]
pub struct ModelAxis {
    /// The tolerance the errors were asserted under
    /// ([`HYBRID_TOLERANCE`]).
    pub tolerance: f64,
    /// One entry per validation point.
    pub runs: Vec<ModelRun>,
}

impl ModelAxis {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("tolerance".into(), Value::F64(self.tolerance)),
            (
                "runs".into(),
                Value::Seq(self.runs.iter().map(ModelRun::to_value).collect()),
            ),
        ])
    }
}

/// Measures the models axis: every packet-model point of the sweep is
/// run under both models — same fabric, same traffic — and the
/// delivered-bytes and relative-power agreement is recorded.
/// Validation always runs at [`REDUCED_HORIZON`]: agreement is a
/// property of the models, not the horizon, and the packet runs
/// dominate the sweep's wall-clock cost.
///
/// # Panics
///
/// Panics if any point's delivered-bytes relative error or
/// relative-power absolute error exceeds [`HYBRID_TOLERANCE`] — a
/// hybrid model that drifts from packet ground truth never makes it
/// into `BENCH_scale.json`.
pub fn measure_models(points: &[ScalePoint]) -> ModelAxis {
    let mut runs = Vec::new();
    for point in points.iter().filter(|p| p.model == SimModel::Packet) {
        let one = |model: SimModel| {
            let p = ScalePoint {
                horizon: REDUCED_HORIZON,
                model,
                ..point.clone()
            };
            let sim = simulator_for(&p, 0);
            let hosts = sim.fabric().num_hosts() as u64;
            let start = Instant::now();
            let report = sim.run_until(p.horizon);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            (hosts, report, wall_ms)
        };
        let (hosts, packet, packet_wall_ms) = one(SimModel::Packet);
        let (_, hybrid, hybrid_wall_ms) = one(SimModel::Hybrid);
        let run = ModelRun {
            point: point.name.clone(),
            hosts,
            packet_delivered_bytes: packet.delivered_bytes,
            hybrid_delivered_bytes: hybrid.delivered_bytes,
            packet_relative_power: packet.relative_power(&LinkPowerProfile::Measured),
            hybrid_relative_power: hybrid.relative_power(&LinkPowerProfile::Measured),
            packet_wall_ms,
            hybrid_wall_ms,
        };
        assert!(
            run.bytes_rel_err() <= HYBRID_TOLERANCE,
            "{}: hybrid delivered-bytes error {:.4} exceeds tolerance {}",
            point.name,
            run.bytes_rel_err(),
            HYBRID_TOLERANCE
        );
        assert!(
            run.power_abs_err() <= HYBRID_TOLERANCE,
            "{}: hybrid relative-power error {:.4} exceeds tolerance {}",
            point.name,
            run.power_abs_err(),
            HYBRID_TOLERANCE
        );
        runs.push(run);
    }
    ModelAxis {
        tolerance: HYBRID_TOLERANCE,
        runs,
    }
}

/// Renders runs plus the threads, hybrid-threads, and models axes as
/// the `BENCH_scale.json` document.
pub fn render(
    runs: &[ScaleRun],
    threads: &ThreadsAxis,
    hybrid_threads: &ThreadsAxis,
    models: &ModelAxis,
) -> String {
    let doc = Value::Map(vec![
        ("schema".into(), Value::Str(SCHEMA.into())),
        (
            "scenario".into(),
            Value::Str(
                "uniform30+search sweep + hybrid bulk-flow scale points, \
                 steady-state alloc meter"
                    .into(),
            ),
        ),
        (
            "benches".into(),
            Value::Seq(runs.iter().map(ScaleRun::to_value).collect()),
        ),
        ("threads".into(), threads.to_value()),
        ("hybrid_threads".into(), hybrid_threads.to_value()),
        ("models".into(), models.to_value()),
    ]);
    let mut out = serde_json::to_string_pretty(&doc).expect("value tree serializes");
    out.push('\n');
    out
}

/// Path of `BENCH_scale.json` at the repository root.
pub fn output_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json")
}

/// Validates one threads-shaped axis (`threads` or `hybrid_threads`)
/// of a `BENCH_scale.json` document: present, serial baseline first,
/// positive timings at every width.
fn check_threads_axis(v: &Value, key: &str) -> Result<(), String> {
    let threads = v.get(key).ok_or_else(|| format!("missing '{key}' axis"))?;
    threads
        .get("point")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{key} axis missing 'point'"))?;
    let hw = threads
        .get("hw_threads")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{key} axis missing 'hw_threads'"))?;
    if hw == 0 {
        return Err(format!("{key} axis reports zero hardware threads"));
    }
    let truns = threads
        .get("runs")
        .and_then(Value::as_seq)
        .ok_or_else(|| format!("{key} axis missing 'runs' array"))?;
    if truns.len() < 2 {
        return Err(format!(
            "{key} axis needs the serial baseline plus at least one width"
        ));
    }
    for (i, r) in truns.iter().enumerate() {
        let t = r
            .get("threads")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{key} run missing 'threads'"))?;
        if i == 0 && t != 0 {
            return Err(format!(
                "first {key} run must be the serial baseline (threads=0)"
            ));
        }
        for field in ["wall_ms", "events_per_sec", "speedup_vs_serial"] {
            let x = r
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{key} run {t} missing '{field}'"))?;
            if !(x.is_finite() && x > 0.0) {
                return Err(format!("{key} run {t} has non-positive '{field}'"));
            }
        }
    }
    Ok(())
}

/// Validates a `BENCH_scale.json` document; returns its bench names.
///
/// # Errors
///
/// Describes the first missing or mistyped field.
pub fn validate(doc: &str) -> Result<Vec<String>, String> {
    let v: Value = serde_json::from_str(doc).map_err(|e| format!("not JSON: {e}"))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema '{other}'")),
        None => return Err("missing 'schema'".into()),
    }
    let benches = v
        .get("benches")
        .and_then(Value::as_seq)
        .ok_or("missing 'benches' array")?;
    if benches.is_empty() {
        return Err("'benches' is empty".into());
    }
    let mut names = Vec::new();
    let mut million_point = false;
    for b in benches {
        let name = b
            .get("name")
            .and_then(Value::as_str)
            .ok_or("bench missing 'name'")?;
        let model = match b.get("model").and_then(Value::as_str) {
            Some(m @ ("packet" | "hybrid")) => m,
            Some(other) => {
                return Err(format!("bench '{name}' has unknown model '{other}'"));
            }
            None => return Err(format!("bench '{name}' missing 'model'")),
        };
        let mut wall_ms = 0.0;
        for field in ["events_per_sec", "delivered_bytes_per_sec", "wall_ms"] {
            let rate = b
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("bench '{name}' missing '{field}'"))?;
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("bench '{name}' has non-positive '{field}'"));
            }
            if field == "wall_ms" {
                wall_ms = rate;
            }
        }
        let ape = b
            .get("allocs_per_event")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("bench '{name}' missing 'allocs_per_event'"))?;
        if !(ape.is_finite() && ape >= 0.0) {
            return Err(format!("bench '{name}' has invalid 'allocs_per_event'"));
        }
        for field in [
            "hosts",
            "channels",
            "peak_alloc_bytes",
            "measured_events",
            "measured_allocs",
            "sim_events",
            "sim_packets",
            "sim_delivered_bytes",
        ] {
            if b.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("bench '{name}' missing '{field}'"));
            }
        }
        if model == "hybrid" {
            let hosts = b.get("hosts").and_then(Value::as_u64).unwrap_or(0).max(1);
            let peak = b
                .get("peak_alloc_bytes")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            if peak > hosts.saturating_mul(HYBRID_PEAK_HEAP_PER_HOST) {
                return Err(format!(
                    "bench '{name}': peak heap {} B/host exceeds the {} B/host bound",
                    peak / hosts,
                    HYBRID_PEAK_HEAP_PER_HOST
                ));
            }
            if hosts >= MILLION_HOSTS {
                million_point = true;
                if wall_ms > MILLION_HOST_WALL_BUDGET_MS {
                    return Err(format!(
                        "bench '{name}': wall {wall_ms:.0} ms exceeds the million-host \
                         budget of {MILLION_HOST_WALL_BUDGET_MS:.0} ms"
                    ));
                }
            }
        }
        names.push(name.to_string());
    }
    if !million_point {
        return Err(format!(
            "no hybrid bench at >= {MILLION_HOSTS} hosts (v5 requires the million-host point)"
        ));
    }
    check_threads_axis(&v, "threads")?;
    check_threads_axis(&v, "hybrid_threads")?;
    let models = v.get("models").ok_or("missing 'models' axis")?;
    let tolerance = models
        .get("tolerance")
        .and_then(Value::as_f64)
        .ok_or("models axis missing 'tolerance'")?;
    if !(tolerance.is_finite() && tolerance > 0.0) {
        return Err("models axis has non-positive 'tolerance'".into());
    }
    let mruns = models
        .get("runs")
        .and_then(Value::as_seq)
        .ok_or("models axis missing 'runs' array")?;
    if mruns.is_empty() {
        return Err("models axis has no validation points".into());
    }
    for r in mruns {
        let point = r
            .get("point")
            .and_then(Value::as_str)
            .ok_or("models run missing 'point'")?;
        for field in ["hosts", "packet_delivered_bytes", "hybrid_delivered_bytes"] {
            if r.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("models run '{point}' missing '{field}'"));
            }
        }
        for field in [
            "packet_relative_power",
            "hybrid_relative_power",
            "packet_wall_ms",
            "hybrid_wall_ms",
        ] {
            let x = r
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("models run '{point}' missing '{field}'"))?;
            if !(x.is_finite() && x >= 0.0) {
                return Err(format!("models run '{point}' has invalid '{field}'"));
            }
        }
        for field in ["bytes_rel_err", "power_abs_err"] {
            let err = r
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("models run '{point}' missing '{field}'"))?;
            if !(err.is_finite() && err >= 0.0) {
                return Err(format!("models run '{point}' has invalid '{field}'"));
            }
            if err > tolerance {
                return Err(format!(
                    "models run '{point}': '{field}' {err} exceeds tolerance {tolerance}"
                ));
            }
        }
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(name: &str) -> ScaleRun {
        ScaleRun {
            name: name.to_string(),
            model: SimModel::Packet,
            hosts: 16,
            channels: 88,
            wall_ms: 10.0,
            sim_events: 1_000,
            sim_packets: 100,
            sim_delivered_bytes: 64_000,
            measured_events: 500,
            measured_allocs: 0,
            peak_alloc_bytes: 1 << 20,
        }
    }

    /// A hybrid bench at [`MILLION_HOSTS`] inside both pinned budgets;
    /// v5 documents are invalid without one.
    fn sample_million_run() -> ScaleRun {
        ScaleRun {
            name: "hybrid_fbfly_32x32x4".to_string(),
            model: SimModel::Hybrid,
            hosts: MILLION_HOSTS,
            channels: 5_144_576,
            wall_ms: 20_000.0,
            sim_events: 1_000_000,
            sim_packets: 0,
            sim_delivered_bytes: 1 << 40,
            measured_events: 500_000,
            measured_allocs: 0,
            peak_alloc_bytes: MILLION_HOSTS * 1200,
        }
    }

    fn sample_axis() -> ThreadsAxis {
        ThreadsAxis {
            point: "fbfly_2x8x2".to_string(),
            hw_threads: 4,
            runs: vec![
                ThreadsRun {
                    threads: 0,
                    wall_ms: 10.0,
                    sim_events: 1_000,
                },
                ThreadsRun {
                    threads: 2,
                    wall_ms: 8.0,
                    sim_events: 1_000,
                },
            ],
        }
    }

    fn sample_hybrid_axis() -> ThreadsAxis {
        ThreadsAxis {
            point: "hybrid_fbfly_32x32x4".to_string(),
            hw_threads: 4,
            runs: vec![
                ThreadsRun {
                    threads: 0,
                    wall_ms: 20_000.0,
                    sim_events: 1_000_000,
                },
                ThreadsRun {
                    threads: 2,
                    wall_ms: 25_000.0,
                    sim_events: 1_000_000,
                },
            ],
        }
    }

    fn sample_model_run(point: &str) -> ModelRun {
        ModelRun {
            point: point.to_string(),
            hosts: 16,
            packet_delivered_bytes: 64_000,
            hybrid_delivered_bytes: 63_000,
            packet_relative_power: 0.6,
            hybrid_relative_power: 0.58,
            packet_wall_ms: 10.0,
            hybrid_wall_ms: 2.0,
        }
    }

    fn sample_models() -> ModelAxis {
        ModelAxis {
            tolerance: HYBRID_TOLERANCE,
            runs: vec![sample_model_run("fbfly_2x8x2")],
        }
    }

    /// Renders `runs` with the full set of sample axes.
    fn render_sample(runs: &[ScaleRun]) -> String {
        render(
            runs,
            &sample_axis(),
            &sample_hybrid_axis(),
            &sample_models(),
        )
    }

    #[test]
    fn rendered_document_validates() {
        let runs = vec![
            sample_run("fbfly_2x8x2"),
            sample_run("clos_nb4"),
            sample_million_run(),
        ];
        let doc = render_sample(&runs);
        let names = validate(&doc).expect("schema holds");
        assert_eq!(
            names,
            vec!["fbfly_2x8x2", "clos_nb4", "hybrid_fbfly_32x32x4"]
        );
    }

    #[test]
    fn validate_requires_the_threads_axes() {
        let runs = vec![sample_run("fbfly_2x8x2"), sample_million_run()];
        let doc = render_sample(&runs);
        // Strip each threads-shaped section: the schema must reject it.
        for key in ["threads", "hybrid_threads"] {
            let mut v: Value = serde_json::from_str(&doc).unwrap();
            if let Value::Map(entries) = &mut v {
                entries.retain(|(k, _)| k != key);
            }
            let stripped = serde_json::to_string_pretty(&v).unwrap();
            assert!(validate(&stripped).is_err(), "{key} axis is required");
        }

        // A v2-style axis keyed `hardware_threads` must be rejected.
        let renamed = doc.replace("hw_threads", "hardware_threads");
        assert!(validate(&renamed).is_err(), "v2 field name must fail");

        // And a baseline-less axis must be rejected too.
        let mut axis = sample_axis();
        axis.runs.remove(0);
        let doc = render(&runs, &axis, &sample_hybrid_axis(), &sample_models());
        assert!(validate(&doc).is_err());
    }

    #[test]
    fn validate_enforces_the_million_host_budgets() {
        // A document whose only hybrid bench is below 2^20 hosts is a
        // v4-shaped sweep and must be rejected.
        let small_only = vec![sample_run("fbfly_2x8x2")];
        assert!(
            validate(&render_sample(&small_only))
                .unwrap_err()
                .contains("million-host"),
            "the million-host point is required"
        );

        // Per-host peak heap over the pinned bound.
        let mut fat = sample_million_run();
        fat.peak_alloc_bytes = MILLION_HOSTS * (HYBRID_PEAK_HEAP_PER_HOST + 1);
        let err = validate(&render_sample(&[sample_run("fbfly_2x8x2"), fat])).unwrap_err();
        assert!(err.contains("B/host"), "{err}");

        // Wall clock over the pinned budget.
        let mut slow = sample_million_run();
        slow.wall_ms = MILLION_HOST_WALL_BUDGET_MS * 2.0;
        let err = validate(&render_sample(&[sample_run("fbfly_2x8x2"), slow])).unwrap_err();
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    fn validate_requires_the_models_axis() {
        let runs = vec![sample_run("fbfly_2x8x2"), sample_million_run()];
        let doc = render_sample(&runs);
        assert!(validate(&doc).is_ok());

        // Strip the models axis entirely.
        let mut v: Value = serde_json::from_str(&doc).unwrap();
        if let Value::Map(entries) = &mut v {
            entries.retain(|(k, _)| k != "models");
        }
        let stripped = serde_json::to_string_pretty(&v).unwrap();
        assert!(validate(&stripped).is_err(), "models axis is required");

        // An empty validation set must be rejected.
        let empty = ModelAxis {
            tolerance: HYBRID_TOLERANCE,
            runs: Vec::new(),
        };
        let doc_empty = render(&runs, &sample_axis(), &sample_hybrid_axis(), &empty);
        assert!(validate(&doc_empty).is_err());

        // An out-of-tolerance point must be rejected even if the
        // producer forgot to assert.
        let mut drifted = sample_models();
        drifted.runs[0].hybrid_delivered_bytes = 1;
        let doc_drifted = render(&runs, &sample_axis(), &sample_hybrid_axis(), &drifted);
        assert!(validate(&doc_drifted).is_err());

        // Benches without a model tag are pre-v4 documents.
        let untagged = doc.replace("\"model\": \"packet\",", "");
        assert!(validate(&untagged).is_err(), "model tag is required");
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"schema": "epnet-bench-scale/v1"}"#).is_err());
        assert!(
            validate(r#"{"schema": "epnet-bench-scale/v1", "benches": []}"#).is_err(),
            "empty bench list must be rejected"
        );
        // A document without allocator fields (e.g. an engine-bench
        // doc under the wrong name) must not pass.
        let engine_shaped = crate::enginebench::render(&[crate::enginebench::EngineRun {
            name: "route_table",
            wall_ms: 1.0,
            sim_events: 1,
            sim_packets: 1,
            sim_delivered_bytes: 1,
        }])
        .replace(crate::enginebench::SCHEMA, SCHEMA);
        assert!(validate(&engine_shaped).is_err());
    }

    #[test]
    fn sweep_scales_from_canonical_to_paper() {
        let full = sweep(false);
        assert_eq!(full.first().map(|p| p.name.as_str()), Some("fbfly_2x8x2"));
        assert!(full.iter().any(|p| p.name == "fbfly_15x15x2"));
        assert!(full.iter().any(|p| p.name.starts_with("clos")));
        let reduced = sweep(true);
        assert!(reduced.len() < full.len());
        assert!(reduced.iter().all(|p| p.horizon == REDUCED_HORIZON));
    }

    #[test]
    fn sweep_reaches_solnushkin_scale_under_the_hybrid_model() {
        for reduced in [false, true] {
            let points = sweep(reduced);
            // Every hybrid point runs the bulk-flow recipe; every
            // packet point runs the canonical mix.
            for p in &points {
                let expect = match p.model {
                    SimModel::Packet => Recipe::Canonical,
                    SimModel::Hybrid => Recipe::BulkFlows,
                };
                assert_eq!(p.recipe, expect, "{}", p.name);
                assert_eq!(p.name.starts_with("hybrid_"), p.model == SimModel::Hybrid);
            }
            // The acceptance point: a >= 10^5-host fabric, present even
            // under --reduced (only the hybrid model makes it cheap).
            let big = points
                .iter()
                .find(|p| p.name == "hybrid_fbfly_32x16x4")
                .expect("scale point present");
            assert_eq!(big.model, SimModel::Hybrid);
            let hosts = simulator_for_hosts(big);
            assert!(hosts >= 100_000, "{hosts} hosts");
            // The v5 acceptance point: a true 2^20-host fabric, present
            // even under --reduced.
            let million = points
                .iter()
                .find(|p| p.name == "hybrid_fbfly_32x32x4")
                .expect("million-host point present");
            assert_eq!(million.model, SimModel::Hybrid);
            assert_eq!(simulator_for_hosts(million), MILLION_HOSTS);
        }
    }

    /// Host count of a point's fabric without running it.
    fn simulator_for_hosts(point: &ScalePoint) -> u64 {
        match point.topo {
            ScaleTopo::Fbfly { c, k, n } | ScaleTopo::FbflyGrouped { c, k, n } => {
                let switches = (k as u64).pow(n as u32 - 1);
                c as u64 * switches
            }
            ScaleTopo::ClosNonBlocking { c } => 2 * (c as u64) * (c as u64),
            ScaleTopo::ClosMultiPod { c, pods } => pods as u64 * (c as u64) * (c as u64),
        }
    }

    #[test]
    fn axis_point_skips_the_hybrid_tail() {
        let full = sweep(false);
        assert_eq!(axis_point(&full).name, "fbfly_15x15x2");
        let reduced = sweep(true);
        assert_eq!(axis_point(&reduced).name, "clos_nb4");
    }

    #[test]
    fn hybrid_axis_point_is_the_million_host_flat() {
        for reduced in [false, true] {
            let points = sweep(reduced);
            assert_eq!(hybrid_axis_point(&points).name, "hybrid_fbfly_32x32x4");
        }
    }
}
