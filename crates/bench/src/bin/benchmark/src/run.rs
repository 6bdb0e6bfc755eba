//! One benchmark run of one workload: untraced repeats for the
//! end-to-end metrics, or a traced run for the per-layer metrics, with
//! every report checked.

use crate::alloc;
use crate::scenario::{Reference, Scenario, SetupTime, SourceTime, Timed, MODEL_TOLERANCE};
use crate::stats::median;
use epnet_power::LinkPowerProfile;
use epnet_sim::{SimConfig, SimModel, SimReport, SimTime, Simulator};
use epnet_topology::RoutingTopology;
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Set-ups timed per run at least, however few repeats fit: set-up is
/// short next to a run, so one sample would be mostly noise.
const MIN_SETUPS: usize = 3;

/// Further set-ups are timed while all of them add up to less than this
/// (paper-fabric set-ups take milliseconds) ...
const SETUP_BUDGET: Duration = Duration::from_millis(250);

/// ... up to this many.
const MAX_SETUPS: usize = 200;

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Repeats whose reports were checked.
    pub attempted: u64,
    /// Repeats that failed a check or panicked.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// Metric values, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Seed, host, repeats and simulated outputs, for the record.
    pub record: Value,
}

/// One untraced simulation.
#[derive(Clone)]
struct Rep {
    setup: SetupTime,
    hosts: u64,
    run_s: f64,
    peak_bytes: u64,
    report: SimReport,
    doc: String,
}

/// Sets `EPNET_PAR` for the life of the guard. The engine reads it in
/// `run_until`; the benchmark never runs two simulations at once.
struct ParWidth;

impl ParWidth {
    fn set(width: usize) -> Self {
        std::env::set_var("EPNET_PAR", width.to_string());
        ParWidth
    }
}

impl Drop for ParWidth {
    fn drop(&mut self) {
        std::env::remove_var("EPNET_PAR");
    }
}

fn untraced(sc: &Scenario, seed: u64) -> Rep {
    alloc::reset_peak();
    let (sim, setup) = sc.build(seed, |s| s);
    let hosts = sim.fabric().num_hosts() as u64;
    let _par = sc.par.map(ParWidth::set);
    let start = Instant::now();
    let report = sim.run_until(sc.horizon);
    let run_s = start.elapsed().as_secs_f64();
    let peak_bytes = alloc::peak();
    let doc = serde_json::to_string(&report).expect("reports serialize");
    Rep {
        setup,
        hosts,
        run_s,
        peak_bytes,
        report,
        doc,
    }
}

/// A timed interval of the traced run, relative to the run's start.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Duration,
    dur: Duration,
    events: u64,
}

/// One traced simulation.
struct Traced {
    setup: SetupTime,
    run_s: f64,
    doc: String,
    spans: Vec<Span>,
    layers: Vec<(&'static str, f64)>,
}

/// Runs `sc` serially through the phased API in chunks split at every
/// controller epoch instant `t_k`: `advance_until(t_k - 1 ps)` processes
/// the events between ticks, `advance_until(t_k)` the tick and any event
/// co-timed with it. Each call is timed from outside.
fn traced(sc: &Scenario, seed: u64) -> Traced {
    let time = Rc::new(SourceTime::default());
    let (mut sim, setup) = sc.build(seed, |s| Timed::new(s, Rc::clone(&time)));
    let epoch = SimConfig::default().epoch.as_ps();
    let horizon = sc.horizon.as_ps();
    // Reserved up front so the allocation meter sees only the engine.
    let mut spans = Vec::with_capacity(2 * (horizon / epoch) as usize + 4);

    let origin = Instant::now();
    sim.prime(sc.horizon);
    spans.push(Span {
        name: "sim.prime",
        start: Duration::ZERO,
        dur: origin.elapsed(),
        events: 0,
    });
    // Times one `advance_until`; returns its span and the generator
    // time inside it.
    let mut chunk = |sim: &mut Simulator<Timed>, name: &'static str, until: u64| {
        let (events0, gen0) = (sim.events_processed(), time.ns.get());
        let start = Instant::now();
        sim.advance_until(SimTime::from_ps(until));
        let span = Span {
            name,
            start: start - origin,
            dur: start.elapsed(),
            events: sim.events_processed() - events0,
        };
        spans.push(span);
        (span, Duration::from_nanos(time.ns.get() - gen0))
    };

    let (mut events_s, mut events) = (Duration::ZERO, 0);
    let (mut tick_s, mut tick_max, mut cotimed) = (Duration::ZERO, Duration::ZERO, 0);
    let mut half_mark = None;
    let mut instant = epoch;
    while instant <= horizon {
        let (span, gen) = chunk(&mut sim, "engine.events", instant - 1);
        events_s += span.dur.saturating_sub(gen);
        events += span.events;
        if instant >= horizon / 2 && half_mark.is_none() {
            half_mark = Some((alloc::allocs(), sim.events_processed()));
        }
        let (span, gen) = chunk(&mut sim, "epoch.tick", instant);
        tick_s += span.dur.saturating_sub(gen);
        tick_max = tick_max.max(span.dur);
        cotimed += span.events.saturating_sub(1);
        instant += epoch;
    }
    let (span, gen) = chunk(&mut sim, "engine.events", horizon);
    events_s += span.dur.saturating_sub(gen);
    events += span.events;
    let (allocs_end, events_end) = (alloc::allocs(), sim.events_processed());

    let start = Instant::now();
    let report = sim.finalize();
    spans.push(Span {
        name: "sim.finalize",
        start: start - origin,
        dur: start.elapsed(),
        events: 0,
    });
    let run = origin.elapsed();
    let covered: Duration = spans.iter().map(|s| s.dur).sum();

    let (mark_allocs, mark_events) = half_mark.unwrap_or((allocs_end, events_end));
    let d = |k: &str| report.diagnostics.get(k).copied().unwrap_or(0) as f64;
    let decisions = report.controller_decisions as f64;
    let layers = vec![
        ("engine.events_s", events_s.as_secs_f64()),
        ("engine.events", events as f64),
        (
            "engine.ns_per_event",
            ratio(events_s.as_nanos() as f64, events as f64),
        ),
        (
            "engine.allocs_per_event",
            ratio(
                (allocs_end - mark_allocs) as f64,
                (events_end - mark_events) as f64,
            ),
        ),
        ("epoch.tick_s", tick_s.as_secs_f64()),
        ("epoch.ticks", report.epoch_ticks as f64),
        ("epoch.tick_max_ms", tick_max.as_secs_f64() * 1e3),
        ("epoch.cotimed_events", cotimed as f64),
        ("controller.decisions", decisions),
        (
            "controller.decisions_per_tick",
            ratio(decisions, report.epoch_ticks as f64),
        ),
        ("flows.absorbed", d("flows_absorbed")),
        ("flows.demoted", d("flows_demoted")),
        ("flows.completed", d("flows_completed")),
        (
            "flows.demote_ratio",
            ratio(d("flows_demoted"), d("flows_absorbed")),
        ),
        ("flows.table_peak", d("flow_table_peak")),
        ("workloads.next_s", time.ns.get() as f64 / 1e9),
        ("workloads.messages", time.messages.get() as f64),
        (
            "sim.finalize_s",
            spans.last().map_or(0.0, |s| s.dur.as_secs_f64()),
        ),
        (
            "trace.coverage",
            ratio(covered.as_secs_f64(), run.as_secs_f64()),
        ),
    ];
    let doc = serde_json::to_string(&report).expect("reports serialize");
    Traced {
        setup,
        run_s: run.as_secs_f64(),
        doc,
        spans,
        layers,
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload bypasses).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Hybrid-vs-packet errors: relative delivered bytes, and absolute
/// difference in relative power under the measured link profile.
fn model_errors(hybrid: &SimReport, packet: &SimReport) -> (f64, f64) {
    let p = packet.delivered_bytes as f64;
    let bytes = if p == 0.0 {
        0.0
    } else {
        (hybrid.delivered_bytes as f64 - p).abs() / p
    };
    let profile = LinkPowerProfile::Measured;
    let power = (hybrid.relative_power(&profile) - packet.relative_power(&profile)).abs();
    (bytes, power)
}

/// The checks every repeat's report must pass; returns what failed.
fn check(sc: &Scenario, rep: &Rep, first: &str, reference: Option<&Rep>) -> Vec<String> {
    let mut bad = Vec::new();
    if rep.doc != first {
        bad.push("report differs from the first repeat's".to_string());
    }
    if rep.report.delivered_bytes == 0 {
        bad.push("no bytes delivered".to_string());
    }
    match (sc.reference, reference) {
        (Reference::Serial, Some(r)) if rep.doc != r.doc => {
            bad.push("report differs from the serial engine's".to_string());
        }
        (Reference::PacketModel, Some(r)) => {
            let (bytes, power) = model_errors(&rep.report, &r.report);
            if bytes > MODEL_TOLERANCE || power > MODEL_TOLERANCE {
                bad.push(format!(
                    "hybrid vs packet error bytes {bytes:.4} power {power:.4} exceeds {MODEL_TOLERANCE}"
                ));
            }
        }
        _ => {}
    }
    if let Some(b) = sc.budget {
        let per_host = rep.peak_bytes / rep.hosts.max(1);
        if per_host > b.heap_per_host {
            bad.push(format!(
                "peak heap {per_host} B/host exceeds {} B/host",
                b.heap_per_host
            ));
        }
        if rep.run_s > b.run_s {
            bad.push(format!("run took {:.1} s, over {} s", rep.run_s, b.run_s));
        }
    }
    bad
}

/// The run `sc`'s reports are checked against, if any.
fn reference(sc: &Scenario, seed: u64) -> Option<Rep> {
    let other = match sc.reference {
        Reference::None => return None,
        Reference::PacketModel => Scenario {
            model: SimModel::Packet,
            ..*sc
        },
        Reference::Serial => Scenario { par: None, ..*sc },
    };
    Some(untraced(&other, seed))
}

/// Runs `f`, turning a panic into a failure line.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, Vec<String>> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| vec!["panicked".to_string()])
}

/// The checked repeats of one invocation.
struct Runs<'a> {
    sc: &'a Scenario,
    seed: u64,
    reference: Option<Rep>,
    /// The first repeat that completed; later ones must match it.
    first: Option<Rep>,
    setups: Vec<SetupTime>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl<'a> Runs<'a> {
    /// Starts with `sc`'s reference run, if it has one.
    fn new(sc: &'a Scenario, seed: u64) -> Self {
        let mut runs = Runs {
            sc,
            seed,
            reference: None,
            first: None,
            setups: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        };
        if sc.reference != Reference::None {
            match guarded(|| reference(sc, seed)) {
                Ok(r) => runs.reference = r,
                Err(bad) => runs.count("reference", bad),
            }
        }
        runs
    }

    /// Counts one repeat, failed if `bad` is non-empty.
    fn count(&mut self, what: &str, bad: Vec<String>) {
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            let n = self.attempted;
            self.failures
                .extend(bad.into_iter().map(|b| format!("{what} {n}: {b}")));
        }
    }

    /// One checked untraced repeat of `sc` (the workload, or its serial
    /// twin).
    fn untraced(&mut self, sc: &Scenario) -> Option<Rep> {
        match guarded(|| untraced(sc, self.seed)) {
            Ok(rep) => {
                let first = self.first.as_ref().map_or(&rep.doc, |f| &f.doc);
                let mut bad = check(self.sc, &rep, first, self.reference.as_ref());
                if self.sc.reference != Reference::None && self.reference.is_none() {
                    bad.push("no reference run to check against".into());
                }
                self.count("repeat", bad);
                self.setups.push(rep.setup);
                if self.first.is_none() {
                    self.first = Some(rep.clone());
                }
                Some(rep)
            }
            Err(bad) => {
                self.count("repeat", bad);
                None
            }
        }
    }

    /// One checked traced repeat.
    fn traced(&mut self) -> Option<Traced> {
        match guarded(|| traced(self.sc, self.seed)) {
            Ok(t) => {
                let mut bad = Vec::new();
                if self.first.as_ref().is_some_and(|f| f.doc != t.doc) {
                    bad.push("traced report differs from the untraced one".to_string());
                }
                self.count("traced repeat", bad);
                self.setups.push(t.setup);
                Some(t)
            }
            Err(bad) => {
                self.count("traced repeat", bad);
                None
            }
        }
    }

    /// Times further set-ups until there are enough for a steady
    /// median, and returns the median of `part` over all of them.
    fn setup_median(&mut self, part: fn(&SetupTime) -> Duration) -> f64 {
        let mut total: Duration = self.setups.iter().map(SetupTime::total).sum();
        while self.setups.len() < MIN_SETUPS
            || (total < SETUP_BUDGET && self.setups.len() < MAX_SETUPS)
        {
            let (sim, setup) = self.sc.build(self.seed, |s| s);
            drop(sim);
            total += setup.total();
            self.setups.push(setup);
        }
        let values: Vec<f64> = self.setups.iter().map(|s| part(s).as_secs_f64()).collect();
        median(&values)
    }
}

/// Runs workload `sc` from `seed` for about `seconds` seconds: untraced
/// repeats for the end-to-end metrics, or (with `trace`) traced repeats
/// for the per-layer metrics.
pub fn bench(sc: &Scenario, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let mut runs = Runs::new(sc, seed);
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut run_s = Vec::new();
    let metrics = if trace {
        // The phased API the traced run drives is serial-only, so a
        // parallel workload runs its parallel engine once, for the
        // window counters, and is traced (and timed untraced) serially.
        let par_run = sc.par.and_then(|_| runs.untraced(sc));
        let serial = Scenario { par: None, ..*sc };
        let mut traced = Vec::new();
        // Untraced and traced repeats alternate, so host drift hits both
        // alike; the first untraced one also warms the allocator.
        run_s.extend(runs.untraced(&serial).map(|r| r.run_s));
        loop {
            traced.extend(runs.traced());
            run_s.extend(runs.untraced(&serial).map(|r| r.run_s));
            if start.elapsed() >= budget {
                break;
            }
        }
        let untraced_s = median(&run_s);
        let traced_s = median(&traced.iter().map(|t| t.run_s).collect::<Vec<_>>());
        let mut m = layer_medians(&traced);
        let (bytes_err, power_err) = match (&runs.first, &runs.reference) {
            (Some(f), Some(r)) if sc.reference == Reference::PacketModel => {
                model_errors(&f.report, &r.report)
            }
            _ => (0.0, 0.0),
        };
        m.push(("flows.bytes_err", bytes_err));
        m.push(("flows.power_err", power_err));
        m.extend(par_layers(par_run.as_ref(), untraced_s));
        m.push(("topology.build_s", runs.setup_median(|s| s.topology)));
        m.push(("sim.build_s", runs.setup_median(|s| s.sim)));
        m.push(("workloads.build_s", runs.setup_median(|s| s.workloads)));
        m.push(("trace.overhead", ratio(traced_s, untraced_s)));
        if let Some(t) = traced.last() {
            write_chrome_trace(sc.name, t);
        }
        in_declared_order(m, crate::metrics::PER_LAYER)
    } else {
        let mut peaks = Vec::new();
        loop {
            if let Some(rep) = runs.untraced(sc) {
                run_s.push(rep.run_s);
                peaks.push(rep.peak_bytes as f64);
            }
            if start.elapsed() >= budget {
                break;
            }
        }
        vec![
            ("run_s", median(&run_s)),
            ("setup_s", runs.setup_median(SetupTime::total)),
            ("peak_heap_mb", median(&peaks) / 1e6),
        ]
    };
    Outcome {
        attempted: runs.attempted,
        failed: runs.failed,
        record: record(sc, seed, trace, runs.first.as_ref(), &run_s),
        failures: runs.failures,
        metrics,
    }
}

/// Per-layer values of the traced repeats, each the median over them.
fn layer_medians(runs: &[Traced]) -> Vec<(&'static str, f64)> {
    let Some(last) = runs.last() else {
        return Vec::new();
    };
    last.layers
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let values: Vec<f64> = runs.iter().map(|t| t.layers[i].1).collect();
            (name, median(&values))
        })
        .collect()
}

/// Window-shape counters of the parallel run, and its speed-up over
/// the serial engine's `serial_s`; zero for serial workloads.
fn par_layers(run: Option<&Rep>, serial_s: f64) -> Vec<(&'static str, f64)> {
    let d = |k: &str| {
        run.and_then(|r| r.report.diagnostics.get(k).copied())
            .unwrap_or(0) as f64
    };
    let windows = d("par_windows");
    vec![
        ("par.windows", windows),
        (
            "par.events_per_window",
            ratio(d("par_window_events"), windows),
        ),
        ("par.replay_events", d("par_replay_events")),
        ("par.cross_events", d("par_cross_events")),
        ("par.cross_batches", d("par_cross_batches")),
        (
            "par.speedup_vs_serial",
            run.map_or(0.0, |r| ratio(serial_s, r.run_s)),
        ),
    ]
}

/// Orders `values` as `declared` lists them. Values the table does not
/// declare are dropped, and declared ones without a value are left out,
/// so a test comparing emitted names with the table catches either.
fn in_declared_order(
    values: Vec<(&'static str, f64)>,
    declared: &[crate::metrics::Metric],
) -> Vec<(&'static str, f64)> {
    declared
        .iter()
        .filter_map(|m| values.iter().find(|(n, _)| *n == m.name).copied())
        .collect()
}

/// Seed, host, every untraced repeat's time, and the simulated outputs a
/// speed-only change must leave identical.
fn record(sc: &Scenario, seed: u64, trace: bool, first: Option<&Rep>, run_s: &[f64]) -> Value {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let mut fields = vec![
        ("workload".to_string(), Value::Str(sc.name.into())),
        ("seed".to_string(), Value::U64(seed)),
        ("trace".to_string(), Value::Bool(trace)),
        ("hw_threads".to_string(), Value::U64(hw)),
        (
            "repeats_run_s".to_string(),
            Value::Seq(run_s.iter().map(|&s| Value::F64(s)).collect()),
        ),
    ];
    if let Some(r) = first {
        fields.extend([
            ("hosts".to_string(), Value::U64(r.hosts)),
            (
                "delivered_bytes".to_string(),
                Value::U64(r.report.delivered_bytes),
            ),
            (
                "relative_power".to_string(),
                Value::F64(r.report.relative_power(&LinkPowerProfile::Measured)),
            ),
            ("events".to_string(), Value::U64(r.report.events_processed)),
            (
                "report_digest".to_string(),
                Value::Str(format!("{:016x}", fnv1a(r.doc.as_bytes()))),
            ),
        ]);
    }
    Value::Map(fields)
}

/// 64-bit FNV-1a: a digest stable across platforms and toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Writes the traced run's spans as chrome-trace JSON under the build
/// directory (`$CARGO_TARGET_DIR`, else `target`), one slice per chunk
/// inside the run's slice.
fn write_chrome_trace(workload: &str, t: &Traced) {
    let us = |d: Duration| Value::F64(d.as_secs_f64() * 1e6);
    let slice = |name: &str, start: Duration, dur: Duration, args: Vec<(String, Value)>| {
        Value::Map(vec![
            ("name".into(), Value::Str(name.into())),
            ("ph".into(), Value::Str("X".into())),
            ("pid".into(), Value::U64(1)),
            ("tid".into(), Value::U64(1)),
            ("ts".into(), us(start)),
            ("dur".into(), us(dur)),
            ("args".into(), Value::Map(args)),
        ])
    };
    let run = Duration::from_secs_f64(t.run_s);
    let mut events = vec![slice(workload, Duration::ZERO, run, Vec::new())];
    events.extend(t.spans.iter().map(|s| {
        slice(
            s.name,
            s.start,
            s.dur,
            vec![
                ("events".into(), Value::U64(s.events)),
                ("parent".into(), Value::Str(workload.into())),
            ],
        )
    }));
    let doc = Value::Map(vec![("traceEvents".into(), Value::Seq(events))]);
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark");
    let path = dir.join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string(&doc).expect("trace serializes"),
        )
    });
    match written {
        Ok(()) => eprintln!("benchmark: wrote {}", path.display()),
        Err(e) => eprintln!("benchmark: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::SMOKE;
    use epnet_sim::TrafficSource;

    fn drain(mut source: impl TrafficSource) -> Vec<epnet_sim::Message> {
        std::iter::from_fn(|| source.next_message()).collect()
    }

    #[test]
    fn the_seed_fixes_the_inputs() {
        let sc = &SMOKE[0];
        let hosts = sc.build_fabric().num_hosts() as u32;
        let a = drain(sc.build_source(hosts, 7));
        assert!(!a.is_empty());
        assert_eq!(a, drain(sc.build_source(hosts, 7)));
        assert_ne!(a, drain(sc.build_source(hosts, 8)));
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
