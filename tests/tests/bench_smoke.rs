//! In-process twin of `scripts/bench_smoke.sh`: exercises the
//! scheduler hold model against the binary-heap oracle, one small
//! parallel sweep,
//! and the canonical `BENCH_engine.json` scenario, asserting
//! correctness (identical pop streams, well-formed cells, schema
//! validity) rather than speed — wall-clock assertions would flake on
//! loaded machines, so the perf claims live in the benchmarks and
//! EXPERIMENTS.md.

use epnet::exp::sweep::SensitivitySweep;
use epnet::exp::{EvalScale, WorkloadKind};
use epnet::sim::sched::KeyedQueue;
use epnet::sim::{MemorySink, RunOptions, Scheduler, SimModel, SimTime, TraceCategory, Tracer};
use epnet_bench::{csv, enginebench, loadbench, scalebench};
use epnet_report::analysis;
use epnet_telemetry::export::chrome_trace;
use epnet_telemetry::{parse_jsonl, validate_jsonl};

/// SplitMix64, matching the generator in benches/scheduler.rs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// The hold model on the calendar [`Scheduler`] and on its oracle, a
/// [`KeyedQueue`] binary heap keyed by push order: both must pop the
/// identical `(time, item)` stream.
#[test]
fn hold_model_streams_match_across_backends() {
    let pending = 50_000u64;
    let holds = 200_000;
    let mut cal = Scheduler::new();
    let mut heap = KeyedQueue::new();
    let mut seq = 0u64;
    let mut rng = Mix(42);
    for i in 0..pending {
        let at = SimTime::from_ps(rng.next() % 4_000_000);
        cal.schedule(at, i);
        heap.push(at, seq, i);
        seq += 1;
    }
    for _ in 0..holds {
        let popped = cal.pop().expect("hold model never drains");
        let oracle = heap.pop().map(|((t, _), tag)| (t, tag));
        assert_eq!(Some(popped), oracle, "calendar and heap streams diverged");
        let (t, tag) = popped;
        let at = SimTime::from_ps(t.as_ps() + (rng.next() % 4_000_000));
        cal.schedule(at, tag);
        heap.push(at, seq, tag);
        seq += 1;
    }
    assert_eq!(
        cal.len() as u64,
        pending,
        "hold model keeps the set size steady"
    );
}

#[test]
fn small_sweep_produces_well_formed_cells() {
    let mut scale = EvalScale::tiny();
    scale.duration = SimTime::from_ms(1);
    let mut sweep = SensitivitySweep::paper_grid(scale, WorkloadKind::Search);
    sweep.targets = vec![0.5];
    sweep.reactivations = vec![SimTime::from_us(1), SimTime::from_us(10)];

    let cells = sweep.run();
    assert_eq!(cells.len(), 2);
    for cell in &cells {
        assert_eq!(cell.workload, "Search");
        assert!(cell.delivery_ratio > 0.0 && cell.delivery_ratio <= 1.0 + 1e-9);
        assert!(cell.power_ideal > 0.0 && cell.power_ideal <= 1.0 + 1e-9);
    }
}

#[test]
fn engine_bench_document_is_well_formed() {
    let runs = enginebench::measure_both_modes();
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].name, "route_table");
    assert_eq!(runs[1].name, "dynamic_routes");
    for r in &runs {
        assert!(r.sim_events > 0, "{}: engine popped no events", r.name);
        assert!(r.sim_packets > 0, "{}: nothing delivered", r.name);
        assert!(r.wall_ms > 0.0);
    }
    // Both route modes simulate the identical run, so their simulation
    // counters — not just the final report — must agree exactly.
    assert_eq!(runs[0].sim_events, runs[1].sim_events);
    assert_eq!(runs[0].sim_packets, runs[1].sim_packets);
    assert_eq!(runs[0].sim_delivered_bytes, runs[1].sim_delivered_bytes);

    let doc = enginebench::render(&runs);
    let names = enginebench::validate(&doc).expect("rendered document validates");
    assert_eq!(names, vec!["route_table", "dynamic_routes"]);
}

/// In-process twin of the loadbench smoke: the reduced sweep's
/// low-load point must cross-check byte-identical reports between the
/// two epoch modes (`measure` panics otherwise), do strictly less
/// controller work per tick than the channel count — the
/// activity-proportional bound — and render a schema-valid document.
#[test]
fn load_bench_document_is_well_formed_and_activity_bounded() {
    let points = loadbench::sweep(true);
    let low = points.first().expect("reduced sweep is non-empty");
    assert!(low.load <= 0.1, "first reduced point is the low-load one");
    let run = loadbench::measure(low);
    assert_eq!(run.sweep.epoch_ticks, run.active.epoch_ticks);
    assert!(
        run.sweep.decisions_per_tick() >= run.channels as f64 - 1e-9,
        "the sweep reference visits every tunable channel every tick"
    );
    assert!(
        run.active.decisions_per_tick() < run.channels as f64,
        "active-set work must be bounded by activity, not topology"
    );
    assert!(
        run.decisions_speedup() >= 2.0,
        "low-load speedup collapsed to {:.2}x",
        run.decisions_speedup()
    );
    let doc = loadbench::render(&[run]);
    let names = loadbench::validate(&doc).expect("rendered document validates");
    assert_eq!(names.len(), 1);
}

/// In-process twin of the scalebench hybrid additions: the reduced
/// sweep must carry the 10^5- and 2^20-host hybrid points, the cheap
/// 960-host hybrid point must complete its horizon fluid-only (no
/// packets, all bytes via flows) and byte-identically on the parallel
/// engine at width 2 (the reduced twin of the `hybrid_threads` axis),
/// the models axis measured on the smallest packet point must sit
/// inside the documented tolerance, the committed `BENCH_scale.json`
/// must pass the current schema, and a freshly rendered document must
/// too. The
/// big points themselves run in `scripts/bench_smoke.sh` and the
/// release binary, not here — the million-host point is seconds-long
/// in release and unaffordable under the test profile.
#[test]
fn hybrid_scale_twin_completes_and_models_agree() {
    let points = scalebench::sweep(true);
    let big = points
        .iter()
        .find(|p| p.name == "hybrid_fbfly_32x16x4")
        .expect("reduced sweep keeps the Solnushkin-scale point");
    assert_eq!(big.model, SimModel::Hybrid);
    let million = scalebench::hybrid_axis_point(&points);
    assert_eq!(million.name, "hybrid_fbfly_32x32x4");

    let cheap = points
        .iter()
        .find(|p| p.name == "hybrid_fbfly_15x8x3")
        .expect("reduced sweep keeps the cheap hybrid point");
    let run = scalebench::measure(cheap, &scalebench::NoopMeter);
    assert_eq!(run.model, SimModel::Hybrid);
    assert_eq!(run.hosts, 960);
    assert_eq!(run.sim_packets, 0, "bulk flows must stay fluid");
    assert!(run.sim_delivered_bytes > 0, "fluid flows delivered nothing");
    assert!(run.sim_events > 0);

    // The parallel hybrid engine on the same point: width 2 must
    // reproduce the serial report byte for byte.
    let report = |par| {
        let sim = scalebench::simulator_for(cheap, par);
        serde_json::to_string_pretty(&sim.run_until(cheap.horizon)).expect("report serializes")
    };
    assert_eq!(
        report(0),
        report(2),
        "width 2 diverged from serial on the hybrid bench point"
    );

    // The committed document must already match the schema — million-host
    // point present, per-host heap and wall budgets inside bounds.
    let committed = std::fs::read_to_string(scalebench::output_path())
        .expect("BENCH_scale.json present at the repository root");
    let committed_names = scalebench::validate(&committed).expect("committed document validates");
    assert!(
        committed_names.iter().any(|n| n == "hybrid_fbfly_32x32x4"),
        "committed sweep records the million-host point"
    );

    // The models axis on the smallest packet point: `measure_models`
    // asserts both agreement errors against HYBRID_TOLERANCE itself.
    let small = [points[0].clone()];
    assert_eq!(small[0].name, "fbfly_2x8x2");
    let models = scalebench::measure_models(&small);
    assert_eq!(models.runs.len(), 1);

    // Render a full document around the measured pieces (synthetic
    // threads axes and million-host bench — the real ones
    // are measured by the release binary and validated above via the
    // committed document) and hold it to the schema.
    let threads = scalebench::ThreadsAxis {
        point: small[0].name.clone(),
        hw_threads: 1,
        runs: vec![
            scalebench::ThreadsRun {
                threads: 0,
                wall_ms: 1.0,
                sim_events: run.sim_events,
            },
            scalebench::ThreadsRun {
                threads: 2,
                wall_ms: 1.0,
                sim_events: run.sim_events,
            },
        ],
    };
    let hybrid_threads = scalebench::ThreadsAxis {
        point: million.name.clone(),
        hw_threads: 1,
        runs: vec![
            scalebench::ThreadsRun {
                threads: 0,
                wall_ms: 1.0,
                sim_events: run.sim_events,
            },
            scalebench::ThreadsRun {
                threads: 2,
                wall_ms: 1.0,
                sim_events: run.sim_events,
            },
        ],
    };
    let million_run = scalebench::ScaleRun {
        name: million.name.clone(),
        model: SimModel::Hybrid,
        hosts: scalebench::MILLION_HOSTS,
        channels: 5_144_576,
        wall_ms: 1.0,
        sim_events: 1,
        sim_packets: 0,
        sim_delivered_bytes: 1,
        measured_events: 1,
        measured_allocs: 0,
        peak_alloc_bytes: 0,
    };
    let doc = scalebench::render(&[run, million_run], &threads, &hybrid_threads, &models);
    let names = scalebench::validate(&doc).expect("rendered document validates");
    assert_eq!(names, vec!["hybrid_fbfly_15x8x3", "hybrid_fbfly_32x32x4"]);
}

/// The canonical scenario, traced: every emitted JSONL line must pass
/// the documented schema (DESIGN.md "Observability"), and the two
/// categories this scenario is guaranteed to exercise must be present.
/// This is the in-process twin of `tracesmoke` in
/// `scripts/bench_smoke.sh` — it fails on any emitter/validator drift.
/// It then mirrors the script's export + analysis smoke in-process:
/// the chrome-trace export must be well-formed JSON whose event and
/// per-category record counts match the source `TraceStats`, and every
/// analysis CSV must reproduce its pinned header over the real capture.
#[test]
fn traced_canonical_run_matches_documented_schema() {
    let mut sim = enginebench::canonical_simulator(RunOptions::default());
    let sink = MemorySink::new();
    sim.set_tracer(Tracer::new(sink.clone(), TraceCategory::ALL_MASK));
    let report = sim.run_until(enginebench::HORIZON);
    assert!(report.events_processed > 0);

    let text = sink.contents();
    let stats = validate_jsonl(&text).expect("trace matches documented schema");
    assert!(stats.lines > 0);
    assert!(
        stats.count(TraceCategory::Controller) > 0,
        "epoch decisions"
    );
    assert!(stats.count(TraceCategory::Reactivation) > 0, "rate changes");

    // Chrome-trace export twin: valid JSON, event count equals the
    // exporter's own tally, and no record silently dropped per category.
    let records = parse_jsonl(&text).expect("trace parses into records");
    let export = chrome_trace(&records, Some(enginebench::canonical_layout()));
    let doc: serde_json::Value =
        serde_json::from_str(&export.json).expect("chrome-trace export is valid JSON");
    let n_events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_seq)
        .map_or(0, Vec::len);
    assert_eq!(n_events, export.trace_events + export.metadata_events);
    for cat in TraceCategory::ALL {
        assert_eq!(
            export.records.get(cat.name()).copied().unwrap_or(0),
            stats.count(cat),
            "export consumed a different number of '{}' records",
            cat.name()
        );
    }

    // Analysis twin: every CSV form runs over the real capture and
    // leads with the header the smoke script (and downstream plots)
    // key on; residency fractions must cover the whole horizon.
    let residency = analysis::residency(&records);
    let total: f64 = residency.rows.iter().map(|r| r.fraction).sum();
    assert!((total - 1.0).abs() < 1e-9, "residency sums to {total}");
    for (csv_text, header) in [
        (csv::residency_csv(&residency), "rate,fraction"),
        (
            csv::churn_csv(&analysis::churn(&records)),
            "channel,decisions,transitions,upshifts,downshifts,reversals",
        ),
        (
            csv::reactivation_csv(&analysis::reactivation_latency(&records)),
            "count,unmatched,min_ps,p50_ps,p90_ps,p99_ps,max_ps,mean_ps",
        ),
        (
            csv::credit_csv(&analysis::credit_stalls(&records)),
            "channel,stalls,total_ps,max_ps,unmatched",
        ),
        (
            csv::outcomes_csv(&analysis::outcomes(&records)),
            "reason,count,share",
        ),
    ] {
        assert_eq!(csv_text.lines().next(), Some(header));
    }
}
