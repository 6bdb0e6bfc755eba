//! Event-scheduler microbenchmarks and the end-to-end sweep
//! wall-clock benchmark.
//!
//! The scheduler benches drive the classic *hold model* — pop the
//! earliest event, schedule a replacement a random increment later —
//! at steady pending-set sizes from 1k to 1M events, once per queue:
//! the engine's calendar [`Scheduler`] and a plain binary heap (the
//! simulator's [`KeyedQueue`] keyed by push order, which is also the
//! calendar's correctness oracle). Hold throughput is what the
//! simulator's hot loop sees, so this is the number behind
//! EXPERIMENTS.md's "Performance" section.
//!
//! The `sweep` group times `SensitivitySweep::run` at tiny scale for
//! thread counts {1, 2, 4}, pinned via the `EPNET_THREADS` override.
//!
//! Benchmarks whose name contains `smoke` form the seconds-long subset
//! `scripts/bench_smoke.sh` runs:
//!
//! ```text
//! cargo bench -p epnet-bench --bench scheduler -- smoke
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use epnet::exp::sweep::SensitivitySweep;
use epnet::exp::{EvalScale, WorkloadKind};
use epnet_sim::sched::KeyedQueue;
use epnet_sim::{Scheduler, SimTime};
use std::hint::black_box;
use std::time::Duration;

/// Deterministic SplitMix64 — cheap enough to vanish next to queue ops.
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

/// The queues under comparison, behind the one interface the hold
/// model needs.
trait Queue: Default {
    const NAME: &'static str;
    fn schedule(&mut self, at: SimTime, item: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl Queue for Scheduler<u64> {
    const NAME: &'static str = "calendar";
    fn schedule(&mut self, at: SimTime, item: u64) {
        Scheduler::schedule(self, at, item);
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        Scheduler::pop(self)
    }
}

/// A binary heap with FIFO ties: [`KeyedQueue`] keyed by push order.
#[derive(Default)]
struct Heap {
    q: KeyedQueue<u64>,
    seq: u64,
}

impl Queue for Heap {
    const NAME: &'static str = "heap";
    fn schedule(&mut self, at: SimTime, item: u64) {
        self.q.push(at, self.seq, item);
        self.seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.q.pop().map(|((at, _), item)| (at, item))
    }
}

/// Builds a queue holding `pending` events with exponential-ish gaps
/// (mean ~2 µs), mimicking the engine's mix of near-future TxDone /
/// Arrive events.
fn prefill<Q: Queue>(pending: usize) -> (Q, Mix) {
    let mut q = Q::default();
    let mut rng = Mix(42);
    for i in 0..pending {
        q.schedule(SimTime::from_ps(rng.next() % 4_000_000), i as u64);
    }
    (q, rng)
}

/// One hold-model benchmark: one pop + one schedule per iteration at a
/// steady pending-set size of `pending`.
fn hold<Q: Queue>(g: &mut BenchmarkGroup<'_>, label: String, pending: usize) {
    let (mut q, mut rng) = prefill::<Q>(pending);
    g.bench_function(label, |b| {
        b.iter(|| {
            let (t, tag) = q.pop().expect("hold model never drains");
            // Replacement lands 0–4 µs later: monotone, like the
            // engine's schedules.
            let at = SimTime::from_ps(t.as_ps() + (rng.next() % 4_000_000));
            q.schedule(at, tag);
            black_box(t)
        })
    });
}

/// Hold model at 1k–1M pending events. Reported throughput is hold
/// operations (event pairs) per second.
fn scheduler_hold(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_hold");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(1));
    for pending in [1_000usize, 10_000, 100_000, 1_000_000] {
        let label = |name: &str| format!("{name}/{}k", pending / 1_000);
        hold::<Scheduler<u64>>(&mut g, label(Scheduler::<u64>::NAME), pending);
        hold::<Heap>(&mut g, label(Heap::NAME), pending);
    }
    g.finish();
}

/// Fill-then-drain churn: `n` schedules followed by `n` pops.
fn churn<Q: Queue>(g: &mut BenchmarkGroup<'_>, n: usize) {
    g.bench_function(format!("{}/{}k", Q::NAME, n / 1_000), |b| {
        b.iter(|| {
            let mut q = Q::default();
            let mut rng = Mix(7);
            for i in 0..n {
                q.schedule(SimTime::from_ps(rng.next() % 40_000_000), i as u64);
            }
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                last = t;
            }
            black_box(last)
        })
    });
}

/// Churn at 1k and 100k events. Stresses the calendar's resize policy
/// (it grows and shrinks across three orders of magnitude per
/// iteration).
fn scheduler_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_churn");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for n in [1_000usize, 100_000] {
        g.throughput(Throughput::Elements(n as u64));
        churn::<Scheduler<u64>>(&mut g, n);
        churn::<Heap>(&mut g, n);
    }
    g.finish();
}

/// Seconds-long subset for `scripts/bench_smoke.sh`: one hold-model
/// point per queue at 100k pending events.
fn scheduler_smoke(c: &mut Criterion) {
    let mut g = c.benchmark_group("smoke_sched");
    g.sample_size(5)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    g.throughput(Throughput::Elements(1));
    let label = |name: &str| format!("hold_100k/{name}");
    hold::<Scheduler<u64>>(&mut g, label(Scheduler::<u64>::NAME), 100_000);
    hold::<Heap>(&mut g, label(Heap::NAME), 100_000);
    g.finish();
}

fn tiny_sweep() -> SensitivitySweep {
    let mut scale = EvalScale::tiny();
    scale.duration = SimTime::from_ms(1);
    let mut sweep = SensitivitySweep::paper_grid(scale, WorkloadKind::Search);
    sweep.targets = vec![0.25, 0.75];
    sweep.reactivations = vec![SimTime::from_us(1), SimTime::from_us(10)];
    sweep
}

/// End-to-end sweep wall clock at 1/2/4 worker threads over a 16-cell
/// grid — enough similarly-sized jobs that the pool can load-balance,
/// so measured scaling reflects the machinery rather than one dominant
/// cell.
fn sweep_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_scaling");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    let mut sweep = tiny_sweep();
    sweep.targets = vec![0.2, 0.4, 0.6, 0.8];
    sweep.reactivations = vec![
        SimTime::from_us(1),
        SimTime::from_us(3),
        SimTime::from_us(10),
        SimTime::from_us(30),
    ];
    for threads in [1usize, 2, 4] {
        g.bench_function(format!("tiny_search/threads_{threads}"), |b| {
            std::env::set_var("EPNET_THREADS", threads.to_string());
            b.iter(|| black_box(sweep.run()));
            std::env::remove_var("EPNET_THREADS");
        });
    }
    g.finish();
}

/// Smoke subset: the tiny sweep once, serial vs 4 threads.
fn sweep_smoke(c: &mut Criterion) {
    let mut g = c.benchmark_group("smoke_sweep");
    g.sample_size(2)
        .warm_up_time(Duration::from_millis(10))
        .measurement_time(Duration::from_millis(100));
    let sweep = tiny_sweep();
    for threads in [1usize, 4] {
        g.bench_function(format!("tiny_search/threads_{threads}"), |b| {
            std::env::set_var("EPNET_THREADS", threads.to_string());
            b.iter(|| black_box(sweep.run()));
            std::env::remove_var("EPNET_THREADS");
        });
    }
    g.finish();
}

criterion_group!(
    scheduler,
    scheduler_hold,
    scheduler_churn,
    scheduler_smoke,
    sweep_scaling,
    sweep_smoke,
);
criterion_main!(scheduler);
