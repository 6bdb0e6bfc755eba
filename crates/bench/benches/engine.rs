//! Microbenches of the simulator's building blocks: topology
//! elaboration, routing, workload generation, and raw event throughput.
//! The canonical engine scenario is measured by the `engine` axis of
//! the `benchrun` binary instead.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use epnet::prelude::*;
use epnet_workloads::UniformRandom;
use std::hint::black_box;
use std::time::Duration;

fn fabric_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("fabric_construction");
    for (label, conc, k, n) in [("64-host", 4u16, 4u16, 3usize), ("3375-host", 15, 15, 3)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let f = FlattenedButterfly::new(conc, k, n).unwrap();
                black_box(f.build_fabric())
            })
        });
    }
    g.finish();
}

fn route_candidates(c: &mut Criterion) {
    let fabric = FlattenedButterfly::new(15, 15, 3).unwrap().build_fabric();
    let mut out = Vec::new();
    let mut g = c.benchmark_group("routing");
    g.throughput(Throughput::Elements(1));
    g.bench_function("candidate_ports_15ary3flat", |b| {
        let mut i = 0u32;
        b.iter(|| {
            let at = SwitchId::new(i % 225);
            let dest = HostId::new((i * 7 + 13) % 3375);
            fabric.candidate_ports(at, dest, &mut out);
            i = i.wrapping_add(1);
            black_box(out.len())
        })
    });
    g.finish();
}

fn workload_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("workloads");
    g.throughput(Throughput::Elements(1));
    g.bench_function("uniform_next_message", |b| {
        let mut w = UniformRandom::builder(3375).offered_load(0.23).build();
        b.iter(|| black_box(w.next_message()))
    });
    g.bench_function("search_trace_next_message", |b| {
        let mut w = ServiceTrace::builder(3375, ServiceTraceConfig::search_like()).build();
        b.iter(|| black_box(w.next_message()))
    });
    g.finish();
}

/// End-to-end event throughput: packets through a saturated baseline
/// fabric per wall-clock second.
fn event_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10)
        .warm_up_time(Duration::from_secs(1))
        .measurement_time(Duration::from_secs(8));
    let end = SimTime::from_ms(1);
    g.bench_function("baseline_uniform_64host_1ms", |b| {
        b.iter(|| {
            let fabric = FlattenedButterfly::new(4, 4, 3).unwrap().build_fabric();
            let w = UniformRandom::builder(64)
                .offered_load(0.5)
                .horizon(end)
                .build();
            let report = Simulator::new(fabric, SimConfig::baseline(), w).run_until(end);
            black_box(report.packets_delivered)
        })
    });
    g.bench_function("ep_uniform_64host_1ms", |b| {
        b.iter(|| {
            let fabric = FlattenedButterfly::new(4, 4, 3).unwrap().build_fabric();
            let w = UniformRandom::builder(64)
                .offered_load(0.5)
                .horizon(end)
                .build();
            let report = Simulator::new(fabric, SimConfig::default(), w).run_until(end);
            black_box(report.packets_delivered)
        })
    });
    g.finish();
}

criterion_group!(
    engine,
    fabric_construction,
    route_candidates,
    workload_generation,
    event_throughput
);
criterion_main!(engine);
