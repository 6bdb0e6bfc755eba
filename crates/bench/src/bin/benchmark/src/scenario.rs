//! The benchmark's workloads: fabric, traffic, model and horizon, and
//! how each is built from a seed.

use epnet_sim::{MergedSource, Message, SimConfig, SimModel, SimTime, Simulator, TrafficSource};
use epnet_topology::{FabricGraph, FlattenedButterfly, RoutingTopology};
use epnet_workloads::{ServiceTrace, ServiceTraceConfig, UniformRandom};
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A flattened butterfly: concentration, radix, flat dimensions.
#[derive(Debug, Clone, Copy)]
pub enum Fabric {
    /// `FlattenedButterfly::new(c, k, n)`.
    Flat(u16, u16, usize),
    /// `FlattenedButterfly::grouped(c, k, n)`.
    Grouped(u16, u16, usize),
}

/// Traffic recipe. Both are open loop: every message's offer time is
/// fixed by the seed, whatever the network does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// 30% uniform-random 512 KiB messages merged with search-like
    /// bursts: the repository's canonical mix, less the search trace's
    /// cluster-wide load spikes.
    Canonical,
    /// Uniform-random 4 MiB bulk flows at 5% load.
    Bulk,
}

/// What each repeat's report is checked against, beyond being
/// identical across repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Nothing more.
    None,
    /// The packet model on identical inputs: delivered bytes and
    /// relative power within [`MODEL_TOLERANCE`].
    PacketModel,
    /// The serial engine on identical inputs: byte-identical report.
    Serial,
}

/// Largest hybrid-vs-packet error accepted: relative delivered bytes,
/// and absolute difference in relative power (measured profile).
pub const MODEL_TOLERANCE: f64 = 0.05;

/// Resource budget of a run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Peak live heap per simulated host, bytes.
    pub heap_per_host: u64,
    /// Host seconds from `prime` until `finalize` returns.
    pub run_s: f64,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Name used on the command line and in results.
    pub name: &'static str,
    /// Fabric to build.
    pub fabric: Fabric,
    /// Traffic recipe.
    pub traffic: Traffic,
    /// Simulation model.
    pub model: SimModel,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// `EPNET_PAR` width the untraced runs use; `None` is serial.
    pub par: Option<usize>,
    /// Extra correctness check.
    pub reference: Reference,
    /// Resource budget, if any.
    pub budget: Option<Budget>,
}

/// The paper's 15-ary 3-flat (§4.1): 3,375 hosts on 225 switches.
const PAPER_FABRIC: Fabric = Fabric::Flat(15, 15, 3);

/// Simulated horizon on the paper fabric: 95 controller epochs past the
/// 50 µs warmup, a few host seconds per repeat. Shorter horizons leave
/// the hybrid model's delivered bytes too near [`MODEL_TOLERANCE`] (4%
/// off the packet model at 0.5 ms, against 1.3% here): more of the
/// traffic is still in flight at the cut, where the models differ most.
const PAPER_HORIZON: SimTime = SimTime::from_ms(1);

/// The benchmark workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Scenario; 4] = [
    Scenario {
        name: "packet_paper",
        fabric: PAPER_FABRIC,
        traffic: Traffic::Canonical,
        model: SimModel::Packet,
        horizon: PAPER_HORIZON,
        par: None,
        reference: Reference::None,
        budget: None,
    },
    Scenario {
        name: "hybrid_paper",
        fabric: PAPER_FABRIC,
        traffic: Traffic::Canonical,
        model: SimModel::Hybrid,
        horizon: PAPER_HORIZON,
        par: None,
        reference: Reference::PacketModel,
        budget: None,
    },
    Scenario {
        name: "hybrid_million",
        fabric: Fabric::Grouped(32, 32, 4),
        traffic: Traffic::Bulk,
        model: SimModel::Hybrid,
        horizon: SimTime::from_ms(2),
        par: None,
        reference: Reference::None,
        budget: Some(Budget {
            heap_per_host: 4096,
            run_s: 120.0,
        }),
    },
    Scenario {
        name: "packet_paper_par2",
        fabric: PAPER_FABRIC,
        traffic: Traffic::Canonical,
        model: SimModel::Packet,
        horizon: PAPER_HORIZON,
        par: Some(2),
        reference: Reference::Serial,
        budget: None,
    },
];

/// The `--smoke` workloads: the same pipelines on FBFLY(2,8,2), over a
/// horizon long enough for the 16-host hybrid model to settle within
/// [`MODEL_TOLERANCE`] of the packet model.
pub const SMOKE: [Scenario; 3] = [
    Scenario {
        name: "smoke_packet",
        fabric: Fabric::Flat(2, 8, 2),
        horizon: SimTime::from_ms(2),
        ..WORKLOADS[0]
    },
    Scenario {
        name: "smoke_hybrid",
        fabric: Fabric::Flat(2, 8, 2),
        horizon: SimTime::from_ms(2),
        ..WORKLOADS[1]
    },
    Scenario {
        name: "smoke_packet_par2",
        fabric: Fabric::Flat(2, 8, 2),
        horizon: SimTime::from_ms(2),
        ..WORKLOADS[3]
    },
];

/// Finds a benchmark workload by name.
pub fn find(name: &str) -> Result<Scenario, String> {
    WORKLOADS
        .iter()
        .find(|s| s.name == name)
        .copied()
        .ok_or_else(|| {
            let valid: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
            format!(
                "unknown workload '{name}'; valid workloads: {}",
                valid.join(", ")
            )
        })
}

/// A workload's traffic generator.
#[derive(Debug)]
pub enum Source {
    /// [`Traffic::Canonical`] (boxed: the merged generator is large).
    Canonical(Box<MergedSource<UniformRandom, ServiceTrace>>),
    /// [`Traffic::Bulk`].
    Bulk(UniformRandom),
}

impl TrafficSource for Source {
    fn next_message(&mut self) -> Option<Message> {
        match self {
            Source::Canonical(s) => s.next_message(),
            Source::Bulk(s) => s.next_message(),
        }
    }
}

/// Host time and calls spent in a generator, shared with the caller
/// while the simulator owns the generator.
#[derive(Debug, Default)]
pub struct SourceTime {
    /// Nanoseconds inside `next_message`.
    pub ns: Cell<u64>,
    /// Messages returned.
    pub messages: Cell<u64>,
}

/// A generator wrapper that times every `next_message` call.
#[derive(Debug)]
pub struct Timed {
    inner: Source,
    time: Rc<SourceTime>,
}

impl Timed {
    /// Wraps `inner`, accumulating into `time`.
    pub fn new(inner: Source, time: Rc<SourceTime>) -> Self {
        Self { inner, time }
    }
}

impl TrafficSource for Timed {
    fn next_message(&mut self) -> Option<Message> {
        let start = Instant::now();
        let m = self.inner.next_message();
        let ns = start.elapsed().as_nanos() as u64;
        self.time.ns.set(self.time.ns.get() + ns);
        self.time
            .messages
            .set(self.time.messages.get() + u64::from(m.is_some()));
        m
    }
}

/// Host time of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTime {
    /// Building the fabric graph.
    pub topology: Duration,
    /// Building the traffic generator.
    pub workloads: Duration,
    /// Building the `Simulator` (channel state, route table).
    pub sim: Duration,
}

impl SetupTime {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.topology + self.workloads + self.sim
    }
}

impl Scenario {
    /// Builds the fabric.
    pub fn build_fabric(&self) -> FabricGraph {
        match self.fabric {
            Fabric::Flat(c, k, n) => FlattenedButterfly::new(c, k, n),
            Fabric::Grouped(c, k, n) => FlattenedButterfly::grouped(c, k, n),
        }
        .expect("workload fabrics are valid shapes")
        .build_fabric()
    }

    /// Builds the traffic generator for `hosts` hosts from `seed`.
    pub fn build_source(&self, hosts: u32, seed: u64) -> Source {
        match self.traffic {
            Traffic::Canonical => Source::Canonical(Box::new(MergedSource::new(
                UniformRandom::builder(hosts)
                    .offered_load(0.3)
                    .seed(seed)
                    .horizon(self.horizon)
                    .build(),
                // Without the cluster-wide load spikes: one lasts 1 ms on
                // average and covers a quarter of the time, so at these
                // sub-millisecond horizons whether a seed draws one would
                // set each run's total load (±7% events across seeds).
                ServiceTrace::builder(
                    hosts,
                    ServiceTraceConfig {
                        peak_multiplier: 1.0,
                        ..ServiceTraceConfig::search_like()
                    },
                )
                // A second stream, decorrelated from the first.
                .seed(seed ^ 0x9E37_79B9_7F4A_7C15)
                .horizon(self.horizon)
                .build(),
            ))),
            Traffic::Bulk => Source::Bulk(
                UniformRandom::builder(hosts)
                    .message_bytes(4 * 1024 * 1024)
                    .offered_load(0.05)
                    .seed(seed)
                    .horizon(self.horizon)
                    .build(),
            ),
        }
    }

    /// Builds a ready-to-prime simulator, its generator passed through
    /// `wrap`, and times each step.
    pub fn build<S: TrafficSource>(
        &self,
        seed: u64,
        wrap: impl FnOnce(Source) -> S,
    ) -> (Simulator<S>, SetupTime) {
        let start = Instant::now();
        let fabric = self.build_fabric();
        let topology = start.elapsed();
        let start = Instant::now();
        let source = wrap(self.build_source(fabric.num_hosts() as u32, seed));
        let workloads = start.elapsed();
        let start = Instant::now();
        let sim = Simulator::with_model(fabric, SimConfig::default(), source, self.model);
        let sim_time = start.elapsed();
        (
            sim,
            SetupTime {
                topology,
                workloads,
                sim: sim_time,
            },
        )
    }
}
