//! Experiment presets reproducing the paper's evaluation (§4).

pub mod campaign;
pub mod figures;
pub mod sweep;

use epnet_sim::{SimConfig, SimReport, SimTime, Simulator, TrafficSource};
use epnet_topology::{FabricGraph, FlattenedButterfly};
use epnet_workloads::{ServiceTrace, ServiceTraceConfig, UniformRandom};
use serde::{Deserialize, Serialize};

/// The fabric size and simulated duration of an evaluation run.
///
/// The paper models a 15-ary 3-flat (3,375 hosts); that is
/// [`EvalScale::paper`]. [`EvalScale::quick`] is a 512-host 8-ary 3-flat
/// with shorter runs whose *shapes* match at a fraction of the cost
/// (the default for the `repro` harness), and [`EvalScale::tiny`] is for
/// tests and doc examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalScale {
    /// Hosts per switch (`c`).
    pub concentration: u16,
    /// Dimension radix (`k`).
    pub radix: u16,
    /// Flat dimension count (`n`).
    pub flat_n: usize,
    /// Simulated duration per run.
    pub duration: SimTime,
    /// Base RNG seed for workload generation.
    pub seed: u64,
}

impl EvalScale {
    /// The paper's evaluation network: 15-ary 3-flat, 3,375 hosts
    /// (§4.1), 20 ms of simulated time.
    pub fn paper() -> Self {
        Self {
            concentration: 15,
            radix: 15,
            flat_n: 3,
            duration: SimTime::from_ms(20),
            seed: 2010,
        }
    }

    /// A 512-host 8-ary 3-flat over 8 ms — minutes instead of hours for
    /// the full suite, same qualitative shapes.
    pub fn quick() -> Self {
        Self {
            concentration: 8,
            radix: 8,
            flat_n: 3,
            duration: SimTime::from_ms(8),
            seed: 2010,
        }
    }

    /// A 64-host 4-ary 3-flat over 2 ms, for tests and examples.
    pub fn tiny() -> Self {
        Self {
            concentration: 4,
            radix: 4,
            flat_n: 3,
            duration: SimTime::from_ms(2),
            seed: 2010,
        }
    }

    /// The topology at this scale.
    pub fn topology(&self) -> FlattenedButterfly {
        FlattenedButterfly::new(self.concentration, self.radix, self.flat_n)
            .expect("evaluation scales are valid")
    }

    /// Builds the port-level fabric.
    pub fn fabric(&self) -> FabricGraph {
        self.topology().build_fabric()
    }

    /// Number of hosts at this scale.
    pub fn hosts(&self) -> usize {
        self.topology().num_hosts()
    }
}

/// The paper's three workloads (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Uniform random 512 KiB messages (~23% average utilization).
    Uniform,
    /// Advertising-service trace stand-in (~5% average utilization).
    Advert,
    /// Web-search trace stand-in (~6% average utilization).
    Search,
}

impl WorkloadKind {
    /// All three, in the paper's plotting order.
    pub const ALL: [Self; 3] = [Self::Uniform, Self::Advert, Self::Search];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Self::Uniform => "Uniform",
            Self::Advert => "Advert",
            Self::Search => "Search",
        }
    }

    /// Instantiates the traffic generator for `hosts` hosts.
    pub fn source(self, hosts: u32, seed: u64, horizon: SimTime) -> Box<dyn TrafficSource> {
        match self {
            Self::Uniform => Box::new(
                UniformRandom::builder(hosts)
                    .offered_load(0.23)
                    .seed(seed)
                    .horizon(horizon)
                    .build(),
            ),
            Self::Advert => Box::new(
                ServiceTrace::builder(hosts, ServiceTraceConfig::advert_like())
                    .seed(seed)
                    .horizon(horizon)
                    .build(),
            ),
            Self::Search => Box::new(
                ServiceTrace::builder(hosts, ServiceTraceConfig::search_like())
                    .seed(seed)
                    .horizon(horizon)
                    .build(),
            ),
        }
    }
}

/// One evaluation run: a scale, a workload, and a simulator
/// configuration (defaults to the paper's §4.1 settings).
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Fabric size and duration.
    pub scale: EvalScale,
    /// Traffic.
    pub workload: WorkloadKind,
    /// Simulator and controller settings.
    pub config: SimConfig,
}

/// An [`Experiment`]'s result, bundling the energy-proportional run with
/// its always-full-rate baseline (all paper results are reported
/// relative to that baseline).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// The energy-proportional run.
    pub report: SimReport,
    /// The all-links-at-40 Gb/s baseline run over identical traffic.
    pub baseline: SimReport,
}

impl ExperimentOutcome {
    /// Mean packet latency increase over the baseline (Figure 9's
    /// y-axis).
    pub fn added_latency(&self) -> SimTime {
        self.report.added_latency_vs(&self.baseline)
    }

    /// The power an *ideally* energy-proportional network would use —
    /// the baseline's average channel utilization (§4.2.1).
    pub fn ideal_power_floor(&self) -> f64 {
        self.baseline.avg_channel_utilization
    }
}

impl Experiment {
    /// An experiment with the paper's default controller settings
    /// (1 µs reactivation, 10 µs epoch, 50% target, paired links).
    pub fn new(scale: EvalScale, workload: WorkloadKind) -> Self {
        Self {
            scale,
            workload,
            config: SimConfig::default(),
        }
    }

    /// Overrides the simulator configuration.
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the energy-proportional configuration only.
    pub fn run_ep(&self) -> SimReport {
        self.run_config(&self.config)
    }

    /// Runs the always-full-rate baseline only.
    pub fn run_baseline(&self) -> SimReport {
        let mut cfg = self.config.clone();
        cfg.control = epnet_sim::ControlMode::AlwaysFull;
        self.run_config(&cfg)
    }

    /// Runs both the configured experiment and its baseline.
    pub fn run(&self) -> ExperimentOutcome {
        ExperimentOutcome {
            report: self.run_ep(),
            baseline: self.run_baseline(),
        }
    }

    fn run_config(&self, config: &SimConfig) -> SimReport {
        let fabric = self.scale.fabric();
        let source = self.workload.source(
            self.scale.hosts() as u32,
            self.scale.seed,
            self.scale.duration,
        );
        Simulator::new(fabric, config.clone(), source).run_until(self.scale.duration)
    }
}

/// Worker-pool width used by [`run_parallel`].
///
/// Defaults to [`std::thread::available_parallelism`]; the
/// `EPNET_THREADS` environment variable overrides it (any positive
/// integer — `EPNET_THREADS=1` forces fully serial execution, useful
/// for debugging and for the determinism tests that compare serial and
/// parallel output byte for byte). [`epnet_sim::env_threads`] parses
/// the value and prints the stderr message for a malformed one.
pub fn worker_threads() -> usize {
    epnet_sim::env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs a set of closures on a [`std::thread::scope`] worker pool and
/// collects their results in input order — the fan-out driver behind
/// [`sweep::SensitivitySweep::run`], [`campaign::Campaign::run`] and
/// the simulated figure generators.
///
/// Results land in slots indexed by job position, so the output `Vec`
/// is identical regardless of pool width or completion order: running
/// with `EPNET_THREADS=1` and `EPNET_THREADS=64` serializes to the
/// same bytes. Workers pull jobs from a shared queue, so heterogeneous
/// job lengths balance automatically.
pub fn run_parallel<T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send>>) -> Vec<T> {
    let threads = worker_threads().min(jobs.len());
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    // Jobs are popped from the back; reverse so workers claim them in
    // input order (first jobs start first, helping the long tail).
    let queue = std::sync::Mutex::new(jobs.into_iter().enumerate().rev().collect::<Vec<_>>());
    let slots_mtx = std::sync::Mutex::new(&mut slots);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = { queue.lock().expect("queue poisoned").pop() };
                let Some((i, job)) = job else { break };
                let result = job();
                slots_mtx.lock().expect("slots poisoned")[i] = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epnet_power::LinkPowerProfile;

    #[test]
    fn scales_have_expected_sizes() {
        assert_eq!(EvalScale::paper().hosts(), 3375);
        assert_eq!(EvalScale::quick().hosts(), 512);
        assert_eq!(EvalScale::tiny().hosts(), 64);
    }

    #[test]
    fn experiment_outcome_is_energy_proportional() {
        let outcome = Experiment::new(EvalScale::tiny(), WorkloadKind::Search).run();
        // The baseline is pinned at full power.
        assert!((outcome.baseline.relative_power(&LinkPowerProfile::Ideal) - 1.0).abs() < 1e-12);
        // The EP run saves substantial power on a ~6% utilized network.
        let p = outcome.report.relative_power(&LinkPowerProfile::Ideal);
        assert!(p < 0.7, "relative power {p}");
        // And never beats the ideal floor.
        assert!(p > outcome.ideal_power_floor() * 0.9);
    }

    #[test]
    fn workload_names_and_sources() {
        for kind in WorkloadKind::ALL {
            let mut src = kind.source(64, 1, SimTime::from_ms(1));
            assert!(
                src.next_message().is_some(),
                "{} must generate",
                kind.name()
            );
        }
        assert_eq!(WorkloadKind::Uniform.name(), "Uniform");
    }

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_parallel(jobs);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }
}
