//! Synthetic datacenter-service traces standing in for the paper's
//! production `Advert` and `Search` workloads (§4.1).
//!
//! The generator reproduces the three published properties the results
//! depend on:
//!
//! 1. **Low average utilization** — 5% (Advert) / 6% (Search); the
//!    builder calibrates operation rates analytically to a target.
//! 2. **Burstiness at a variety of timescales** — client hosts alternate
//!    exponential ON periods with heavy-tailed (bounded-Pareto) OFF
//!    periods, and operations inside an ON period arrive in clumps.
//! 3. **Channel asymmetry from distributed-file-system traffic** —
//!    "depending on replication factor and the ratio of reads to writes,
//!    a file server ... may respond to more reads (i.e., inject data
//!    into the network) than writes" (§4.2.1). A configurable subset of
//!    hosts act as storage servers; reads pull large responses out of
//!    them, writes push chunks in (with replication copies between
//!    servers).
//!
//! Placement is randomized across the cluster, as the paper did to
//! "capture emerging trends such as cluster virtualization".

use crate::load_to_bytes_per_sec;
use crate::scheduler::{bounded_pareto, bounded_pareto_mean, exp_ps, Item, MessageSlots};
use epnet_sim::{Message, Scheduler, SimTime, TrafficSource};
use epnet_topology::HostId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Tunable description of a service workload. Obtain presets from
/// [`ServiceTraceConfig::search_like`] / [`ServiceTraceConfig::advert_like`]
/// and adjust via [`ServiceTrace::builder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceTraceConfig {
    /// Target average injection load as a fraction of host line rate.
    pub target_utilization: f64,
    /// Fraction of hosts acting as storage servers.
    pub storage_fraction: f64,
    /// Fraction of storage operations that are reads.
    pub read_fraction: f64,
    /// Write replication factor (extra server→server copies per write).
    pub write_replicas: u32,
    /// Request / ack size in bytes.
    pub request_bytes: u64,
    /// Data chunk (response or write payload) bounded-Pareto shape.
    pub chunk_alpha: f64,
    /// Smallest data chunk in bytes.
    pub chunk_min_bytes: u64,
    /// Largest data chunk in bytes.
    pub chunk_max_bytes: u64,
    /// Probability an operation also triggers a client↔client RPC
    /// (scatter/gather fan-out).
    pub rpc_probability: f64,
    /// RPC size in bytes.
    pub rpc_bytes: u64,
    /// Mean ON-period duration.
    pub on_mean: SimTime,
    /// OFF-period bounded-Pareto shape (heavier tail = burstier at long
    /// timescales).
    pub off_alpha: f64,
    /// Shortest OFF period.
    pub off_min: SimTime,
    /// Longest OFF period.
    pub off_max: SimTime,
    /// Server think time before a response leaves the storage server.
    pub service_delay: SimTime,
    /// Cluster-wide load-spike multiplier (load balancer shifts, query
    /// spikes). During a peak, operation rates rise by this factor;
    /// off-peak rates are scaled down so the long-run average still hits
    /// the target. Set to 1.0 to disable.
    pub peak_multiplier: f64,
    /// Long-run fraction of time spent in the peak state.
    pub peak_fraction: f64,
    /// Mean duration of one peak episode.
    pub peak_mean: SimTime,
}

impl ServiceTraceConfig {
    /// A web-search-like profile: read-dominated storage traffic with
    /// large responses and heavy scatter/gather RPC — averages ~6%
    /// utilization like the paper's `Search` trace.
    pub fn search_like() -> Self {
        Self {
            target_utilization: 0.06,
            storage_fraction: 0.125,
            read_fraction: 0.85,
            write_replicas: 1,
            request_bytes: 8 * 1024,
            chunk_alpha: 1.3,
            chunk_min_bytes: 32 * 1024,
            chunk_max_bytes: 1024 * 1024,
            rpc_probability: 0.5,
            rpc_bytes: 4 * 1024,
            on_mean: SimTime::from_us(200),
            off_alpha: 1.2,
            off_min: SimTime::from_us(100),
            off_max: SimTime::from_ms(20),
            service_delay: SimTime::from_us(20),
            peak_multiplier: 2.5,
            peak_fraction: 0.25,
            peak_mean: SimTime::from_ms(1),
        }
    }

    /// An advertising-service-like profile: more writes (log and model
    /// updates), smaller chunks, sparser RPC — averages ~5% utilization
    /// like the paper's `Advert` trace.
    pub fn advert_like() -> Self {
        Self {
            target_utilization: 0.05,
            storage_fraction: 0.125,
            read_fraction: 0.55,
            write_replicas: 2,
            request_bytes: 4 * 1024,
            chunk_alpha: 1.4,
            chunk_min_bytes: 16 * 1024,
            chunk_max_bytes: 512 * 1024,
            rpc_probability: 0.3,
            rpc_bytes: 2 * 1024,
            on_mean: SimTime::from_us(300),
            off_alpha: 1.15,
            off_min: SimTime::from_us(150),
            off_max: SimTime::from_ms(30),
            service_delay: SimTime::from_us(25),
            peak_multiplier: 3.0,
            peak_fraction: 0.2,
            peak_mean: SimTime::from_ms(1),
        }
    }

    /// Expected network bytes injected per storage operation (all
    /// messages it fans out to), used for load calibration.
    fn bytes_per_op(&self) -> f64 {
        let chunk_mean = bounded_pareto_mean(
            self.chunk_alpha,
            self.chunk_min_bytes as f64,
            self.chunk_max_bytes as f64,
        );
        let read = self.request_bytes as f64 + chunk_mean;
        let write = chunk_mean * (1.0 + f64::from(self.write_replicas)) + self.request_bytes as f64;
        self.read_fraction * read
            + (1.0 - self.read_fraction) * write
            + self.rpc_probability * self.rpc_bytes as f64
    }

    /// Duty cycle of the ON/OFF process.
    fn duty_cycle(&self) -> f64 {
        let off_mean = bounded_pareto_mean(
            self.off_alpha,
            self.off_min.as_ps() as f64,
            self.off_max.as_ps() as f64,
        );
        self.on_mean.as_ps() as f64 / (self.on_mean.as_ps() as f64 + off_mean)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientPhase {
    StartCycle,
    Op,
}

#[derive(Debug, Clone, Copy)]
struct Client {
    host: HostId,
    phase: ClientPhase,
    on_until: SimTime,
}

/// The synthetic service-trace generator. Build with
/// [`ServiceTrace::builder`].
#[derive(Debug)]
pub struct ServiceTrace {
    config: ServiceTraceConfig,
    clients: Vec<Client>,
    servers: Vec<HostId>,
    think_mean_ps: f64,
    horizon: Option<SimTime>,
    rng: SmallRng,
    future: Scheduler<Item>,
    /// The messages that `future`'s `Emit` items name.
    emits: MessageSlots,
    /// Cluster-wide load-spike state (true while in a peak).
    peak: bool,
    /// When the current peak/off-peak episode ends.
    peak_until: SimTime,
}

impl ServiceTrace {
    /// Starts building a service trace over `hosts` hosts with the given
    /// profile.
    pub fn builder(hosts: u32, config: ServiceTraceConfig) -> ServiceTraceBuilder {
        ServiceTraceBuilder {
            hosts,
            config,
            seed: 0x5EA_2C4,
            horizon: None,
            start: SimTime::ZERO,
        }
    }

    /// The storage-server hosts (useful for asymmetry analysis).
    pub fn servers(&self) -> &[HostId] {
        &self.servers
    }

    fn push_emit(&mut self, m: Message) {
        if let Some(h) = self.horizon {
            if m.at > h {
                return;
            }
        }
        let slot = self.emits.insert(m);
        self.future.schedule(m.at, Item::Emit(slot));
    }

    fn schedule_wake(&mut self, client_idx: u32, at: SimTime) {
        if let Some(h) = self.horizon {
            if at > h {
                return;
            }
        }
        self.future.schedule(at, Item::Wake(client_idx));
    }

    fn random_server(&mut self, not: HostId) -> HostId {
        loop {
            let s = self.servers[self.rng.gen_range(0..self.servers.len())];
            if s != not || self.servers.len() == 1 {
                return s;
            }
        }
    }

    fn random_client_host(&mut self, not: HostId) -> HostId {
        loop {
            let c = self.clients[self.rng.gen_range(0..self.clients.len())].host;
            if c != not || self.clients.len() == 1 {
                return c;
            }
        }
    }

    /// Cluster-wide intensity multiplier at `t`, advancing the
    /// peak/off-peak alternation lazily (wakes arrive in time order).
    fn intensity_at(&mut self, t: SimTime) -> f64 {
        let c = &self.config;
        if c.peak_multiplier <= 1.0 {
            return 1.0;
        }
        let off_mean = c.peak_mean.as_ps() as f64 * (1.0 - c.peak_fraction) / c.peak_fraction;
        while t > self.peak_until {
            self.peak = !self.peak;
            let mean = if self.peak {
                c.peak_mean.as_ps() as f64
            } else {
                off_mean
            };
            self.peak_until += SimTime::from_ps(exp_ps(&mut self.rng, mean));
        }
        if self.peak {
            c.peak_multiplier
        } else {
            // Scale the off-peak so the long-run average stays 1.0.
            (1.0 - c.peak_multiplier * c.peak_fraction) / (1.0 - c.peak_fraction)
        }
    }

    fn sample_chunk(&mut self) -> u64 {
        bounded_pareto(
            &mut self.rng,
            self.config.chunk_alpha,
            self.config.chunk_min_bytes as f64,
            self.config.chunk_max_bytes as f64,
        ) as u64
    }

    /// Performs one storage operation for `client` at time `t`,
    /// returning the client's own message and queueing the fan-out.
    fn perform_op(&mut self, client: HostId, t: SimTime) -> Message {
        let server = self.random_server(client);
        let delay = self.config.service_delay;
        let is_read = self.rng.gen_bool(self.config.read_fraction);
        // Optional scatter/gather RPC riding along with the op.
        if self.rng.gen_bool(self.config.rpc_probability) {
            let peer = self.random_client_host(client);
            if peer != client {
                self.push_emit(Message {
                    at: t,
                    src: client,
                    dst: peer,
                    bytes: self.config.rpc_bytes,
                });
            }
        }
        if is_read {
            // Request up, big response back.
            let resp = self.sample_chunk();
            self.push_emit(Message {
                at: t + delay,
                src: server,
                dst: client,
                bytes: resp,
            });
            Message {
                at: t,
                src: client,
                dst: server,
                bytes: self.config.request_bytes,
            }
        } else {
            // Chunk up, ack back, replicas fan out server→server.
            let chunk = self.sample_chunk();
            self.push_emit(Message {
                at: t + delay,
                src: server,
                dst: client,
                bytes: self.config.request_bytes,
            });
            let mut copy_src = server;
            for r in 0..self.config.write_replicas {
                let peer = self.random_server(copy_src);
                if peer == copy_src {
                    break;
                }
                self.push_emit(Message {
                    at: t + delay.scaled(u64::from(r) + 2),
                    src: copy_src,
                    dst: peer,
                    bytes: chunk,
                });
                copy_src = peer;
            }
            Message {
                at: t,
                src: client,
                dst: server,
                bytes: chunk,
            }
        }
    }

    /// Advances a client's state machine; returns a message if this wake
    /// emitted one.
    fn wake(&mut self, idx: u32, t: SimTime) -> Option<Message> {
        let c = self.clients[idx as usize];
        match c.phase {
            ClientPhase::StartCycle => {
                let on =
                    SimTime::from_ps(exp_ps(&mut self.rng, self.config.on_mean.as_ps() as f64));
                self.clients[idx as usize].on_until = t + on;
                self.clients[idx as usize].phase = ClientPhase::Op;
                let intensity = self.intensity_at(t);
                let think = SimTime::from_ps(exp_ps(&mut self.rng, self.think_mean_ps / intensity));
                self.schedule_wake(idx, t + think);
                None
            }
            ClientPhase::Op => {
                if t <= c.on_until {
                    let intensity = self.intensity_at(t);
                    let think =
                        SimTime::from_ps(exp_ps(&mut self.rng, self.think_mean_ps / intensity));
                    self.schedule_wake(idx, t + think);
                    Some(self.perform_op(c.host, t))
                } else {
                    self.clients[idx as usize].phase = ClientPhase::StartCycle;
                    let off = SimTime::from_ps(bounded_pareto(
                        &mut self.rng,
                        self.config.off_alpha,
                        self.config.off_min.as_ps() as f64,
                        self.config.off_max.as_ps() as f64,
                    ) as u64);
                    self.schedule_wake(idx, t + off);
                    None
                }
            }
        }
    }
}

impl TrafficSource for ServiceTrace {
    fn next_message(&mut self) -> Option<Message> {
        loop {
            let (t, item) = self.future.pop()?;
            match item {
                Item::Emit(slot) => return Some(self.emits.take(slot)),
                Item::Wake(idx) => {
                    if let Some(m) = self.wake(idx, t) {
                        return Some(m);
                    }
                }
            }
        }
    }
}

/// Builder for [`ServiceTrace`].
#[derive(Debug, Clone)]
pub struct ServiceTraceBuilder {
    hosts: u32,
    config: ServiceTraceConfig,
    seed: u64,
    horizon: Option<SimTime>,
    start: SimTime,
}

impl ServiceTraceBuilder {
    /// RNG seed — runs are reproducible.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Stop generating after this time (default: infinite).
    pub fn horizon(&mut self, t: SimTime) -> &mut Self {
        self.horizon = Some(t);
        self
    }

    /// First activity appears after this time (default 0).
    pub fn start(&mut self, t: SimTime) -> &mut Self {
        self.start = t;
        self
    }

    /// Overrides the target utilization of the profile.
    pub fn target_utilization(&mut self, u: f64) -> &mut Self {
        self.config.target_utilization = u;
        self
    }

    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics if there are too few hosts to host both clients and at
    /// least one storage server, or more than 2^31.
    pub fn build(&self) -> ServiceTrace {
        assert!(self.hosts >= 4, "need at least four hosts");
        assert!(
            self.hosts <= crate::scheduler::MAX_ITEM_INDEX + 1,
            "more than 2^31 hosts: a queue item's index has 31 bits"
        );
        assert!(
            self.config.peak_multiplier * self.config.peak_fraction < 1.0,
            "peak load must leave room for an off-peak state"
        );
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Randomized placement (§4.1): shuffle host ids, take servers.
        let mut ids: Vec<HostId> = (0..self.hosts).map(HostId::new).collect();
        ids.shuffle(&mut rng);
        let n_servers = ((self.hosts as f64 * self.config.storage_fraction) as usize).max(1);
        let servers: Vec<HostId> = ids[..n_servers].to_vec();
        let clients: Vec<Client> = ids[n_servers..]
            .iter()
            .map(|&host| Client {
                host,
                phase: ClientPhase::StartCycle,
                on_until: SimTime::ZERO,
            })
            .collect();

        // Calibrate per-client think time so total injected bytes match
        // the target utilization.
        let total_bytes_per_sec =
            load_to_bytes_per_sec(self.config.target_utilization) * f64::from(self.hosts);
        let ops_per_sec = total_bytes_per_sec / self.config.bytes_per_op();
        let per_client = ops_per_sec / clients.len() as f64;
        let duty = self.config.duty_cycle();
        let think_mean_ps = duty / per_client * 1e12;

        let mut trace = ServiceTrace {
            config: self.config.clone(),
            clients,
            servers,
            think_mean_ps,
            horizon: self.horizon,
            rng,
            future: Scheduler::new(),
            emits: MessageSlots::default(),
            peak: false,
            peak_until: SimTime::ZERO,
        };
        // Stagger client start-ups across one mean OFF period so the
        // fleet does not begin in lockstep (but short runs still reach
        // steady state quickly).
        let spread = bounded_pareto_mean(
            trace.config.off_alpha,
            trace.config.off_min.as_ps() as f64,
            trace.config.off_max.as_ps() as f64,
        ) as u64;
        for idx in 0..trace.clients.len() as u32 {
            let jitter = SimTime::from_ps(trace.rng.gen_range(0..spread.max(1)));
            trace.schedule_wake(idx, self.start + jitter);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut t: ServiceTrace, until: SimTime) -> Vec<Message> {
        let mut v = Vec::new();
        while let Some(m) = t.next_message() {
            if m.at > until {
                break;
            }
            v.push(m);
        }
        v
    }

    #[test]
    fn utilization_is_calibrated_search() {
        let horizon = SimTime::from_ms(200);
        let trace = ServiceTrace::builder(128, ServiceTraceConfig::search_like())
            .seed(1)
            .build();
        let msgs = drain(trace, horizon);
        let bytes: u64 = msgs.iter().map(|m| m.bytes).sum();
        let util = bytes as f64 * 8.0 / horizon.as_secs_f64() / (128.0 * 40e9);
        assert!(
            (0.03..0.09).contains(&util),
            "search-like utilization {util:.4} should be near 0.06"
        );
    }

    #[test]
    fn utilization_is_calibrated_advert() {
        let horizon = SimTime::from_ms(200);
        let trace = ServiceTrace::builder(128, ServiceTraceConfig::advert_like())
            .seed(2)
            .build();
        let msgs = drain(trace, horizon);
        let bytes: u64 = msgs.iter().map(|m| m.bytes).sum();
        let util = bytes as f64 * 8.0 / horizon.as_secs_f64() / (128.0 * 40e9);
        assert!(
            (0.025..0.075).contains(&util),
            "advert-like utilization {util:.4} should be near 0.05"
        );
    }

    /// Coefficient of variation of per-bin byte counts.
    fn cov(
        msgs: &[Message],
        horizon: SimTime,
        bin: SimTime,
        filter: impl Fn(&Message) -> bool,
    ) -> f64 {
        let nbins = (horizon.as_ps() / bin.as_ps()) as usize;
        let mut bins = vec![0f64; nbins];
        for m in msgs.iter().filter(|m| filter(m)) {
            let b = (m.at.as_ps() / bin.as_ps()) as usize;
            if b < nbins {
                bins[b] += m.bytes as f64;
            }
        }
        let mean = bins.iter().sum::<f64>() / nbins as f64;
        let var = bins.iter().map(|b| (b - mean).powi(2)).sum::<f64>() / nbins as f64;
        var.sqrt() / mean
    }

    #[test]
    fn traffic_is_bursty_at_short_timescales_per_host() {
        // What a single channel sees (the controller's vantage point):
        // ON/OFF clients make per-host traffic strongly bursty at the
        // 100 µs scale.
        let horizon = SimTime::from_ms(100);
        let trace = ServiceTrace::builder(64, ServiceTraceConfig::search_like())
            .seed(3)
            .build();
        let msgs = drain(trace, horizon);
        let host = msgs[0].src;
        let c = cov(&msgs, horizon, SimTime::from_us(100), |m| m.src == host);
        assert!(
            c > 1.5,
            "per-host coefficient of variation {c:.2} too smooth"
        );
    }

    #[test]
    fn traffic_is_bursty_at_long_timescales_in_aggregate() {
        // Cluster-wide load spikes make even the aggregate bursty at
        // millisecond timescales ("bursty over a wide range of
        // timescales", §3.2).
        let horizon = SimTime::from_ms(200);
        let trace = ServiceTrace::builder(64, ServiceTraceConfig::search_like())
            .seed(5)
            .build();
        let msgs = drain(trace, horizon);
        let c = cov(&msgs, horizon, SimTime::from_ms(2), |_| true);
        assert!(
            c > 0.35,
            "aggregate coefficient of variation {c:.2} too smooth"
        );
    }

    #[test]
    fn storage_servers_inject_more_than_they_receive_when_read_heavy() {
        let horizon = SimTime::from_ms(100);
        let trace = ServiceTrace::builder(64, ServiceTraceConfig::search_like())
            .seed(4)
            .build();
        let servers: std::collections::HashSet<HostId> = trace.servers().iter().copied().collect();
        let msgs = drain(trace, horizon);
        let mut injected = 0u64;
        let mut received = 0u64;
        for m in &msgs {
            if servers.contains(&m.src) {
                injected += m.bytes;
            }
            if servers.contains(&m.dst) {
                received += m.bytes;
            }
        }
        assert!(
            injected as f64 > 1.5 * received as f64,
            "read-heavy servers should inject ≫ receive ({injected} vs {received})"
        );
    }

    #[test]
    fn messages_are_time_ordered_and_seeded() {
        let take = |seed: u64| {
            let trace = ServiceTrace::builder(32, ServiceTraceConfig::advert_like())
                .seed(seed)
                .build();
            drain(trace, SimTime::from_ms(20))
        };
        let a = take(7);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(a, take(7));
        assert_ne!(a, take(8));
        assert!(a.iter().all(|m| m.src != m.dst));
    }

    #[test]
    fn horizon_bounds_generation() {
        let trace = ServiceTrace::builder(32, ServiceTraceConfig::search_like())
            .horizon(SimTime::from_ms(5))
            .build();
        let msgs: Vec<Message> = {
            let mut t = trace;
            std::iter::from_fn(move || t.next_message()).collect()
        };
        assert!(!msgs.is_empty());
        assert!(msgs.iter().all(|m| m.at <= SimTime::from_ms(5)));
    }

    #[test]
    fn placement_is_randomized() {
        let t1 = ServiceTrace::builder(64, ServiceTraceConfig::search_like())
            .seed(1)
            .build();
        let t2 = ServiceTrace::builder(64, ServiceTraceConfig::search_like())
            .seed(2)
            .build();
        assert_ne!(t1.servers(), t2.servers());
        assert_eq!(t1.servers().len(), 8);
    }
}
