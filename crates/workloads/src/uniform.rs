//! The paper's *Uniform* workload (§4.1): "each host repeatedly sends a
//! 512k message to a new random destination."

use crate::load_to_bytes_per_sec;
use crate::scheduler::{exp_ps, Item};
use epnet_sim::{Message, Scheduler, SimTime, TrafficSource};
use epnet_topology::HostId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniform random traffic: every host independently emits fixed-size
/// messages to uniformly random destinations, with exponential gaps
/// sized to hit a target offered load.
///
/// Even at a perfectly uniform *average*, this workload is bursty at the
/// 10 µs epoch scale — a 512 KiB message occupies its injection channel
/// for ~100 µs and is followed by a multiple of that in silence — which
/// is exactly why the paper finds that "the charts look very similar for
/// the uniform random workload ... the workload is bursty across the
/// relatively short 10 µs epoch" (§4.2.1).
#[derive(Debug)]
pub struct UniformRandom {
    hosts: u32,
    message_bytes: u64,
    mean_gap_ps: f64,
    horizon: Option<SimTime>,
    rng: SmallRng,
    future: Scheduler<Item>,
    clock: Vec<SimTime>,
}

impl UniformRandom {
    /// Starts building a uniform workload over `hosts` hosts.
    pub fn builder(hosts: u32) -> UniformRandomBuilder {
        UniformRandomBuilder {
            hosts,
            message_bytes: 512 * 1024,
            offered_load: 0.25,
            seed: 0xEBF1_2010,
            horizon: None,
            start: SimTime::ZERO,
        }
    }

    fn schedule_next(&mut self, host: u32, from: SimTime) {
        let gap = SimTime::from_ps(exp_ps(&mut self.rng, self.mean_gap_ps));
        let at = from + gap;
        if let Some(h) = self.horizon {
            if at > h {
                return;
            }
        }
        self.clock[host as usize] = at;
        self.future.schedule(at, Item::Wake(host));
    }

    fn emit(&mut self, host: u32) -> Message {
        let at = self.clock[host as usize];
        let dst = loop {
            let d: u32 = self.rng.gen_range(0..self.hosts);
            if d != host {
                break d;
            }
        };
        let m = Message {
            at,
            src: HostId::new(host),
            dst: HostId::new(dst),
            bytes: self.message_bytes,
        };
        self.schedule_next(host, at);
        m
    }
}

impl TrafficSource for UniformRandom {
    fn next_message(&mut self) -> Option<Message> {
        let (_, item) = self.future.pop()?;
        match item {
            Item::Wake(h) => Some(self.emit(h)),
            Item::Emit(_) => unreachable!("uniform traffic schedules only wake-ups"),
        }
    }
}

/// Builder for [`UniformRandom`].
#[derive(Debug, Clone)]
pub struct UniformRandomBuilder {
    hosts: u32,
    message_bytes: u64,
    offered_load: f64,
    seed: u64,
    horizon: Option<SimTime>,
    start: SimTime,
}

impl UniformRandomBuilder {
    /// Message size in bytes (default 512 KiB, the paper's).
    pub fn message_bytes(&mut self, bytes: u64) -> &mut Self {
        self.message_bytes = bytes;
        self
    }

    /// Offered load as a fraction of the 40 Gb/s host line rate
    /// (default 0.25; the paper's Uniform run averages 23% channel
    /// utilization).
    pub fn offered_load(&mut self, load: f64) -> &mut Self {
        self.offered_load = load;
        self
    }

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

    /// First messages appear after this time (default 0).
    pub fn start(&mut self, t: SimTime) -> &mut Self {
        self.start = t;
        self
    }

    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than two or more than 2^31 hosts, or
    /// the load is outside `(0, 1]`.
    pub fn build(&self) -> UniformRandom {
        assert!(self.hosts >= 2, "need at least two hosts");
        assert!(
            self.hosts <= crate::scheduler::MAX_ITEM_INDEX + 1,
            "more than 2^31 hosts: a queue item's index has 31 bits"
        );
        assert!(
            self.offered_load > 0.0 && self.offered_load <= 1.0,
            "offered load must be in (0, 1]"
        );
        let bytes_per_sec = load_to_bytes_per_sec(self.offered_load);
        let mean_gap_ps = self.message_bytes as f64 / bytes_per_sec * 1e12;
        let mut w = UniformRandom {
            hosts: self.hosts,
            message_bytes: self.message_bytes,
            mean_gap_ps,
            horizon: self.horizon,
            rng: SmallRng::seed_from_u64(self.seed),
            future: Scheduler::new(),
            clock: vec![SimTime::ZERO; self.hosts as usize],
        };
        for h in 0..self.hosts {
            w.schedule_next(h, self.start);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_until(w: &mut UniformRandom, t: SimTime) -> Vec<Message> {
        let mut v = Vec::new();
        while let Some(m) = w.next_message() {
            if m.at > t {
                break;
            }
            v.push(m);
        }
        v
    }

    #[test]
    fn messages_are_time_ordered() {
        let mut w = UniformRandom::builder(16).offered_load(0.3).build();
        let msgs = drain_until(&mut w, SimTime::from_ms(2));
        assert!(msgs.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(msgs.len() > 50);
    }

    #[test]
    fn offered_load_is_calibrated() {
        let mut w = UniformRandom::builder(32)
            .offered_load(0.25)
            .seed(3)
            .build();
        let horizon = SimTime::from_ms(20);
        let bytes: u64 = drain_until(&mut w, horizon).iter().map(|m| m.bytes).sum();
        let rate_gbps = bytes as f64 * 8.0 / horizon.as_secs_f64() / 1e9;
        let expected = 0.25 * 40.0 * 32.0;
        assert!(
            (rate_gbps - expected).abs() / expected < 0.1,
            "offered {rate_gbps:.1} Gb/s vs expected {expected:.1}"
        );
    }

    #[test]
    fn destinations_are_uniform_and_never_self() {
        let mut w = UniformRandom::builder(8).offered_load(0.5).seed(11).build();
        let msgs = drain_until(&mut w, SimTime::from_ms(10));
        let mut counts = [0usize; 8];
        for m in &msgs {
            assert_ne!(m.src, m.dst);
            counts[m.dst.index()] += 1;
        }
        let total: usize = counts.iter().sum();
        for &c in &counts {
            let share = c as f64 / total as f64;
            assert!((share - 0.125).abs() < 0.05, "share {share}");
        }
    }

    #[test]
    fn horizon_exhausts_the_source() {
        let mut w = UniformRandom::builder(4)
            .offered_load(0.5)
            .horizon(SimTime::from_us(500))
            .build();
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some(m) = w.next_message() {
            last = m.at;
            n += 1;
        }
        assert!(n > 0);
        assert!(last <= SimTime::from_us(500));
    }

    #[test]
    fn seeds_reproduce_and_differ() {
        let take = |seed: u64| {
            let mut w = UniformRandom::builder(8).seed(seed).build();
            (0..20)
                .map(|_| w.next_message().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(take(5), take(5));
        assert_ne!(take(5), take(6));
    }

    #[test]
    fn start_offsets_first_message() {
        let mut w = UniformRandom::builder(4).start(SimTime::from_ms(1)).build();
        assert!(w.next_message().unwrap().at > SimTime::from_ms(1));
    }

    #[test]
    #[should_panic(expected = "two hosts")]
    fn one_host_is_rejected() {
        UniformRandom::builder(1).build();
    }
}
