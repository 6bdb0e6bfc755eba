//! Property-based invariants over random fabrics, workloads, and
//! controller configurations.

use epnet::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random small fabric.
fn fabric_strategy() -> impl Strategy<Value = (u16, u16, usize)> {
    (1u16..5, 2u16..6, 2usize..4)
}

/// Random message list over `hosts` hosts, bounded load.
fn messages(hosts: u32, seed: u64, count: usize) -> Vec<Message> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut at = SimTime::from_us(1);
    (0..count)
        .map(|_| {
            at += SimTime::from_ns(rng.gen_range(1_000..80_000));
            let src = rng.gen_range(0..hosts);
            let dst = (src + rng.gen_range(1..hosts)) % hosts;
            Message {
                at,
                src: HostId::new(src),
                dst: HostId::new(dst),
                bytes: rng.gen_range(64..64_000),
            }
        })
        .collect()
}

fn config_for(mode: ControlMode, policy: RatePolicy) -> SimConfig {
    let mut b = SimConfig::builder();
    b.control(mode).policy(policy);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_byte_is_conserved(
        (c, k, n) in fabric_strategy(),
        seed in any::<u64>(),
        mode_pick in 0u8..3,
        policy_pick in 0u8..3,
    ) {
        let f = FlattenedButterfly::new(c, k, n).unwrap();
        let g = f.build_fabric();
        let hosts = g.num_hosts() as u32;
        prop_assume!(hosts >= 2);
        let msgs = messages(hosts, seed, 300);
        let offered: u64 = msgs.iter().map(|m| m.bytes).sum();
        let mode = [ControlMode::AlwaysFull, ControlMode::PairedLink, ControlMode::IndependentChannel][mode_pick as usize];
        let policy = [RatePolicy::HalveDouble, RatePolicy::JumpToExtremes, RatePolicy::Hysteresis { low: 0.2, high: 0.8 }][policy_pick as usize];
        // Long enough that even slow detuned links drain (last message
        // at ~25 ms worst case).
        let end = SimTime::from_ms(120);
        let report = Simulator::new(g, config_for(mode, policy), ReplaySource::new(msgs))
            .run_until(end);
        prop_assert_eq!(report.offered_bytes, offered);
        prop_assert_eq!(report.delivered_bytes, offered, "all traffic must drain");
        // Every popped event is counted by exactly one per-kind metric.
        let per_kind: u64 = report
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("events_"))
            .map(|(_, &n)| n)
            .sum();
        prop_assert_eq!(per_kind, report.events_processed);
    }

    #[test]
    fn relative_power_is_bounded(
        (c, k, n) in fabric_strategy(),
        seed in any::<u64>(),
    ) {
        let g = FlattenedButterfly::new(c, k, n).unwrap().build_fabric();
        let hosts = g.num_hosts() as u32;
        prop_assume!(hosts >= 2);
        let msgs = messages(hosts, seed, 200);
        let report = Simulator::new(
            g,
            config_for(ControlMode::IndependentChannel, RatePolicy::HalveDouble),
            ReplaySource::new(msgs),
        )
        .run_until(SimTime::from_ms(30));
        for profile in [LinkPowerProfile::Measured, LinkPowerProfile::Ideal] {
            let p = report.relative_power(&profile);
            let floor = profile.relative_power(LinkRate::R2_5);
            prop_assert!(p <= 1.0 + 1e-9, "relative power {p} exceeds baseline");
            prop_assert!(
                p >= floor - 1e-9,
                "relative power {p} below the all-slowest floor {floor}"
            );
        }
        // Residency partitions the run: exactly, in channel-time, and
        // so its fractions sum to one.
        prop_assert_eq!(
            report.residency.total_ps(),
            report.num_channels as u128 * u128::from(report.duration.as_ps())
        );
        let total: f64 = report.time_at_speed_fractions().iter().sum::<f64>()
            + report.residency.off_fraction();
        prop_assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
    }

    #[test]
    fn latency_never_below_baseline_floor(
        (c, k, n) in fabric_strategy(),
        seed in any::<u64>(),
    ) {
        // EP control can only delay packets relative to an uncongested
        // baseline of the same traffic.
        let f = FlattenedButterfly::new(c, k, n).unwrap();
        let hosts = f.num_hosts() as u32;
        prop_assume!(hosts >= 2);
        let msgs = messages(hosts, seed, 150);
        let end = SimTime::from_ms(60);
        let base = Simulator::new(
            f.build_fabric(),
            SimConfig::baseline(),
            ReplaySource::new(msgs.clone()),
        )
        .run_until(end);
        let ep = Simulator::new(
            f.build_fabric(),
            config_for(ControlMode::PairedLink, RatePolicy::HalveDouble),
            ReplaySource::new(msgs),
        )
        .run_until(end);
        prop_assert_eq!(ep.packets_delivered, base.packets_delivered);
        prop_assert!(
            ep.mean_packet_latency + SimTime::from_ns(1) > base.mean_packet_latency,
            "EP latency {} cannot beat baseline {}",
            ep.mean_packet_latency,
            base.mean_packet_latency
        );
    }

    #[test]
    fn baseline_time_is_all_full_rate(
        (c, k, n) in fabric_strategy(),
        seed in any::<u64>(),
    ) {
        let g = FlattenedButterfly::new(c, k, n).unwrap().build_fabric();
        let hosts = g.num_hosts() as u32;
        prop_assume!(hosts >= 2);
        let report = Simulator::new(
            g,
            SimConfig::baseline(),
            ReplaySource::new(messages(hosts, seed, 50)),
        )
        .run_until(SimTime::from_ms(10));
        prop_assert_eq!(report.reconfigurations, 0);
        let fr = report.time_at_speed_fractions();
        prop_assert!((fr[LinkRate::R40.index()] - 1.0).abs() < 1e-12);
    }
}
