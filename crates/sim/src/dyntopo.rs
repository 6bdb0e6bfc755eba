//! Dynamic topologies (§5.2): powering entire links off and on.
//!
//! "From a flattened butterfly, we can selectively disable links, thereby
//! changing the topology to a more conventional mesh or torus. ...
//! Additional links (which are cabled as part of the topology) are
//! dynamically powered on as traffic intensity (offered load) increases."
//!
//! Each fully-connected dimension *ring* (the `k` switches sharing all
//! other coordinates) carries three link tiers:
//!
//! * **tier 0** — adjacent-digit links (the mesh skeleton; never off),
//! * **tier 1** — the wraparound link (mesh → torus),
//! * **tier 2** — the remaining chords (torus → full flattened
//!   butterfly).
//!
//! A per-ring controller raises the tier when the enabled links run hot
//! and lowers it when they run cold. Disabled links first *drain*
//! (removed from the legal adaptive routes, §3.2's first tolerance
//! option) and only power off once both channels fall idle.

use crate::channels::{Channels, F_OFF};
use crate::config::SimConfig;
use crate::instrument::Instruments;
use crate::stats::Stats;
use crate::SimTime;
use epnet_telemetry::TraceCategory;
use epnet_topology::{FabricGraph, LinkId, LinkMask, PortTarget, RoutingTopology, SwitchId};
use serde::{Deserialize, Serialize};

/// Tuning knobs for the dynamic-topology controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicTopologyConfig {
    /// Ring utilization below which the top enabled tier is shed.
    pub off_threshold: f64,
    /// Ring utilization above which the next tier is powered on.
    pub on_threshold: f64,
}

impl Default for DynamicTopologyConfig {
    fn default() -> Self {
        Self {
            off_threshold: 0.05,
            on_threshold: 0.40,
        }
    }
}

/// Per-link placement inside a ring.
#[derive(Debug, Clone, Copy)]
struct RingSlot {
    ring: u32,
    tier: u8,
}

/// The dynamic-topology controller state.
#[derive(Debug)]
pub struct DynamicTopology {
    config: DynamicTopologyConfig,
    /// Per-link ring membership (`None` for host links).
    slots: Vec<Option<RingSlot>>,
    /// Highest enabled tier per ring (0 = mesh, 1 = torus, 2 = full).
    ring_tier: Vec<u8>,
    /// Links removed from routing and waiting to fall idle.
    draining: Vec<LinkId>,
    /// Links powered off / drained / re-enabled (diagnostics).
    pub(crate) transitions: u64,
}

impl DynamicTopology {
    /// Builds the controller for `fabric`, starting from the full
    /// flattened butterfly (every tier enabled).
    pub fn new(fabric: &FabricGraph, config: DynamicTopologyConfig) -> Self {
        assert!(
            config.off_threshold < config.on_threshold,
            "hysteresis thresholds must be ordered"
        );
        assert_eq!(
            fabric.kind(),
            epnet_topology::FabricKind::FlattenedButterfly,
            "dynamic topologies ride on the butterfly's local routing; \
             \"powering off a link in the folded-Clos topology requires \
             propagating routing changes throughout the entire network\" (§5.2)"
        );
        let k = fabric.radix();
        let groups_per_dim = fabric.num_switches() / k as usize;
        let mut slots = vec![None; fabric.num_links()];
        for s in 0..fabric.num_switches() {
            let sid = SwitchId::new(s as u32);
            let coord = fabric.switch_coord(sid);
            for p in fabric.concentration() as usize..fabric.ports_per_switch() {
                let pid = epnet_topology::PortIndex::new(p as u16);
                let PortTarget::Switch { switch: peer, .. } = fabric.port_target(sid, pid) else {
                    continue;
                };
                let peer_coord = fabric.switch_coord(peer);
                let dim = (0..fabric.switch_dims())
                    .find(|&d| coord.digit(d) != peer_coord.digit(d))
                    .expect("direct links differ in exactly one dimension");
                let (a, b) = (coord.digit(dim), peer_coord.digit(dim));
                let diff = a.abs_diff(b);
                let tier = if diff == 1 {
                    0
                } else if diff == k - 1 {
                    1
                } else {
                    2
                };
                // Ring index: dimension-major, group within dimension.
                let mut group = 0usize;
                let mut stride = 1usize;
                for d in 0..fabric.switch_dims() {
                    if d == dim {
                        continue;
                    }
                    group += coord.digit(d) as usize * stride;
                    stride *= k as usize;
                }
                let ring = (dim * groups_per_dim + group) as u32;
                let link = fabric.link_of(fabric.output_channel(sid, pid));
                slots[link.index()] = Some(RingSlot { ring, tier });
            }
        }
        let rings = fabric.switch_dims() * groups_per_dim;
        Self {
            config,
            slots,
            ring_tier: vec![2; rings],
            draining: Vec::new(),
            transitions: 0,
        }
    }

    /// Number of rings under control.
    pub fn num_rings(&self) -> usize {
        self.ring_tier.len()
    }

    /// Current tier of a ring (0 mesh, 1 torus, 2 full butterfly).
    pub fn ring_tier(&self, ring: usize) -> u8 {
        self.ring_tier[ring]
    }

    /// One controller pass, invoked by the engine at every epoch tick
    /// after the rate controller.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_epoch(
        &mut self,
        now: SimTime,
        fabric: &FabricGraph,
        channels: &mut Channels,
        mask: &mut LinkMask,
        config: &SimConfig,
        stats: &mut Stats,
        inst: &mut Instruments,
    ) {
        // 1. Finish draining links whose channels fell idle.
        let slots = &self.slots;
        let transitions = &mut self.transitions;
        self.draining.retain(|&link| {
            let (a, b) = fabric.link_channels(link);
            let idle = channels.queue_is_idle(a.index()) && channels.queue_is_idle(b.index());
            if idle {
                for ch in [a, b] {
                    channels.set_off(ch.index(), now, true);
                    stats.record_rate(now, ch.raw(), None);
                }
                *transitions += 1;
                stats.reconfigurations += 1;
            }
            let _ = slots;
            !idle
        });

        // 2. Per-ring demand, measured over *enabled, powered* channels.
        let epoch = config.epoch;
        let mut busy = vec![0u128; self.ring_tier.len()];
        let mut count = vec![0u64; self.ring_tier.len()];
        for (l, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let link = LinkId::new(l as u32);
            if !mask.is_enabled(link) {
                continue;
            }
            let (a, b) = fabric.link_channels(link);
            for ch in [a, b] {
                let i = ch.index();
                if !channels.has_flag(i, F_OFF) {
                    busy[slot.ring as usize] += u128::from(channels.epoch_busy_ps(i));
                    count[slot.ring as usize] += 1;
                }
            }
        }

        // 3. Raise or shed one tier per ring per epoch (gradual, avoids
        //    meta-instability, §3.2).
        for ring in 0..self.ring_tier.len() {
            if count[ring] == 0 {
                continue;
            }
            let util = busy[ring] as f64 / (count[ring] as u128 * u128::from(epoch.as_ps())) as f64;
            let tier = self.ring_tier[ring];
            if util > self.config.on_threshold && tier < 2 {
                self.set_ring_tier(
                    ring,
                    tier + 1,
                    now,
                    fabric,
                    channels,
                    mask,
                    config,
                    stats,
                    inst,
                );
            } else if util < self.config.off_threshold && tier > 0 {
                self.set_ring_tier(
                    ring,
                    tier - 1,
                    now,
                    fabric,
                    channels,
                    mask,
                    config,
                    stats,
                    inst,
                );
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn set_ring_tier(
        &mut self,
        ring: usize,
        new_tier: u8,
        now: SimTime,
        fabric: &FabricGraph,
        channels: &mut Channels,
        mask: &mut LinkMask,
        config: &SimConfig,
        stats: &mut Stats,
        inst: &mut Instruments,
    ) {
        let old_tier = self.ring_tier[ring];
        self.ring_tier[ring] = new_tier;
        for (l, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            if slot.ring as usize != ring {
                continue;
            }
            let link = LinkId::new(l as u32);
            if new_tier > old_tier && slot.tier <= new_tier && !mask.is_enabled(link) {
                // Power on: usable after one reactivation at full rate
                // (demand is high — skip the slow ramp).
                mask.enable(link);
                self.draining.retain(|&d| d != link);
                let (a, b) = fabric.link_channels(link);
                for ch in [a, b] {
                    let i = ch.index();
                    if channels.has_flag(i, F_OFF) {
                        channels.set_off(i, now, false);
                    }
                    channels.reactivate(i, now, config.reactivation.worst_case(), config.max_rate);
                    stats.record_rate(now, ch.raw(), Some(config.max_rate));
                    if inst.on(TraceCategory::Reactivation) {
                        let until = now + config.reactivation.worst_case();
                        let rate = config.max_rate.to_string();
                        inst.tracer().reactivation(
                            now.as_ps(),
                            ch.raw(),
                            "start",
                            &rate,
                            Some(until.as_ps()),
                        );
                    }
                }
                self.transitions += 1;
                stats.reconfigurations += 1;
            } else if new_tier < old_tier && slot.tier > new_tier && mask.is_enabled(link) {
                // Remove from routing and drain (§3.2 option 1).
                mask.disable(link);
                self.draining.push(link);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epnet_topology::FlattenedButterfly;

    fn fabric() -> FabricGraph {
        FlattenedButterfly::new(2, 5, 3).unwrap().build_fabric()
    }

    #[test]
    fn every_interswitch_link_gets_a_slot() {
        let g = fabric();
        let dt = DynamicTopology::new(&g, DynamicTopologyConfig::default());
        let with_slots = dt.slots.iter().filter(|s| s.is_some()).count();
        assert_eq!(with_slots, g.num_links() - g.num_hosts());
        // 2 dimensions × 5 groups per dimension (25 switches / k=5).
        assert_eq!(dt.num_rings(), 2 * 5);
    }

    #[test]
    fn tiers_partition_ring_links() {
        let g = fabric();
        let dt = DynamicTopology::new(&g, DynamicTopologyConfig::default());
        // Each k=5 ring has C(5,2)=10 links: 4 adjacent, 1 wrap, 5 chords.
        let mut per_tier = [0usize; 3];
        for slot in dt.slots.iter().flatten() {
            if slot.ring == 0 {
                per_tier[slot.tier as usize] += 1;
            }
        }
        assert_eq!(per_tier, [4, 1, 5]);
    }

    #[test]
    fn rings_start_at_full_butterfly() {
        let g = fabric();
        let dt = DynamicTopology::new(&g, DynamicTopologyConfig::default());
        for r in 0..dt.num_rings() {
            assert_eq!(dt.ring_tier(r), 2);
        }
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_thresholds_rejected() {
        let g = fabric();
        let _ = DynamicTopology::new(
            &g,
            DynamicTopologyConfig {
                off_threshold: 0.5,
                on_threshold: 0.1,
            },
        );
    }
}
