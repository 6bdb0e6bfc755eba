//! Property-based tests over topology invariants.

use epnet_topology::{
    FlattenedButterfly, HostId, LinkId, LinkMask, Medium, PortIndex, PortTarget, RoutingTopology,
    SubtopologyKind, SwitchId,
};
use proptest::prelude::*;

/// Strategy producing small but varied flattened butterflies.
fn fbfly_strategy() -> impl Strategy<Value = FlattenedButterfly> {
    (1u16..6, 2u16..7, 2usize..5)
        .prop_map(|(c, k, n)| FlattenedButterfly::new(c, k, n).expect("params in valid range"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn port_budget_is_exact(f in fbfly_strategy()) {
        // Every switch port is either a host port or one end of exactly one
        // inter-switch link.
        let total_ports = f.num_switches() * f.ports_per_switch() as usize;
        prop_assert_eq!(total_ports, f.num_hosts() + 2 * f.inter_switch_links());
    }

    #[test]
    fn link_media_partition_all_links(f in fbfly_strategy()) {
        prop_assert_eq!(
            f.link_count(Medium::Electrical) + f.link_count(Medium::Optical),
            f.total_links()
        );
    }

    #[test]
    fn fabric_matches_analytical_counts(f in fbfly_strategy()) {
        let g = f.build_fabric();
        prop_assert_eq!(g.num_hosts(), f.num_hosts());
        prop_assert_eq!(g.num_switches(), f.num_switches());
        prop_assert_eq!(g.num_links(), f.total_links());
        prop_assert_eq!(g.num_channels(), 2 * g.num_links());
    }

    #[test]
    fn links_are_involutions(f in fbfly_strategy()) {
        let g = f.build_fabric();
        for ch in 0..g.num_channels() {
            let ch = epnet_topology::ChannelId::new(ch as u32);
            prop_assert_eq!(g.reverse_channel(g.reverse_channel(ch)), ch);
            prop_assert_ne!(g.reverse_channel(ch), ch);
        }
    }

    #[test]
    fn greedy_routing_always_terminates(
        f in fbfly_strategy(),
        src_seed in any::<u32>(),
        dst_seed in any::<u32>(),
    ) {
        let g = f.build_fabric();
        let hosts = g.num_hosts() as u32;
        let src = HostId::new(src_seed % hosts);
        let dst = HostId::new(dst_seed % hosts);
        let mut at = g.host_switch(src);
        let mut out = Vec::new();
        let mut hops = 0usize;
        loop {
            g.candidate_ports(at, dst, &mut out);
            prop_assert!(!out.is_empty());
            let p = out[0];
            match g.port_target(at, p) {
                PortTarget::Host(h) => {
                    prop_assert_eq!(h, dst);
                    break;
                }
                PortTarget::Switch { switch, .. } => at = switch,
            }
            hops += 1;
            prop_assert!(hops <= f.switch_dims() + 1, "minimal routing exceeded dims");
        }
    }

    #[test]
    fn every_candidate_leads_minimal(f in fbfly_strategy(), seed in any::<u32>()) {
        let g = f.build_fabric();
        let dst = HostId::new(seed % g.num_hosts() as u32);
        let dst_switch = g.host_switch(dst);
        let mut out = Vec::new();
        for s in 0..g.num_switches() {
            let at = SwitchId::new(s as u32);
            g.candidate_ports(at, dst, &mut out);
            let d = f.hop_distance(at, dst_switch);
            if at == dst_switch {
                prop_assert_eq!(out.clone(), vec![g.host_port(dst)]);
            } else {
                prop_assert_eq!(out.len(), d);
                for &p in &out {
                    let PortTarget::Switch { switch, .. } = g.port_target(at, p) else {
                        panic!("expected switch hop")
                    };
                    prop_assert_eq!(f.hop_distance(switch, dst_switch), d - 1);
                }
            }
        }
    }

    #[test]
    fn mesh_mask_keeps_fabric_connected(f in fbfly_strategy(), seed in any::<u32>()) {
        let g = f.build_fabric();
        let mask = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
        let dst = HostId::new(seed % g.num_hosts() as u32);
        let dst_switch = g.host_switch(dst);
        let mut out = Vec::new();
        for s in 0..g.num_switches() {
            let mut at = SwitchId::new(s as u32);
            let mut hops = 0usize;
            let bound = g.switch_dims() * f.radix() as usize + 1;
            while at != dst_switch {
                g.candidate_ports_masked(at, dst, Some(&mask), &mut out);
                prop_assert!(!out.is_empty(), "mesh stranded a switch");
                let PortTarget::Switch { switch, .. } = g.port_target(at, out[0]) else {
                    panic!("expected switch hop")
                };
                at = switch;
                hops += 1;
                prop_assert!(hops <= bound, "mesh routing cycled");
            }
        }
    }

    #[test]
    fn torus_routing_never_longer_than_mesh(f in fbfly_strategy(), seed in any::<u32>()) {
        let g = f.build_fabric();
        let mesh = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
        let torus = LinkMask::subtopology(&g, SubtopologyKind::Torus);
        let dst = HostId::new(seed % g.num_hosts() as u32);
        let dst_switch = g.host_switch(dst);

        let walk = |mask: &LinkMask, from: SwitchId| -> usize {
            let mut at = from;
            let mut out = Vec::new();
            let mut hops = 0;
            while at != dst_switch {
                g.candidate_ports_masked(at, dst, Some(mask), &mut out);
                let PortTarget::Switch { switch, .. } = g.port_target(at, out[0]) else {
                    panic!("expected switch hop")
                };
                at = switch;
                hops += 1;
            }
            hops
        };
        for s in 0..g.num_switches().min(16) {
            let from = SwitchId::new(s as u32);
            prop_assert!(walk(&torus, from) <= walk(&mesh, from));
        }
    }

    #[test]
    fn host_attachment_is_a_bijection(f in fbfly_strategy()) {
        let g = f.build_fabric();
        let mut seen = vec![false; g.num_hosts()];
        for s in 0..g.num_switches() {
            for p in 0..f.concentration() as usize {
                let PortTarget::Host(h) =
                    g.port_target(SwitchId::new(s as u32), PortIndex::new(p as u16))
                else {
                    panic!("host port range must map to hosts")
                };
                prop_assert!(!seen[h.index()], "host attached twice");
                seen[h.index()] = true;
                prop_assert_eq!(g.host_switch(h).index(), s);
                prop_assert_eq!(g.host_port(h).index(), p);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn link_ids_are_dense_and_total(f in fbfly_strategy()) {
        let g = f.build_fabric();
        let mut counts = vec![0u8; g.num_links()];
        for ch in 0..g.num_channels() {
            let l = g.link_of(epnet_topology::ChannelId::new(ch as u32));
            counts[l.index()] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c == 2), "each link owns exactly two channels");
        // Link channel table agrees with link_of.
        for l in 0..g.num_links() {
            let link = LinkId::new(l as u32);
            let (a, b) = g.link_channels(link);
            prop_assert_eq!(g.link_of(a), link);
            prop_assert_eq!(g.link_of(b), link);
        }
    }
}
