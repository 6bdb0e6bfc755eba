//! Port-level fabric graph consumed by the event-driven simulator.

use crate::{ChannelId, Coord, FlattenedButterfly, HostId, LinkId, LinkMask, PortIndex, SwitchId};
use serde::{Deserialize, Serialize};

/// Physical medium of a link, which determines its cabling cost and (for
/// real switch chips) a second-order power difference (Figure 5 shows an
/// electrical port using about 25% less power than an optical one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Medium {
    /// Short (<5 m) passive copper cable or backplane trace.
    Electrical,
    /// Optical transceiver pair, required for longer runs.
    Optical,
}

/// What an output port connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PortTarget {
    /// The port is a host (ejection) port.
    Host(HostId),
    /// The port connects to `port` on `switch`.
    Switch {
        /// Peer switch.
        switch: SwitchId,
        /// Input port on the peer switch that receives from this port.
        port: PortIndex,
    },
}

/// Minimal interface the simulator needs from a topology: sizes, host
/// attachment, the port-level connectivity, and local minimal-adaptive
/// route candidates.
///
/// The flattened butterfly satisfies the paper's key property that "the
/// choice of a packet's route is inherently a local decision" (§3.2):
/// [`RoutingTopology::candidate_ports`] depends only on the current switch
/// and the destination.
pub trait RoutingTopology {
    /// Number of hosts.
    fn num_hosts(&self) -> usize;
    /// Number of switches.
    fn num_switches(&self) -> usize;
    /// Ports per switch.
    fn ports_per_switch(&self) -> usize;
    /// The switch a host attaches to.
    fn host_switch(&self, host: HostId) -> SwitchId;
    /// The port on [`Self::host_switch`] the host occupies.
    fn host_port(&self, host: HostId) -> PortIndex;
    /// What output port `(switch, port)` connects to.
    fn port_target(&self, switch: SwitchId, port: PortIndex) -> PortTarget;
    /// Pushes the minimal route candidates from `at` toward `dest` into
    /// `out` (cleared first). With every link available there is one
    /// candidate per unresolved dimension; the adaptive router picks among
    /// them by output-queue depth (§4.1).
    fn candidate_ports(&self, at: SwitchId, dest: HostId, out: &mut Vec<PortIndex>);
}

/// Which topology a [`FabricGraph`] elaborates, selecting the routing
/// function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FabricKind {
    /// A flattened butterfly: minimal-adaptive routing over the
    /// unresolved dimensions; supports link masks and detours.
    FlattenedButterfly,
    /// A two-tier folded Clos (leaf/spine): up over any spine, then down
    /// — "a folded-Clos has multiple physical paths to each destination
    /// and very simple routing" (§2.1).
    TwoTierClos {
        /// Leaf switch count (switch ids `0..leaves`).
        leaves: u32,
        /// Spine switch count (switch ids `leaves..leaves+spines`).
        spines: u32,
    },
}

/// A fully-elaborated port-level graph of a fabric (flattened butterfly
/// or two-tier folded Clos): dense channel and link identifiers, media,
/// and routing support — everything `epnet-sim` needs.
///
/// # Channel numbering
///
/// * Channels `0..H` are host *injection* channels (host → switch).
/// * Channel `H + s·P + p` is the output channel of port `p` on switch `s`
///   (an *ejection* channel when `p` is a host port).
///
/// Every channel belongs to exactly one bidirectional [`LinkId`] pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricGraph {
    kind: FabricKind,
    radix: u16,
    switch_dims: usize,
    concentration: u16,
    num_hosts: u32,
    num_switches: u32,
    ports_per_switch: u16,
    /// What each channel delivers to, indexed by channel: the switch
    /// input of a host's injection channel, then the port targets
    /// switch-major (channel `H + s·P + p`).
    channel_targets: Vec<PortTarget>,
    /// Per-switch coordinates.
    coords: Vec<Coord>,
    /// Per-channel medium.
    media: Vec<Medium>,
    /// Per-channel owning link.
    channel_link: Vec<LinkId>,
    /// Per-link channel pair (lower channel id first).
    links: Vec<(ChannelId, ChannelId)>,
}

impl FabricGraph {
    /// Builds the fabric graph for a flattened butterfly.
    pub fn from_fbfly(f: &FlattenedButterfly) -> Self {
        let s_count = f.num_switches();
        let h_count = f.num_hosts();
        let ports = f.ports_per_switch() as usize;
        let conc = f.concentration() as usize;

        let mut channel_targets = Vec::with_capacity(h_count + s_count * ports);
        for h in 0..h_count {
            let host = HostId::new(h as u32);
            channel_targets.push(PortTarget::Switch {
                switch: f.host_switch(host),
                port: f.host_port(host),
            });
        }
        let mut coords = Vec::with_capacity(s_count);
        for s in 0..s_count {
            let sid = SwitchId::new(s as u32);
            coords.push(f.switch_coord(sid));
            for p in 0..ports {
                let pid = PortIndex::new(p as u16);
                if p < conc {
                    let host = f
                        .port_host(sid, pid)
                        .expect("ports below concentration are host ports");
                    channel_targets.push(PortTarget::Host(host));
                } else {
                    let (peer, back) = f
                        .port_peer(sid, pid)
                        .expect("ports at or above concentration are switch ports");
                    channel_targets.push(PortTarget::Switch {
                        switch: peer,
                        port: back,
                    });
                }
            }
        }

        let num_channels = h_count + s_count * ports;
        let mut media = Vec::with_capacity(num_channels);
        // Injection channels: electrical (host to its local switch).
        media.resize(h_count, Medium::Electrical);
        for _switch in 0..s_count {
            for p in 0..ports {
                let medium = if p < conc {
                    Medium::Electrical
                } else {
                    // Dimension 0 enjoys packaging locality; higher
                    // dimensions need optics (§2.2).
                    let dim = (p - conc) / (f.radix() as usize - 1);
                    if dim == 0 {
                        Medium::Electrical
                    } else {
                        Medium::Optical
                    }
                };
                media.push(medium);
            }
        }

        // Pair channels into bidirectional links.
        let mut channel_link = vec![LinkId::new(u32::MAX); num_channels];
        let mut links = Vec::with_capacity(num_channels / 2);
        let this_partial = |s: usize, p: usize| h_count + s * ports + p;
        for h in 0..h_count {
            // Injection channel h pairs with the ejection channel of its
            // switch port.
            let hid = HostId::new(h as u32);
            let sw = f.host_switch(hid);
            let port = f.host_port(hid);
            let eject = this_partial(sw.index(), port.index());
            let link = LinkId::new(links.len() as u32);
            channel_link[h] = link;
            channel_link[eject] = link;
            links.push((ChannelId::new(h as u32), ChannelId::new(eject as u32)));
        }
        for s in 0..s_count {
            for p in conc..ports {
                let ch = this_partial(s, p);
                let PortTarget::Switch { switch, port } = channel_targets[ch] else {
                    unreachable!("inter-switch port range");
                };
                let rev = this_partial(switch.index(), port.index());
                if ch < rev {
                    let link = LinkId::new(links.len() as u32);
                    channel_link[ch] = link;
                    channel_link[rev] = link;
                    links.push((ChannelId::new(ch as u32), ChannelId::new(rev as u32)));
                }
            }
        }
        debug_assert!(channel_link.iter().all(|l| l.raw() != u32::MAX));

        Self {
            kind: FabricKind::FlattenedButterfly,
            radix: f.radix(),
            switch_dims: f.switch_dims(),
            concentration: f.concentration(),
            num_hosts: h_count as u32,
            num_switches: s_count as u32,
            ports_per_switch: ports as u16,
            channel_targets,
            coords,
            media,
            channel_link,
            links,
        }
    }

    /// Builds the fabric graph for a uniform two-tier folded Clos:
    /// `leaves` leaf switches with `concentration` hosts each, every
    /// leaf connected to every one of `spines` spine switches.
    ///
    /// To keep channel indexing dense, every switch has the same port
    /// count, which requires `leaves == concentration + spines` (e.g.
    /// the non-blocking `leaves = 2c, spines = c`). Construct via
    /// [`TwoTierClos`](crate::TwoTierClos), which validates this.
    ///
    /// Host links are electrical (rack-local); leaf↔spine links are
    /// optical, matching the paper's packaging assumptions for
    /// centralized Clos fabrics (§2.2).
    pub(crate) fn from_two_tier_clos(leaves: u32, spines: u32, concentration: u16) -> Self {
        assert_eq!(
            leaves as u64,
            u64::from(concentration) + spines as u64,
            "uniform chip radix requires leaves == concentration + spines"
        );
        let s_count = (leaves + spines) as usize;
        let h_count = leaves as usize * concentration as usize;
        let ports = leaves as usize; // == concentration + spines
        let conc = concentration as usize;

        let mut channel_targets = Vec::with_capacity(h_count + s_count * ports);
        for h in 0..h_count {
            channel_targets.push(PortTarget::Switch {
                switch: SwitchId::new((h / conc) as u32),
                port: PortIndex::new((h % conc) as u16),
            });
        }
        for leaf in 0..leaves {
            for p in 0..ports {
                if p < conc {
                    channel_targets.push(PortTarget::Host(HostId::new(
                        leaf * u32::from(concentration) + p as u32,
                    )));
                } else {
                    let spine = (p - conc) as u32;
                    channel_targets.push(PortTarget::Switch {
                        switch: SwitchId::new(leaves + spine),
                        port: PortIndex::new(leaf as u16),
                    });
                }
            }
        }
        for spine in 0..spines {
            for p in 0..ports {
                let _ = spine;
                channel_targets.push(PortTarget::Switch {
                    switch: SwitchId::new(p as u32),
                    port: PortIndex::new(concentration + spine as u16),
                });
            }
        }

        let num_channels = h_count + s_count * ports;
        let mut media = Vec::with_capacity(num_channels);
        media.resize(h_count, Medium::Electrical); // injection
        for s in 0..s_count {
            for p in 0..ports {
                let is_leaf_host_port = s < leaves as usize && p < conc;
                media.push(if is_leaf_host_port {
                    Medium::Electrical
                } else {
                    Medium::Optical
                });
            }
        }

        let mut channel_link = vec![LinkId::new(u32::MAX); num_channels];
        let mut links = Vec::with_capacity(num_channels / 2);
        let out_ch = |s: usize, p: usize| h_count + s * ports + p;
        for h in 0..h_count {
            let leaf = h / conc;
            let port = h % conc;
            let eject = out_ch(leaf, port);
            let link = LinkId::new(links.len() as u32);
            channel_link[h] = link;
            channel_link[eject] = link;
            links.push((ChannelId::new(h as u32), ChannelId::new(eject as u32)));
        }
        for leaf in 0..leaves as usize {
            for p in conc..ports {
                let up = out_ch(leaf, p);
                let spine = leaves as usize + (p - conc);
                let down = out_ch(spine, leaf);
                let link = LinkId::new(links.len() as u32);
                channel_link[up] = link;
                channel_link[down] = link;
                links.push((ChannelId::new(up as u32), ChannelId::new(down as u32)));
            }
        }
        debug_assert!(channel_link.iter().all(|l| l.raw() != u32::MAX));

        Self {
            kind: FabricKind::TwoTierClos { leaves, spines },
            radix: 0,
            switch_dims: 0,
            concentration,
            num_hosts: h_count as u32,
            num_switches: s_count as u32,
            ports_per_switch: ports as u16,
            channel_targets,
            coords: vec![Coord::new(&[]).expect("empty coord is valid"); s_count],
            media,
            channel_link,
            links,
        }
    }

    /// The topology this graph elaborates.
    #[inline]
    pub fn kind(&self) -> FabricKind {
        self.kind
    }

    /// Dimension radix `k` of the underlying flattened butterfly
    /// (0 for a Clos fabric).
    #[inline]
    pub fn radix(&self) -> u16 {
        self.radix
    }

    /// Number of switch dimensions (`n − 1`).
    #[inline]
    pub fn switch_dims(&self) -> usize {
        self.switch_dims
    }

    /// Hosts per switch.
    #[inline]
    pub fn concentration(&self) -> u16 {
        self.concentration
    }

    /// Total number of unidirectional channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.media.len()
    }

    /// Total number of bidirectional links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The injection channel of a host.
    #[inline]
    pub fn injection_channel(&self, host: HostId) -> ChannelId {
        ChannelId::new(host.raw())
    }

    /// The ejection channel delivering to a host: one read of the
    /// channel-target table at its injection channel, whose target is
    /// the host's switch port, then that port's output channel.
    #[inline]
    pub fn ejection_channel(&self, host: HostId) -> ChannelId {
        match self.channel_target(self.injection_channel(host)) {
            PortTarget::Switch { switch, port } => self.output_channel(switch, port),
            PortTarget::Host(_) => unreachable!("an injection channel delivers to a switch"),
        }
    }

    /// The output channel of `(switch, port)`.
    #[inline]
    pub fn output_channel(&self, switch: SwitchId, port: PortIndex) -> ChannelId {
        ChannelId::new(
            self.num_hosts
                + switch.raw() * u32::from(self.ports_per_switch)
                + u32::from(port.raw()),
        )
    }

    /// Decodes a channel back into its source: `None` for a host injection
    /// channel, `Some((switch, port))` for a switch output channel.
    #[inline]
    pub fn channel_source(&self, channel: ChannelId) -> Option<(SwitchId, PortIndex)> {
        let c = channel.raw().checked_sub(self.num_hosts)?;
        let ports = u32::from(self.ports_per_switch);
        Some((SwitchId::new(c / ports), PortIndex::new((c % ports) as u16)))
    }

    /// Where a channel delivers: the receiving endpoint (one table
    /// read, no decode).
    #[inline]
    pub fn channel_target(&self, channel: ChannelId) -> PortTarget {
        self.channel_targets[channel.index()]
    }

    /// The channel that *feeds* input port `(switch, port)` — the upstream
    /// channel whose target is that input (used to return flow-control
    /// credits).
    pub fn input_feeder(&self, switch: SwitchId, port: PortIndex) -> ChannelId {
        match self.port_target(switch, port) {
            PortTarget::Host(h) => self.injection_channel(h),
            PortTarget::Switch { switch: s, port: p } => self.output_channel(s, p),
        }
    }

    /// Medium of a channel.
    #[inline]
    pub fn channel_medium(&self, channel: ChannelId) -> Medium {
        self.media[channel.index()]
    }

    /// The bidirectional link a channel belongs to.
    #[inline]
    pub fn link_of(&self, channel: ChannelId) -> LinkId {
        self.channel_link[channel.index()]
    }

    /// The two opposing channels of a link.
    #[inline]
    pub fn link_channels(&self, link: LinkId) -> (ChannelId, ChannelId) {
        self.links[link.index()]
    }

    /// The opposing channel on the same link.
    pub fn reverse_channel(&self, channel: ChannelId) -> ChannelId {
        let (a, b) = self.link_channels(self.link_of(channel));
        if a == channel {
            b
        } else {
            a
        }
    }

    /// Whether a channel is a host (injection or ejection) channel rather
    /// than an inter-switch channel.
    pub fn is_host_channel(&self, channel: ChannelId) -> bool {
        match self.channel_source(channel) {
            None => true,
            Some((_, p)) => p.index() < self.concentration as usize,
        }
    }

    /// Coordinate of a switch.
    #[inline]
    pub fn switch_coord(&self, switch: SwitchId) -> Coord {
        self.coords[switch.index()]
    }

    /// Like [`RoutingTopology::candidate_ports`] but consulting a
    /// [`LinkMask`]: if the direct (fully-connected) link in a dimension is
    /// disabled, falls back to the enabled adjacent-digit step toward the
    /// destination digit, which turns the dimension into a mesh or torus
    /// ring — the paper's *dynamic topologies* (§5.2).
    ///
    /// `out` is cleared first. If the mask strands a dimension entirely the
    /// dimension contributes no candidate (the caller should treat an empty
    /// result for a remote destination as a partitioned fabric).
    pub fn candidate_ports_masked(
        &self,
        at: SwitchId,
        dest: HostId,
        mask: Option<&LinkMask>,
        out: &mut Vec<PortIndex>,
    ) {
        out.clear();
        let dest_switch = self.host_switch(dest);
        if at == dest_switch {
            out.push(self.host_port(dest));
            return;
        }
        if let FabricKind::TwoTierClos { leaves, spines } = self.kind {
            self.clos_candidates(at, dest_switch, leaves, spines, mask, out);
            return;
        }
        let here = self.switch_coord(at);
        let there = self.switch_coord(dest_switch);
        for dim in 0..self.switch_dims {
            let a = here.digit(dim);
            let b = there.digit(dim);
            if a == b {
                continue;
            }
            let direct = self.port_toward(at, dim, b);
            match mask {
                None => out.push(direct),
                Some(m) => {
                    if m.is_enabled(self.link_of(self.output_channel(at, direct))) {
                        out.push(direct);
                    } else if let Some(step) = self.masked_step(at, dim, a, b, m) {
                        out.push(step);
                    }
                }
            }
        }
    }

    /// Clos routing: a leaf offers every (enabled) spine as a candidate
    /// — the adaptive router load-balances across them — and a spine has
    /// exactly one way down to the destination leaf.
    fn clos_candidates(
        &self,
        at: SwitchId,
        dest_switch: SwitchId,
        leaves: u32,
        spines: u32,
        mask: Option<&LinkMask>,
        out: &mut Vec<PortIndex>,
    ) {
        let enabled = |port: PortIndex| {
            mask.map_or(true, |m| {
                m.is_enabled(self.link_of(self.output_channel(at, port)))
            })
        };
        if at.raw() < leaves {
            for j in 0..spines as u16 {
                let port = PortIndex::new(self.concentration + j);
                if enabled(port) {
                    out.push(port);
                }
            }
        } else {
            let port = PortIndex::new(dest_switch.raw() as u16);
            if enabled(port) {
                out.push(port);
            }
        }
    }

    /// Chooses an adjacent-digit step toward `b` when the direct link is
    /// masked off: prefers the in-line direction, allowing a wraparound
    /// step when the mask keeps it enabled (torus mode).
    fn masked_step(
        &self,
        at: SwitchId,
        dim: usize,
        a: u16,
        b: u16,
        mask: &LinkMask,
    ) -> Option<PortIndex> {
        let k = self.radix;
        let up = (a + 1) % k;
        let down = (a + k - 1) % k;
        // Going in the line direction uses only adjacent-digit links and
        // monotonically closes the |a − b| gap, so it always terminates
        // under any mesh-or-richer mask. The other direction is shorter
        // only via the 0 ↔ k−1 wraparound, so prefer it exactly when
        // that wrap link of this ring is enabled (torus tier) *and* the
        // ring distance is strictly smaller — preferring it blindly
        // oscillates at the masked boundary.
        let dist_up = (i32::from(b) - i32::from(a)).rem_euclid(i32::from(k));
        let dist_down = (i32::from(a) - i32::from(b)).rem_euclid(i32::from(k));
        let line_first = if b > a { up } else { down };
        let line_second = if b > a { down } else { up };
        let wrap_shorter = if b > a {
            dist_down < dist_up // shorter going down, crossing 0 ↔ k−1
        } else {
            dist_up < dist_down
        };
        let order = if wrap_shorter && self.ring_wrap_enabled(at, dim, mask) {
            [line_second, line_first]
        } else {
            [line_first, line_second]
        };
        for digit in order {
            if digit == a {
                continue;
            }
            let port = self.port_toward(at, dim, digit);
            if mask.is_enabled(self.link_of(self.output_channel(at, port))) {
                return Some(port);
            }
        }
        None
    }

    /// Whether the `0 ↔ k−1` wraparound link of `at`'s ring in `dim` is
    /// enabled.
    fn ring_wrap_enabled(&self, at: SwitchId, dim: usize, mask: &LinkMask) -> bool {
        if self.radix < 3 {
            // With k = 2 the only link of the ring is both adjacent and
            // wraparound.
            return true;
        }
        let end = self
            .switch_coord(at)
            .with_digit(dim, self.radix - 1)
            .to_switch_id(self.radix);
        let port = self.port_toward(end, dim, 0);
        mask.is_enabled(self.link_of(self.output_channel(end, port)))
    }

    /// Enumerates the non-minimal (UGAL detour) candidate ports from `at`
    /// toward `dst_switch`: for every dimension whose digit still needs
    /// correction, the port toward each *intermediate* digit (neither the
    /// current nor the destination digit), filtered by `mask`.
    ///
    /// `out` is cleared first. The order is deterministic —
    /// dimension-major, digit-ascending — and load-balancing callers
    /// resolve occupancy ties by first-wins over this order, so a
    /// precomputed table and this on-the-fly enumeration must stay
    /// byte-for-byte identical. A Clos fabric has no dimension rings and
    /// yields no detours.
    pub fn detour_ports_masked(
        &self,
        at: SwitchId,
        dst_switch: SwitchId,
        mask: Option<&LinkMask>,
        out: &mut Vec<PortIndex>,
    ) {
        out.clear();
        if self.switch_dims == 0 {
            return;
        }
        let here = self.switch_coord(at);
        let there = self.switch_coord(dst_switch);
        for dim in 0..self.switch_dims {
            let a = here.digit(dim);
            let b = there.digit(dim);
            if a == b {
                continue;
            }
            for digit in 0..self.radix {
                if digit == a || digit == b {
                    continue;
                }
                let port = self.port_toward(at, dim, digit);
                if let Some(m) = mask {
                    if !m.is_enabled(self.link_of(self.output_channel(at, port))) {
                        continue;
                    }
                }
                out.push(port);
            }
        }
    }

    /// The output port on `switch` toward digit `peer_digit` in `dim`
    /// (same port layout as [`FlattenedButterfly::port_toward`]).
    pub fn port_toward(&self, switch: SwitchId, dim: usize, peer_digit: u16) -> PortIndex {
        let own = self.switch_coord(switch).digit(dim);
        debug_assert_ne!(own, peer_digit);
        let off = if peer_digit < own {
            peer_digit
        } else {
            peer_digit - 1
        };
        PortIndex::new(self.concentration + dim as u16 * (self.radix - 1) + off)
    }
}

impl RoutingTopology for FabricGraph {
    fn num_hosts(&self) -> usize {
        self.num_hosts as usize
    }

    fn num_switches(&self) -> usize {
        self.num_switches as usize
    }

    fn ports_per_switch(&self) -> usize {
        self.ports_per_switch as usize
    }

    /// One read of the channel-target table at the host's injection
    /// channel (no divide on the per-hop path).
    #[inline]
    fn host_switch(&self, host: HostId) -> SwitchId {
        match self.channel_target(self.injection_channel(host)) {
            PortTarget::Switch { switch, .. } => switch,
            PortTarget::Host(_) => unreachable!("an injection channel delivers to a switch"),
        }
    }

    fn host_port(&self, host: HostId) -> PortIndex {
        PortIndex::new((host.raw() % u32::from(self.concentration)) as u16)
    }

    fn port_target(&self, switch: SwitchId, port: PortIndex) -> PortTarget {
        self.channel_target(self.output_channel(switch, port))
    }

    fn candidate_ports(&self, at: SwitchId, dest: HostId, out: &mut Vec<PortIndex>) {
        self.candidate_ports_masked(at, dest, None, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlattenedButterfly;

    fn small() -> FabricGraph {
        FlattenedButterfly::new(2, 4, 3).unwrap().build_fabric()
    }

    #[test]
    fn counts_match_analytical_model() {
        let f = FlattenedButterfly::new(2, 4, 3).unwrap();
        let g = f.build_fabric();
        assert_eq!(g.num_hosts(), f.num_hosts());
        assert_eq!(g.num_switches(), f.num_switches());
        assert_eq!(g.num_links(), f.total_links());
        assert_eq!(
            g.num_channels(),
            f.num_hosts() + f.num_switches() * f.ports_per_switch() as usize
        );
    }

    #[test]
    fn every_link_pairs_opposing_channels() {
        let g = small();
        for l in 0..g.num_links() {
            let link = LinkId::new(l as u32);
            let (a, b) = g.link_channels(link);
            assert_ne!(a, b);
            assert_eq!(g.link_of(a), link);
            assert_eq!(g.link_of(b), link);
            assert_eq!(g.reverse_channel(a), b);
            assert_eq!(g.reverse_channel(b), a);
            // Opposing channels connect the same pair of endpoints.
            assert_eq!(g.channel_medium(a), g.channel_medium(b));
        }
    }

    #[test]
    fn injection_and_ejection_pair_up() {
        let g = small();
        let h = HostId::new(5);
        let inj = g.injection_channel(h);
        let eject = g.output_channel(g.host_switch(h), g.host_port(h));
        assert_eq!(g.reverse_channel(inj), eject);
        assert_eq!(g.channel_target(eject), PortTarget::Host(h));
        assert!(g.is_host_channel(inj));
        assert!(g.is_host_channel(eject));
    }

    /// The channel-target table covers every channel: an injection
    /// channel delivers to its host's switch port, an ejection channel
    /// to its host, and an inter-switch channel to the input its peer
    /// channel feeds back from, in both fabric families.
    #[test]
    fn every_channel_targets_its_receiving_endpoint() {
        let clos = crate::TwoTierClos::multi_pod(4, 2).unwrap().build_fabric();
        for g in [small(), clos] {
            for h in 0..g.num_hosts() {
                let host = HostId::new(h as u32);
                let target = PortTarget::Switch {
                    switch: g.host_switch(host),
                    port: g.host_port(host),
                };
                assert_eq!(g.channel_target(g.injection_channel(host)), target);
            }
            for ch in g.num_hosts()..g.num_channels() {
                let ch = ChannelId::new(ch as u32);
                match g.channel_target(ch) {
                    PortTarget::Host(h) => {
                        let eject = g.output_channel(g.host_switch(h), g.host_port(h));
                        assert_eq!(eject, ch, "{ch} delivers to {h}");
                    }
                    PortTarget::Switch { switch, port } => {
                        assert_eq!(g.input_feeder(switch, port), ch, "{ch} feeds its target");
                    }
                }
            }
        }
    }

    /// A host's ejection channel, read from the channel-target table,
    /// is its switch port's output channel on every fabric family.
    #[test]
    fn ejection_channel_is_the_host_ports_output() {
        let grouped = FlattenedButterfly::grouped(3, 4, 2).unwrap().build_fabric();
        let clos = crate::TwoTierClos::multi_pod(4, 2).unwrap().build_fabric();
        for g in [small(), grouped, clos] {
            for h in 0..g.num_hosts() {
                let host = HostId::new(h as u32);
                let eject = g.output_channel(g.host_switch(host), g.host_port(host));
                assert_eq!(g.ejection_channel(host), eject, "{host}");
            }
        }
    }

    #[test]
    fn channel_source_round_trips() {
        let g = small();
        for s in 0..g.num_switches() {
            for p in 0..g.ports_per_switch() {
                let (sid, pid) = (SwitchId::new(s as u32), PortIndex::new(p as u16));
                let ch = g.output_channel(sid, pid);
                assert_eq!(g.channel_source(ch), Some((sid, pid)));
            }
        }
        assert_eq!(g.channel_source(ChannelId::new(0)), None);
    }

    #[test]
    fn input_feeder_is_the_upstream_channel() {
        let g = small();
        // For an inter-switch port, the feeder of (s, p) is the peer's
        // output channel.
        let s = SwitchId::new(0);
        let p = PortIndex::new(2); // first inter-switch port (c = 2)
        let PortTarget::Switch { switch, port } = g.port_target(s, p) else {
            panic!("expected switch port");
        };
        assert_eq!(g.input_feeder(switch, port), g.output_channel(s, p));
    }

    #[test]
    fn media_classification() {
        let g = small();
        // Host channels electrical.
        assert_eq!(g.channel_medium(ChannelId::new(0)), Medium::Electrical);
        let f = FlattenedButterfly::new(2, 4, 3).unwrap();
        let mut electrical = 0usize;
        let mut optical = 0usize;
        for l in 0..g.num_links() {
            let (a, _) = g.link_channels(LinkId::new(l as u32));
            match g.channel_medium(a) {
                Medium::Electrical => electrical += 1,
                Medium::Optical => optical += 1,
            }
        }
        assert_eq!(electrical, f.link_count(Medium::Electrical));
        assert_eq!(optical, f.link_count(Medium::Optical));
    }

    #[test]
    fn candidates_are_one_per_unresolved_dimension() {
        let g = small();
        let mut out = Vec::new();
        // Host 0 lives on switch 0 at (0,0); a host on switch 15 = (3,3)
        // differs in both dimensions.
        let dest = HostId::new(31); // switch 15
        g.candidate_ports(SwitchId::new(0), dest, &mut out);
        assert_eq!(out.len(), 2);
        // Local delivery: a single host port.
        g.candidate_ports(SwitchId::new(15), dest, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], g.host_port(dest));
    }

    #[test]
    fn candidates_make_progress() {
        // Following any candidate strictly decreases hop distance.
        let f = FlattenedButterfly::new(2, 3, 4).unwrap();
        let g = f.build_fabric();
        let mut out = Vec::new();
        for h in [0u32, 5, 17, 26] {
            let dest = HostId::new(h % g.num_hosts() as u32);
            for s in 0..g.num_switches() {
                let at = SwitchId::new(s as u32);
                let d0 = f.hop_distance(at, g.host_switch(dest));
                g.candidate_ports(at, dest, &mut out);
                if at == g.host_switch(dest) {
                    continue;
                }
                assert_eq!(out.len(), d0);
                for &p in &out {
                    let PortTarget::Switch { switch, .. } = g.port_target(at, p) else {
                        panic!("candidate must be an inter-switch port");
                    };
                    assert_eq!(f.hop_distance(switch, g.host_switch(dest)), d0 - 1);
                }
            }
        }
    }
}
