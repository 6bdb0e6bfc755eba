//! Simulation configuration.

use crate::SimTime;
use epnet_power::LinkRate;
use serde::{Deserialize, Serialize};

/// How link rates are controlled at runtime (§3.3, §3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlMode {
    /// Baseline: every link stays at full rate ("always on").
    AlwaysFull,
    /// A bidirectional link pair is tuned together "to match the
    /// requirements of the channel with the highest load" (§3.3.1) —
    /// what current chips support.
    PairedLink,
    /// Each unidirectional channel is tuned independently — the paper's
    /// proposed switch-design opportunity.
    IndependentChannel,
}

/// How long a channel is unusable after a rate change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReactivationModel {
    /// One latency for every transition — the paper's evaluated
    /// simplification ("we assume the same reactivation time ... no
    /// matter what mode the link is entering", §4.1).
    Uniform(SimTime),
    /// Distinguish the fast and slow reactivations of §3.1: a
    /// same-lane-count change only relocks the receive CDR
    /// ("≈50ns–100ns for the typical to worst case") while a
    /// lane-count change realigns lanes ("could be optimized within a
    /// few microseconds").
    TransitionAware {
        /// CDR relock time (frequency-only transitions).
        cdr_relock: SimTime,
        /// Lane realignment time (lane-count transitions).
        lane_change: SimTime,
    },
}

impl ReactivationModel {
    /// Latency of retuning `from → to`.
    pub fn latency(&self, from: LinkRate, to: LinkRate) -> SimTime {
        match *self {
            Self::Uniform(t) => t,
            Self::TransitionAware {
                cdr_relock,
                lane_change,
            } => {
                if from.transition_changes_lanes(to) {
                    lane_change
                } else {
                    cdr_relock
                }
            }
        }
    }

    /// The worst-case latency, used to size the measurement epoch.
    pub fn worst_case(&self) -> SimTime {
        match *self {
            Self::Uniform(t) => t,
            Self::TransitionAware {
                cdr_relock,
                lane_change,
            } => cdr_relock.max(lane_change),
        }
    }
}

/// How a rate change is applied to a live channel (§3.2 lists both as
/// tolerance strategies for non-instantaneous reactivation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReactivationStrategy {
    /// Reconfigure immediately; queued traffic waits out the
    /// reactivation while "the congestion-sensing and adaptivity
    /// mechanisms ... automatically route around the link that is
    /// undergoing reconfiguration" (§3.2, second option; the paper's
    /// evaluated choice, §3.3).
    RouteAround,
    /// First "remove the reactivating output port from the list of
    /// legal adaptive routes and drain its output buffer before
    /// reconfiguration" (§3.2, first option). No packet ever waits out
    /// a reactivation, at the cost of delaying the power transition.
    DrainFirst,
}

/// How packets pick output ports at each hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Minimal adaptive: among the dimensions still needing correction,
    /// pick the port with the smallest output queue (§4.1). Lowest
    /// latency, but a fixed permutation can concentrate onto one link.
    MinimalAdaptive,
    /// UGAL-style non-minimal adaptive: like minimal, but when every
    /// minimal port is congested a packet may take one detour hop per
    /// dimension through a random intermediate switch — the
    /// load-balancing the flattened butterfly "requires ... to load
    /// balance arbitrary traffic patterns" (§2.1).
    Ugal {
        /// Maximum detour hops per packet (typically the number of
        /// switch dimensions).
        misroute_budget: u8,
        /// How much cheaper (in queued bytes) a detour must look before
        /// it is taken: detour wins when
        /// `2·detour_occupancy + bias < minimal_occupancy`.
        bias_bytes: u32,
    },
}

/// The per-epoch rate decision policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RatePolicy {
    /// The paper's heuristic (§3.3): utilization below target → halve the
    /// rate (down to the minimum); above target → double (up to the
    /// maximum).
    HalveDouble,
    /// §5.1's suggested improvement for bursty workloads: "immediately
    /// tune links to either their lowest or highest performance mode
    /// without going through the intermediate steps."
    JumpToExtremes,
    /// A dual-threshold variant with hysteresis: halve below `low`,
    /// double above `high`, hold in between. Reduces meta-instability
    /// from too-frequent reconfiguration (§3.2).
    Hysteresis {
        /// Utilization below which the rate is halved.
        low: f64,
        /// Utilization above which the rate is doubled.
        high: f64,
    },
    /// §5.1's transition-cost-aware refinement: steps like halve/double
    /// inside a lane family (cheap CDR relocks), but crosses the
    /// expensive 10 ↔ 5 Gb/s lane boundary only decisively — straight
    /// down to the floor when nearly idle, straight up to full speed
    /// when climbing out of the 1-lane modes — so each burst pays for
    /// at most one lane realignment.
    LaneAware,
}

/// Full simulator configuration. Construct with [`SimConfig::builder`].
///
/// Defaults follow §4.1/§4.2.1 of the paper: 1 µs reactivation, a 10 µs
/// epoch (10× the reactivation, bounding reconfiguration overhead to 10%,
/// §4.2.2), 50% target channel utilization, paired-link control, and the
/// halve/double policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Maximum packet payload in bytes; messages are segmented to this.
    pub packet_bytes: u32,
    /// Flow-control credit pool per channel (downstream input-buffer
    /// space), in bytes.
    pub input_buffer_bytes: u32,
    /// Router pipeline latency charged per switch traversal.
    pub router_latency: SimTime,
    /// Propagation delay of electrical channels.
    pub electrical_propagation: SimTime,
    /// Propagation delay of optical channels.
    pub optical_propagation: SimTime,
    /// Time a channel is unavailable after a rate change (§3.1: tens of
    /// nanoseconds to microseconds; the paper defaults to "a conservative
    /// value of 1 µs"). [`ReactivationModel::TransitionAware`] charges
    /// lane-count changes more than CDR relocks.
    pub reactivation: ReactivationModel,
    /// Utilization-measurement epoch; the controller runs at the end of
    /// every epoch.
    pub epoch: SimTime,
    /// Target channel utilization (§3.3).
    pub target_utilization: f64,
    /// Rate-control mode.
    pub control: ControlMode,
    /// Rate-decision policy.
    pub policy: RatePolicy,
    /// Output-port selection policy.
    pub routing: RoutingPolicy,
    /// How rate changes are applied to channels with traffic queued.
    pub reactivation_strategy: ReactivationStrategy,
    /// Whether host (injection/ejection) links are also tuned.
    pub tune_host_links: bool,
    /// Slowest rate the controller may select.
    pub min_rate: LinkRate,
    /// Fastest rate (links start here).
    pub max_rate: LinkRate,
    /// Measurement warm-up: packets offered before this time are
    /// excluded from latency statistics.
    pub warmup: SimTime,
    /// Record the rate timeline of the first N channels (0 disables).
    /// The timeline feeds `epnet-report`'s per-link rate visualization.
    pub timeline_channels: u32,
}

impl SimConfig {
    /// Starts a builder preloaded with the paper's defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }

    /// The paper's baseline configuration: all links pinned at 40 Gb/s.
    pub fn baseline() -> Self {
        Self::builder().control(ControlMode::AlwaysFull).build()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the epoch is zero, the target utilization is outside
    /// `(0, 1]`, or `min_rate > max_rate` — configuration errors a user
    /// should catch immediately.
    pub fn validate(&self) {
        assert!(self.packet_bytes > 0, "packet size must be positive");
        assert!(
            self.input_buffer_bytes >= self.packet_bytes,
            "credit pool must hold at least one packet"
        );
        assert!(self.epoch > SimTime::ZERO, "epoch must be positive");
        assert!(
            self.target_utilization > 0.0 && self.target_utilization <= 1.0,
            "target utilization must be in (0, 1]"
        );
        assert!(
            self.min_rate <= self.max_rate,
            "min rate must not exceed max rate"
        );
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfigBuilder::new().build()
    }
}

/// Builder for [`SimConfig`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Starts from the paper's defaults.
    pub fn new() -> Self {
        Self {
            config: SimConfig {
                packet_bytes: 2_048,
                input_buffer_bytes: 64 * 1024,
                router_latency: SimTime::from_ns(100),
                electrical_propagation: SimTime::from_ns(25),
                optical_propagation: SimTime::from_ns(50),
                reactivation: ReactivationModel::Uniform(SimTime::from_us(1)),
                epoch: SimTime::from_us(10),
                target_utilization: 0.5,
                control: ControlMode::PairedLink,
                policy: RatePolicy::HalveDouble,
                routing: RoutingPolicy::MinimalAdaptive,
                reactivation_strategy: ReactivationStrategy::RouteAround,
                tune_host_links: true,
                min_rate: LinkRate::R2_5,
                max_rate: LinkRate::R40,
                warmup: SimTime::from_us(50),
                timeline_channels: 0,
            },
        }
    }

    /// Sets the maximum packet payload.
    pub fn packet_bytes(&mut self, bytes: u32) -> &mut Self {
        self.config.packet_bytes = bytes;
        self
    }

    /// Sets the per-channel credit pool.
    pub fn input_buffer_bytes(&mut self, bytes: u32) -> &mut Self {
        self.config.input_buffer_bytes = bytes;
        self
    }

    /// Sets the router pipeline latency.
    pub fn router_latency(&mut self, t: SimTime) -> &mut Self {
        self.config.router_latency = t;
        self
    }

    /// Sets a uniform reactivation latency, and — unless overridden
    /// later — the epoch to 10× that value, the paper's sizing rule
    /// (§4.2.2: "we set the epoch at 10× the reactivation latency,
    /// which bounds the overhead of reactivation to 10%").
    pub fn reactivation(&mut self, t: SimTime) -> &mut Self {
        self.config.reactivation = ReactivationModel::Uniform(t);
        self.config.epoch = t.scaled(10);
        self
    }

    /// Uses the §3.1 transition-aware reactivation model (fast CDR
    /// relocks for same-lane transitions, slow lane realignment
    /// otherwise); the epoch is sized at 10× the worst case.
    pub fn transition_aware_reactivation(
        &mut self,
        cdr_relock: SimTime,
        lane_change: SimTime,
    ) -> &mut Self {
        let model = ReactivationModel::TransitionAware {
            cdr_relock,
            lane_change,
        };
        self.config.epoch = model.worst_case().scaled(10);
        self.config.reactivation = model;
        self
    }

    /// Sets the controller epoch explicitly.
    pub fn epoch(&mut self, t: SimTime) -> &mut Self {
        self.config.epoch = t;
        self
    }

    /// Sets the per-medium propagation delays explicitly (defaults:
    /// 25 ns electrical, 50 ns optical). Zero is legal.
    pub fn propagation(&mut self, electrical: SimTime, optical: SimTime) -> &mut Self {
        self.config.electrical_propagation = electrical;
        self.config.optical_propagation = optical;
        self
    }

    /// Sets the target channel utilization.
    pub fn target_utilization(&mut self, u: f64) -> &mut Self {
        self.config.target_utilization = u;
        self
    }

    /// Sets the control mode.
    pub fn control(&mut self, mode: ControlMode) -> &mut Self {
        self.config.control = mode;
        self
    }

    /// Sets the rate policy.
    pub fn policy(&mut self, policy: RatePolicy) -> &mut Self {
        self.config.policy = policy;
        self
    }

    /// Sets the routing policy.
    pub fn routing(&mut self, routing: RoutingPolicy) -> &mut Self {
        self.config.routing = routing;
        self
    }

    /// Sets the reactivation strategy.
    pub fn reactivation_strategy(&mut self, s: ReactivationStrategy) -> &mut Self {
        self.config.reactivation_strategy = s;
        self
    }

    /// Enables UGAL non-minimal routing with sensible defaults (one
    /// detour per dimension, one-packet bias).
    pub fn ugal(&mut self) -> &mut Self {
        let bias = self.config.packet_bytes;
        self.config.routing = RoutingPolicy::Ugal {
            misroute_budget: 2,
            bias_bytes: bias,
        };
        self
    }

    /// Sets whether host links participate in tuning.
    pub fn tune_host_links(&mut self, yes: bool) -> &mut Self {
        self.config.tune_host_links = yes;
        self
    }

    /// Sets the measurement warm-up.
    pub fn warmup(&mut self, t: SimTime) -> &mut Self {
        self.config.warmup = t;
        self
    }

    /// Records the rate timeline of the first `n` channels.
    pub fn timeline_channels(&mut self, n: u32) -> &mut Self {
        self.config.timeline_channels = n;
        self
    }

    /// Sets the slowest selectable rate.
    pub fn min_rate(&mut self, r: LinkRate) -> &mut Self {
        self.config.min_rate = r;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfig::validate`]).
    pub fn build(&self) -> SimConfig {
        let config = self.config.clone();
        config.validate();
        config
    }
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::default();
        assert_eq!(
            c.reactivation,
            ReactivationModel::Uniform(SimTime::from_us(1))
        );
        assert_eq!(c.epoch, SimTime::from_us(10));
        assert_eq!(c.target_utilization, 0.5);
        assert_eq!(c.control, ControlMode::PairedLink);
        assert_eq!(c.policy, RatePolicy::HalveDouble);
        assert_eq!(c.max_rate, LinkRate::R40);
        assert_eq!(c.min_rate, LinkRate::R2_5);
    }

    #[test]
    fn reactivation_scales_epoch() {
        let c = SimConfig::builder()
            .reactivation(SimTime::from_ns(100))
            .build();
        assert_eq!(c.epoch, SimTime::from_us(1));
        // Explicit epoch overrides the 10x rule.
        let c = SimConfig::builder()
            .reactivation(SimTime::from_us(10))
            .epoch(SimTime::from_us(25))
            .build();
        assert_eq!(c.epoch, SimTime::from_us(25));
    }

    #[test]
    fn builder_chains() {
        let c = SimConfig::builder()
            .packet_bytes(4096)
            .target_utilization(0.75)
            .control(ControlMode::IndependentChannel)
            .policy(RatePolicy::JumpToExtremes)
            .tune_host_links(false)
            .build();
        assert_eq!(c.packet_bytes, 4096);
        assert_eq!(c.target_utilization, 0.75);
        assert_eq!(c.control, ControlMode::IndependentChannel);
        assert!(!c.tune_host_links);
    }

    #[test]
    #[should_panic(expected = "target utilization")]
    fn invalid_target_rejected() {
        SimConfig::builder().target_utilization(1.5).build();
    }

    #[test]
    #[should_panic(expected = "credit pool")]
    fn tiny_credit_pool_rejected() {
        SimConfig::builder()
            .packet_bytes(4096)
            .input_buffer_bytes(1024)
            .build();
    }

    #[test]
    fn baseline_pins_full_rate() {
        assert_eq!(SimConfig::baseline().control, ControlMode::AlwaysFull);
    }
}
