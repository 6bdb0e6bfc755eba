//! The epoch controller (§3.3, §5.1): the per-channel rate policy,
//! [`desired_rate`], and the control plane that runs it at every epoch
//! tick, an `impl Core` block beside the engine as `flows.rs` holds the
//! fluid plane.
//!
//! A tick ([`Core::on_epoch`]) advances the fluid flows, makes the rate
//! decisions, samples link asymmetry, runs the dynamic topology, and
//! samples queue depth. One walker, [`Core::retune`], makes the
//! decisions: it visits the tick's decision units (a channel, or a link
//! whose two channels are paired, §3.3.1) in ascending order, plans
//! their decisions without writing any channel, and applies the plan in
//! order. The reference sweep ([`EpochMode::Sweep`]) and the active-set
//! tick differ only in which units the walker reads.

use crate::channels::{set_bits, F_DRAINING, F_OFF, F_TUNABLE};
use crate::config::{ControlMode, RatePolicy};
use crate::engine::Core;
use crate::event::Event;
use crate::options::{EpochMode, SimModel};
use crate::SimTime;
use epnet_power::LinkRate;
use epnet_telemetry::{Layer, TraceCategory};
use epnet_topology::ChannelId;
use std::time::Instant;

/// Computes the rate a channel should run at for the next epoch, given
/// its measured utilization over the previous epoch.
///
/// The paper's heuristic uses utilization as the *only* input: "if we
/// have data to send, and credits to send it, then the utilization will
/// go up, and we should upgrade the speed of the link. If we either
/// don't have data or don't have enough credits, utilization will fall,
/// and there is no reason to keep the link at high speed" (§3.3).
pub(crate) fn desired_rate(
    policy: RatePolicy,
    current: LinkRate,
    utilization: f64,
    target: f64,
    min: LinkRate,
    max: LinkRate,
) -> LinkRate {
    let clamp = |r: LinkRate| {
        if r < min {
            min
        } else if r > max {
            max
        } else {
            r
        }
    };
    match policy {
        RatePolicy::HalveDouble => {
            if utilization < target {
                clamp(current.halved())
            } else if utilization > target {
                clamp(current.doubled())
            } else {
                current
            }
        }
        RatePolicy::JumpToExtremes => {
            if utilization < target {
                min
            } else if utilization > target {
                max
            } else {
                current
            }
        }
        RatePolicy::Hysteresis { low, high } => {
            if utilization < low {
                clamp(current.halved())
            } else if utilization > high {
                clamp(current.doubled())
            } else {
                current
            }
        }
        RatePolicy::LaneAware => {
            if utilization < target {
                let next = current.halved();
                if current.transition_changes_lanes(next) && utilization < target / 4.0 {
                    // Crossing the lane boundary: only do it decisively,
                    // and land at the floor so the expensive transition
                    // buys the full saving.
                    clamp(LinkRate::MIN)
                } else if current.transition_changes_lanes(next) {
                    current // not idle enough to pay a lane realignment
                } else {
                    clamp(next)
                }
            } else if utilization > target {
                let next = current.doubled();
                if current.transition_changes_lanes(next) {
                    // Climbing out of the 1-lane modes: go straight to
                    // full speed for one realignment.
                    clamp(LinkRate::MAX)
                } else {
                    clamp(next)
                }
            } else {
                current
            }
        }
    }
}

/// What [`Core::apply_rate`] did with a controller decision —
/// the trace layer's `reason` derives from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RateOutcome {
    /// The channel already ran at the decided rate.
    Unchanged,
    /// The rate change took effect (reactivation charged).
    Applied,
    /// Downshift parked behind a drain (§3.2's first option).
    DrainDeferred,
    /// A pending drain-first change was cancelled by a reversal.
    DrainCancelled,
}

/// Controller decisions an epoch tick plans before applying them (see
/// [`Core::retune`]). Bounds the retained plan however many channels
/// change rate in one tick.
pub(crate) const PLAN_CHUNK: usize = 4096;

/// One controller decision: channel, measured utilization, decided
/// rate.
pub(crate) type PlannedDecision = (ChannelId, f64, LinkRate);

impl Core {
    /// One epoch tick: rate decisions ([`Core::retune`]), the asymmetry
    /// sample, the dynamic-topology pass, and the queue-depth sample /
    /// overhang recharge — then the next tick is scheduled.
    ///
    /// The default ([`EpochMode::ActiveSet`]) visits only the channels
    /// in the active set: everything outside it is *resting* — idle at the
    /// floor with an empty queue and no fluid load, which provably
    /// decides "hold" under every policy (`idle_at_floor_always_holds`),
    /// or resting after a hold whose inputs nothing has changed since
    /// (see [`Core::hold_unit`]) — contributes zero to every sample,
    /// and recharges zero overhang, so skipping it is exact, not
    /// approximate. [`EpochMode::Sweep`] visits every
    /// channel instead. Controller tracing forces the sweep:
    /// traced runs emit a per-decision line even for holds, and the
    /// trace stream is part of the byte-identical output contract.
    pub(crate) fn on_epoch(&mut self) {
        // Fluid flows advance before the controller reads per-channel
        // utilization: the epoch's busy time then includes the fluid
        // load exactly as it would packet serialization, keeping rate
        // decisions regime-independent. Each sub-step is charged to its
        // own layer at its boundary.
        let mut lap = Instant::now();
        if self.model == SimModel::Hybrid {
            self.advance_flows();
            lap = self.inst.profile.lap(Layer::FluidAdvance, lap);
        }
        let sweep = self.epoch_mode == EpochMode::Sweep || self.inst.on(TraceCategory::Controller);
        let decisions_enabled = self.config.control != ControlMode::AlwaysFull;
        if decisions_enabled {
            self.retune(sweep);
        }
        lap = self.inst.profile.lap(Layer::Controller, lap);
        // Sample link asymmetry: how often do a link's two channels sit
        // at different speeds (§3.3.1)? The count is maintained
        // incrementally at every rate/F_OFF write (`Channels::set_rate`
        // and friends), so sampling it is a counter read; the sweep
        // mode recounts from scratch and cross-checks.
        if decisions_enabled {
            self.stats.link_samples += self.fabric.num_links() as u64;
            if sweep {
                let mut asymmetric = 0u64;
                for link in 0..self.fabric.num_links() {
                    let (a, b) = self
                        .fabric
                        .link_channels(epnet_topology::LinkId::new(link as u32));
                    let (ia, ib) = (a.index(), b.index());
                    if self.channels.rate[ia] != self.channels.rate[ib]
                        || self.channels.has_flag(ia, F_OFF) != self.channels.has_flag(ib, F_OFF)
                    {
                        asymmetric += 1;
                    }
                }
                debug_assert_eq!(
                    asymmetric,
                    self.channels.asymmetric_links(),
                    "incremental asymmetric-link counter drifted from the swept count"
                );
                self.stats.asymmetric_link_samples += asymmetric;
            } else {
                self.stats.asymmetric_link_samples += self.channels.asymmetric_links();
            }
        }
        #[cfg(debug_assertions)]
        if sweep {
            let queued: u64 = self.channels.occupancy.iter().sum();
            let flags = self.channels.flags.iter();
            let unsteady = flags.filter(|&&f| f & crate::channels::F_UNSTEADY != 0);
            debug_assert_eq!(
                queued,
                self.channels.queued_total(),
                "network-wide queued-bytes counter drifted from the swept sum"
            );
            debug_assert_eq!(
                unsteady.count() as u64,
                self.channels.unsteady(),
                "off/draining channel counter drifted from the swept count"
            );
            debug_assert!(
                self.flows.loads_match_live(&self.channels.fluid),
                "fluid sharer counts or loads drifted from the live flows"
            );
            debug_assert_eq!(
                self.channels.steady_recount(),
                self.channels.steady_count(),
                "resting-after-hold counter drifted from the swept count"
            );
            debug_assert!(
                self.channels.residency_counts_match(),
                "residency class counts drifted from the swept count"
            );
        }
        if let Some(mut dt) = self.dyntopo.take() {
            lap = self.inst.profile.lap(Layer::EpochSample, lap);
            let mask = self.mask.as_mut().expect("dyntopo requires a mask");
            dt.on_epoch(
                self.now,
                &self.fabric,
                &mut self.channels,
                mask,
                &self.config,
                &mut self.stats,
                &mut self.inst,
            );
            self.dyntopo = Some(dt);
            lap = self.inst.profile.lap(Layer::Dyntopo, lap);
        }
        let epoch = self.config.epoch;
        // Queue depth is sampled here, once per channel per epoch, so
        // the mean/peak metrics describe standing queues rather than
        // transient per-packet spikes. Resting channels "sample" an
        // exact zero without being visited, so the sums — and
        // `epoch_queue_samples`, which deliberately counts *every*
        // channel in both modes — stay mode-independent.
        let epoch_ps = epoch.as_ps();
        let (queued_sum, queued_peak) = if sweep {
            let mut queued_sum = 0u64;
            let mut queued_peak = 0u64;
            for i in 0..self.channels.len() {
                let occ = self.channels.occupancy[i];
                queued_sum += occ;
                queued_peak = queued_peak.max(occ);
                // Pre-charge the next epoch with the in-flight
                // transmission's overhang.
                let overhang = self.channels.busy_until[i].saturating_sub(self.now);
                debug_assert!(
                    self.channels.is_active(i) || (occ == 0 && overhang == SimTime::ZERO),
                    "ch{i} rests outside the active set but would sample non-zero"
                );
                self.channels.busy_ps_epoch[i] = overhang.as_ps().min(epoch_ps);
            }
            self.channels
                .retire_resting(self.config.min_rate, decisions_enabled);
            (queued_sum, queued_peak)
        } else {
            self.channels.sample_active_and_retire(
                self.now,
                epoch_ps,
                self.config.min_rate,
                decisions_enabled,
            )
        };
        let counters = &mut self.stats.counters;
        counters.epoch_queue_samples += self.channels.len() as u64;
        counters.epoch_queue_bytes_sum += queued_sum;
        counters.epoch_queue_bytes_peak = counters.epoch_queue_bytes_peak.max(queued_peak);
        let next = self.now + epoch;
        self.epoch_end = next;
        if next <= self.end {
            self.queue.schedule(next, Event::EpochTick);
        }
        self.stats.epoch_ticks += 1;
        self.inst.profile.lap(Layer::EpochSample, lap);
    }

    /// One tick's rate decisions: visits the tick's decision units — a
    /// channel, or under [`ControlMode::PairedLink`] a link, whose two
    /// channels "must be reconfigured together to match the
    /// requirements of the channel with the highest load" (§3.3.1) — in
    /// ascending order. Decision order fixes event insertion order, and
    /// FIFO tie-breaking makes that order observable in the report, so
    /// every tick keeps it. The walk reads the units one 64-bit word at
    /// a time; only where a word comes from differs:
    ///
    /// * the sweep: every unit;
    /// * an independent active-set tick: the active set's word, read as
    ///   the walk reaches it;
    /// * a paired active-set tick: the link bitmap, in which the active
    ///   channels first mark their links (the paired rule can retune a
    ///   resting channel to match its busy peer), cleared as it is
    ///   scanned.
    ///
    /// Plan, then apply: a read-only pass decides each unit and plans
    /// its decisions, which [`Core::apply_plan`] then applies in order.
    /// This is exact because applying a decision for channel `c` writes
    /// only `c`'s own state, which no other unit's decision reads. The
    /// plan is applied every [`PLAN_CHUNK`] decisions, so its retained
    /// size stays bounded. The active-set tick counts its holds (rate
    /// unchanged, nothing parked: `apply_rate` would do nothing) instead
    /// of planning them, plus one per channel resting after a hold that
    /// it did not visit; the sweep plans its holds as well, so
    /// [`Core::decide_rate`] counts and traces each one.
    fn retune(&mut self, sweep: bool) {
        let paired = self.config.control == ControlMode::PairedLink;
        let units = if paired {
            self.fabric.num_links()
        } else {
            self.channels.len()
        };
        if paired && !sweep {
            let words = self.channels.active_words();
            for (w, &word) in words.iter().enumerate() {
                for i in set_bits(word, w * 64) {
                    let link = self.fabric.link_of(ChannelId::new(i as u32)).index();
                    self.link_bits[link / 64] |= 1u64 << (link % 64);
                }
            }
        }
        let mut plan = std::mem::take(&mut self.plan);
        let resting = self.channels.steady_count();
        let (mut holds, mut woken) = (0, 0);
        for w in 0..units.div_ceil(64) {
            let word = if sweep {
                u64::MAX >> (64 - (units - w * 64).min(64))
            } else if paired {
                std::mem::take(&mut self.link_bits[w])
            } else {
                self.channels.active_words()[w]
            };
            for u in set_bits(word, w * 64) {
                let (h, k) = if paired {
                    let (unit, decisions) = self.link_decisions(u);
                    self.plan_unit(&mut plan, &unit, &decisions, sweep)
                } else {
                    let ch = ChannelId::new(u as u32);
                    let decision = self
                        .channel_decision(ch)
                        .map(|(util, rate)| (ch, util, rate));
                    self.plan_unit(&mut plan, &[ch], &[decision], sweep)
                };
                holds += h;
                woken += k;
            }
            if plan.len() >= PLAN_CHUNK {
                self.apply_plan(&mut plan);
            }
        }
        self.apply_plan(&mut plan);
        self.plan = plan;
        let steady = resting - woken;
        debug_assert!(
            !sweep || steady == 0,
            "the sweep left a resting channel unvisited"
        );
        self.stats.controller_decisions += holds + steady;
        self.stats.epoch_steady_holds += steady;
    }

    /// Plans one decision unit: ends its channels' rest after a hold
    /// (the tick decides them itself), checking that a unit nothing
    /// touched since it came to rest decides hold again, and plans its
    /// decisions, holds only when sweeping. Returns the holds the tick
    /// counts here and the channels it woke from a rest after a hold.
    fn plan_unit(
        &mut self,
        plan: &mut Vec<PlannedDecision>,
        unit: &[ChannelId],
        decisions: &[Option<PlannedDecision>],
        sweep: bool,
    ) -> (u64, u64) {
        let mut holds = 0;
        let mut all_hold = true;
        for &d in decisions.iter().flatten() {
            // A hold leaves the rate as it is with no drain parked, so
            // `decide_rate` would only count it.
            let i = d.0.index();
            let hold = d.2 == self.channels.rate[i] && self.channels.flags[i] & F_DRAINING == 0;
            holds += u64::from(hold);
            all_hold &= hold;
            if sweep || !hold {
                plan.push(d);
            }
        }
        let counted = if sweep { 0 } else { holds };
        if self.channels.fluid.is_empty() {
            // Packet mode: no channel rests after a hold.
            return (counted, 0);
        }
        let mut woken = 0;
        for c in unit {
            let rested = self.channels.clear_steady(c.index());
            debug_assert!(
                !rested || all_hold || unit.iter().any(|u| self.channels.is_active(u.index())),
                "{c} rested after a hold, unchanged, yet decides a change"
            );
            woken += u64::from(rested);
        }
        if holds > 0 && all_hold && !self.hold_unit(unit, decisions) {
            return (0, woken);
        }
        (counted, woken)
    }

    /// Bookkeeping for a visited unit whose every decision is a hold
    /// (hybrid model only). Returns whether those holds count toward
    /// `controller_decisions`: a unit the fluid pass marked only because a
    /// channel's fluid load fell to zero — every channel idle at the
    /// floor or exempt, with no fluid — is not counted, so the count
    /// matches a tick that marks only loaded channels (every unit counts
    /// on the first tick, when every channel starts active).
    ///
    /// An idle unit with load (fluid bytes, or a rate above the floor)
    /// comes to rest after the hold: its decided channels leave the
    /// active set at the recharge and decide "hold" each tick without a
    /// visit until something marks one of its channels. `desired_rate`
    /// is pure, and every input — rate, flags, transient busy time,
    /// fluid load — changes only at sites that mark the channel active.
    /// Not with the dynamic topology, whose power transitions land after
    /// the decisions.
    fn hold_unit(&mut self, unit: &[ChannelId], decisions: &[Option<PlannedDecision>]) -> bool {
        let min = self.config.min_rate;
        let mut idle = true;
        let mut loaded = false;
        for (c, d) in unit.iter().zip(decisions) {
            let i = c.index();
            idle &= self.channels.queued_at(i) == 0
                && self.channels.busy_ps_epoch[i] == 0
                && self.channels.flags[i] & F_DRAINING == 0;
            loaded |= self.channels.fluid[i] > 0 || (d.is_some() && self.channels.rate[i] != min);
        }
        if idle && loaded && self.dyntopo.is_none() {
            for (c, d) in unit.iter().zip(decisions) {
                if d.is_some() {
                    self.channels.set_steady(c.index());
                }
            }
        }
        !idle || loaded || self.stats.epoch_ticks == 0
    }

    /// Applies and empties a plan's decisions, in plan order.
    fn apply_plan(&mut self, plan: &mut Vec<PlannedDecision>) {
        for &(ch, util, rate) in plan.iter() {
            self.decide_rate(ch, util, rate);
        }
        plan.clear();
    }

    /// The link's two channels and their §3.3.1 decisions, in channel
    /// order. When both
    /// channels are tunable the pair moves together to the faster of
    /// the two desired rates.
    /// When exactly one is exempt (powered off by the dynamic-topology
    /// controller, or a host channel with tuning disabled), the tunable
    /// channel is tuned *independently*: §3.3.1 pairs the channels only
    /// because "the link pair must be reconfigured together to match
    /// the requirements of the channel with the highest load", and a
    /// channel with no rate to match leaves the survivor governed by
    /// its own load. (The historical behavior — skipping the link
    /// entirely — froze the tunable channel at whatever rate it last
    /// held, forever.) No current topology produces a half-exempt link
    /// — host exemption and power-off both apply to whole links — so
    /// this arm is pinned by a unit test rather than the golden report.
    fn link_decisions(&self, link: usize) -> ([ChannelId; 2], [Option<PlannedDecision>; 2]) {
        let (a, b) = self
            .fabric
            .link_channels(epnet_topology::LinkId::new(link as u32));
        let decisions = match (self.channel_decision(a), self.channel_decision(b)) {
            (Some((ua, ra)), Some((ub, rb))) => {
                let rate = ra.max(rb);
                [Some((a, ua, rate)), Some((b, ub, rate))]
            }
            (da, db) => [da.map(|(u, r)| (a, u, r)), db.map(|(u, r)| (b, u, r))],
        };
        ([a, b], decisions)
    }

    /// The measured utilization and the rate the policy wants for this
    /// channel, or `None` when the channel is exempt from tuning (host
    /// link with tuning disabled, or powered off).
    fn channel_decision(&self, ch: ChannelId) -> Option<(f64, LinkRate)> {
        let i = ch.index();
        if self.channels.flags[i] & (F_TUNABLE | F_OFF) != F_TUNABLE {
            return None;
        }
        let util = self.channels.epoch_utilization(i, self.config.epoch);
        let rate = desired_rate(
            self.config.policy,
            self.channels.rate[i],
            util,
            self.config.target_utilization,
            self.config.min_rate,
            self.config.max_rate,
        );
        Some((util, rate))
    }

    /// Applies one controller decision and, when tracing, records it
    /// with the measured utilization and the outcome-derived reason.
    fn decide_rate(&mut self, ch: ChannelId, util: f64, rate: LinkRate) {
        self.stats.controller_decisions += 1;
        let old = self.channels.rate[ch.index()];
        let outcome = self.apply_rate(ch, rate);
        if self.inst.on(TraceCategory::Controller) {
            let reason = match outcome {
                RateOutcome::Unchanged => "hold",
                RateOutcome::Applied if rate > old => "upshift",
                RateOutcome::Applied => "downshift",
                RateOutcome::DrainDeferred => "drain_deferred",
                RateOutcome::DrainCancelled => "drain_cancelled",
            };
            let at = self.now.as_ps();
            let (old, new) = (old.to_string(), rate.to_string());
            self.inst
                .tracer()
                .controller(at, ch.raw(), util, &old, &new, reason);
        }
    }

    /// Applies a rate decision; a change costs the reactivation latency
    /// (§3.1). Under [`ReactivationStrategy::DrainFirst`] a busy channel
    /// is first removed from the legal routes and drained (§3.2's first
    /// option).
    ///
    /// [`ReactivationStrategy::DrainFirst`]: crate::config::ReactivationStrategy::DrainFirst
    fn apply_rate(&mut self, ch: ChannelId, rate: LinkRate) -> RateOutcome {
        let i = ch.index();
        let strategy = self.config.reactivation_strategy;
        // The F_DRAINING mirror gates the pending-rate take: the common
        // hold/no-drain decision — the bulk of every epoch sweep —
        // never touches `pending_rate` at all.
        if self.channels.has_flag(i, F_DRAINING)
            && self.channels.take_pending_rate(i).is_some()
            && self.channels.rate[i] == rate
        {
            // The controller changed its mind back before the drain
            // finished; cancel the pending change.
            return RateOutcome::DrainCancelled;
        }
        let old = self.channels.rate[i];
        if old == rate {
            return RateOutcome::Unchanged;
        }
        // Drain-first only defers *downshifts*: an upshift is what a
        // congested queue needs, and deferring it until the queue
        // empties could wait forever.
        if strategy == crate::config::ReactivationStrategy::DrainFirst
            && rate < self.channels.rate[i]
            && !self.channels.queue_is_idle(i)
        {
            self.channels.set_pending_rate(i, Some(rate));
            return RateOutcome::DrainDeferred;
        }
        self.channels.reprice_fluid(i, old, rate);
        self.commit_rate(ch, rate);
        // If traffic is waiting, make sure it resumes once the channel
        // relocks (the serializing packet, if any, completes at the old
        // timing — the change takes effect for subsequent packets). An
        // empty queue has nothing to resume, and `try_tx` would return
        // without acting.
        if self.channels.queued_at(i) != 0 {
            self.try_tx(ch);
        }
        RateOutcome::Applied
    }

    /// Completes a drain-first rate change once the queue has emptied.
    pub(crate) fn finish_pending_rate(&mut self, ch: ChannelId) {
        let i = ch.index();
        let Some(rate) = self.channels.take_pending_rate(i) else {
            return;
        };
        if !self.channels.queue_is_idle(i) {
            // New traffic slipped in before the drain completed (only
            // possible when this channel was the sole route); keep
            // waiting.
            self.channels.set_pending_rate(i, Some(rate));
            return;
        }
        self.commit_rate(ch, rate);
    }

    /// Switches `ch` to `rate` now: the channel is unavailable for the
    /// reactivation latency, and the change is counted, recorded on the
    /// timeline and traced.
    fn commit_rate(&mut self, ch: ChannelId, rate: LinkRate) {
        let i = ch.index();
        let now = self.now;
        let model = self.config.reactivation;
        let latency = model.latency(self.channels.rate[i], rate);
        self.channels.set_rate(i, now, rate);
        let until = now + latency;
        self.channels.available_at[i] = until;
        self.stats.reconfigurations += 1;
        self.stats.record_rate(now, ch.raw(), Some(rate));
        if self.inst.on(TraceCategory::Reactivation) {
            let rate = rate.to_string();
            self.inst.tracer().reactivation(
                now.as_ps(),
                ch.raw(),
                "start",
                &rate,
                Some(until.as_ps()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::options::RunOptions;
    use crate::traffic::ReplaySource;
    use epnet_topology::FlattenedButterfly;
    use LinkRate::*;

    const MIN: LinkRate = R2_5;
    const MAX: LinkRate = R40;

    #[test]
    fn halve_double_follows_paper() {
        let p = RatePolicy::HalveDouble;
        // Below target: detune to half the current rate.
        assert_eq!(desired_rate(p, R40, 0.1, 0.5, MIN, MAX), R20);
        assert_eq!(desired_rate(p, R20, 0.1, 0.5, MIN, MAX), R10);
        // Down to the minimum.
        assert_eq!(desired_rate(p, R2_5, 0.0, 0.5, MIN, MAX), R2_5);
        // Above target: double up to the maximum.
        assert_eq!(desired_rate(p, R10, 0.9, 0.5, MIN, MAX), R20);
        assert_eq!(desired_rate(p, R40, 0.9, 0.5, MIN, MAX), R40);
        // Exactly at target: hold.
        assert_eq!(desired_rate(p, R10, 0.5, 0.5, MIN, MAX), R10);
    }

    #[test]
    fn jump_to_extremes_skips_intermediate_steps() {
        let p = RatePolicy::JumpToExtremes;
        assert_eq!(desired_rate(p, R40, 0.1, 0.5, MIN, MAX), R2_5);
        assert_eq!(desired_rate(p, R2_5, 0.9, 0.5, MIN, MAX), R40);
        assert_eq!(desired_rate(p, R10, 0.5, 0.5, MIN, MAX), R10);
    }

    #[test]
    fn hysteresis_holds_in_the_dead_band() {
        let p = RatePolicy::Hysteresis {
            low: 0.25,
            high: 0.75,
        };
        assert_eq!(desired_rate(p, R20, 0.5, 0.5, MIN, MAX), R20);
        assert_eq!(desired_rate(p, R20, 0.1, 0.5, MIN, MAX), R10);
        assert_eq!(desired_rate(p, R20, 0.9, 0.5, MIN, MAX), R40);
    }

    #[test]
    fn lane_aware_crosses_the_boundary_decisively() {
        let p = RatePolicy::LaneAware;
        // Cheap relocks inside the 4-lane family behave like
        // halve/double.
        assert_eq!(desired_rate(p, R40, 0.1, 0.5, MIN, MAX), R20);
        assert_eq!(desired_rate(p, R20, 0.1, 0.5, MIN, MAX), R10);
        // At R10, mildly idle: hold rather than pay a lane change.
        assert_eq!(desired_rate(p, R10, 0.2, 0.5, MIN, MAX), R10);
        // At R10, nearly idle: jump all the way to the floor.
        assert_eq!(desired_rate(p, R10, 0.05, 0.5, MIN, MAX), R2_5);
        // Within the 1-lane family, cheap steps again.
        assert_eq!(desired_rate(p, R5, 0.05, 0.5, MIN, MAX), R2_5);
        // Upshifts: cheap inside a family, decisive across the boundary.
        assert_eq!(desired_rate(p, R20, 0.9, 0.5, MIN, MAX), R40);
        assert_eq!(desired_rate(p, R2_5, 0.9, 0.5, MIN, MAX), R5);
        assert_eq!(desired_rate(p, R5, 0.9, 0.5, MIN, MAX), R40);
    }

    /// Every comparison in `desired_rate` is strict (`<` / `>`), so a
    /// utilization sitting *exactly* on a threshold holds the current
    /// rate for all four policies. This pins the tie-breaking direction:
    /// flipping any comparison to `<=` / `>=` fails here.
    #[test]
    fn exact_thresholds_hold_for_every_policy() {
        let target = 0.5;
        for current in [R2_5, R5, R10, R20, R40] {
            for p in [
                RatePolicy::HalveDouble,
                RatePolicy::JumpToExtremes,
                RatePolicy::LaneAware,
            ] {
                assert_eq!(
                    desired_rate(p, current, target, target, MIN, MAX),
                    current,
                    "{p:?} must hold {current} at exactly the target"
                );
            }
            let h = RatePolicy::Hysteresis {
                low: 0.25,
                high: 0.75,
            };
            // Exactly on either band edge is *inside* the dead band.
            assert_eq!(desired_rate(h, current, 0.25, target, MIN, MAX), current);
            assert_eq!(desired_rate(h, current, 0.75, target, MIN, MAX), current);
        }
        // LaneAware's decisive-downshift threshold (target/4) is strict
        // too: exactly at it, the lane boundary is not crossed.
        assert_eq!(
            desired_rate(RatePolicy::LaneAware, R10, 0.125, 0.5, MIN, MAX),
            R10
        );
        // A hair below it, the jump to the floor happens.
        assert_eq!(
            desired_rate(RatePolicy::LaneAware, R10, 0.1249, 0.5, MIN, MAX),
            R2_5
        );
    }

    /// Saturation at the ladder ends, for all four policies: already at
    /// min (max), further idleness (load) changes nothing.
    #[test]
    fn extremes_saturate_for_every_policy() {
        let policies = [
            RatePolicy::HalveDouble,
            RatePolicy::JumpToExtremes,
            RatePolicy::LaneAware,
            RatePolicy::Hysteresis {
                low: 0.25,
                high: 0.75,
            },
        ];
        for p in policies {
            assert_eq!(desired_rate(p, MIN, 0.0, 0.5, MIN, MAX), MIN);
            assert_eq!(desired_rate(p, MAX, 1.0, 0.5, MIN, MAX), MAX);
            // Narrowed ladder: the clamp wins over the policy's pick.
            assert_eq!(desired_rate(p, R10, 0.0, 0.5, R5, R20), R5);
            assert_eq!(desired_rate(p, R10, 1.0, 0.5, R5, R20), R20);
        }
    }

    #[test]
    fn custom_floor_is_respected() {
        // A deployment may forbid the slowest mode.
        let p = RatePolicy::HalveDouble;
        assert_eq!(desired_rate(p, R5, 0.0, 0.5, R5, MAX), R5);
        assert_eq!(desired_rate(p, R10, 0.0, 0.5, R5, MAX), R5);
        // And JumpToExtremes lands on the floor, not on R2_5.
        let j = RatePolicy::JumpToExtremes;
        assert_eq!(desired_rate(j, R40, 0.0, 0.5, R5, MAX), R5);
    }

    #[test]
    fn custom_ceiling_is_respected() {
        let p = RatePolicy::HalveDouble;
        assert_eq!(desired_rate(p, R20, 1.0, 0.5, MIN, R20), R20);
        assert_eq!(desired_rate(p, R10, 1.0, 0.5, MIN, R20), R20);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn any_rate() -> impl Strategy<Value = LinkRate> {
            prop_oneof![Just(R2_5), Just(R5), Just(R10), Just(R20), Just(R40),]
        }

        fn any_policy() -> impl Strategy<Value = RatePolicy> {
            prop_oneof![
                Just(RatePolicy::HalveDouble),
                Just(RatePolicy::JumpToExtremes),
                Just(RatePolicy::LaneAware),
                (0.01f64..0.49, 0.51f64..0.99)
                    .prop_map(|(low, high)| RatePolicy::Hysteresis { low, high }),
            ]
        }

        proptest! {
            #[test]
            fn decision_stays_within_bounds(
                policy in any_policy(),
                current in any_rate(),
                util in 0.0f64..=1.0,
            ) {
                let r = desired_rate(policy, current, util, 0.5, MIN, MAX);
                prop_assert!(r >= MIN && r <= MAX);
            }

            #[test]
            fn decision_is_monotone_in_utilization(
                policy in any_policy(),
                current in any_rate(),
                lo in 0.0f64..=1.0,
                hi in 0.0f64..=1.0,
            ) {
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                let r_lo = desired_rate(policy, current, lo, 0.5, MIN, MAX);
                let r_hi = desired_rate(policy, current, hi, 0.5, MIN, MAX);
                prop_assert!(r_lo <= r_hi, "more load must never pick a slower rate");
            }

            #[test]
            fn at_target_every_policy_holds(
                policy in any_policy(),
                current in any_rate(),
            ) {
                // Exactly on target, no policy moves (hysteresis bands
                // straddle 0.5 by construction above).
                prop_assert_eq!(desired_rate(policy, current, 0.5, 0.5, MIN, MAX), current);
            }

            /// The invariant the engine's active-set epoch path rests
            /// on: a channel sitting at the floor rate with zero
            /// measured utilization decides "hold" under *every* policy
            /// and *every* valid configuration. The controller may
            /// therefore skip such channels entirely at epoch ticks —
            /// visiting them could only ever reproduce the current
            /// state (see DESIGN.md "Activity-proportional control").
            #[test]
            fn idle_at_floor_always_holds(
                policy in any_policy(),
                target in 0.001f64..=1.0,
                (min, max) in (any_rate(), any_rate())
                    .prop_map(|(a, b)| if a <= b { (a, b) } else { (b, a) }),
            ) {
                prop_assert_eq!(
                    desired_rate(policy, min, 0.0, target, min, max),
                    min,
                    "an idle channel at the floor must hold under {policy:?}"
                );
            }
        }
    }

    /// A link with exactly one exempt channel (here: powered off out
    /// from under the controller) must still tune the surviving channel
    /// by its own load. The historical paired sweep skipped such
    /// links entirely, freezing the tunable channel at whatever rate it
    /// last held — forever. No current topology produces a half-exempt
    /// link (host exemption and dyntopo power-off both cover whole
    /// links), so the fixed arm is pinned here rather than by the
    /// golden report.
    #[test]
    fn paired_link_with_one_exempt_channel_tunes_the_survivor() {
        let fabric = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let config = SimConfig::builder()
            .control(ControlMode::PairedLink)
            .build();
        let epoch = config.epoch;
        let min = config.min_rate;
        let mut sim = Simulator::new(fabric, config, ReplaySource::new(Vec::new()));
        sim.prime(SimTime::from_ms(1));
        let (a, b) = sim
            .core
            .fabric
            .link_channels(epnet_topology::LinkId::new(0));
        sim.core.channels.set_off(b.index(), SimTime::ZERO, true);
        assert_eq!(sim.core.channels.asymmetric_links(), 1);
        assert_eq!(sim.core.channels.rate[a.index()], LinkRate::R40);
        // First tick: the idle survivor halves under HalveDouble even
        // though its peer yields no decision.
        sim.advance_until(epoch + SimTime::from_ns(1));
        assert_eq!(
            sim.core.channels.rate[a.index()],
            LinkRate::R20,
            "the tunable survivor of a half-exempt link must keep tuning"
        );
        // Later ticks walk it all the way down to the floor.
        sim.advance_until(SimTime::from_us(500));
        assert_eq!(sim.core.channels.rate[a.index()], min);
        assert_eq!(sim.core.channels.asymmetric_links(), 1);
    }

    /// Epoch ticks with no traffic must do O(active) controller work:
    /// after the first tick retires every idle channel, subsequent ticks
    /// evaluate zero rate decisions while the sweep reference evaluates
    /// every channel every tick.
    #[test]
    fn quiescent_network_makes_no_decisions_after_the_first_ticks() {
        let fabric = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let config = SimConfig::builder()
            .control(ControlMode::IndependentChannel)
            .build();
        let epoch = config.epoch;
        let mut sim = Simulator::with_options(
            fabric,
            config,
            ReplaySource::new(Vec::new()),
            RunOptions::default(),
        );
        sim.prime(SimTime::from_ms(1));
        // Every channel starts active and takes a handful of ticks to
        // descend R40 → R2.5; give them ten epochs to settle.
        sim.advance_until(epoch.scaled(10) + SimTime::from_ns(1));
        let settled = sim.core.stats.controller_decisions;
        let ticks = sim.core.stats.epoch_ticks;
        sim.advance_until(epoch.scaled(20) + SimTime::from_ns(1));
        assert_eq!(
            sim.core.stats.controller_decisions, settled,
            "a quiescent network must decide nothing per tick"
        );
        assert_eq!(sim.core.stats.epoch_ticks, ticks + 10, "ticks still fire");
    }
}
