//! The fleet controller: snapshot in, acquisition command out.

use cloudsim::InstanceType;
use simkit::{SimDuration, SimTime};
use telemetry::{TelemetryEvent, TelemetrySink};

use crate::estimator::PreemptionEstimator;
use crate::policy::{FleetPolicy, HedgeRung, MAX_HEDGE, MIN_HEDGE, PARITY_PERMILLE};
use crate::spread;
use crate::tracker::{RequestTracker, RetryDecision};

/// One pool's capability and price card: what the controller needs to
/// hedge across unlike SKUs. Prices are integer cents per hour so the
/// snapshot types keep their derived `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolCaps {
    /// The pool's instance-type name (e.g. `"g4dn.12xlarge"`).
    pub sku: &'static str,
    /// Spot price, cents per instance-hour: the price currently quoted.
    pub spot_cents_per_hour: u32,
    /// On-demand price, cents per instance-hour.
    pub ondemand_cents_per_hour: u32,
    /// GPUs per instance of this SKU.
    pub gpus_per_instance: u8,
    /// Whether the served model fits this SKU at all (any enumerable
    /// configuration) — set by the serving system, which owns the memory
    /// model. Incapable pools are invisible to capability-aware policies.
    pub fits_model: bool,
}

impl PoolCaps {
    /// The capability card of `ty`, assuming the model fits (the caller
    /// owns the memory model and clears [`PoolCaps::fits_model`] itself).
    pub fn of(ty: &InstanceType) -> Self {
        PoolCaps {
            sku: ty.name,
            spot_cents_per_hour: (ty.spot_price_per_hour * 100.0).round() as u32,
            ondemand_cents_per_hour: (ty.ondemand_price_per_hour * 100.0).round() as u32,
            gpus_per_instance: ty.gpus_per_instance,
            fits_model: true,
        }
    }

    /// Whether the quoted spot price is at or past [`PARITY_PERMILLE`] of
    /// the on-demand price. A pool with no price card on file (on-demand
    /// price 0) is never past parity.
    fn past_parity(&self) -> bool {
        self.ondemand_cents_per_hour > 0
            && u64::from(self.spot_cents_per_hour) * 1000
                >= u64::from(PARITY_PERMILLE) * u64::from(self.ondemand_cents_per_hour)
    }
}

impl Default for PoolCaps {
    /// An anonymous, free, capable pool: price-blind policies behave
    /// identically whether or not anyone filled the card in.
    fn default() -> Self {
        PoolCaps {
            sku: "",
            spot_cents_per_hour: 0,
            ondemand_cents_per_hour: 0,
            gpus_per_instance: 4,
            fits_model: true,
        }
    }
}

/// One pool's state as the controller sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolView {
    /// Spot leases alive with no preemption notice pending.
    pub live_spot: u32,
    /// Spot leases inside their grace period (kill scheduled): they still
    /// serve, but the controller treats them as already lost.
    pub noticed_spot: u32,
    /// Spot instances provisioning (grant scheduled, not fired).
    pub provisioning_spot: u32,
    /// Spot requests queued behind the pool's capacity.
    pub queued_spot: u32,
    /// The pool's current trace capacity.
    pub capacity: u32,
    /// Cumulative spot requests this pool will never grant (launch
    /// failures and injected lapses) — the shortfall the cloud used to
    /// swallow silently.
    pub lapsed_spot: u32,
    /// The pool's SKU capability card (ignored by price-blind policies).
    pub caps: PoolCaps,
}

impl PoolView {
    /// Capacity already secured or en route: live (unnoticed) +
    /// provisioning + queued.
    pub fn committed(&self) -> u32 {
        self.live_spot + self.provisioning_spot + self.queued_spot
    }
}

/// A point-in-time snapshot of the whole fleet.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetView {
    /// Per-pool state, in pool order.
    pub pools: Vec<PoolView>,
    /// On-demand leases alive (never preempted).
    pub live_ondemand: u32,
    /// On-demand requests whose grant has not fired yet.
    pub pending_ondemand: u32,
    /// The optimizer's target fleet size `N` (serving need, excluding
    /// spares).
    pub target: u32,
    /// Warm spare instances kept beyond the target (§3.2 keeps two).
    pub spares: u32,
}

impl FleetView {
    fn committed_spot(&self) -> u32 {
        self.pools.iter().map(PoolView::committed).sum()
    }

    fn live_spot(&self) -> u32 {
        self.pools.iter().map(|p| p.live_spot).sum()
    }

    /// The pool with the cheapest on-demand price whose SKU can host the
    /// model (lowest index on ties).
    fn cheapest_capable_pool(&self) -> Option<u32> {
        self.pools
            .iter()
            .enumerate()
            .filter(|(_, p)| p.caps.fits_model)
            .min_by_key(|(i, p)| (p.caps.ondemand_cents_per_hour, *i))
            .map(|(i, _)| i as u32)
    }
}

/// What the controller wants done, expressed against the market's
/// pool-addressed surface. All fields are deltas from the snapshot the
/// command was computed on; executing them converges the fleet toward the
/// policy's desired shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCommand {
    /// Additional spot instances to request, per pool.
    pub spot: Vec<u32>,
    /// Queued spot requests to cancel, per pool.
    pub cancel_spot: Vec<u32>,
    /// Additional on-demand instances to request.
    pub ondemand: u32,
    /// Which pool the on-demand request should land in (its SKU, its
    /// bill). `None` keeps the legacy routing: pool 0.
    pub ondemand_pool: Option<u32>,
    /// Surplus instances to release (idle first, on-demand before spot —
    /// the Algorithm 1 line 10 release priority).
    pub release: u32,
}

impl FleetCommand {
    fn idle(n_pools: usize) -> Self {
        FleetCommand {
            spot: vec![0; n_pools],
            cancel_spot: vec![0; n_pools],
            ondemand: 0,
            ondemand_pool: None,
            release: 0,
        }
    }

    /// This command's telemetry mirror: the deltas summed over pools
    /// (per-pool detail is recoverable from the grant/release events
    /// that executing the command produces).
    pub fn telemetry_event(&self) -> TelemetryEvent {
        TelemetryEvent::FleetCommand {
            spot: self.spot.iter().sum(),
            cancel_spot: self.cancel_spot.iter().sum(),
            ondemand: self.ondemand,
            release: self.release,
        }
    }

    /// Whether the command changes nothing.
    pub fn is_noop(&self) -> bool {
        self.ondemand == 0
            && self.release == 0
            && self.spot.iter().all(|&n| n == 0)
            && self.cancel_spot.iter().all(|&n| n == 0)
    }
}

/// Policy-driven fleet controller (see the [crate docs](crate)).
///
/// # Example
///
/// ```
/// use fleetctl::{FleetController, FleetPolicy, FleetView, PoolView};
/// use simkit::{SimDuration, SimTime};
///
/// let ctl = FleetController::new(
///     FleetPolicy::spot_hedge(),
///     3,
///     SimDuration::from_secs(40),
/// );
/// let view = FleetView {
///     pools: vec![PoolView { capacity: 4, ..Default::default() }; 3],
///     target: 4,
///     spares: 0,
///     ..Default::default()
/// };
/// let cmd = ctl.command(&view, SimTime::ZERO);
/// // target 4 + hedge spread over three healthy pools
/// assert_eq!(cmd.spot.iter().sum::<u32>() >= 4, true);
/// ```
#[derive(Debug, Clone)]
pub struct FleetController {
    policy: FleetPolicy,
    estimator: PreemptionEstimator,
    /// Request-lifecycle tracker: grant deadlines, backoff masks, and
    /// the escalation verdicts (chaos-recovery layer, PR 10).
    tracker: RequestTracker,
    /// Exposure horizon the churn hedge covers: how long a replacement
    /// takes to arrive (the spot grant delay).
    grant_delay: SimDuration,
}

impl FleetController {
    /// A controller for `n_pools` pools under `policy`. `grant_delay` is
    /// the replacement latency the churn hedge must cover; the estimator
    /// window defaults to ten grant delays (a few minutes of memory).
    pub fn new(policy: FleetPolicy, n_pools: usize, grant_delay: SimDuration) -> Self {
        let window = SimDuration::from_micros((grant_delay.as_micros()).max(1) * 10);
        FleetController {
            policy,
            estimator: PreemptionEstimator::new(n_pools, window),
            tracker: RequestTracker::new(n_pools, grant_delay),
            grant_delay,
        }
    }

    /// The policy this controller runs.
    pub fn policy(&self) -> &FleetPolicy {
        &self.policy
    }

    /// The preemption-rate estimator (read access for reporting).
    pub fn estimator(&self) -> &PreemptionEstimator {
        &self.estimator
    }

    /// Feeds one observed kill in `pool` into the rate estimator.
    pub fn observe_kill(&mut self, pool: usize, now: SimTime) {
        self.estimator.record_kill(pool, now);
    }

    /// The request-lifecycle tracker (read access for reporting).
    pub fn tracker(&self) -> &RequestTracker {
        &self.tracker
    }

    /// Records `n` spot requests issued to `pool` at `now` (arms the
    /// tracker's grant deadlines).
    pub fn note_request(&mut self, pool: usize, n: u32, now: SimTime) {
        self.tracker.note_request(pool, n, now);
    }

    /// Records `n` voluntarily cancelled spot requests in `pool`: their
    /// tracker deadlines retire without counting as failures.
    pub fn note_cancel(&mut self, pool: usize, n: u32) {
        self.tracker.note_cancel(pool, n);
    }

    /// Records a successful spot grant in `pool`: the pool's failure
    /// streak and backoff mask reset.
    pub fn observe_grant(&mut self, pool: usize) {
        self.tracker.observe_grant(pool);
    }

    /// Records a lapsed request in `pool` at `now`: the failure streak
    /// grows, the backoff doubles (bounded), and the returned decision
    /// says whether the pool escalated to on-demand. Lapses also feed
    /// the rate estimator — a pool that cannot launch is under the same
    /// capacity pressure that precedes kills.
    pub fn observe_lapse(&mut self, pool: usize, now: SimTime) -> RetryDecision {
        self.estimator.record_pressure(pool, 1.0, now);
        self.tracker.observe_failure(pool, now)
    }

    /// Converts requests overdue past their grant deadline into tracker
    /// failures (the safety net for grants that vanish without even a
    /// lapse event). Call from a periodic tick.
    pub fn sweep_overdue(&mut self, now: SimTime) -> Vec<RetryDecision> {
        self.tracker.sweep_overdue(now)
    }

    /// The hedge size for `target` over pools with capacities `caps`:
    /// large enough that losing the single biggest even-spread share still
    /// leaves `target` live, inflated to the churn estimate (expected
    /// kills over one grant delay), clamped to [`MIN_HEDGE`]..=[`MAX_HEDGE`].
    /// Zero for non-hedge policies.
    pub fn hedge(&self, target: u32, caps: &[u32], now: SimTime) -> u32 {
        if !self.policy.is_hedged() {
            return 0;
        }
        let churn = self.estimator.expected_kills(now, self.grant_delay).ceil() as u32;
        let zone_floor = Self::zone_safe_hedge(target, caps);
        zone_floor.max(churn).clamp(MIN_HEDGE, MAX_HEDGE)
    }

    /// The smallest `h` such that spreading `target + h` evenly over
    /// `caps` leaves at least `target` after removing the largest single
    /// share — i.e. a full one-pool outage cannot take the fleet below
    /// target. With fewer than two pools holding capacity no hedge can
    /// achieve that, so the floor is 0 and the churn term governs.
    fn zone_safe_hedge(target: u32, caps: &[u32]) -> u32 {
        if caps.iter().filter(|&&c| c > 0).count() < 2 {
            return 0;
        }
        for h in 0..=target {
            let alloc = spread(target + h, caps);
            let worst = alloc.iter().copied().max().unwrap_or(0);
            if alloc.iter().sum::<u32>() == target + h && h >= worst {
                return h;
            }
        }
        target
    }

    /// Computes the acquisition command for `view` at `now`.
    ///
    /// [`FleetPolicy::ReactiveSpot`] commands nothing: the serving system
    /// never consults the controller under it and runs Algorithm 1's own
    /// delta path instead.
    pub fn command(&self, view: &FleetView, now: SimTime) -> FleetCommand {
        let n = view.pools.len();
        let mut cmd = FleetCommand::idle(n);
        match self.policy {
            FleetPolicy::ReactiveSpot => {}
            FleetPolicy::OnDemandFallback => {
                // Ride spot on pool 0...
                let desired = view.target + view.spares;
                let have = view.committed_spot();
                if n > 0 {
                    cmd.spot[0] = desired.saturating_sub(have);
                }
                // ...but keep *live* capacity at the target: whatever spot
                // cannot cover right now, on-demand does. Provisioning spot
                // is deliberately not counted — it may still be shed by a
                // capacity drop, and the fallback's contract is live
                // instances, not promises.
                let live = view.live_spot() + view.live_ondemand + view.pending_ondemand;
                cmd.ondemand = view.target.saturating_sub(live);
                // Shed the full surplus when the target shrinks or spot
                // recovers: queued requests are cancelled first, then live
                // instances release (idle first, on-demand before spot —
                // the executor's release priority).
                let mut cancel = have.saturating_sub(desired);
                for (i, pool) in view.pools.iter().enumerate() {
                    let k = cancel.min(pool.queued_spot);
                    cmd.cancel_spot[i] = k;
                    cancel -= k;
                }
                cmd.release = (view.live_spot() + view.live_ondemand).saturating_sub(desired);
            }
            FleetPolicy::Hedge(rung) => {
                // Masked pools contribute no capacity and receive no
                // requests: a pool inside its retry window after lapsed
                // grants (every rung), a SKU that cannot host the model
                // (cost-aware and up), a spot price at on-demand parity
                // ($/token only).
                let caps: Vec<u32> = view
                    .pools
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let masked = self.tracker.is_backed_off(i, now)
                            || (rung >= HedgeRung::CostAware && !p.caps.fits_model)
                            || (rung == HedgeRung::CostPerToken && p.caps.past_parity());
                        if masked {
                            0
                        } else {
                            p.capacity
                        }
                    })
                    .collect();
                let hedge = self.hedge(view.target, &caps, now);
                let desired_total = view.target + view.spares + hedge;
                // Price-ordered spread: the same share *multiset* as the
                // even spread (so one-outage survivability is unchanged),
                // with the remainder shares biased toward cheap spot pools.
                // The price-blind rung quotes every pool at 0, which keeps
                // pool order: exactly the even spread.
                let alloc = spread_by_price(desired_total, &caps, |i| match rung {
                    HedgeRung::PriceBlind => 0,
                    _ => view.pools[i].caps.spot_cents_per_hour,
                });
                for (i, (&want, pool)) in alloc.iter().zip(&view.pools).enumerate() {
                    let have = pool.committed();
                    cmd.spot[i] = want.saturating_sub(have);
                    cmd.cancel_spot[i] = have.saturating_sub(want).min(pool.queued_spot);
                }
                // Even the hedged spread cannot reach the target: every
                // unmasked pool is short at once (on the $/token rung this
                // includes the everything-spiked case). Bridge the rest
                // with on-demand.
                let spot_reachable: u32 = alloc.iter().sum();
                cmd.ondemand = view
                    .target
                    .saturating_sub(spot_reachable + view.live_ondemand + view.pending_ondemand);
                if rung >= HedgeRung::CostAware {
                    // The backstop lands in the cheapest *capable* pool —
                    // its SKU, its bill — instead of defaulting to pool 0.
                    cmd.ondemand_pool = view.cheapest_capable_pool();
                }
                let live = view.live_spot() + view.live_ondemand;
                cmd.release = live.saturating_sub(desired_total);
            }
        }
        // Escalation: a pool that failed K consecutive times no longer
        // earns the spread's patience. Bridge the live gap with
        // guaranteed capacity — routed to the cheapest capable pool —
        // while the backoff keeps re-probing the spot side.
        if self.policy.is_hedged() && self.tracker.any_escalated() {
            let live = view.live_spot() + view.live_ondemand + view.pending_ondemand;
            cmd.ondemand = cmd.ondemand.max(view.target.saturating_sub(live));
            if cmd.ondemand > 0 && cmd.ondemand_pool.is_none() {
                cmd.ondemand_pool = view.cheapest_capable_pool();
            }
        }
        cmd
    }

    /// The serving system's steering call: computes
    /// [`FleetController::command`] and records a
    /// [`TelemetryEvent::FleetCommand`] into `sink` when the command is
    /// not a noop. With [`telemetry::NoopSink`] the event is never even
    /// constructed.
    pub fn command_traced<S: TelemetrySink>(
        &self,
        view: &FleetView,
        now: SimTime,
        sink: &mut S,
    ) -> FleetCommand {
        let cmd = self.command(view, now);
        if S::ACTIVE && !cmd.is_noop() {
            sink.record(now, cmd.telemetry_event());
        }
        cmd
    }
}

/// [`spread`] with the pools visited cheapest-first: permute capacities by
/// `(price, index)`, spread, unpermute. The resulting share multiset is
/// identical to the even spread's (spreading is order-blind up to
/// remainder placement), so hedge sizing transfers unchanged.
fn spread_by_price(total: u32, caps: &[u32], price: impl Fn(usize) -> u32) -> Vec<u32> {
    let mut order: Vec<usize> = (0..caps.len()).collect();
    order.sort_by_key(|&i| (price(i), i));
    let permuted: Vec<u32> = order.iter().map(|&i| caps[i]).collect();
    let permuted_alloc = spread(total, &permuted);
    let mut alloc = vec![0u32; caps.len()];
    for (slot, &i) in order.iter().enumerate() {
        alloc[i] = permuted_alloc[slot];
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(live: u32, cap: u32) -> PoolView {
        PoolView {
            live_spot: live,
            capacity: cap,
            ..Default::default()
        }
    }

    fn ctl(policy: FleetPolicy, n: usize) -> FleetController {
        FleetController::new(policy, n, SimDuration::from_secs(40))
    }

    #[test]
    fn reactive_commands_nothing() {
        // The serving system runs Algorithm 1's delta path under the
        // paper baseline; the controller has nothing to add.
        let c = ctl(FleetPolicy::ReactiveSpot, 3);
        let view = FleetView {
            pools: vec![pool(2, 8), pool(0, 8), pool(0, 8)],
            target: 5,
            spares: 2,
            ..Default::default()
        };
        assert_eq!(c.command(&view, SimTime::ZERO), FleetCommand::idle(3));
    }

    #[test]
    fn fallback_covers_live_shortfall_with_on_demand() {
        let c = ctl(FleetPolicy::OnDemandFallback, 1);
        // 2 live, 2 provisioning, target 6: on-demand bridges the *live*
        // gap (4), spot keeps being requested for the rest.
        let view = FleetView {
            pools: vec![PoolView {
                live_spot: 2,
                provisioning_spot: 2,
                capacity: 8,
                ..Default::default()
            }],
            target: 6,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert_eq!(cmd.ondemand, 4, "live gap bridged regardless of promises");
        assert_eq!(cmd.spot, vec![2]);
    }

    #[test]
    fn fallback_sheds_on_demand_when_spot_recovers() {
        let c = ctl(FleetPolicy::OnDemandFallback, 1);
        let view = FleetView {
            pools: vec![pool(6, 8)],
            live_ondemand: 3,
            target: 6,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert_eq!(cmd.ondemand, 0);
        assert_eq!(cmd.release, 3, "all on-demand is surplus");
    }

    #[test]
    fn fallback_sheds_surplus_spot_when_the_target_shrinks() {
        // Target dropped from 8 to 4 with no on-demand held: the full spot
        // surplus must go — queued requests cancelled first, live surplus
        // released — or idle instances bill until run end.
        let c = ctl(FleetPolicy::OnDemandFallback, 1);
        let view = FleetView {
            pools: vec![PoolView {
                live_spot: 10,
                queued_spot: 2,
                capacity: 12,
                ..Default::default()
            }],
            target: 4,
            spares: 2,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert_eq!(cmd.cancel_spot, vec![2], "queued surplus cancels first");
        assert_eq!(cmd.release, 4, "live surplus beyond target+spares releases");
        assert_eq!(cmd.ondemand, 0);
        assert_eq!(cmd.spot, vec![0]);
    }

    #[test]
    fn fallback_does_not_double_request_while_od_pending() {
        let c = ctl(FleetPolicy::OnDemandFallback, 1);
        let view = FleetView {
            pools: vec![pool(2, 8)],
            pending_ondemand: 4,
            target: 6,
            spares: 0,
            ..Default::default()
        };
        assert_eq!(c.command(&view, SimTime::ZERO).ondemand, 0);
    }

    #[test]
    fn hedge_spreads_across_pools_and_survives_one_outage() {
        let c = ctl(FleetPolicy::spot_hedge(), 3);
        let view = FleetView {
            pools: vec![pool(0, 8), pool(0, 8), pool(0, 8)],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        let total: u32 = cmd.spot.iter().sum();
        let worst = cmd.spot.iter().copied().max().unwrap();
        assert!(total > 4, "target plus at least min_hedge");
        assert!(
            total - worst >= 4,
            "losing the biggest share {worst} of {cmd:?} must keep target"
        );
    }

    #[test]
    fn hedge_routes_around_a_dead_pool() {
        let c = ctl(FleetPolicy::spot_hedge(), 3);
        let view = FleetView {
            pools: vec![pool(0, 0), pool(1, 6), pool(1, 6)],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert_eq!(cmd.spot[0], 0, "no requests into an outage");
        assert!(
            cmd.spot[1] + cmd.spot[2] >= 3,
            "healthy pools absorb: {cmd:?}"
        );
    }

    #[test]
    fn hedge_backstops_with_on_demand_when_all_pools_are_short() {
        let c = ctl(FleetPolicy::spot_hedge(), 2);
        let view = FleetView {
            pools: vec![pool(1, 1), pool(1, 1)],
            target: 6,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert_eq!(cmd.ondemand, 4, "2 reachable spot, 4 bridged: {cmd:?}");
    }

    #[test]
    fn churn_inflates_the_hedge_up_to_the_cap() {
        let mut c = ctl(FleetPolicy::spot_hedge(), 2);
        let caps = [8, 8];
        let calm = c.hedge(4, &caps, SimTime::ZERO);
        for k in 0..60 {
            c.observe_kill(k % 2, SimTime::from_secs(k as u64));
        }
        let churny = c.hedge(4, &caps, SimTime::from_secs(60));
        assert!(churny > calm, "observed kills must grow the hedge");
        assert!(churny <= MAX_HEDGE, "MAX_HEDGE caps the inflation");
    }

    #[test]
    fn zone_floor_is_zero_with_a_single_pool() {
        let c = ctl(FleetPolicy::spot_hedge(), 1);
        // One pool: no spread can survive losing it; only MIN_HEDGE/churn
        // apply.
        assert_eq!(c.hedge(4, &[8], SimTime::ZERO), MIN_HEDGE);
    }

    #[test]
    fn hedge_cancels_queued_surplus() {
        let c = ctl(FleetPolicy::spot_hedge(), 2);
        let view = FleetView {
            pools: vec![
                PoolView {
                    live_spot: 1,
                    queued_spot: 5,
                    capacity: 2,
                    ..Default::default()
                },
                pool(1, 8),
            ],
            target: 2,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert!(
            cmd.cancel_spot[0] > 0,
            "queued surplus is cancelled: {cmd:?}"
        );
    }

    // ---- Cost-aware hedging ------------------------------------------

    fn priced_pool(cap: u32, spot_cents: u32, od_cents: u32, fits: bool) -> PoolView {
        PoolView {
            capacity: cap,
            caps: PoolCaps {
                sku: "x",
                spot_cents_per_hour: spot_cents,
                ondemand_cents_per_hour: od_cents,
                gpus_per_instance: 4,
                fits_model: fits,
            },
            ..Default::default()
        }
    }

    #[test]
    fn pool_caps_card_reads_off_the_instance_type() {
        let l4 = PoolCaps::of(&InstanceType::l4());
        assert_eq!(l4.sku, "g6.12xlarge");
        assert_eq!(l4.gpus_per_instance, 4);
        assert!(l4.spot_cents_per_hour < l4.ondemand_cents_per_hour);
        assert!(l4.fits_model, "capability defaults to capable");
    }

    #[test]
    fn cost_aware_biases_the_remainder_toward_cheap_spot() {
        let c = ctl(FleetPolicy::cost_aware_hedge(), 3);
        // Target 5 hedges to a desired total of 8 over three pools — an
        // uneven 3/3/2 spread. The even spread leaves the short share on
        // the last pool; price order (pool 2 cheapest, pool 1 dearest)
        // must instead short the most expensive pool.
        let view = FleetView {
            pools: vec![
                priced_pool(8, 190, 390, true),
                priced_pool(8, 300, 390, true),
                priced_pool(8, 45, 460, true),
            ],
            target: 5,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        let total: u32 = cmd.spot.iter().sum();
        assert!(
            cmd.spot[1] < cmd.spot[2],
            "dearest pool gets the short share: {cmd:?}"
        );
        assert!(cmd.spot[0] >= cmd.spot[1] && cmd.spot[2] >= cmd.spot[0]);
        // Survivability transfers from the even spread: losing the biggest
        // share keeps the target.
        assert!(total - cmd.spot.iter().max().unwrap() >= view.target);
    }

    #[test]
    fn cost_aware_excludes_incapable_pools() {
        let c = ctl(FleetPolicy::cost_aware_hedge(), 3);
        // Pool 1's SKU cannot host the model: nothing may be requested
        // there, however cheap it is.
        let view = FleetView {
            pools: vec![
                priced_pool(8, 190, 390, true),
                priced_pool(8, 10, 50, false),
                priced_pool(8, 180, 460, true),
            ],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert_eq!(cmd.spot[1], 0, "incapable pool gets nothing: {cmd:?}");
        assert!(cmd.spot[0] + cmd.spot[2] >= 4);
    }

    #[test]
    fn cost_aware_backstop_routes_to_the_cheapest_capable_pool() {
        let c = ctl(FleetPolicy::cost_aware_hedge(), 3);
        // Every pool is short: the bridge must land in pool 2 (cheapest
        // *capable* on-demand), not pool 0 and not the incapable pool 1.
        let view = FleetView {
            pools: vec![
                priced_pool(1, 190, 390, true),
                priced_pool(0, 10, 50, false),
                priced_pool(1, 180, 330, true),
            ],
            target: 6,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert_eq!(cmd.ondemand, 4, "2 reachable spot, 4 bridged: {cmd:?}");
        assert_eq!(cmd.ondemand_pool, Some(2));
    }

    #[test]
    fn price_blind_policies_leave_ondemand_routing_alone() {
        for policy in [
            FleetPolicy::ReactiveSpot,
            FleetPolicy::OnDemandFallback,
            FleetPolicy::spot_hedge(),
        ] {
            let c = ctl(policy, 2);
            let view = FleetView {
                pools: vec![priced_pool(1, 190, 390, true); 2],
                target: 6,
                spares: 0,
                ..Default::default()
            };
            let cmd = c.command(&view, SimTime::ZERO);
            assert_eq!(cmd.ondemand_pool, None, "{policy:?} stays legacy");
        }
    }

    #[test]
    fn spread_by_price_preserves_the_share_multiset() {
        let caps = [5u32, 8, 8, 3];
        let prices = [400u32, 100, 300, 50];
        for total in 0..=24u32 {
            let even = spread(total, &caps);
            let priced = spread_by_price(total, &caps, |i| prices[i]);
            let mut a: Vec<u32> = even.clone();
            let mut b: Vec<u32> = priced.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "total {total}: {even:?} vs {priced:?}");
            assert_eq!(priced.iter().sum::<u32>(), even.iter().sum::<u32>());
            assert!(priced.iter().zip(&caps).all(|(x, c)| x <= c));
        }
    }

    // ---- $/token optimization under dynamic prices -------------------

    #[test]
    fn cost_per_token_masks_pools_spiked_past_parity() {
        let c = ctl(FleetPolicy::cost_per_token(), 2);
        // Pool 0's spot has spiked to $6.00 against $3.90 on-demand —
        // far past the 90% parity threshold. Everything must land in
        // pool 1 ($1.80 spot).
        let view = FleetView {
            pools: vec![
                priced_pool(8, 600, 390, true),
                priced_pool(8, 180, 390, true),
            ],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert_eq!(cmd.spot[0], 0, "spiked pool gets nothing: {cmd:?}");
        assert!(cmd.spot[1] >= 4, "cheap pool absorbs the fleet: {cmd:?}");
        assert_eq!(cmd.ondemand, 0, "cheap spot still covers the target");
    }

    #[test]
    fn cost_per_token_buys_on_demand_when_every_pool_is_spiked() {
        let c = ctl(FleetPolicy::cost_per_token(), 2);
        let view = FleetView {
            pools: vec![
                priced_pool(8, 600, 390, true),
                priced_pool(8, 400, 390, true),
            ],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert_eq!(cmd.spot, vec![0, 0], "no spot at on-demand parity");
        assert_eq!(
            cmd.ondemand, 4,
            "the whole target rides guaranteed capacity"
        );
        assert_eq!(cmd.ondemand_pool, Some(0), "cheapest capable on-demand");
    }

    #[test]
    fn cost_per_token_matches_cost_aware_below_parity() {
        // With every spot price well below parity the mask is inert and
        // the spread is the cost-aware one.
        let view = FleetView {
            pools: vec![
                priced_pool(8, 190, 390, true),
                priced_pool(8, 300, 390, true),
                priced_pool(8, 45, 460, true),
            ],
            target: 5,
            spares: 0,
            ..Default::default()
        };
        let aware = ctl(FleetPolicy::cost_aware_hedge(), 3).command(&view, SimTime::ZERO);
        let per_token = ctl(FleetPolicy::cost_per_token(), 3).command(&view, SimTime::ZERO);
        assert_eq!(per_token.spot, aware.spot);
        assert_eq!(per_token.release, aware.release);
    }

    #[test]
    fn cost_per_token_ignores_parity_without_a_price_card() {
        // Pools with no price card on file (on-demand 0 cents) must never
        // count as spiked — price-blind views keep working.
        let c = ctl(FleetPolicy::cost_per_token(), 2);
        let view = FleetView {
            pools: vec![pool(0, 8), pool(0, 8)],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, SimTime::ZERO);
        assert!(cmd.spot.iter().sum::<u32>() >= 4, "{cmd:?}");
    }

    #[test]
    fn command_traced_records_non_noop_commands_only() {
        use telemetry::Recorder;
        let c = ctl(FleetPolicy::OnDemandFallback, 1);
        let mut rec = Recorder::enabled();
        // Satisfied fleet: noop, nothing recorded.
        let satisfied = FleetView {
            pools: vec![pool(6, 8)],
            target: 6,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command_traced(&satisfied, SimTime::ZERO, &mut rec);
        assert!(cmd.is_noop() && rec.is_empty());
        // Short fleet: the command and its event agree.
        let short = FleetView {
            pools: vec![pool(2, 8)],
            target: 6,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command_traced(&short, SimTime::from_secs(9), &mut rec);
        assert_eq!(cmd, c.command(&short, SimTime::from_secs(9)));
        assert_eq!(rec.records().len(), 1);
        assert_eq!(rec.records()[0].event, cmd.telemetry_event());
        // The noop sink compiles the emission away entirely.
        let via_noop = c.command_traced(&short, SimTime::from_secs(9), &mut telemetry::NoopSink);
        assert_eq!(via_noop, cmd);
    }

    // ---- Chaos recovery: backoff masks and escalation ----------------

    #[test]
    fn backed_off_pools_are_masked_until_the_window_expires() {
        let mut c = ctl(FleetPolicy::spot_hedge(), 3);
        let now = SimTime::from_secs(100);
        let d = c.observe_lapse(0, now);
        let view = FleetView {
            pools: vec![pool(0, 8), pool(0, 8), pool(0, 8)],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, now);
        assert_eq!(cmd.spot[0], 0, "cooling pool receives nothing: {cmd:?}");
        assert!(
            cmd.spot[1] + cmd.spot[2] >= 4,
            "healthy pools absorb the spread: {cmd:?}"
        );
        // The window is bounded: at its end the pool is re-probed.
        let cmd = c.command(&view, d.until);
        assert!(cmd.spot[0] > 0, "backoff expired, pool re-probed: {cmd:?}");
    }

    #[test]
    fn a_grant_lifts_the_backoff_mask() {
        let mut c = ctl(FleetPolicy::spot_hedge(), 2);
        let now = SimTime::from_secs(50);
        c.observe_lapse(1, now);
        c.observe_grant(1);
        let view = FleetView {
            pools: vec![pool(0, 8), pool(0, 8)],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, now);
        assert!(cmd.spot[1] > 0, "granted pool is trusted again: {cmd:?}");
    }

    #[test]
    fn k_failures_escalate_to_the_cheapest_capable_on_demand() {
        let mut c = ctl(FleetPolicy::cost_aware_hedge(), 2);
        let now = SimTime::from_secs(10);
        for _ in 0..3 {
            assert!(!c.tracker().is_escalated(0) || c.tracker().failures(0) >= 3);
            c.observe_lapse(0, now);
        }
        assert!(c.tracker().is_escalated(0), "K = 3 consecutive failures");
        let view = FleetView {
            pools: vec![
                priced_pool(8, 190, 390, true),
                priced_pool(8, 180, 330, true),
            ],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, now);
        assert_eq!(
            cmd.ondemand, 4,
            "escalation bridges the whole live gap: {cmd:?}"
        );
        assert_eq!(cmd.ondemand_pool, Some(1), "cheapest capable on-demand");
    }

    #[test]
    fn reactive_baseline_ignores_the_tracker() {
        let mut c = ctl(FleetPolicy::ReactiveSpot, 2);
        let now = SimTime::from_secs(10);
        for _ in 0..5 {
            c.observe_lapse(0, now);
        }
        assert!(c.tracker().is_escalated(0));
        let view = FleetView {
            pools: vec![pool(0, 8), pool(0, 8)],
            target: 4,
            spares: 0,
            ..Default::default()
        };
        let cmd = c.command(&view, now);
        assert!(cmd.is_noop(), "paper baseline never escalates: {cmd:?}");
    }

    #[test]
    fn noop_command_on_a_satisfied_fleet() {
        let c = ctl(FleetPolicy::OnDemandFallback, 1);
        let view = FleetView {
            pools: vec![pool(6, 8)],
            target: 6,
            spares: 0,
            ..Default::default()
        };
        assert!(c.command(&view, SimTime::ZERO).is_noop());
    }
}
