//! Acquisition policies: how the fleet reacts to a spot market.

/// Floor on the hedge (extra spot instances beyond the target), applied
/// even when the estimator sees no churn and one pool could absorb
/// everything.
pub const MIN_HEDGE: u32 = 1;

/// Ceiling on the hedge: over-provisioning is a cost knob, and this caps
/// what churn can inflate it to.
pub const MAX_HEDGE: u32 = 8;

/// Spot/on-demand parity threshold of [`HedgeRung::CostPerToken`], in
/// permille: spot at or above 90% of the pool's on-demand price masks the
/// pool ("stop riding spot once it costs 90% of guaranteed capacity").
pub const PARITY_PERMILLE: u32 = 900;

/// How the fleet controller acquires and sheds capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetPolicy {
    /// The paper baseline (§3.2): the serving system requests spot from
    /// the single market (pool 0) through Algorithm 1's own delta path,
    /// counting initializing instances and the `+O` on-demand mixing
    /// flag. The controller is never consulted and commands nothing.
    #[default]
    ReactiveSpot,
    /// Ride spot, but keep *live* capacity at the optimizer's target `N`:
    /// whenever live spot (plus already-held on-demand) falls below the
    /// target, request on-demand instances to cover the gap, and release
    /// them again once spot recovers (on-demand has release priority —
    /// the paper's Algorithm 1 line 10 rule, applied continuously).
    OnDemandFallback,
    /// The multi-pool hedge: spread `target + hedge` spot instances
    /// across every pool, sizing `hedge` so that a full single-pool
    /// outage still leaves `target` live instances, inflating it when the
    /// preemption-rate estimator observes churn, and bridging with
    /// on-demand when even the spread cannot reach the target. The rung
    /// says how much of the pools' price cards the hedge reads.
    Hedge(HedgeRung),
}

/// How price-aware a [`FleetPolicy::Hedge`] is. Rungs are ordered: each
/// keeps every mask and bias of the rungs below it and adds its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HedgeRung {
    /// SkyServe-style: the spread is even (capacity-capped water-filling
    /// in pool order), only backed-off pools are masked, and the
    /// on-demand backstop keeps the legacy pool-0 routing.
    PriceBlind,
    /// For heterogeneous fleets: pools whose SKU cannot host the model
    /// are masked, the spread biases its remainder toward the cheapest
    /// spot pools (same share multiset as the even spread, so one-outage
    /// survivability is unchanged), and the backstop lands in the
    /// cheapest *capable* pool.
    CostAware,
    /// $ per token under *dynamic* spot prices: pools whose current spot
    /// price is at or past [`PARITY_PERMILLE`] of their on-demand price
    /// are masked too — preemptible capacity at on-demand parity buys
    /// nothing but risk — and price spikes feed the preemption estimator
    /// as an anticipatory kill signal, widening the hedge *before* the
    /// price-correlated kills land.
    CostPerToken,
}

impl FleetPolicy {
    /// The price-blind hedge ([`HedgeRung::PriceBlind`]).
    pub fn spot_hedge() -> Self {
        FleetPolicy::Hedge(HedgeRung::PriceBlind)
    }

    /// The SKU- and price-aware hedge ([`HedgeRung::CostAware`]).
    pub fn cost_aware_hedge() -> Self {
        FleetPolicy::Hedge(HedgeRung::CostAware)
    }

    /// The $/token hedge ([`HedgeRung::CostPerToken`]).
    pub fn cost_per_token() -> Self {
        FleetPolicy::Hedge(HedgeRung::CostPerToken)
    }

    /// Whether the serving system should keep its legacy (paper-exact)
    /// acquisition path instead of consulting the controller.
    pub fn is_reactive(&self) -> bool {
        matches!(self, FleetPolicy::ReactiveSpot)
    }

    /// Whether this policy spreads a hedge across pools — the policies
    /// that honor the request tracker's backoff masks and escalation
    /// verdicts. The reactive baseline stays paper-exact and retries
    /// blindly; the fallback already rides on-demand continuously.
    pub fn is_hedged(&self) -> bool {
        matches!(self, FleetPolicy::Hedge(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reactive_is_the_default() {
        assert_eq!(FleetPolicy::default(), FleetPolicy::ReactiveSpot);
        assert!(FleetPolicy::default().is_reactive());
        assert!(!FleetPolicy::spot_hedge().is_reactive());
    }

    #[test]
    fn presets_are_the_three_ordered_hedge_rungs() {
        let presets = [
            FleetPolicy::spot_hedge(),
            FleetPolicy::cost_aware_hedge(),
            FleetPolicy::cost_per_token(),
        ];
        let rungs: Vec<HedgeRung> = presets
            .iter()
            .map(|p| match p {
                FleetPolicy::Hedge(rung) => *rung,
                other => panic!("{other:?} is not a hedge preset"),
            })
            .collect();
        assert!(rungs.windows(2).all(|w| w[0] < w[1]), "{rungs:?}");
        assert!(presets.iter().all(FleetPolicy::is_hedged));
    }

    #[test]
    fn hedge_constants_are_bounded_and_stop_short_of_parity() {
        const { assert!(MIN_HEDGE <= MAX_HEDGE) };
        const {
            assert!(
                0 < PARITY_PERMILLE && PARITY_PERMILLE < 1000,
                "bail out strictly below on-demand parity"
            )
        };
    }
}
