//! Policy-driven fleet controller for multi-pool spot markets.
//!
//! SpotServe (§8) reacts to whatever a single spot market grants: when the
//! trace shrinks, the fleet shrinks, and serving degrades until capacity
//! returns. This crate adds the *proactive* layer that SkyServe argues for
//! (spread spot capacity across pools and hedge with a small
//! over-provision) and that ShuntServe motivates for heterogeneous spot
//! clusters: a [`FleetController`] that sits between the serving system
//! and the [`cloudsim::CloudMarket`], observes grants and preemptions, and
//! decides *where* and *what kind* of capacity to acquire.
//!
//! Three [`FleetPolicy`]s are provided:
//!
//! * [`FleetPolicy::ReactiveSpot`] — the paper baseline: the serving
//!   system tops the single market (pool 0) back up through Algorithm 1's
//!   own delta path and never consults the controller, whose command
//!   under this policy is idle.
//! * [`FleetPolicy::OnDemandFallback`] — ride spot, but whenever live
//!   capacity falls below the optimizer's target `N`, top up with
//!   on-demand instances (released again once spot recovers). Availability
//!   becomes a cost knob instead of a trace artifact.
//! * [`FleetPolicy::Hedge`] — SkyServe-style: spread `target + hedge`
//!   instances across pools (capacity-capped water-filling), sizing the
//!   hedge so that losing any *single* pool still leaves at least
//!   `target` live instances, inflated further when the
//!   [`PreemptionEstimator`] observes churn, with an on-demand backstop
//!   when every pool is short. Its [`HedgeRung`] sets how much of each
//!   pool's [`PoolCaps`] capability/price card it reads; each rung keeps
//!   the masks of the rungs below and adds its own:
//!   * [`HedgeRung::PriceBlind`] ([`FleetPolicy::spot_hedge`]) — an even
//!     spread; only pools backing off after lapsed grants are masked.
//!   * [`HedgeRung::CostAware`] ([`FleetPolicy::cost_aware_hedge`]) — for
//!     heterogeneous fleets: SKUs that cannot host the model are masked,
//!     the spread biases toward cheap spot, and the on-demand backstop
//!     lands in the cheapest capable pool.
//!   * [`HedgeRung::CostPerToken`] ([`FleetPolicy::cost_per_token`]) —
//!     under *dynamic* spot prices: pools whose spot price reaches parity
//!     with on-demand are masked, and on-demand bridges the gap.
//!
//! The controller is pure decision logic over a [`FleetView`] snapshot —
//! it holds no cloud handles — which keeps it deterministic, replayable,
//! and unit-testable without a simulation loop.

pub mod controller;
pub mod estimator;
pub mod policy;
pub mod tracker;

pub use controller::{FleetCommand, FleetController, FleetView, PoolCaps, PoolView};
pub use estimator::PreemptionEstimator;
pub use policy::{FleetPolicy, HedgeRung};
pub use tracker::{RequestTracker, RetryDecision};

/// Spreads `total` instances across pools by capacity-capped round-robin
/// water-filling: one instance at a time, pool 0 first, skipping pools
/// whose capacity is exhausted. Deterministic; a pool in outage
/// (capacity 0) receives nothing and its share flows to the others.
///
/// # Example
///
/// ```
/// assert_eq!(fleetctl::spread(7, &[3, 10, 10]), vec![3, 2, 2]);
/// assert_eq!(fleetctl::spread(6, &[0, 4, 4]), vec![0, 3, 3]);
/// ```
pub fn spread(total: u32, caps: &[u32]) -> Vec<u32> {
    let mut alloc = vec![0u32; caps.len()];
    let mut left = total;
    loop {
        let mut progressed = false;
        for (a, &cap) in alloc.iter_mut().zip(caps) {
            if left == 0 {
                return alloc;
            }
            if *a < cap {
                *a += 1;
                left -= 1;
                progressed = true;
            }
        }
        if !progressed {
            return alloc; // every pool is at capacity
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_even_when_capacity_allows() {
        assert_eq!(spread(6, &[10, 10, 10]), vec![2, 2, 2]);
        assert_eq!(spread(7, &[10, 10, 10]), vec![3, 2, 2]);
    }

    #[test]
    fn spread_respects_capacity_and_redistributes() {
        assert_eq!(spread(9, &[1, 10, 10]), vec![1, 4, 4]);
        assert_eq!(spread(4, &[0, 0, 10]), vec![0, 0, 4]);
    }

    #[test]
    fn spread_saturates_at_total_capacity() {
        assert_eq!(spread(100, &[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(spread(0, &[5, 5]), vec![0, 0]);
        assert_eq!(spread(5, &[]), Vec::<u32>::new());
    }
}
