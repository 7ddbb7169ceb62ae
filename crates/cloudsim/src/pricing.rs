//! Billing: metering instance-time and converting it to dollars.

use std::collections::BTreeMap;

use simkit::{SimDuration, SimTime};

use crate::instance::{InstanceId, InstanceKind, InstanceType};

/// Meters instance leases and computes the total bill.
///
/// Each instance is charged from the moment it is granted until it is
/// released or preempted, at the per-hour price of its billing kind.
/// Per-second granularity (like real clouds since 2017).
///
/// Spot leases bill against the pool's price *path* — a step function
/// (see [`PriceModel`](crate::PriceModel)) — integrated exactly, so the
/// bill reflects the price actually paid during every segment of the
/// lease. A constant price is the one-step path `[(0, p)]`, which the
/// meter starts with at the instance type's list price: its single
/// segment bills `0.0 + p·s/3600`, the fixed-price product bit-for-bit.
///
/// # Example
///
/// ```
/// use cloudsim::{BillingMeter, InstanceId, InstanceKind, InstanceType};
/// use simkit::SimTime;
///
/// let mut bill = BillingMeter::new(InstanceType::g4dn_12xlarge());
/// bill.lease_started(InstanceId(0), InstanceKind::Spot, SimTime::ZERO);
/// bill.lease_ended(InstanceId(0), SimTime::from_secs(3600));
/// assert!((bill.total_usd(SimTime::from_secs(3600)) - 1.9).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct BillingMeter {
    ondemand_price_per_hour: f64,
    // Ordered map: `total_usd` sums open leases in iteration order, and
    // float addition is not associative — a hash map would make the total
    // differ by an ulp between identically-seeded runs.
    open: BTreeMap<InstanceId, (InstanceKind, SimTime)>,
    closed_usd: f64,
    // Per-kind attribution is accumulated *separately* from `closed_usd`
    // rather than derived by summing the two kinds: float addition is not
    // associative, and `total_usd` must keep its original accumulation
    // order bit-for-bit. The split may therefore differ from the total by
    // an ulp; the total is authoritative.
    closed_usd_spot: f64,
    closed_usd_on_demand: f64,
    closed_time: BTreeMap<&'static str, SimDuration>,
    // The spot-price path as `(time, usd_per_hour)` steps: never empty,
    // and the first step is at `t = 0`.
    spot_path: Vec<(SimTime, f64)>,
}

impl BillingMeter {
    /// Creates a meter for a fleet of the given instance type, billing
    /// spot at its list price (the one-step path).
    pub fn new(instance_type: InstanceType) -> Self {
        BillingMeter {
            ondemand_price_per_hour: instance_type.ondemand_price_per_hour,
            spot_path: vec![(SimTime::ZERO, instance_type.spot_price_per_hour)],
            open: BTreeMap::new(),
            closed_usd: 0.0,
            closed_usd_spot: 0.0,
            closed_usd_on_demand: 0.0,
            closed_time: BTreeMap::new(),
        }
    }

    /// Installs the spot-price path spot leases integrate. Steps must
    /// start at `t = 0` and be strictly increasing (see
    /// [`PriceModel::path`](crate::PriceModel::path)).
    ///
    /// # Panics
    ///
    /// Panics if leases are already open (re-pricing mid-lease would
    /// rewrite spend already accrued) or the path is malformed.
    pub fn set_spot_path(&mut self, path: Vec<(SimTime, f64)>) {
        assert!(
            self.open.is_empty(),
            "the price path must be installed before any lease opens"
        );
        assert!(
            path.first().is_some_and(|&(t, _)| t == SimTime::ZERO),
            "price path must start at t=0"
        );
        for w in path.windows(2) {
            assert!(w[0].0 < w[1].0, "price path must be strictly increasing");
        }
        self.spot_path = path;
    }

    /// The spot price in force at `t` (the path's step).
    pub fn spot_price_at(&self, t: SimTime) -> f64 {
        crate::price::price_at(&self.spot_path, t).expect("the path starts at t=0")
    }

    /// Records the start of a lease.
    ///
    /// # Panics
    ///
    /// Panics if the instance already has an open lease — leases never nest.
    pub fn lease_started(&mut self, id: InstanceId, kind: InstanceKind, at: SimTime) {
        let prev = self.open.insert(id, (kind, at));
        assert!(prev.is_none(), "{id} already has an open lease");
    }

    /// Records the end of a lease (release or preemption). Unknown ids are
    /// ignored so callers do not need to track double-release corner cases.
    pub fn lease_ended(&mut self, id: InstanceId, at: SimTime) {
        if let Some((kind, start)) = self.open.remove(&id) {
            let dur = at.saturating_since(start);
            let usd = self.lease_usd(kind, start, at);
            self.closed_usd += usd;
            match kind {
                InstanceKind::Spot => self.closed_usd_spot += usd,
                InstanceKind::OnDemand => self.closed_usd_on_demand += usd,
            }
            let key = match kind {
                InstanceKind::Spot => "spot",
                InstanceKind::OnDemand => "on-demand",
            };
            *self.closed_time.entry(key).or_insert(SimDuration::ZERO) += dur;
        }
    }

    /// Spend of one lease over `[start, end)`. On-demand leases bill the
    /// fixed on-demand price; spot leases integrate the price path segment
    /// by segment.
    fn lease_usd(&self, kind: InstanceKind, start: SimTime, end: SimTime) -> f64 {
        if kind == InstanceKind::OnDemand {
            let secs = end.saturating_since(start).as_secs_f64();
            return self.ondemand_price_per_hour * secs / 3600.0;
        }
        let mut usd = 0.0;
        // First step at or before `start` (the path starts at t=0, so any
        // lease start is covered).
        let first = self
            .spot_path
            .partition_point(|&(t, _)| t <= start)
            .saturating_sub(1);
        for (i, &(seg_start, price)) in self.spot_path.iter().enumerate().skip(first) {
            if seg_start >= end {
                break;
            }
            let seg_end = self
                .spot_path
                .get(i + 1)
                .map(|&(t, _)| t.min(end))
                .unwrap_or(end);
            let from = if seg_start > start { seg_start } else { start };
            if seg_end > from {
                usd += price * seg_end.saturating_since(from).as_secs_f64() / 3600.0;
            }
        }
        usd
    }

    /// Total spend in USD as of `now`, counting still-open leases up to `now`.
    pub fn total_usd(&self, now: SimTime) -> f64 {
        let open: f64 = self
            .open
            .values()
            .map(|&(kind, start)| self.lease_usd(kind, start, now))
            .sum();
        self.closed_usd + open
    }

    /// Spend attributed to one billing kind as of `now`, counting
    /// still-open leases of that kind up to `now`. The per-kind split is
    /// accumulated independently of [`BillingMeter::total_usd`], so
    /// `spot + on-demand` may differ from the total by a float ulp.
    pub fn usd_of_kind(&self, kind: InstanceKind, now: SimTime) -> f64 {
        let closed = match kind {
            InstanceKind::Spot => self.closed_usd_spot,
            InstanceKind::OnDemand => self.closed_usd_on_demand,
        };
        let open: f64 = self
            .open
            .values()
            .filter(|&&(k, _)| k == kind)
            .map(|&(k, start)| self.lease_usd(k, start, now))
            .sum();
        closed + open
    }

    /// Total closed lease time per billing kind (`"spot"` / `"on-demand"`).
    pub fn closed_time(&self, kind: InstanceKind) -> SimDuration {
        let key = match kind {
            InstanceKind::Spot => "spot",
            InstanceKind::OnDemand => "on-demand",
        };
        self.closed_time
            .get(key)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Number of leases currently open.
    pub fn open_leases(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> BillingMeter {
        BillingMeter::new(InstanceType::g4dn_12xlarge())
    }

    #[test]
    fn spot_hour_costs_spot_price() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.lease_ended(InstanceId(1), SimTime::from_secs(3600));
        assert!((m.total_usd(SimTime::from_secs(7200)) - 1.9).abs() < 1e-9);
    }

    #[test]
    fn open_lease_accrues() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::OnDemand, SimTime::ZERO);
        let half_hour = SimTime::from_secs(1800);
        assert!((m.total_usd(half_hour) - 3.9 / 2.0).abs() < 1e-9);
        assert_eq!(m.open_leases(), 1);
    }

    #[test]
    fn mixed_fleet_bill() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.lease_started(InstanceId(2), InstanceKind::OnDemand, SimTime::ZERO);
        let t = SimTime::from_secs(3600);
        m.lease_ended(InstanceId(1), t);
        m.lease_ended(InstanceId(2), t);
        assert!((m.total_usd(t) - (1.9 + 3.9)).abs() < 1e-9);
        assert_eq!(
            m.closed_time(InstanceKind::Spot),
            SimDuration::from_secs(3600)
        );
    }

    #[test]
    fn unknown_release_is_noop() {
        let mut m = meter();
        m.lease_ended(InstanceId(99), SimTime::from_secs(10));
        assert_eq!(m.total_usd(SimTime::from_secs(10)), 0.0);
    }

    #[test]
    #[should_panic(expected = "open lease")]
    fn double_lease_panics() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::from_secs(1));
    }

    #[test]
    fn path_bill_integrates_the_path_not_a_constant() {
        // 1.9 for the first half hour, 4.0 for the second: the hour-long
        // lease pays the time-weighted sum, not either endpoint.
        let mut m = meter();
        m.set_spot_path(vec![(SimTime::ZERO, 1.9), (SimTime::from_secs(1800), 4.0)]);
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.lease_ended(InstanceId(1), SimTime::from_secs(3600));
        let want = 1.9 * 0.5 + 4.0 * 0.5;
        assert!((m.total_usd(SimTime::from_secs(3600)) - want).abs() < 1e-9);
    }

    #[test]
    fn path_bill_covers_leases_starting_mid_segment_and_open_accrual() {
        let mut m = meter();
        m.set_spot_path(vec![
            (SimTime::ZERO, 2.0),
            (SimTime::from_secs(600), 6.0),
            (SimTime::from_secs(1200), 1.0),
        ]);
        // Lease spans the tail of segment 1, all of segment 2, and the
        // open accrual reads the last step's price.
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::from_secs(300));
        let now = SimTime::from_secs(1800);
        let want = 2.0 * 300.0 / 3600.0 + 6.0 * 600.0 / 3600.0 + 1.0 * 600.0 / 3600.0;
        assert!((m.total_usd(now) - want).abs() < 1e-9);
        assert!((m.usd_of_kind(InstanceKind::Spot, now) - want).abs() < 1e-9);
    }

    #[test]
    fn path_leaves_on_demand_at_list_price() {
        let mut m = meter();
        m.set_spot_path(vec![(SimTime::ZERO, 100.0)]);
        m.lease_started(InstanceId(1), InstanceKind::OnDemand, SimTime::ZERO);
        m.lease_ended(InstanceId(1), SimTime::from_secs(3600));
        assert!((m.total_usd(SimTime::from_secs(3600)) - 3.9).abs() < 1e-9);
    }

    #[test]
    fn constant_path_is_bit_exact_with_no_path() {
        let run = |with_path: bool| {
            let mut m = meter();
            if with_path {
                // Installing the list-price step explicitly changes nothing:
                // a new meter already bills the one-step path.
                m.set_spot_path(vec![(SimTime::ZERO, 1.9)]);
            }
            m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::from_secs(7));
            m.lease_ended(InstanceId(1), SimTime::from_secs(12_345));
            m.total_usd(SimTime::from_secs(20_000))
        };
        let fixed = 1.9 * SimDuration::from_secs(12_338).as_secs_f64() / 3600.0;
        assert_eq!(run(false).to_bits(), fixed.to_bits());
        assert_eq!(run(true).to_bits(), fixed.to_bits());
    }

    #[test]
    #[should_panic(expected = "before any lease")]
    fn path_after_open_lease_panics() {
        let mut m = meter();
        m.lease_started(InstanceId(1), InstanceKind::Spot, SimTime::ZERO);
        m.set_spot_path(vec![(SimTime::ZERO, 1.0)]);
    }

    #[test]
    fn spot_price_at_reads_the_path() {
        let mut m = meter();
        assert_eq!(m.spot_price_at(SimTime::from_secs(999)), 1.9);
        m.set_spot_path(vec![(SimTime::ZERO, 1.5), (SimTime::from_secs(60), 9.0)]);
        assert_eq!(m.spot_price_at(SimTime::ZERO), 1.5);
        assert_eq!(m.spot_price_at(SimTime::from_secs(61)), 9.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    const DAY_US: u64 = 86_400 * 1_000_000;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// A one-step price path bills exactly the fixed-price product
        /// `p·secs/3600`, bit for bit: for a closed lease, for an open
        /// lease accruing to `now`, and in the per-kind spot split.
        #[test]
        fn one_step_path_bills_the_fixed_price_product(
            price in 0.0f64..50.0,
            start_us in 0u64..DAY_US,
            closed_us in 0u64..DAY_US,
            open_us in 0u64..DAY_US,
        ) {
            let mut m = BillingMeter::new(InstanceType::g4dn_12xlarge());
            m.set_spot_path(vec![(SimTime::ZERO, price)]);
            let start = SimTime::from_micros(start_us);
            let end = start + SimDuration::from_micros(closed_us);
            let now = end + SimDuration::from_micros(open_us);
            let fixed = |from: SimTime, to: SimTime| {
                price * to.saturating_since(from).as_secs_f64() / 3600.0
            };
            m.lease_started(InstanceId(1), InstanceKind::Spot, start);
            m.lease_ended(InstanceId(1), end);
            prop_assert_eq!(m.total_usd(end).to_bits(), fixed(start, end).to_bits());
            m.lease_started(InstanceId(2), InstanceKind::Spot, end);
            let want = fixed(start, end) + fixed(end, now);
            prop_assert_eq!(m.total_usd(now).to_bits(), want.to_bits());
            prop_assert_eq!(
                m.usd_of_kind(InstanceKind::Spot, now).to_bits(),
                want.to_bits()
            );
        }
    }
}
