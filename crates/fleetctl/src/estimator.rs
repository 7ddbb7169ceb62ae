//! Per-pool preemption-rate estimation.
//!
//! The hedge policy needs to know how *churny* each pool is: a pool that
//! killed three instances in the last few minutes deserves a bigger
//! hedge than one that has been quiet for an hour. The estimator keeps a
//! windowed EWMA over observed kills per pool: each kill contributes
//! weight `exp(-(now - t_kill) / window)`, so the decayed kill count is an
//! exponentially weighted count over roughly one window, and the rate is
//! that count divided by the window.

use simkit::{SimDuration, SimTime};

/// Windowed EWMA of observed kills per pool.
///
/// # Example
///
/// ```
/// use fleetctl::PreemptionEstimator;
/// use simkit::{SimDuration, SimTime};
///
/// let mut est = PreemptionEstimator::new(2, SimDuration::from_secs(300));
/// est.record_kill(0, SimTime::from_secs(100));
/// assert!(est.rate(0, SimTime::from_secs(100)) > 0.0);
/// assert_eq!(est.rate(1, SimTime::from_secs(100)), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PreemptionEstimator {
    window: SimDuration,
    /// Per pool: decayed kill count and the instant it was last decayed to.
    pools: Vec<(f64, SimTime)>,
}

impl PreemptionEstimator {
    /// An estimator over `n_pools` pools with the given decay window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(n_pools: usize, window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "a zero window cannot decay");
        PreemptionEstimator {
            window,
            pools: vec![(0.0, SimTime::ZERO); n_pools],
        }
    }

    /// The configured decay window.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    fn decayed(&self, pool: usize, now: SimTime) -> f64 {
        let (count, at) = self.pools[pool];
        let dt = now.saturating_since(at).as_secs_f64();
        count * (-dt / self.window.as_secs_f64()).exp()
    }

    /// Records one observed kill in `pool` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is out of range.
    pub fn record_kill(&mut self, pool: usize, now: SimTime) {
        self.record_pressure(pool, 1.0, now);
    }

    /// Records `weight` kills' worth of capacity pressure in `pool` at
    /// `now`: the fleet controller feeds lapsed grants through this,
    /// since a pool that cannot launch is under the pressure that
    /// precedes kills. Pressure decays exactly like observed kills.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is out of range or `weight` is negative or
    /// non-finite.
    pub fn record_pressure(&mut self, pool: usize, weight: f64, now: SimTime) {
        assert!(
            weight.is_finite() && weight >= 0.0,
            "pressure weight must be finite and non-negative, got {weight}"
        );
        let fresh = self.decayed(pool, now) + weight;
        self.pools[pool] = (fresh, now);
    }

    /// Estimated kill rate of `pool` in kills per second (the decayed
    /// windowed count divided by the window).
    pub fn rate(&self, pool: usize, now: SimTime) -> f64 {
        self.decayed(pool, now) / self.window.as_secs_f64()
    }

    /// Estimated kill rate summed over every pool.
    pub fn total_rate(&self, now: SimTime) -> f64 {
        (0..self.pools.len()).map(|p| self.rate(p, now)).sum()
    }

    /// Expected kills across the fleet over the next `horizon` — the
    /// exposure window the hedge must cover (typically the grant delay:
    /// instances that die before a replacement can possibly arrive).
    pub fn expected_kills(&self, now: SimTime, horizon: SimDuration) -> f64 {
        self.total_rate(now) * horizon.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn kills_decay_over_the_window() {
        let mut est = PreemptionEstimator::new(1, SimDuration::from_secs(100));
        est.record_kill(0, t(0));
        let fresh = est.rate(0, t(0));
        let later = est.rate(0, t(100));
        let much_later = est.rate(0, t(1000));
        assert!(fresh > later && later > much_later);
        assert!(
            (later / fresh - (-1.0f64).exp()).abs() < 1e-12,
            "one window = e^-1"
        );
        assert!(much_later < fresh * 1e-4);
    }

    #[test]
    fn repeated_kills_accumulate() {
        let mut est = PreemptionEstimator::new(1, SimDuration::from_secs(100));
        for k in 0..5 {
            est.record_kill(0, t(k * 10));
        }
        let single = {
            let mut e = PreemptionEstimator::new(1, SimDuration::from_secs(100));
            e.record_kill(0, t(40));
            e.rate(0, t(40))
        };
        assert!(est.rate(0, t(40)) > 3.0 * single, "burst must dominate");
    }

    #[test]
    fn pools_are_independent() {
        let mut est = PreemptionEstimator::new(3, SimDuration::from_secs(100));
        est.record_kill(1, t(10));
        assert_eq!(est.rate(0, t(10)), 0.0);
        assert!(est.rate(1, t(10)) > 0.0);
        assert_eq!(est.rate(2, t(10)), 0.0);
        assert!((est.total_rate(t(10)) - est.rate(1, t(10))).abs() < 1e-15);
    }

    #[test]
    fn expected_kills_scale_with_horizon() {
        let mut est = PreemptionEstimator::new(1, SimDuration::from_secs(100));
        est.record_kill(0, t(0));
        let one = est.expected_kills(t(0), SimDuration::from_secs(40));
        let two = est.expected_kills(t(0), SimDuration::from_secs(80));
        assert!((two - 2.0 * one).abs() < 1e-12);
    }

    #[test]
    fn pressure_is_a_fractional_kill() {
        let mut by_kill = PreemptionEstimator::new(1, SimDuration::from_secs(100));
        by_kill.record_kill(0, t(10));
        let mut by_pressure = PreemptionEstimator::new(1, SimDuration::from_secs(100));
        by_pressure.record_pressure(0, 0.5, t(10));
        by_pressure.record_pressure(0, 0.5, t(10));
        assert!((by_pressure.rate(0, t(50)) - by_kill.rate(0, t(50))).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_pressure_panics() {
        let mut est = PreemptionEstimator::new(1, SimDuration::from_secs(100));
        est.record_pressure(0, -0.1, t(0));
    }

    #[test]
    #[should_panic(expected = "zero window")]
    fn zero_window_panics() {
        PreemptionEstimator::new(1, SimDuration::ZERO);
    }
}
