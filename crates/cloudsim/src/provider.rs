//! The trace-driven cloud provider.
//!
//! [`CloudSim`] replays an [`AvailabilityTrace`] and arbitrates the fleet:
//! the serving system asks for spot / on-demand instances and releases them;
//! the cloud grants requests subject to trace capacity, issues preemption
//! notices when capacity drops, and kills instances when their grace period
//! expires. All tie-breaking is driven by a named random stream, so replays
//! are bit-reproducible.

use std::collections::{BTreeMap, VecDeque};

use simkit::event::EventKey;
use simkit::{EventQueue, SimDuration, SimRng, SimTime};

use crate::events::CloudEvent;
use crate::faults::{FaultPlan, FaultSpec, NoticeFate};
use crate::instance::{InstanceId, InstanceKind, InstanceType};
use crate::price::PriceModel;
use crate::pricing::BillingMeter;
use crate::trace::AvailabilityTrace;

/// Tunables of the simulated cloud.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudConfig {
    /// The instance SKU leased by default (the paper targets
    /// `g4dn.12xlarge`, §6.1). Capacity may come from several spot pools
    /// with independent traces, grant delays, prices, *and instance types*
    /// — see [`PoolSpec`](crate::PoolSpec) and
    /// [`CloudMarket`](crate::CloudMarket); a pool whose spec names an
    /// [`InstanceType`] leases that SKU instead of this one.
    pub instance_type: InstanceType,
    /// Warning the cloud gives before reclaiming a spot instance
    /// (30 s on AWS/Azure, §2).
    pub grace_period: SimDuration,
    /// Delay between a spot request being grantable and the instance
    /// becoming reachable (provisioning + boot).
    pub spot_grant_delay: SimDuration,
    /// Provisioning delay for on-demand instances.
    pub ondemand_grant_delay: SimDuration,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            // The paper's SKU comes from `InstanceType::default()` — one
            // authoritative place, shared with every pool a market builds.
            instance_type: InstanceType::default(),
            grace_period: SimDuration::from_secs(30),
            spot_grant_delay: SimDuration::from_secs(40),
            ondemand_grant_delay: SimDuration::from_secs(40),
        }
    }
}

/// A live lease as seen by the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceInfo {
    /// Lease identifier.
    pub id: InstanceId,
    /// Billing kind.
    pub kind: InstanceKind,
    /// When the lease started.
    pub granted_at: SimTime,
    /// If a preemption notice was issued, when the kill will happen.
    pub kill_at: Option<SimTime>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Internal {
    TraceStep(usize),
    PriceStep(usize),
    GrantSpot,
    GrantOnDemand,
    Kill(InstanceId),
    /// One pre-drawn unannounced-kill attempt (index into the fault
    /// plan's schedule; a no-op when the pool holds no live spot lease).
    FaultKill(usize),
}

/// Deterministic simulation of the spot/on-demand lease lifecycle.
///
/// See the [crate-level example](crate) for basic usage. The typical loop
/// interleaves [`CloudSim::peek_time`] with command calls; all commands
/// must be issued at times `>=` every event already popped.
#[derive(Debug, Clone)]
pub struct CloudSim {
    cfg: CloudConfig,
    trace: AvailabilityTrace,
    rng: SimRng,
    internal: EventQueue<Internal>,
    out: VecDeque<(SimTime, CloudEvent)>,
    // Ordered so fleet iteration (and everything downstream of it,
    // e.g. billing accumulation order) is deterministic across runs.
    active: BTreeMap<InstanceId, InstanceInfo>,
    /// Keys of scheduled-but-not-fired spot grants (cancellable).
    inflight_spot: VecDeque<EventKey>,
    /// Spot requests waiting for capacity.
    pending_spot: u32,
    /// On-demand requests whose grant has not fired yet.
    pending_on_demand: u32,
    next_id: u64,
    capacity: u32,
    meter: BillingMeter,
    started: bool,
    /// Per-step probability of one price-correlated preemption, aligned
    /// with the meter's pre-drawn price path.
    price_kill_probs: Vec<f64>,
    /// Dedicated stream for price-correlated preemption draws; only steps
    /// with a nonzero kill probability draw from it.
    price_rng: SimRng,
    /// Which pool of a multi-pool market this provider is (pool 0 for the
    /// single-market form); stamped on pool-scoped events like re-quotes.
    pool: crate::PoolId,
    /// The pool's fault-injection plan; `None` (the default) injects
    /// nothing and draws nothing — faults-off replays stay byte-identical.
    faults: Option<FaultPlan>,
    /// Spot requests that will never be granted: launch failures on a
    /// capacity shed plus fault-injected grant lapses. Cumulative, so the
    /// controller's view can surface the shortfall.
    lapsed_spot: u32,
}

impl CloudSim {
    /// Creates a provider replaying `trace`, with randomness derived from
    /// `seed` (victim selection on capacity drops).
    pub fn new(cfg: CloudConfig, trace: AvailabilityTrace, seed: u64) -> Self {
        CloudSim::for_pool(cfg, trace, seed, crate::PoolId(0), None, None)
    }

    /// Creates the provider for one pool of a multi-pool market: pool 0 is
    /// bit-exact with [`CloudSim::new`] (same random stream, same id
    /// sequence); pool `i > 0` draws from its own random stream and
    /// allocates ids in its own namespace
    /// ([`POOL_ID_STRIDE`](crate::POOL_ID_STRIDE)).
    ///
    /// `price` is the pool's spot-price process; `None` bills the SKU's
    /// list price. The path is pre-drawn from the pool's own `"price"`
    /// stream and installed into billing; a constant price is the
    /// one-step path, which draws nothing and schedules no re-quote.
    /// `faults` is the pool's fault-injection spec; `None` builds no plan
    /// and draws nothing, while a spec pre-draws its unannounced-kill
    /// schedule from the pool's own `"faults"` stream (see
    /// [`crate::faults`]) and arms the notice-loss / grant-lapse /
    /// degraded-link channels.
    pub fn for_pool(
        cfg: CloudConfig,
        trace: AvailabilityTrace,
        seed: u64,
        pool: crate::PoolId,
        price: Option<&PriceModel>,
        faults: Option<&FaultSpec>,
    ) -> Self {
        let mut meter = BillingMeter::new(cfg.instance_type.clone());
        let mut internal = EventQueue::new();
        for (i, &(t, _)) in trace.steps().iter().enumerate() {
            internal.schedule(t, Internal::TraceStep(i));
        }
        let capacity = trace.capacity_at(SimTime::ZERO);
        let rng = if pool.0 == 0 {
            SimRng::new(seed).stream("cloudsim")
        } else {
            SimRng::new(seed).stream(&format!("cloudsim/pool{}", pool.0))
        };
        let list = PriceModel::Constant(cfg.instance_type.spot_price_per_hour);
        let model = price.unwrap_or(&list);
        let label = if pool.0 == 0 {
            "price".to_string()
        } else {
            format!("price/pool{}", pool.0)
        };
        let mut path_rng = SimRng::new(seed).stream(&label);
        let price_path = model.path(cfg.instance_type.spot_price_per_hour, &mut path_rng);
        let price_kill_probs: Vec<f64> = price_path
            .iter()
            .map(|&(_, p)| model.kill_probability(p))
            .collect();
        // Every mid-run step is an event: the re-quote surfaces as a
        // `SpotPriceStep` so consumers can steer on it (and the step may
        // additionally preempt when the model couples price to kills).
        // The `t = 0` step is the initial quote, already visible before
        // any event fires.
        for (i, &(t, _)) in price_path.iter().enumerate() {
            if t > SimTime::ZERO {
                internal.schedule(t, Internal::PriceStep(i));
            }
        }
        meter.set_spot_path(price_path);
        let price_rng = SimRng::new(seed).stream(&format!("{label}/kill"));
        let faults = faults.map(|spec| {
            let plan = FaultPlan::draw(spec, seed, pool);
            for (i, &t) in plan.kill_times().iter().enumerate() {
                internal.schedule(t, Internal::FaultKill(i));
            }
            plan
        });
        CloudSim {
            cfg,
            trace,
            rng,
            internal,
            out: VecDeque::new(),
            active: BTreeMap::new(),
            inflight_spot: VecDeque::new(),
            pending_spot: 0,
            pending_on_demand: 0,
            next_id: pool.0 as u64 * crate::POOL_ID_STRIDE,
            capacity,
            meter,
            started: false,
            price_kill_probs,
            price_rng,
            pool,
            faults,
            lapsed_spot: 0,
        }
    }

    /// The spot price in force at `t` (USD per instance-hour). A pure
    /// lookup into the pre-drawn path: the answer never depends on how far
    /// event processing has advanced.
    pub fn spot_price_at(&self, t: SimTime) -> f64 {
        self.meter.spot_price_at(t)
    }

    /// The provider configuration.
    pub fn config(&self) -> &CloudConfig {
        &self.cfg
    }

    /// Current spot capacity according to the trace (already applied steps).
    pub fn current_capacity(&self) -> u32 {
        self.capacity
    }

    /// Live leases (including instances inside their grace period).
    pub fn fleet(&self) -> impl Iterator<Item = &InstanceInfo> {
        self.active.values()
    }

    /// Number of live leases of `kind`.
    pub fn live_count(&self, kind: InstanceKind) -> usize {
        self.active.values().filter(|i| i.kind == kind).count()
    }

    /// The billing meter (spend so far).
    pub fn meter(&self) -> &BillingMeter {
        &self.meter
    }

    /// Spot requests that are waiting for capacity (not yet provisioning).
    pub fn pending_spot(&self) -> u32 {
        self.pending_spot
    }

    /// Spot instances currently provisioning (grant scheduled, not fired).
    pub fn provisioning_spot(&self) -> u32 {
        self.inflight_spot.len() as u32
    }

    /// On-demand requests whose grant has not fired yet.
    pub fn pending_on_demand(&self) -> u32 {
        self.pending_on_demand
    }

    /// Spot requests lost for good so far: launch failures on capacity
    /// sheds plus fault-injected grant lapses. Each one was also surfaced
    /// as a [`CloudEvent::RequestLapsed`].
    pub fn lapsed_spot(&self) -> u32 {
        self.lapsed_spot
    }

    /// The pool's effective transfer-bandwidth multiplier at `t`: below
    /// `1.0` inside a fault-injected degraded-link window, exactly `1.0`
    /// otherwise. A pure lookup into the scripted windows — never depends
    /// on event-processing progress.
    pub fn bandwidth_factor_at(&self, t: SimTime) -> f64 {
        self.faults
            .as_ref()
            .map_or(1.0, |p| p.bandwidth_factor_at(t))
    }

    /// Spot leases counted against capacity: live without a pending kill,
    /// plus instances currently provisioning.
    fn spot_usage(&self) -> u32 {
        let live = self
            .active
            .values()
            .filter(|i| i.kind == InstanceKind::Spot && i.kill_at.is_none())
            .count() as u32;
        live + self.inflight_spot.len() as u32
    }

    /// Requests `n` additional spot instances at time `now`.
    ///
    /// Requests that fit under current capacity start provisioning
    /// immediately (grant after [`CloudConfig::spot_grant_delay`]); the rest
    /// queue until the trace frees capacity.
    pub fn request_spot(&mut self, now: SimTime, n: u32) {
        self.pending_spot += n;
        self.try_start_spot_grants(now);
    }

    /// Cancels up to `n` queued (not yet provisioning) spot requests,
    /// returning how many were actually cancelled.
    pub fn cancel_pending_spot(&mut self, n: u32) -> u32 {
        let k = n.min(self.pending_spot);
        self.pending_spot -= k;
        k
    }

    /// Immediately grants up to `n` spot instances at `t = 0` (bounded by
    /// initial trace capacity), returning their ids. Used for warm starts:
    /// the paper's runs begin with an already-initialized system.
    ///
    /// # Panics
    ///
    /// Panics if called after events have been produced or time has moved.
    pub fn prewarm_spot(&mut self, n: u32) -> Vec<InstanceId> {
        assert!(!self.started, "prewarm must precede all activity");
        let k = n.min(self.capacity.saturating_sub(self.spot_usage()));
        (0..k)
            .map(|_| {
                self.grant(SimTime::ZERO, InstanceKind::Spot);
                let (_, ev) = self.out.pop_back().expect("grant pushed an event");
                ev.instance().expect("grants carry an instance")
            })
            .collect()
    }

    /// Immediately grants `n` on-demand instances at `t = 0`; see
    /// [`CloudSim::prewarm_spot`].
    ///
    /// # Panics
    ///
    /// Panics if called after events have been produced or time has moved.
    pub fn prewarm_on_demand(&mut self, n: u32) -> Vec<InstanceId> {
        assert!(!self.started, "prewarm must precede all activity");
        (0..n)
            .map(|_| {
                self.grant(SimTime::ZERO, InstanceKind::OnDemand);
                let (_, ev) = self.out.pop_back().expect("grant pushed an event");
                ev.instance().expect("grants carry an instance")
            })
            .collect()
    }

    /// Requests `n` on-demand instances at time `now`; on-demand capacity is
    /// assumed unlimited, so all requests provision immediately.
    pub fn request_on_demand(&mut self, now: SimTime, n: u32) {
        self.pending_on_demand += n;
        for _ in 0..n {
            self.internal
                .schedule(now + self.cfg.ondemand_grant_delay, Internal::GrantOnDemand);
        }
    }

    /// Releases a lease voluntarily (e.g. scaling down). Unknown or already
    /// killed ids are ignored.
    pub fn release(&mut self, now: SimTime, id: InstanceId) {
        if self.active.remove(&id).is_some() {
            self.meter.lease_ended(id, now);
            // A freed spot slot may admit a queued request.
            self.try_start_spot_grants(now);
        }
    }

    /// Starts provisioning for as many queued spot requests as capacity
    /// allows.
    fn try_start_spot_grants(&mut self, now: SimTime) {
        while self.pending_spot > 0 && self.spot_usage() < self.capacity {
            self.pending_spot -= 1;
            let key = self
                .internal
                .schedule(now + self.cfg.spot_grant_delay, Internal::GrantSpot);
            self.inflight_spot.push_back(key);
        }
    }

    /// Applies a capacity change at time `t`.
    fn apply_trace_step(&mut self, t: SimTime, idx: usize) {
        self.capacity = self.trace.steps()[idx].1;
        // Shed over-capacity usage: first cancel provisioning instances
        // (they silently fail to launch), then preempt live ones.
        while self.spot_usage() > self.capacity {
            if let Some(key) = self.inflight_spot.pop_back() {
                self.internal.cancel(key);
                // The request is lost, not re-queued: a real launch
                // failure — surfaced as a lapse so the controller can
                // re-request instead of waiting on a grant that will
                // never arrive.
                self.note_lapse(t);
                continue;
            }
            let mut candidates: Vec<InstanceId> = self
                .active
                .values()
                .filter(|i| i.kind == InstanceKind::Spot && i.kill_at.is_none())
                .map(|i| i.id)
                .collect();
            candidates.sort_unstable();
            let victim = *self
                .rng
                .choose(&candidates)
                .expect("spot_usage > 0 implies a candidate");
            self.issue_preemption(t, victim);
        }
        // Freed capacity admits queued requests.
        self.try_start_spot_grants(t);
    }

    /// One step of the price path: surface the re-quote as an event, and
    /// — when the model couples price to preemption — with the step's
    /// probability reclaim one live spot instance (grace period and
    /// notice exactly like a capacity drop). Kill draws come from the
    /// pool's dedicated kill stream and only happen on steps with a
    /// nonzero coupling, so a coupling-free model draws nothing.
    fn apply_price_step(&mut self, t: SimTime, idx: usize) {
        let price = self.meter.spot_price_at(t);
        self.out.push_back((
            t,
            CloudEvent::SpotPriceStep {
                pool: self.pool,
                cents_per_hour: (price * 100.0).round() as u32,
            },
        ));
        let p = self.price_kill_probs[idx];
        if p <= 0.0 {
            return;
        }
        let rng = &mut self.price_rng;
        if !rng.chance(p) {
            return;
        }
        let mut candidates: Vec<InstanceId> = self
            .active
            .values()
            .filter(|i| i.kind == InstanceKind::Spot && i.kill_at.is_none())
            .map(|i| i.id)
            .collect();
        candidates.sort_unstable();
        let Some(&victim) = rng.choose(&candidates) else {
            return;
        };
        self.issue_preemption(t, victim);
    }

    /// Preempts `victim` at `t`, consulting the fault plan for the
    /// notice's fate: delivered with full grace (always, without a plan),
    /// delivered late with a truncated grace budget, or lost outright —
    /// in which case the kill fires *now* as an unannounced
    /// [`CloudEvent::InstanceFailed`].
    fn issue_preemption(&mut self, t: SimTime, victim: InstanceId) {
        let fate = match self.faults.as_mut() {
            Some(plan) => plan.notice_fate(self.cfg.grace_period),
            None => NoticeFate::Delivered,
        };
        let grace = match fate {
            NoticeFate::Lost => {
                self.fail_instance(t, victim);
                return;
            }
            NoticeFate::Truncated(left) => left,
            NoticeFate::Delivered => self.cfg.grace_period,
        };
        let kill_at = t + grace;
        self.active
            .get_mut(&victim)
            .expect("victim is active")
            .kill_at = Some(kill_at);
        self.internal.schedule(kill_at, Internal::Kill(victim));
        self.out.push_back((
            t,
            CloudEvent::PreemptionNotice {
                id: victim,
                kill_at,
            },
        ));
    }

    /// Kills `victim` with zero grace: the lease ends immediately and the
    /// death surfaces as [`CloudEvent::InstanceFailed`]. Any stale
    /// scheduled [`Internal::Kill`] for the id becomes a no-op.
    fn fail_instance(&mut self, t: SimTime, victim: InstanceId) {
        self.active.remove(&victim).expect("victim is active");
        self.meter.lease_ended(victim, t);
        self.out
            .push_back((t, CloudEvent::InstanceFailed { id: victim }));
        self.try_start_spot_grants(t);
    }

    /// Records one lost spot request and surfaces it as a
    /// [`CloudEvent::RequestLapsed`].
    fn note_lapse(&mut self, t: SimTime) {
        self.lapsed_spot += 1;
        self.out.push_back((
            t,
            CloudEvent::RequestLapsed {
                pool: self.pool,
                kind: InstanceKind::Spot,
            },
        ));
    }

    fn grant(&mut self, t: SimTime, kind: InstanceKind) {
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        self.active.insert(
            id,
            InstanceInfo {
                id,
                kind,
                granted_at: t,
                kill_at: None,
            },
        );
        self.meter.lease_started(id, kind, t);
        let ev = match kind {
            InstanceKind::Spot => CloudEvent::SpotGranted { id },
            InstanceKind::OnDemand => CloudEvent::OnDemandGranted { id },
        };
        self.out.push_back((t, ev));
    }

    fn process_internal(&mut self, t: SimTime, ev: Internal) {
        match ev {
            Internal::TraceStep(idx) => self.apply_trace_step(t, idx),
            Internal::PriceStep(idx) => self.apply_price_step(t, idx),
            Internal::GrantSpot => {
                self.inflight_spot.pop_front();
                let lapses = match self.faults.as_mut() {
                    Some(plan) => plan.grant_lapses(),
                    None => false,
                };
                if lapses {
                    // The grant lapses: the slot frees, no instance ever
                    // appears, and the loss is visible to the controller.
                    self.note_lapse(t);
                    self.try_start_spot_grants(t);
                } else {
                    self.grant(t, InstanceKind::Spot);
                }
            }
            Internal::GrantOnDemand => {
                self.pending_on_demand = self.pending_on_demand.saturating_sub(1);
                self.grant(t, InstanceKind::OnDemand);
            }
            Internal::Kill(id) => {
                if self.active.remove(&id).is_some() {
                    self.meter.lease_ended(id, t);
                    self.out.push_back((t, CloudEvent::Preempted { id }));
                    self.try_start_spot_grants(t);
                }
            }
            Internal::FaultKill(_) => {
                // Unannounced kills may hit *any* live spot lease — even
                // one already inside a grace period (its stale scheduled
                // kill then no-ops).
                let mut candidates: Vec<InstanceId> = self
                    .active
                    .values()
                    .filter(|i| i.kind == InstanceKind::Spot)
                    .map(|i| i.id)
                    .collect();
                candidates.sort_unstable();
                let victim = self
                    .faults
                    .as_mut()
                    .expect("fault events imply a plan")
                    .pick_victim(&candidates);
                if let Some(victim) = victim {
                    self.fail_instance(t, victim);
                }
            }
        }
    }

    /// Timestamp of the next deliverable event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.started = true;
        loop {
            if let Some(&(t, _)) = self.out.front() {
                return Some(t);
            }
            let (t, ev) = self.internal.pop()?;
            self.process_internal(t, ev);
        }
    }

    /// Pops the next deliverable event, advancing internal machinery.
    pub fn pop_next(&mut self) -> Option<(SimTime, CloudEvent)> {
        self.peek_time()?;
        self.out.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(cloud: &mut CloudSim) -> Vec<(SimTime, CloudEvent)> {
        std::iter::from_fn(|| cloud.pop_next()).collect()
    }

    fn sim(trace: AvailabilityTrace) -> CloudSim {
        CloudSim::new(CloudConfig::default(), trace, 7)
    }

    #[test]
    fn grants_after_delay() {
        let mut cloud = sim(AvailabilityTrace::constant(4));
        cloud.request_spot(SimTime::ZERO, 2);
        let evs = drain(&mut cloud);
        assert_eq!(evs.len(), 2);
        for (t, ev) in &evs {
            assert_eq!(*t, SimTime::from_secs(40));
            assert!(matches!(ev, CloudEvent::SpotGranted { .. }));
        }
        assert_eq!(cloud.live_count(InstanceKind::Spot), 2);
    }

    #[test]
    fn over_capacity_requests_queue() {
        let mut cloud = sim(AvailabilityTrace::constant(2));
        cloud.request_spot(SimTime::ZERO, 5);
        let evs = drain(&mut cloud);
        assert_eq!(evs.len(), 2, "only capacity-many grants fire");
        assert_eq!(cloud.pending_spot(), 3);
        // Releasing one lease admits one queued request.
        let id = evs[0].1.instance().expect("grant");
        cloud.release(SimTime::from_secs(100), id);
        let evs = drain(&mut cloud);
        assert_eq!(evs.len(), 1);
        assert_eq!(cloud.pending_spot(), 2);
    }

    #[test]
    fn capacity_drop_issues_notice_then_kill() {
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 2), (SimTime::from_secs(300), 1)]);
        let mut cloud = sim(trace);
        cloud.request_spot(SimTime::ZERO, 2);
        let evs = drain(&mut cloud);
        assert_eq!(evs.len(), 4, "2 grants, notice, preemption: {evs:?}");
        assert!(matches!(evs[0].1, CloudEvent::SpotGranted { .. }));
        assert!(matches!(evs[1].1, CloudEvent::SpotGranted { .. }));
        match evs[2] {
            (t, CloudEvent::PreemptionNotice { kill_at, .. }) => {
                assert_eq!(t, SimTime::from_secs(300));
                assert_eq!(kill_at, SimTime::from_secs(330));
            }
            ref other => panic!("expected notice, got {other:?}"),
        }
        match evs[3] {
            (t, CloudEvent::Preempted { .. }) => assert_eq!(t, SimTime::from_secs(330)),
            ref other => panic!("expected preemption, got {other:?}"),
        }
        assert_eq!(cloud.live_count(InstanceKind::Spot), 1);
    }

    #[test]
    fn released_during_grace_period_is_not_killed_twice() {
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 1), (SimTime::from_secs(300), 0)]);
        let mut cloud = sim(trace);
        cloud.request_spot(SimTime::ZERO, 1);
        let (_, grant) = cloud.pop_next().unwrap();
        let id = grant.instance().expect("grant");

        // Pop the notice, then voluntarily release before the kill fires.
        let (t, ev) = cloud.pop_next().unwrap();
        assert!(matches!(ev, CloudEvent::PreemptionNotice { .. }), "{ev:?}");
        cloud.release(t + SimDuration::from_secs(5), id);
        assert!(cloud.pop_next().is_none(), "no Preempted after release");
    }

    #[test]
    fn capacity_rise_admits_queued_requests() {
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 1), (SimTime::from_secs(600), 3)]);
        let mut cloud = sim(trace);
        cloud.request_spot(SimTime::ZERO, 3);
        let evs = drain(&mut cloud);
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].0, SimTime::from_secs(40));
        for (t, _) in &evs[1..] {
            assert_eq!(
                *t,
                SimTime::from_secs(640),
                "grants 40s after capacity rise"
            );
        }
    }

    #[test]
    fn on_demand_always_grants() {
        let mut cloud = sim(AvailabilityTrace::constant(0));
        cloud.request_on_demand(SimTime::ZERO, 3);
        let evs = drain(&mut cloud);
        assert_eq!(evs.len(), 3);
        assert!(evs
            .iter()
            .all(|(_, e)| matches!(e, CloudEvent::OnDemandGranted { .. })));
        assert_eq!(cloud.live_count(InstanceKind::OnDemand), 3);
    }

    #[test]
    fn on_demand_never_preempted() {
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 2), (SimTime::from_secs(300), 0)]);
        let mut cloud = sim(trace);
        cloud.request_on_demand(SimTime::ZERO, 2);
        cloud.request_spot(SimTime::ZERO, 2);
        let mut preempted = 0;
        while let Some((_, ev)) = cloud.pop_next() {
            if let CloudEvent::Preempted { id } = ev {
                preempted += 1;
                // Only spot instances die.
                assert!(!cloud
                    .fleet()
                    .any(|i| i.id == id && i.kind == InstanceKind::OnDemand));
            }
        }
        assert_eq!(preempted, 2);
        assert_eq!(cloud.live_count(InstanceKind::OnDemand), 2);
    }

    #[test]
    fn inflight_grants_cancelled_on_capacity_drop() {
        // Capacity drops at t=10, before the t=40 grant fires. The
        // launches fail — but visibly: each cancelled in-flight request
        // surfaces as a `RequestLapsed` at the drop.
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 2), (SimTime::from_secs(10), 0)]);
        let mut cloud = sim(trace);
        cloud.request_spot(SimTime::ZERO, 2);
        let evs = drain(&mut cloud);
        assert_eq!(evs.len(), 2, "both launch failures surface: {evs:?}");
        for (t, ev) in &evs {
            assert_eq!(*t, SimTime::from_secs(10));
            assert_eq!(
                *ev,
                CloudEvent::RequestLapsed {
                    pool: crate::PoolId(0),
                    kind: InstanceKind::Spot,
                }
            );
        }
        assert_eq!(cloud.live_count(InstanceKind::Spot), 0);
        assert_eq!(cloud.lapsed_spot(), 2);
    }

    #[test]
    fn cancel_pending_spot_requests() {
        let mut cloud = sim(AvailabilityTrace::constant(1));
        cloud.request_spot(SimTime::ZERO, 4);
        assert_eq!(cloud.pending_spot(), 3);
        assert_eq!(cloud.cancel_pending_spot(10), 3);
        assert_eq!(cloud.pending_spot(), 0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let trace = AvailabilityTrace::paper_bs();
            let mut cloud = CloudSim::new(CloudConfig::default(), trace, 99);
            cloud.request_spot(SimTime::ZERO, 10);
            let evs = drain(&mut cloud);
            evs.iter()
                .map(|(t, e)| (*t, format!("{e:?}")))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn billing_tracks_lifecycle() {
        let mut cloud = sim(AvailabilityTrace::constant(1));
        cloud.request_spot(SimTime::ZERO, 1);
        let evs = drain(&mut cloud);
        let id = evs[0].1.instance().expect("grant");
        let end = SimTime::from_secs(40 + 3600);
        cloud.release(end, id);
        assert!((cloud.meter().total_usd(end) - 1.9).abs() < 1e-9);
    }

    #[test]
    fn constant_price_model_is_bit_exact_with_no_model() {
        // `Constant` must not perturb a single draw, event, or cent.
        let run = |price: Option<&PriceModel>| {
            let trace = AvailabilityTrace::paper_bs();
            let mut cloud = CloudSim::for_pool(
                CloudConfig::default(),
                trace,
                99,
                crate::PoolId(0),
                price,
                None,
            );
            cloud.request_spot(SimTime::ZERO, 10);
            let evs: Vec<String> = drain(&mut cloud)
                .iter()
                .map(|(t, e)| format!("{t} {e:?}"))
                .collect();
            (
                evs,
                cloud.meter().total_usd(SimTime::from_secs(1200)).to_bits(),
            )
        };
        assert_eq!(run(None), run(Some(&PriceModel::Constant(1.9))));
    }

    #[test]
    fn priced_pool_bills_the_path_and_reports_current_price() {
        use crate::price::PriceTrace;
        let model = PriceModel::Trace(PriceTrace::from_steps(vec![
            (SimTime::ZERO, 2.0),
            (SimTime::from_secs(1840), 6.0),
        ]));
        let mut cloud = CloudSim::for_pool(
            CloudConfig::default(),
            AvailabilityTrace::constant(1),
            7,
            crate::PoolId(0),
            Some(&model),
            None,
        );
        assert_eq!(cloud.spot_price_at(SimTime::ZERO), 2.0);
        assert_eq!(cloud.spot_price_at(SimTime::from_secs(2000)), 6.0);
        cloud.request_spot(SimTime::ZERO, 1);
        let evs = drain(&mut cloud);
        let id = evs[0].1.instance().expect("grant");
        // Granted at t=40; 1800 s at $2/h then 1800 s at $6/h.
        let end = SimTime::from_secs(40 + 3600);
        cloud.release(end, id);
        let want = 2.0 * 0.5 + 6.0 * 0.5;
        assert!((cloud.meter().total_usd(end) - want).abs() < 1e-9);
    }

    #[test]
    fn price_steps_surface_as_requote_events() {
        // Every mid-run path step is delivered as a `SpotPriceStep`, so a
        // controller gets a steering point the moment the market moves.
        use crate::price::PriceTrace;
        let model = PriceModel::Trace(PriceTrace::from_steps(vec![
            (SimTime::ZERO, 2.0),
            (SimTime::from_secs(600), 6.3),
        ]));
        let mut cloud = CloudSim::for_pool(
            CloudConfig::default(),
            AvailabilityTrace::constant(2),
            5,
            crate::PoolId(3),
            Some(&model),
            None,
        );
        let evs = drain(&mut cloud);
        assert_eq!(
            evs,
            vec![(
                SimTime::from_secs(600),
                CloudEvent::SpotPriceStep {
                    pool: crate::PoolId(3),
                    cents_per_hour: 630,
                },
            )],
            "one re-quote event, stamped with the pool and the cent quote"
        );
    }

    #[test]
    fn price_spikes_preempt_with_grace_and_notice() {
        // A saturating coupling (probability 1 past the mean) must reclaim
        // spot instances during the spike, with the usual notice → kill
        // sequence, while capacity never moved.
        let model = PriceModel::Ou(crate::price::OuParams {
            mean: 1.0,
            reversion_per_hour: 0.0,
            volatility: 0.0,
            daily_amplitude: 0.0,
            step: SimDuration::from_secs(600),
            horizon: SimDuration::from_secs(3600),
            floor: 5.0, // floored far above the mean: permanent "spike"
            kill_coupling: 1e9,
        });
        let mut cloud = CloudSim::for_pool(
            CloudConfig::default(),
            AvailabilityTrace::constant(4),
            7,
            crate::PoolId(0),
            Some(&model),
            None,
        );
        cloud.request_spot(SimTime::ZERO, 2);
        let evs = drain(&mut cloud);
        let notices: Vec<&(SimTime, CloudEvent)> = evs
            .iter()
            .filter(|(_, e)| matches!(e, CloudEvent::PreemptionNotice { .. }))
            .collect();
        let kills = evs
            .iter()
            .filter(|(_, e)| matches!(e, CloudEvent::Preempted { .. }))
            .count();
        assert!(!notices.is_empty(), "spike must preempt: {evs:?}");
        assert_eq!(notices.len(), kills, "every notice is followed by a kill");
        for (t, ev) in &notices {
            if let CloudEvent::PreemptionNotice { kill_at, .. } = ev {
                assert_eq!(*kill_at, *t + SimDuration::from_secs(30), "grace period");
            }
        }
    }

    fn faulted(trace: AvailabilityTrace, spec: &FaultSpec, seed: u64) -> CloudSim {
        CloudSim::for_pool(
            CloudConfig::default(),
            trace,
            seed,
            crate::PoolId(0),
            None,
            Some(spec),
        )
    }

    #[test]
    fn faults_off_is_bit_exact_with_no_plan() {
        // An all-off spec must not perturb a single draw, event, or cent
        // relative to no spec at all.
        let run = |spec: Option<&FaultSpec>| {
            let trace = AvailabilityTrace::paper_bs();
            let mut cloud = CloudSim::for_pool(
                CloudConfig::default(),
                trace,
                99,
                crate::PoolId(0),
                None,
                spec,
            );
            cloud.request_spot(SimTime::ZERO, 10);
            let evs: Vec<String> = drain(&mut cloud)
                .iter()
                .map(|(t, e)| format!("{t} {e:?}"))
                .collect();
            (
                evs,
                cloud.meter().total_usd(SimTime::from_secs(1200)).to_bits(),
            )
        };
        assert_eq!(run(None), run(Some(&FaultSpec::calm())));
    }

    #[test]
    fn unannounced_kills_fire_without_notice() {
        let spec = FaultSpec::calm().with_kill_rate(60.0);
        let mut cloud = faulted(AvailabilityTrace::constant(4), &spec, 7);
        cloud.request_spot(SimTime::ZERO, 4);
        let evs: Vec<(SimTime, CloudEvent)> = std::iter::from_fn(|| cloud.pop_next())
            .take_while(|&(t, _)| t <= SimTime::from_secs(3600))
            .collect();
        let failures = evs
            .iter()
            .filter(|(_, e)| matches!(e, CloudEvent::InstanceFailed { .. }))
            .count();
        assert!(failures > 0, "60/h for an hour must kill: {evs:?}");
        assert!(
            !evs.iter()
                .any(|(_, e)| matches!(e, CloudEvent::PreemptionNotice { .. })),
            "unannounced kills carry no notice: {evs:?}"
        );
    }

    #[test]
    fn lost_notices_kill_with_zero_grace() {
        // Every notice lost: the capacity drop at t=300 must surface as
        // an immediate InstanceFailed at t=300, never a notice or a
        // grace-period Preempted.
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 2), (SimTime::from_secs(300), 1)]);
        let spec = FaultSpec::calm().with_notice_loss(1.0);
        let mut cloud = faulted(trace, &spec, 7);
        cloud.request_spot(SimTime::ZERO, 2);
        let evs = drain(&mut cloud);
        let (t, failure) = evs
            .iter()
            .find(|(_, e)| matches!(e, CloudEvent::InstanceFailed { .. }))
            .expect("the shed must fail an instance");
        assert_eq!(*t, SimTime::from_secs(300), "zero grace: {failure:?}");
        assert!(
            !evs.iter().any(|(_, e)| matches!(
                e,
                CloudEvent::PreemptionNotice { .. } | CloudEvent::Preempted { .. }
            )),
            "no notice, no graceful kill: {evs:?}"
        );
        assert_eq!(cloud.live_count(InstanceKind::Spot), 1);
    }

    #[test]
    fn truncated_notices_keep_sub_grace_deadlines() {
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 2), (SimTime::from_secs(300), 0)]);
        let spec = FaultSpec::calm().with_notice_truncation(1.0);
        let mut cloud = faulted(trace, &spec, 11);
        cloud.request_spot(SimTime::ZERO, 2);
        let evs = drain(&mut cloud);
        let mut notices = 0;
        for (t, ev) in &evs {
            if let CloudEvent::PreemptionNotice { kill_at, .. } = ev {
                notices += 1;
                let grace = kill_at.saturating_since(*t);
                assert!(
                    grace < SimDuration::from_secs(30),
                    "truncated grace must undercut the configured 30 s, got {grace}"
                );
            }
        }
        assert_eq!(notices, 2, "both victims still get (late) notices");
    }

    #[test]
    fn lapsed_grants_surface_and_free_the_slot() {
        let spec = FaultSpec::calm().with_grant_lapse(1.0);
        let mut cloud = faulted(AvailabilityTrace::constant(2), &spec, 5);
        cloud.request_spot(SimTime::ZERO, 2);
        let evs = drain(&mut cloud);
        assert_eq!(evs.len(), 2);
        assert!(
            evs.iter().all(|(_, e)| matches!(
                e,
                CloudEvent::RequestLapsed {
                    kind: InstanceKind::Spot,
                    ..
                }
            )),
            "p=1 lapse grants nothing: {evs:?}"
        );
        assert_eq!(cloud.lapsed_spot(), 2);
        assert_eq!(cloud.live_count(InstanceKind::Spot), 0);
        // The slots freed: a later request provisions (and lapses) again
        // rather than queueing behind phantom capacity.
        cloud.request_spot(SimTime::from_secs(100), 1);
        assert_eq!(cloud.provisioning_spot(), 1, "the slot is free again");
    }

    #[test]
    fn degraded_link_windows_read_back() {
        let spec = FaultSpec::calm().with_degraded_link(
            SimTime::from_secs(200),
            SimTime::from_secs(500),
            0.25,
        );
        let cloud = faulted(AvailabilityTrace::constant(1), &spec, 1);
        assert_eq!(cloud.bandwidth_factor_at(SimTime::from_secs(100)), 1.0);
        assert_eq!(cloud.bandwidth_factor_at(SimTime::from_secs(300)), 0.25);
        assert_eq!(cloud.bandwidth_factor_at(SimTime::from_secs(500)), 1.0);
        let calm = sim(AvailabilityTrace::constant(1));
        assert_eq!(calm.bandwidth_factor_at(SimTime::from_secs(300)), 1.0);
    }

    #[test]
    fn faulted_replay_is_deterministic() {
        let run = || {
            let spec = FaultSpec::pack(0.7);
            let mut cloud = faulted(AvailabilityTrace::paper_as(), &spec, 13);
            cloud.request_spot(SimTime::ZERO, 8);
            let evs: Vec<(SimTime, String)> = std::iter::from_fn(|| cloud.pop_next())
                .take_while(|&(t, _)| t <= SimTime::from_secs(7200))
                .map(|(t, e)| (t, format!("{e:?}")))
                .collect();
            (
                evs,
                cloud.meter().total_usd(SimTime::from_secs(7200)).to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn priced_replay_is_deterministic() {
        let run = || {
            let model = PriceModel::Ou(crate::price::OuParams::around(1.9));
            let mut cloud = CloudSim::for_pool(
                CloudConfig::default(),
                AvailabilityTrace::paper_as(),
                11,
                crate::PoolId(2),
                Some(&model),
                None,
            );
            cloud.request_spot(SimTime::ZERO, 8);
            let evs = drain(&mut cloud);
            (
                evs.iter()
                    .map(|(t, e)| (*t, format!("{e:?}")))
                    .collect::<Vec<_>>(),
                cloud.meter().total_usd(SimTime::from_secs(1200)).to_bits(),
            )
        };
        assert_eq!(run(), run());
    }
}
