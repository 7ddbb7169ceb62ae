//! The instance manager: how the fleet acquires and releases capacity.
//!
//! Two acquisition paths share this file, and the fleet policy picks one.
//! Under `ReactiveSpot`, the paper's policy, Algorithm 1's instance delta
//! drives requests on pool 0 (lines 6–10: spot, plus on-demand when
//! mixing; release on-demand first). Every other
//! [`FleetPolicy`](fleetctl::FleetPolicy) hands the decision to the
//! [`FleetController`](fleetctl::FleetController), which steers toward the
//! optimizer's target across every pool. The two paths are different
//! behaviours, not a legacy fork, so both stay; this file is the only
//! place that asks which one runs.

use cloudsim::{CloudMarket, InstanceId, InstanceKind, PoolId};
use fleetctl::{FleetView, PoolCaps, PoolView};
use llmsim::{MemoryModel, ModelSpec};
use simkit::SimTime;
use telemetry::TelemetryEvent;

use super::ServingSystem;
use crate::config::Policy;
use crate::optimizer::OptimizerDecision;

impl ServingSystem {
    /// The lease kind of live instance `id`, `None` once it has left the
    /// market.
    fn kind_of(&self, id: InstanceId) -> Option<InstanceKind> {
        self.cloud.fleet().find(|i| i.id == id).map(|i| i.kind)
    }

    /// Warm start: size and prewarm the initial fleet. The controller
    /// policies spread the target (plus spares and hedge) across pools;
    /// `ReactiveSpot` keeps the paper's single-market view of pool 0.
    pub(super) fn warm_start(&mut self, alpha: f64) {
        if let Policy::OnDemandOnly { instances } = self.opts.policy {
            let ids = self.cloud.prewarm_on_demand(instances);
            self.ready.extend(ids);
            self.initial_fleet_target = instances;
            return;
        }
        let target = if self.lanes.mixed {
            // Mixed fleet: size against per-lane pool capacities; the
            // joint decision already prices each lane's SKU.
            let mut cap = vec![0u32; self.optimizer.lane_count()];
            for (pid, &lane) in self.lanes.pool_lane.iter().enumerate() {
                cap[lane] += self.cloud.capacity_in(PoolId(pid as u32));
            }
            let d = self.optimizer.decide_multi(&cap, alpha);
            self.apply_multi(d);
            self.fleet_target
        } else {
            let cap = if self.opts.fleet_policy.is_reactive() {
                self.cloud.capacity_in(PoolId(0))
            } else {
                self.cloud.total_capacity()
            };
            let decision = self.optimizer.decide(cap, alpha);
            self.note_target(&decision);
            decision
                .target
                .map(|c| c.instances_needed(self.gpus_per_instance()))
                .unwrap_or(0)
        };
        let want = target + self.opts.spare_instances;
        let ids = if self.opts.fleet_policy.is_hedged() {
            // Hedged warm start: spread target + spares + hedge across
            // pools so no zone holds a fleet-killing share.
            let caps: Vec<u32> = (0..self.cloud.pool_count())
                .map(|i| self.cloud.capacity_in(PoolId(i as u32)))
                .collect();
            let hedge = self.fleet.hedge(target, &caps, SimTime::ZERO);
            let alloc = fleetctl::spread(want + hedge, &caps);
            alloc
                .iter()
                .enumerate()
                .flat_map(|(i, &n)| self.cloud.prewarm_spot_in(PoolId(i as u32), n))
                .collect()
        } else {
            self.cloud.prewarm_spot_in(PoolId(0), want)
        };
        self.ready.extend(ids);
        self.initial_fleet_target = want;
    }

    /// Records a spot request that lapsed in `pool`. The tracker's backoff
    /// masks the pool from hedged spreads; the reactive baseline stays
    /// paper-exact and retries blindly on its own cadence.
    pub(super) fn on_lapse(&mut self, pool: PoolId) {
        if !self.opts.fleet_policy.is_reactive() {
            let d = self.fleet.observe_lapse(pool.0 as usize, self.now);
            self.note_retry(d);
        }
    }

    /// Appends the live spot / on-demand counts (ready or initializing)
    /// to the fleet timeline.
    pub(super) fn sample_fleet(&mut self) {
        let (mut spot, mut od) = (0u32, 0u32);
        for &id in self.ready.iter().chain(self.initializing.keys()) {
            match self.kind_of(id) {
                Some(InstanceKind::Spot) => spot += 1,
                Some(InstanceKind::OnDemand) => od += 1,
                None => {}
            }
        }
        self.fleet_timeline.push((self.now, spot, od));
    }

    /// Records the optimizer's desired fleet size for the controller.
    pub(super) fn note_target(&mut self, decision: &OptimizerDecision) {
        if let Some(t) = decision.target {
            self.fleet_target = t.instances_needed(self.gpus_per_instance());
        }
    }

    /// Each pool's capability card, less its quoted spot price: a pool's
    /// SKU, the model and the fleet ceiling are fixed for the run, so
    /// [`ServingSystem::new`] builds these once and every view copies them.
    pub(super) fn pool_caps(
        cloud: &CloudMarket,
        mem: &MemoryModel,
        model: &ModelSpec,
        max_instances: u32,
    ) -> Vec<PoolCaps> {
        (0..cloud.pool_count())
            .map(|i| {
                let ty = cloud.instance_type_in(PoolId(i as u32));
                let gpus = max_instances * ty.gpus_per_instance as u32;
                PoolCaps {
                    fits_model: mem.min_gpus(model, &ty.gpu, gpus).is_some(),
                    ..PoolCaps::of(ty)
                }
            })
            .collect()
    }

    /// A point-in-time [`FleetView`] for the controller: lease-level
    /// per-pool counts from the market, plus the optimizer's target.
    fn fleet_view(&self) -> FleetView {
        let n = self.cloud.pool_count();
        let mut pools = vec![PoolView::default(); n];
        let mut live_ondemand = 0;
        for info in self.cloud.fleet() {
            match info.kind {
                InstanceKind::OnDemand => live_ondemand += 1,
                InstanceKind::Spot => {
                    let p = PoolId::of_instance(info.id).0 as usize;
                    if info.kill_at.is_some() {
                        pools[p].noticed_spot += 1;
                    } else {
                        pools[p].live_spot += 1;
                    }
                }
            }
        }
        for (i, pool) in pools.iter_mut().enumerate() {
            let pid = PoolId(i as u32);
            pool.provisioning_spot = self.cloud.provisioning_spot_in(pid);
            pool.queued_spot = self.cloud.pending_spot_in(pid);
            pool.capacity = self.cloud.capacity_in(pid);
            // Cumulative lapse count: the visible promised-but-never-
            // delivered shortfall (capacity sheds and chaos grant lapses).
            pool.lapsed_spot = self.cloud.lapsed_spot_in(pid);
            // The pool's capability/price card: price-blind policies
            // ignore it; the cost-aware hedge rungs mask and bias by it.
            pool.caps = self.pool_caps[i];
            // Dynamically priced pools quote their *current* spot price,
            // not the SKU's list price. Constant pools round to the same
            // cents as the list price, keeping their views byte-identical.
            pool.caps.spot_cents_per_hour =
                (self.cloud.spot_price_in(pid, self.now) * 100.0).round() as u32;
        }
        FleetView {
            pools,
            live_ondemand,
            pending_ondemand: self.cloud.pending_on_demand(),
            target: self.fleet_target,
            spares: self.opts.spare_instances,
        }
    }

    /// Emits the retry/escalation telemetry for one tracker decision.
    fn note_retry(&mut self, d: fleetctl::RetryDecision) {
        self.telemetry.emit(
            self.now,
            TelemetryEvent::RetryScheduled {
                pool: d.pool,
                attempt: d.attempt,
                at_us: d.until.as_micros(),
            },
        );
        if d.escalate {
            self.telemetry.emit(
                self.now,
                TelemetryEvent::RetryEscalated {
                    pool: d.pool,
                    attempts: d.attempt,
                },
            );
        }
    }

    /// Consults the fleet controller and executes its command (the
    /// acquisition path for every non-reactive
    /// [`FleetPolicy`](fleetctl::FleetPolicy)). No-op under `ReactiveSpot`
    /// and [`Policy::OnDemandOnly`].
    pub(super) fn steer_fleet(&mut self) {
        if matches!(self.opts.policy, Policy::OnDemandOnly { .. })
            || self.opts.fleet_policy.is_reactive()
        {
            return;
        }
        // Safety net for grants that vanished without even a lapse event:
        // overdue request deadlines convert to failures before the
        // controller reads its own backoff masks.
        for d in self.fleet.sweep_overdue(self.now) {
            self.note_retry(d);
        }
        let view = self.fleet_view();
        let cmd = self
            .fleet
            .command_traced(&view, self.now, &mut self.telemetry);
        if cmd.is_noop() {
            return;
        }
        for (i, &k) in cmd.cancel_spot.iter().enumerate() {
            if k > 0 {
                self.cloud.cancel_pending_spot_in(PoolId(i as u32), k);
                // Voluntary cancellations retire their deadlines without
                // counting as failures.
                self.fleet.note_cancel(i, k);
            }
        }
        for (i, &k) in cmd.spot.iter().enumerate() {
            if k > 0 {
                self.cloud.request_spot_in(self.now, PoolId(i as u32), k);
                // Every issued request is due a grant (or a lapse) within
                // the tracker's deadline window.
                self.fleet.note_request(i, k, self.now);
            }
        }
        if cmd.ondemand > 0 {
            // Cost-aware routing: the backstop lands in the named pool (and
            // inherits its SKU). Price-blind policies leave this `None`,
            // which routes to pool 0.
            let pool = PoolId(cmd.ondemand_pool.unwrap_or(0));
            self.cloud
                .request_on_demand_in(self.now, pool, cmd.ondemand);
        }
        if cmd.release > 0 {
            // Idle instances only, on-demand first (the Algorithm 1
            // line 10 release priority the controller assumes).
            self.release_surplus(cmd.release);
        }
    }

    /// Algorithm 1 lines 6-10: allocate on positive delta (on-demand and
    /// spot together when mixing), release on negative (on-demand first).
    pub(super) fn manage_fleet(&mut self, delta: i64) {
        if matches!(self.opts.policy, Policy::OnDemandOnly { .. }) {
            return;
        }
        if !self.opts.fleet_policy.is_reactive() {
            // Controller policies steer toward `fleet_target` instead of
            // chasing the raw delta.
            self.steer_fleet();
            return;
        }
        let in_flight = self.initializing.len() as u32 + self.cloud.pending_spot();
        if delta > 0 {
            let want = (delta as u32 + self.opts.spare_instances).saturating_sub(in_flight);
            if want > 0 {
                self.cloud.request_spot_in(self.now, PoolId(0), want);
            }
            if self.opts.on_demand_mixing {
                // Algorithm 1 line 8: allocate on-demand alongside spot so
                // a starved spot market does not stall serving. Cover the
                // part of the serving shortfall that spot requests are
                // still queueing for.
                let unfilled = self.cloud.pending_spot().min(delta as u32);
                let od = unfilled.saturating_sub(self.initializing_on_demand());
                if od > 0 {
                    self.cloud.request_on_demand_in(self.now, PoolId(0), od);
                }
            }
        } else if delta < 0 {
            let surplus = (-delta) as u32;
            let excess = surplus.saturating_sub(self.opts.spare_instances);
            if excess > 0 {
                self.release_surplus(excess);
            }
            self.cloud.cancel_pending_spot_in(PoolId(0), surplus);
        }
    }

    /// Tops the fleet back to the initial target (Rerouting / spares).
    pub(super) fn replenish_fleet(&mut self) {
        if matches!(self.opts.policy, Policy::OnDemandOnly { .. }) {
            return;
        }
        if !self.opts.fleet_policy.is_reactive() {
            self.steer_fleet();
            return;
        }
        let have =
            self.usable().len() as u32 + self.initializing.len() as u32 + self.cloud.pending_spot();
        if have < self.initial_fleet_target {
            let want = self.initial_fleet_target - have;
            self.cloud.request_spot_in(self.now, PoolId(0), want);
        }
        if self.opts.on_demand_mixing {
            // Cover only the serving shortfall with on-demand, never the
            // spare pool (spares are cheap-capacity insurance, §3.2).
            let unfilled = self
                .cloud
                .pending_spot()
                .saturating_sub(self.opts.spare_instances);
            let od = unfilled.saturating_sub(self.initializing_on_demand());
            if od > 0 {
                self.cloud.request_on_demand_in(self.now, PoolId(0), od);
            }
        }
    }

    /// Gives back what a just-adopted configuration does not need.
    /// Controller policies size the fleet themselves (the hedge
    /// deliberately holds more than `used + spares`, and the fallback's
    /// on-demand bridge must not be shed here).
    pub(super) fn trim_after_adopt(&mut self) {
        if !self.opts.fleet_policy.is_reactive() {
            self.steer_fleet();
            return;
        }
        self.rebalance_on_demand();
        let used = self.assignment.instances().len() as u32;
        let have = self.usable().len() as u32;
        if have > used + self.opts.spare_instances {
            self.release_surplus(have - used - self.opts.spare_instances);
        }
    }

    /// On-demand instances currently provisioning.
    fn initializing_on_demand(&self) -> u32 {
        self.initializing
            .keys()
            .filter(|&&id| self.kind_of(id) == Some(InstanceKind::OnDemand))
            .count() as u32
    }

    /// Releases held on-demand instances that spot capacity can now cover
    /// (Algorithm 1 line 10: on-demand has release priority). On-demand is
    /// kept only to bridge a spot shortfall, never as spare capacity; only
    /// idle instances are released.
    pub(super) fn rebalance_on_demand(&mut self) {
        if !self.opts.on_demand_mixing {
            return;
        }
        let needed = self
            .current
            .map(|c| c.instances_needed(self.gpus_per_instance()))
            .unwrap_or(0);
        let used = self.assignment.instances();
        let (mut spot_usable, mut od_held) = (0u32, 0u32);
        let mut idle_od = Vec::new();
        for id in self.usable() {
            match self.kind_of(id) {
                Some(InstanceKind::Spot) => spot_usable += 1,
                Some(InstanceKind::OnDemand) => {
                    od_held += 1;
                    if !used.contains(&id) {
                        idle_od.push(id);
                    }
                }
                None => {}
            }
        }
        // Of the idle on-demand instances, keep as many as the spot
        // shortfall and release the rest; busy ones are never released.
        let keep = needed.saturating_sub(spot_usable).min(od_held);
        for id in idle_od.into_iter().skip(keep as usize) {
            self.ready.remove(&id);
            self.cloud.release(self.now, id);
        }
    }

    /// Releases up to `n` instances not used by the current assignment,
    /// on-demand first (§3.2: "on-demand instances have higher priority due
    /// to their costs").
    fn release_surplus(&mut self, n: u32) {
        let used = self.assignment.instances();
        let mut idle: Vec<(bool, InstanceId)> = self
            .usable()
            .into_iter()
            .filter(|id| !used.contains(id))
            // false sorts first: on-demand first
            .map(|id| (self.kind_of(id) != Some(InstanceKind::OnDemand), id))
            .collect();
        idle.sort_unstable();
        for (_, id) in idle.into_iter().take(n as usize) {
            self.ready.remove(&id);
            self.cloud.release(self.now, id);
        }
    }
}
