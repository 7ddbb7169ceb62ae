//! The serving system: a discrete-event simulation wiring the cloud, the
//! engine, and SpotServe's control plane (or a baseline policy) together.
//!
//! One [`ServingSystem`] run replays a spot market and a request stream
//! and produces a [`RunReport`]. The three §6.1 systems share every
//! mechanism except preemption handling, mirroring the paper's
//! same-backbone fairness setup:
//!
//! * **SpotServe** — on a preemption notice, keep decoding until just
//!   enough grace period remains (JIT arrangement), then migrate context
//!   (weights + KV cache) to the KM-optimal placement of the next
//!   configuration and *resume* interrupted batches token-exact;
//! * **Reparallelization** — same configuration optimizer, but transitions
//!   are reactive cold restarts: weights reload from storage and in-flight
//!   progress is lost;
//! * **Rerouting** — fixed `(P, M, B)`; preempted pipelines drop, their
//!   requests reroute and recompute; new pipelines cold-start.
//!
//! The code follows the server's parts (§3, Figure 3), one decision per
//! file:
//!
//! * `system/mod.rs` — the [`Scenario`], construction, the event loop, and
//!   each policy's reaction to cloud and engine events;
//! * `system/fleet.rs` — the *instance manager*: how the fleet acquires
//!   and releases capacity (Algorithm 1's delta path under `ReactiveSpot`,
//!   the fleet controller under every other policy);
//! * `system/transition.rs` — the *meta-context manager*: when and how
//!   the configuration changes (parallelization controller, device mapper,
//!   migration planner and checkpoint triage, cold restarts, Rerouting's
//!   pipeline reform);
//! * `system/engine.rs` — the *inference engines and context daemons*:
//!   which engine runs a pipeline, and how its in-flight work is
//!   checkpointed at a transition and resumed afterwards.

use std::collections::{BTreeMap, BTreeSet};

use cloudsim::{
    AvailabilityTrace, CloudConfig, CloudEvent, CloudMarket, ColdStorage, InstanceId, InstanceType,
    PoolId, PoolSpec,
};
use enginesim::{ContextDaemon, EngineCounters, PendingQueue};
use llmsim::ModelSpec;
use migration::DeviceAssignment;
use parallelism::{ParallelConfig, PerfModel};
use simkit::event::EventKey;
use simkit::{EventQueue, SimDuration, SimRng, SimTime};
use telemetry::{Recorder, TelemetryEvent, TelemetryStream};
use workload::{LatencyReport, Request, WorkloadSpec};

use fleetctl::FleetController;

use crate::config::{Policy, SystemOptions};
use crate::optimizer::{ConfigOptimizer, MultiSkuDecision, OptimizerDecision};
use crate::report::{ConfigChange, RunReport};

mod engine;
mod fleet;
mod transition;

/// A complete experiment input: model, spot market, request stream.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The model being served.
    pub model: ModelSpec,
    /// The spot market: one pool per spec (its own trace, grant delay,
    /// spot price and SKU) behind a [`CloudMarket`] arbiter. The
    /// single-trace constructors build one pool named `default`.
    pub pools: Vec<PoolSpec>,
    /// The request stream (arrival-sorted).
    pub requests: Vec<Request>,
    /// Cloud tunables (grace period, grant delays, instance type).
    pub cloud: CloudConfig,
    /// Cold-storage model for weight reloads.
    pub storage: ColdStorage,
    /// Master seed (cloud tie-breaking etc.).
    pub seed: u64,
    /// Initial arrival-rate estimate used for the warm start.
    pub initial_rate: f64,
}

impl Scenario {
    /// The paper's stable-workload setup (§6.1): Gamma arrivals with CV 6
    /// at `rate` req/s for 20 minutes, `S_in = 512`, `S_out = 128`.
    pub fn paper_stable(model: ModelSpec, trace: AvailabilityTrace, rate: f64, seed: u64) -> Self {
        let spec = WorkloadSpec::paper_stable(rate);
        let requests = spec.generate(&mut SimRng::new(seed).stream("arrivals"));
        Scenario::with_requests(model, trace, requests, rate, seed)
    }

    /// A scenario with an explicit pre-generated request stream.
    pub fn with_requests(
        model: ModelSpec,
        trace: AvailabilityTrace,
        requests: Vec<Request>,
        initial_rate: f64,
        seed: u64,
    ) -> Self {
        Scenario {
            model,
            pools: vec![PoolSpec::new("default", trace)],
            requests,
            cloud: CloudConfig::default(),
            storage: ColdStorage::default(),
            seed,
            initial_rate,
        }
    }

    /// Replaces the market with a multi-pool definition (one [`PoolSpec`]
    /// per zone).
    ///
    /// # Panics
    ///
    /// Panics if `pools` is empty.
    pub fn with_pools(mut self, pools: Vec<PoolSpec>) -> Self {
        assert!(!pools.is_empty(), "a market needs at least one pool");
        self.pools = pools;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival(usize),
    /// Fixed-batch engine: a run-to-completion batch finished.
    BatchDone {
        pipeline: u64,
    },
    /// Continuous engine: a scheduler segment reached its last iteration
    /// boundary (retire/admit point).
    IterBoundary {
        pipeline: u64,
    },
    InitDone {
        id: InstanceId,
    },
    TransitionCommit {
        epoch: u64,
    },
    TransitionDone {
        epoch: u64,
    },
    PipelineReady {
        pipeline: u64,
    },
    RateTick,
}

/// One inference pipeline (a `P × M` GPU group serving batches).
#[derive(Debug)]
struct PipelineSlot {
    /// Stable identifier (survives vector reshuffles).
    id: u64,
    daemon: ContextDaemon,
    /// Key of the pending engine event: the whole-batch completion
    /// (fixed engine) or the next iteration-boundary event (continuous).
    batch_key: Option<EventKey>,
    /// Instances this pipeline runs on (used by Rerouting teardown).
    instances: Vec<InstanceId>,
    /// The pipeline is cold-loading until this instant (Rerouting).
    ready_at: SimTime,
}

/// A reconfiguration in flight.
#[derive(Debug)]
struct Transition {
    epoch: u64,
    /// Earliest kill deadline that motivated this transition, if any.
    deadline: Option<SimTime>,
}

/// The fleet's SKU lanes: every pool maps onto one optimizer lane, in
/// first-seen SKU order across the pool list. A homogeneous fleet has one
/// lane, its base SKU, and every pool maps onto it.
#[derive(Debug)]
struct Lanes {
    /// Some pool leases a SKU other than the scenario's base type. Only
    /// two steps differ on a mixed fleet: Algorithm 1 decides jointly
    /// across lanes, and the warm start sizes against per-lane capacity.
    mixed: bool,
    /// Optimizer lane index of each pool.
    pool_lane: Vec<usize>,
    /// The lane whose SKU the serving mesh currently runs on (prices
    /// running batches and the old side of a migration).
    active: usize,
    /// The lane the latest decision's `now` config is shaped for (prices
    /// the new mesh; placement draws from this lane's pools). Becomes
    /// `active` when the configuration is adopted.
    decided: usize,
}

impl Lanes {
    /// The perf model pricing the *serving* mesh. Borrows only the lanes
    /// and the optimizer, so call sites holding disjoint `&mut` borrows of
    /// the system keep compiling.
    fn serving_perf<'a>(&self, optimizer: &'a ConfigOptimizer) -> &'a PerfModel {
        optimizer.lane_perf(self.active)
    }

    /// The perf model pricing the *decided* (incoming) mesh — differs from
    /// the serving one only mid-transition on a mixed fleet.
    fn decided_perf<'a>(&self, optimizer: &'a ConfigOptimizer) -> &'a PerfModel {
        optimizer.lane_perf(self.decided)
    }

    /// The latest decision moves the mesh to another SKU.
    fn changing(&self) -> bool {
        self.decided != self.active
    }
}

/// The discrete-event serving simulation. See the crate-level example.
pub struct ServingSystem {
    opts: SystemOptions,
    scenario: Scenario,
    optimizer: ConfigOptimizer,
    cloud: CloudMarket,
    /// Policy-driven acquisition (consulted for every non-reactive
    /// [`FleetPolicy`](fleetctl::FleetPolicy); under `ReactiveSpot` it is
    /// never asked for a command, and Algorithm 1's delta path in
    /// `manage_fleet`/`replenish_fleet` acquires instead).
    fleet: FleetController,
    /// The optimizer's most recent target fleet size `N` (serving need,
    /// excluding spares) — what the fleet controller steers toward.
    fleet_target: u32,
    events: EventQueue<Ev>,
    now: SimTime,
    epoch: u64,

    // Fleet state.
    ready: BTreeSet<InstanceId>,
    initializing: BTreeMap<InstanceId, SimTime>,
    noticed: BTreeMap<InstanceId, SimTime>,

    // Serving state.
    current: Option<ParallelConfig>,
    /// The configuration whose context is materialized on `assignment` —
    /// survives serving halts (the context daemons outlive the engines).
    context_shape: Option<ParallelConfig>,
    assignment: DeviceAssignment,
    pipelines: Vec<PipelineSlot>,
    /// Waiting requests, with the EDF dirty flag the continuous engine's
    /// admission consults (pushes dirty it, boundary sorts clear it).
    pending: PendingQueue,
    transition: Option<Transition>,
    next_pipeline_id: u64,
    /// Rate-triggered reconfigurations are suppressed until this instant
    /// (hysteresis: let the previous transition settle).
    settle_until: SimTime,
    rerouting_shape: Option<(u32, u32, u32)>, // fixed (P, M, B)
    /// The bootstrap configuration (the `-Controller` ablation pins this).
    frozen_config: Option<ParallelConfig>,
    initial_fleet_target: u32,
    /// The SKU lanes the pools map onto (see [`Lanes`]).
    lanes: Lanes,
    /// Each pool's static capability card (see `ServingSystem::pool_caps`).
    pool_caps: Vec<fleetctl::PoolCaps>,

    // Accounting.
    outstanding: usize,
    arrivals_seen: Vec<SimTime>,
    slo_rejections: Vec<Request>,
    latency: LatencyReport,
    config_changes: Vec<ConfigChange>,
    fleet_timeline: Vec<(SimTime, u32, u32)>,
    preemptions: u32,
    faults: u32,
    lapses: u32,
    grants: u32,
    arrivals_end: SimTime,
    /// Pending migration-transition event instants (commit + resume), the
    /// non-cloud synchronization points the sharded runner barriers on.
    /// Values count events sharing an instant.
    sync_points: BTreeMap<SimTime, u32>,
    /// Events processed so far (epoch-log instrumentation).
    events_processed: u64,
    /// Control-plane telemetry recorder (decisions, transitions, fleet
    /// commands, rollups). Disabled unless [`SystemOptions::telemetry`];
    /// disabled it is one branch per emit point.
    telemetry: Recorder,
    /// Admission-verdict tallies of schedulers already torn down; live
    /// schedulers' counters are added at rollup time so the cumulative
    /// totals survive detach/restore cycles.
    retired_counters: EngineCounters,
}

impl ServingSystem {
    /// Builds a system ready to [`run`](ServingSystem::run).
    pub fn new(opts: SystemOptions, scenario: Scenario) -> Self {
        let base_ty = &scenario.cloud.instance_type;
        let mem = if opts.ablation.no_migration_planner {
            // Without Algorithm 2's memory-optimized ordering, engines must
            // reserve communication buffers sized like a weight shard
            // (§6.2: this is what raises GPT-20B's minimum from 12 to 16
            // GPUs). Use the shard size at the paper's largest mesh.
            let shard = scenario.model.param_bytes() / 16;
            llmsim::MemoryModel::default().with_migration_buffer(shard)
        } else {
            llmsim::MemoryModel::default()
        };
        // The base fleet is priced on its own SKU, exactly like a lane.
        let perf = crate::optimizer::sku_perf_model(
            scenario.model.clone(),
            base_ty,
            llmsim::calibration::PAPER_S_IN,
            llmsim::calibration::PAPER_S_OUT,
        );
        let mut optimizer = ConfigOptimizer::new(
            perf,
            mem,
            base_ty.gpu,
            parallelism::ConfigSpace::default(),
            base_ty.gpus_per_instance,
            opts.max_instances,
        )
        // Algorithm 1 prices candidates with the estimator of the engine
        // that actually serves (fixed batch-fill delay vs iteration-level
        // slot turnover).
        .with_engine_mode(opts.engine);
        // One optimizer lane per distinct SKU, pools mapped onto lanes in
        // first-seen order (a pool naming no SKU leases the base type).
        let mut lane_types: Vec<&InstanceType> = Vec::new();
        let mut pool_lane = Vec::with_capacity(scenario.pools.len());
        for p in &scenario.pools {
            let ty = p.instance_type.as_ref().unwrap_or(base_ty);
            let lane = lane_types.iter().position(|&t| t == ty).unwrap_or_else(|| {
                lane_types.push(ty);
                lane_types.len() - 1
            });
            pool_lane.push(lane);
        }
        let lanes = Lanes {
            mixed: lane_types.iter().any(|&t| t != base_ty),
            pool_lane,
            active: 0,
            decided: 0,
        };
        for ty in lane_types {
            optimizer = optimizer.with_sku(ty.clone());
        }
        let mut cloud = CloudMarket::new(&scenario.cloud, &scenario.pools, scenario.seed);
        if opts.telemetry {
            cloud.enable_telemetry();
        }
        let pool_caps = ServingSystem::pool_caps(
            &cloud,
            optimizer.memory(),
            &scenario.model,
            opts.max_instances,
        );
        let fleet = FleetController::new(
            opts.fleet_policy,
            cloud.pool_count(),
            scenario.cloud.spot_grant_delay,
        );
        let name = match opts.policy {
            Policy::SpotServe => "SpotServe",
            Policy::Reparallelization => "Reparallelization",
            Policy::Rerouting => "Rerouting",
            Policy::OnDemandOnly { .. } => "OnDemand",
        };
        let arrivals_end = scenario
            .requests
            .last()
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO);
        let telemetry = if opts.telemetry {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        };
        ServingSystem {
            opts,
            optimizer,
            cloud,
            fleet,
            fleet_target: 0,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            epoch: 0,
            ready: BTreeSet::new(),
            initializing: BTreeMap::new(),
            noticed: BTreeMap::new(),
            current: None,
            context_shape: None,
            assignment: DeviceAssignment::new(),
            pipelines: Vec::new(),
            pending: PendingQueue::new(),
            transition: None,
            next_pipeline_id: 0,
            settle_until: SimTime::ZERO,
            rerouting_shape: None,
            frozen_config: None,
            initial_fleet_target: 0,
            lanes,
            pool_caps,
            outstanding: scenario.requests.len(),
            arrivals_seen: Vec::new(),
            slo_rejections: Vec::new(),
            latency: LatencyReport::new(name),
            config_changes: Vec::new(),
            fleet_timeline: Vec::new(),
            preemptions: 0,
            faults: 0,
            lapses: 0,
            grants: 0,
            arrivals_end,
            sync_points: BTreeMap::new(),
            events_processed: 0,
            telemetry,
            retired_counters: EngineCounters::default(),
            scenario,
        }
    }

    /// GPUs per instance of the SKU new configurations are shaped for (the
    /// decided lane's).
    fn gpus_per_instance(&self) -> u8 {
        self.optimizer
            .lane_type(self.lanes.decided)
            .gpus_per_instance
    }

    /// Instances usable for serving decisions: engine up, not being killed.
    fn usable(&self) -> Vec<InstanceId> {
        self.ready
            .iter()
            .copied()
            .filter(|id| !self.noticed.contains_key(id))
            .collect()
    }

    /// The SKU lane instance `id` belongs to.
    fn lane_of_instance(&self, id: InstanceId) -> usize {
        self.lanes.pool_lane[PoolId::of_instance(id).0 as usize]
    }

    /// Usable instances per lane, in lane registration order.
    fn lane_avail(&self) -> Vec<u32> {
        let mut avail = vec![0u32; self.optimizer.lane_count()];
        for id in self.usable() {
            avail[self.lane_of_instance(id)] += 1;
        }
        avail
    }

    /// Instances a new mesh may be placed on: the decided lane's usable
    /// instances (the serving mesh stays single-SKU).
    fn placement_instances(&self) -> Vec<InstanceId> {
        self.usable()
            .into_iter()
            .filter(|&id| self.lane_of_instance(id) == self.lanes.decided)
            .collect()
    }

    /// Maps a lane-annotated decision onto the single-SKU decision shape,
    /// recording the decided lane and the target lane's fleet size.
    fn apply_multi(&mut self, d: MultiSkuDecision) -> OptimizerDecision {
        if let Some((lane, _)) = d.now {
            self.lanes.decided = lane;
        }
        if let Some((lane, c)) = d.target {
            self.fleet_target =
                c.instances_needed(self.optimizer.lane_type(lane).gpus_per_instance);
        }
        OptimizerDecision {
            now: d.now.map(|(_, c)| c),
            target: d.target.map(|(_, c)| c),
            instance_delta: d.instance_delta,
        }
    }

    /// Algorithm 1 for the serving loop: the single-SKU rule with its
    /// incumbent bias on a homogeneous fleet, the joint `(SKU, C, B)`
    /// decision across lanes on a mixed one. The two rules differ (the
    /// joint one has no incumbent bias), so the flag stays.
    fn decide_serving(&mut self, n: u32, alpha: f64) -> OptimizerDecision {
        let hits_before = self.optimizer.memo_hits();
        let d = if self.lanes.mixed {
            let d = self.optimizer.decide_multi(&self.lane_avail(), alpha);
            self.apply_multi(d)
        } else {
            let d = self.optimizer.decide_with_incumbent(n, alpha, self.current);
            self.note_target(&d);
            d
        };
        self.note_decision(&d, hits_before);
        d
    }

    /// Telemetry surface of an Algorithm 1 decision: the `(SKU, C, B)`
    /// picked (or the halt verdict) and whether a memo answered it.
    fn note_decision(&mut self, d: &OptimizerDecision, memo_hits_before: u64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let memo_hit = self.optimizer.memo_hits() > memo_hits_before;
        let ev = match d.now {
            Some(c) => TelemetryEvent::Decision {
                sku: self.optimizer.lane_type(self.lanes.decided).name,
                data: c.data,
                pipe: c.pipeline,
                tensor: c.tensor,
                batch: c.batch,
                memo_hit,
            },
            None => TelemetryEvent::DecisionHalt { memo_hit },
        };
        self.telemetry.emit(self.now, ev);
    }

    /// Estimated arrival rate over the last rate-tick window (§3.2).
    fn rate_estimate(&self) -> f64 {
        let window = self.opts.rate_tick;
        let lo = SimTime::from_micros(self.now.as_micros().saturating_sub(window.as_micros() * 4));
        let recent = self
            .arrivals_seen
            .iter()
            .rev()
            .take_while(|&&t| t >= lo)
            .count();
        if self.now == SimTime::ZERO || self.arrivals_seen.is_empty() {
            return self.scenario.initial_rate;
        }
        let span = self.now.saturating_since(lo).as_secs_f64().max(1.0);
        recent as f64 / span
    }

    /// Runs the simulation to completion and reports.
    ///
    /// Seeds the event horizon, advances through every event up to the
    /// drain cap, then finalizes the report — the sharded runner drives
    /// the same three phases with barriers in between, so single-shard
    /// runs execute this exact path.
    pub fn run(mut self) -> RunReport {
        self.start();
        let hard_stop = self.hard_stop();
        self.advance_until(hard_stop);
        self.finish()
    }

    /// Seeds the event horizon: warm start, the arrival stream, and the
    /// first rate tick. Called exactly once, before any stepping.
    pub(crate) fn start(&mut self) {
        self.bootstrap();
        let arrivals: Vec<(usize, SimTime)> = self
            .scenario
            .requests
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.arrival))
            .collect();
        for (i, t) in arrivals {
            self.events.schedule(t, Ev::Arrival(i));
        }
        self.events
            .schedule(SimTime::ZERO + self.opts.rate_tick, Ev::RateTick);
    }

    /// The instant past which the drain cap stops the simulation.
    fn hard_stop(&self) -> SimTime {
        self.arrivals_end + self.opts.drain_cap
    }

    /// Processes every event at or before `barrier`, in exactly the order
    /// the sequential loop would. Returns `false` once the run is over
    /// (every request settled, the event horizon empty, or the hard stop
    /// passed) and `true` when only the barrier stopped it.
    pub(crate) fn advance_until(&mut self, barrier: SimTime) -> bool {
        let hard_stop = self.hard_stop();
        loop {
            if self.outstanding == 0 {
                return false;
            }
            let next_internal = self.events.peek_time();
            let Some(next) = next_internal
                .into_iter()
                .chain(self.cloud.peek_time())
                .min()
            else {
                return false;
            };
            if next > hard_stop {
                return false;
            }
            if next > barrier {
                return true;
            }
            self.now = next;
            self.events_processed += 1;
            // Ties go to the internal event.
            if next_internal == Some(next) {
                let (_, ev) = self.events.pop().expect("peeked");
                self.on_event(ev);
            } else {
                let (_, ev) = self.cloud.pop_next().expect("peeked");
                self.on_cloud_event(ev);
            }
        }
    }

    /// The next instant this system must synchronize with its siblings at
    /// when run as one shard of a partitioned fleet: the next market event
    /// (grant, preemption notice/kill, spot price re-quote) or pending
    /// migration-transition commit/resume. `None` when no synchronization
    /// obligations remain.
    pub(crate) fn next_sync_time(&mut self) -> Option<SimTime> {
        let transition = self.sync_points.keys().next().copied();
        self.cloud.peek_time().into_iter().chain(transition).min()
    }

    /// Events processed so far (epoch-log instrumentation).
    pub(crate) fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Registers a scheduled migration-transition event as a sync point.
    fn note_sync_point(&mut self, t: SimTime) {
        *self.sync_points.entry(t).or_insert(0) += 1;
    }

    /// Retires one sync point at `t` once its event has popped.
    fn clear_sync_point(&mut self, t: SimTime) {
        if let Some(n) = self.sync_points.get_mut(&t) {
            *n -= 1;
            if *n == 0 {
                self.sync_points.remove(&t);
            }
        }
    }

    /// Completions recorded so far (epoch-log instrumentation).
    pub(crate) fn completed_so_far(&self) -> usize {
        self.latency.completed()
    }

    /// Releases the fleet and closes the books.
    pub(crate) fn finish(mut self) -> RunReport {
        // Close the stream with a final rollup, then capture it BEFORE the
        // teardown lease releases below: those are end-of-run bookkeeping,
        // not market events, and would drag every live-floor query to zero.
        self.emit_rollups();
        let telemetry = self.telemetry.is_enabled().then(|| {
            TelemetryStream::from_sources(vec![self.cloud.take_telemetry(), self.telemetry.take()])
        });
        let ids: Vec<InstanceId> = self.cloud.fleet().map(|i| i.id).collect();
        for id in ids {
            self.cloud.release(self.now, id);
        }
        RunReport {
            cost_usd: self.cloud.total_usd(self.now),
            cost_breakdown: self.cloud.cost_breakdown(self.now),
            latency: self.latency,
            unfinished: self.outstanding,
            config_changes: self.config_changes,
            finished_at: self.now,
            preemptions: self.preemptions,
            faults: self.faults,
            lapses: self.lapses,
            grants: self.grants,
            fleet_timeline: self.fleet_timeline,
            slo_rejections: self.slo_rejections,
            telemetry,
        }
    }

    /// Warm start: the paper's runs begin with an initialized system.
    fn bootstrap(&mut self) {
        let alpha = self.scenario.initial_rate;
        self.warm_start(alpha);
        if matches!(self.opts.policy, Policy::Rerouting) {
            // Fix the model-parallel shape once (§6.1: "fixed pre-defined
            // optimal model parallel configuration").
            let d = self.optimizer.decide(self.ready.len() as u32, alpha);
            if let Some(c) = d.now.or(d.target) {
                self.rerouting_shape = Some((c.pipeline, c.tensor, c.batch));
            }
        }
        // Adopt the initial configuration at zero cost (pre-loaded).
        let n = self.ready.len() as u32;
        let decision = self.decide_serving(n, alpha);
        self.frozen_config = decision.now;
        if let Some(cfg) = self.pick_config(decision.now, n) {
            self.adopt_config(cfg, SimDuration::ZERO, 0, 0);
        }
        // A capacity-limited warm start may leave the controller policies
        // short of target: let them top up (on-demand fallback, hedge
        // spread) from t = 0.
        self.steer_fleet();
        self.sample_fleet();
    }

    /// Applies the policy's configuration constraints to a decision:
    /// Rerouting serves its fixed shape, and the `-Controller` ablation
    /// freezes the bootstrap choice. Either way only data parallelism
    /// follows the fleet (degrading when it cannot hold the shape,
    /// restoring afterwards).
    fn pick_config(&self, suggested: Option<ParallelConfig>, n: u32) -> Option<ParallelConfig> {
        let (p, m, b, max_data) = match (self.opts.policy, self.frozen_config) {
            (Policy::Rerouting, _) => {
                let (p, m, b) = self.rerouting_shape?;
                (p, m, b, u32::MAX)
            }
            (_, Some(frz)) if self.opts.ablation.no_controller => {
                (frz.pipeline, frz.tensor, frz.batch, frz.data)
            }
            _ => return suggested,
        };
        let per = ParallelConfig::new(1, p, m, b).instances_needed(self.gpus_per_instance());
        let d = (n / per).min(max_data);
        (d > 0).then(|| ParallelConfig::new(d, p, m, b))
    }

    fn on_cloud_event(&mut self, ev: CloudEvent) {
        match ev {
            CloudEvent::SpotGranted { id } | CloudEvent::OnDemandGranted { id } => {
                self.grants += 1;
                if matches!(ev, CloudEvent::SpotGranted { .. }) {
                    // Retire the oldest outstanding request deadline for
                    // this pool and reset its failure streak.
                    self.fleet.observe_grant(PoolId::of_instance(id).0 as usize);
                }
                let done = self.now + self.opts.engine_launch;
                self.initializing.insert(id, done);
                self.events.schedule(done, Ev::InitDone { id });
                self.sample_fleet();
            }
            CloudEvent::PreemptionNotice { id, kill_at } => {
                self.preemptions += 1;
                self.noticed.insert(id, kill_at);
                self.on_preemption_notice(id, kill_at);
                self.sample_fleet();
            }
            CloudEvent::Preempted { id } | CloudEvent::InstanceFailed { id } => {
                // `InstanceFailed` is an unannounced death: a chaos kill,
                // or a preemption whose notice the harness swallowed. No
                // grace window ever existed — the context on this
                // instance is gone, so take the §4.2 fault path
                // immediately with whatever survived.
                let unannounced = matches!(ev, CloudEvent::InstanceFailed { .. });
                self.faults += u32::from(unannounced);
                // Feed the per-pool churn estimator (sizes the hedge).
                self.fleet
                    .observe_kill(PoolId::of_instance(id).0 as usize, self.now);
                self.ready.remove(&id);
                self.initializing.remove(&id);
                self.noticed.remove(&id);
                self.on_instance_gone(id, unannounced);
                self.sample_fleet();
            }
            CloudEvent::RequestLapsed { pool, .. } => {
                // A promised grant never materialized (capacity shed, or
                // the chaos grant-lapse channel).
                self.lapses += 1;
                self.on_lapse(pool);
            }
            CloudEvent::SpotPriceStep { .. } => {
                // A market re-quote changes no lease; it is purely a
                // steering point. The controller re-reads every pool's
                // price card in `steer_fleet` below.
            }
        }
        // Every cloud transition is a steering point for the controller
        // policies (no-op under ReactiveSpot, which replenishes via the
        // Algorithm 1 delta path above).
        self.steer_fleet();
    }

    fn on_event(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival(i) => {
                let req = self.scenario.requests[i];
                self.arrivals_seen.push(req.arrival);
                self.pending.push_back(req);
                self.dispatch_all();
            }
            Ev::BatchDone { pipeline } => {
                if let Some(idx) = self.pipelines.iter().position(|s| s.id == pipeline) {
                    self.finish_batch(idx);
                    self.dispatch_all();
                }
            }
            Ev::IterBoundary { pipeline } => {
                if let Some(idx) = self.pipelines.iter().position(|s| s.id == pipeline) {
                    self.on_iter_boundary(idx);
                    self.dispatch_all();
                }
            }
            Ev::InitDone { id } => {
                if self.initializing.remove(&id).is_some() {
                    self.ready.insert(id);
                    self.on_instance_joined(id);
                    self.rebalance_on_demand();
                    self.sample_fleet();
                }
            }
            Ev::TransitionCommit { epoch } => {
                self.clear_sync_point(self.now);
                if self.transition.as_ref().map(|t| t.epoch) == Some(epoch) {
                    self.commit_transition();
                }
            }
            Ev::TransitionDone { epoch } => {
                self.clear_sync_point(self.now);
                if epoch == self.epoch {
                    self.dispatch_all();
                }
            }
            Ev::PipelineReady { pipeline } => {
                if let Some(slot) = self.pipelines.iter_mut().find(|s| s.id == pipeline) {
                    slot.ready_at = self.now;
                    self.dispatch_all();
                }
            }
            Ev::RateTick => {
                self.on_rate_tick();
                if self.outstanding > 0 {
                    self.events
                        .schedule(self.now + self.opts.rate_tick, Ev::RateTick);
                }
            }
        }
    }

    /// A fresh pipeline slot, cold until `ready_at`, on `instances`.
    fn new_slot(&mut self, ready_at: SimTime, instances: Vec<InstanceId>) -> PipelineSlot {
        let id = self.next_pipeline_id;
        self.next_pipeline_id += 1;
        PipelineSlot {
            id,
            daemon: ContextDaemon::new(self.scenario.model.kv_bytes_per_token()),
            batch_key: None,
            instances,
            ready_at,
        }
    }

    // ---- Policy reactions ------------------------------------------

    fn on_preemption_notice(&mut self, id: InstanceId, kill_at: SimTime) {
        // Reactive baselines do nothing until the instance is gone.
        if self.opts.policy == Policy::SpotServe {
            let involved = self.assignment.instances().contains(&id);
            if involved {
                self.plan_transition(Some(kill_at));
            } else {
                // A spare is dying: just top the pool back up.
                self.replenish_fleet();
            }
        }
    }

    /// An instance left the fleet. `unannounced` marks deaths that came
    /// with no preemption notice (chaos kills, lost notices): no JIT
    /// window ever existed, so an in-flight transition timed against the
    /// old fleet is invalidated rather than left to commit stale.
    fn on_instance_gone(&mut self, id: InstanceId, unannounced: bool) {
        let involved = self.assignment.instances().contains(&id);
        self.assignment.remove_instance(id);
        if self.assignment.is_empty() {
            self.context_shape = None;
        }
        match self.opts.policy {
            Policy::SpotServe => {
                if involved {
                    // The migration should already have moved off this
                    // instance; if not (fault case §4.2), re-plan now with
                    // whatever survived.
                    if self.transition.is_none() {
                        self.plan_transition(None);
                    } else if unannounced {
                        // Mid-transition unannounced death: the pending
                        // commit was JIT-timed against a device set that
                        // no longer exists. Abandon it and re-plan
                        // immediately with the survivors — only requests
                        // whose checkpoints lived on the dead instance
                        // lose inheritance and restart.
                        self.transition = None;
                        self.plan_transition(None);
                    }
                } else {
                    self.replenish_fleet();
                }
            }
            Policy::Reparallelization => {
                if involved {
                    self.plan_transition(None);
                } else {
                    self.replenish_fleet();
                }
            }
            Policy::Rerouting => {
                // Drop every pipeline touching this instance (slot
                // membership is authoritative, not the assignment).
                let mut touched = false;
                for pi in 0..self.pipelines.len() {
                    if self.pipelines[pi].instances.contains(&id) {
                        touched = true;
                        self.requeue_pipeline(pi);
                        let slot_id = self.pipelines[pi].id;
                        self.assignment.remove_pipeline(slot_id as u32);
                        self.pipelines[pi].instances.clear();
                        self.pipelines[pi].ready_at = SimTime::MAX;
                    }
                }
                if touched {
                    self.pipelines.retain(|s| !s.instances.is_empty());
                    self.reform_rerouting_pipelines();
                }
                self.replenish_fleet();
            }
            Policy::OnDemandOnly { .. } => {}
        }
    }

    fn on_instance_joined(&mut self, _id: InstanceId) {
        match self.opts.policy {
            Policy::SpotServe | Policy::Reparallelization => {
                if self.transition.is_none() {
                    if self.current.is_none() {
                        // Halted: any capacity is worth a transition.
                        self.plan_transition(None);
                    } else {
                        // Joining capacity is an optimization opportunity,
                        // not an emergency: apply the same hysteresis as a
                        // rate tick.
                        self.on_rate_tick_decision();
                    }
                }
            }
            Policy::Rerouting => self.reform_rerouting_pipelines(),
            Policy::OnDemandOnly { .. } => {
                if self.current.is_none() {
                    self.plan_transition(None);
                }
            }
        }
    }

    fn on_rate_tick(&mut self) {
        // Rollups ride the rate tick unconditionally: the epoch cadence of
        // the stream must not depend on transition/hysteresis state.
        self.emit_rollups();
        if self.transition.is_some() || self.now < self.settle_until {
            return;
        }
        match self.opts.policy {
            Policy::SpotServe | Policy::Reparallelization => self.on_rate_tick_decision(),
            Policy::Rerouting => {
                self.reform_rerouting_pipelines();
                self.replenish_fleet();
            }
            Policy::OnDemandOnly { .. } => {}
        }
        // Re-evaluate admission with the advanced clock: a request that
        // deferred on an idle pipeline (SLO projection inconclusive) must
        // eventually admit or turn certainly-hopeless rather than sit in
        // the queue until the drain cap.
        self.dispatch_all();
    }

    /// The hysteresis-guarded reconfiguration check shared by rate ticks
    /// and instance joins.
    fn on_rate_tick_decision(&mut self) {
        if self.transition.is_some() || self.now < self.settle_until {
            return;
        }
        let alpha = self.rate_estimate();
        let n = self.usable().len() as u32;
        let decision = self.decide_serving(n, alpha);
        let next = self.pick_config(decision.now, n);
        self.manage_fleet(decision.instance_delta);
        let lane_change = self.lanes.changing();
        if next == self.current && !lane_change {
            return;
        }
        let worthwhile = match (self.current, next) {
            (Some(cur), Some(new)) if cur.mesh_key() != new.mesh_key() || lane_change => {
                let backlog = self.pending.len();
                let cap = cur.concurrent_requests() as usize;
                // Overload: estimated rate exceeds capacity AND a real
                // queue has formed (§3.2: reconfigure when serving
                // capability is incompatible with the workload, not on
                // estimator noise). Priced with the serving engine's own
                // estimator, on each mesh's own SKU.
                let (active, decided) = (self.lanes.active, self.lanes.decided);
                let overloaded =
                    self.optimizer.lane_throughput(active, &cur) < alpha && backlog > cap;
                // Or a large predicted latency win while calm.
                let cur_l = self.optimizer.lane_latency(active, &cur, alpha);
                let new_l = self.optimizer.lane_latency(decided, &new, alpha);
                let big_win = backlog <= cap && new_l.as_secs_f64() < cur_l.as_secs_f64() * 0.7;
                overloaded || big_win
            }
            // Batch-only changes are free (a mesh key only matches within
            // one SKU's lane), and halting or leaving a halt is never
            // optional: always take them.
            _ => true,
        };
        if worthwhile {
            self.plan_transition(None);
        }
    }

    /// Emits the epoch-granular rollups: one engine rollup plus one cost
    /// rollup per pool, every counter cumulative over the run (consumers
    /// difference adjacent rollups for windows). Rides the rate tick, so
    /// stream volume is bounded by wall-clock, not by request count.
    fn emit_rollups(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let (counters, residents) = self.engine_load();
        self.telemetry.emit(
            self.now,
            TelemetryEvent::EngineRollup {
                queue_depth: self.pending.len() as u32,
                residents,
                admitted: counters.admitted,
                deferrals: counters.deferrals,
                rejected: counters.rejected,
                completed: self.latency.completed() as u64,
                tokens: self.latency.tokens_generated(),
            },
        );
        let breakdown = self.cloud.cost_breakdown(self.now);
        for pc in &breakdown.pools {
            self.telemetry.emit(
                self.now,
                TelemetryEvent::CostRollup {
                    pool: pc.pool.0,
                    sku: pc.sku,
                    spot_microusd: (pc.spot_usd * 1e6).round() as u64,
                    ondemand_microusd: (pc.ondemand_usd * 1e6).round() as u64,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::AvailabilityTrace;

    fn small_scenario(trace: AvailabilityTrace, rate: f64, seed: u64) -> Scenario {
        let mut s = Scenario::paper_stable(ModelSpec::opt_6_7b(), trace, rate, seed);
        // Shorten: keep the first 120 s of arrivals.
        s.requests.retain(|r| r.arrival < SimTime::from_secs(120));
        s
    }

    #[test]
    fn serves_everything_on_a_stable_fleet() {
        let scenario = small_scenario(AvailabilityTrace::constant(6), 1.0, 7);
        let total = scenario.requests.len();
        let mut report = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
        assert_eq!(report.unfinished, 0);
        assert_eq!(report.latency.percentiles().count, total);
        assert!(report.cost_usd > 0.0);
        assert_eq!(report.preemptions, 0);
    }

    #[test]
    fn all_policies_complete_without_preemptions() {
        for opts in [
            SystemOptions::spotserve(),
            SystemOptions::reparallelization(),
            SystemOptions::rerouting(),
            SystemOptions::on_demand_only(6),
        ] {
            let scenario = small_scenario(AvailabilityTrace::constant(6), 0.8, 11);
            let report = ServingSystem::new(opts.clone(), scenario).run();
            assert_eq!(
                report.unfinished, 0,
                "{:?} left requests unfinished",
                opts.policy
            );
        }
    }

    #[test]
    fn preemption_is_survived_by_all_policies() {
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(60), 5)]);
        for opts in [
            SystemOptions::spotserve(),
            SystemOptions::reparallelization(),
            SystemOptions::rerouting(),
        ] {
            let scenario = small_scenario(trace.clone(), 1.0, 13);
            let report = ServingSystem::new(opts.clone(), scenario).run();
            assert_eq!(report.unfinished, 0, "{:?}", opts.policy);
            assert!(report.preemptions >= 1, "{:?}", opts.policy);
        }
    }

    #[test]
    fn spotserve_beats_reparallelization_under_churn() {
        let trace = AvailabilityTrace::from_steps(vec![
            (SimTime::ZERO, 6),
            (SimTime::from_secs(40), 5),
            (SimTime::from_secs(80), 4),
        ]);
        let mut p99 = Vec::new();
        for opts in [
            SystemOptions::spotserve(),
            SystemOptions::reparallelization(),
        ] {
            let scenario = small_scenario(trace.clone(), 1.2, 17);
            let mut report = ServingSystem::new(opts, scenario).run();
            assert_eq!(report.unfinished, 0);
            p99.push(report.latency.percentiles().p99);
        }
        assert!(
            p99[0] < p99[1],
            "SpotServe P99 {} must beat Reparallelization {}",
            p99[0],
            p99[1]
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let scenario = small_scenario(AvailabilityTrace::paper_bs(), 1.0, 23);
            let mut r = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
            (
                r.latency.percentiles().mean,
                r.cost_usd,
                r.config_changes.len(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn on_demand_only_never_sees_preemption() {
        let scenario = small_scenario(AvailabilityTrace::paper_bs(), 1.0, 29);
        let report = ServingSystem::new(SystemOptions::on_demand_only(5), scenario).run();
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.unfinished, 0);
    }

    #[test]
    fn base_fleet_is_priced_on_its_own_sku() {
        // An L4 base fleet must be priced with L4 speeds, as its memory
        // feasibility already uses the L4 GPU — not the T4 calibration.
        let mut scenario = small_scenario(AvailabilityTrace::constant(6), 1.0, 7);
        scenario.cloud.instance_type = InstanceType::l4();
        let scale = llmsim::calibration::calibration_scale(&scenario.model);
        let sys = ServingSystem::new(SystemOptions::spotserve(), scenario);
        let l4 = llmsim::CostModel::for_instance_type(&InstanceType::l4()).with_scale(scale);
        assert_eq!(sys.optimizer.perf().cost_model(), &l4);
    }

    /// The tentpole's acceptance scenario in miniature: the A100 spot pool
    /// collapses, the L4 pool stays healthy, and an H100 pool offers only
    /// on-demand capacity. The system must re-serve on a *different* SKU
    /// and finish every request.
    fn mixed_sku_scenario(seed: u64) -> Scenario {
        let a100 =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(60), 0)]);
        small_scenario(AvailabilityTrace::constant(0), 0.8, seed).with_pools(vec![
            PoolSpec::new("a100", a100).with_instance_type(InstanceType::a100()),
            PoolSpec::new("l4", AvailabilityTrace::constant(6))
                .with_instance_type(InstanceType::l4()),
            PoolSpec::new("h100", AvailabilityTrace::constant(0))
                .with_instance_type(InstanceType::h100()),
        ])
    }

    #[test]
    fn mixed_sku_collapse_recovers_on_another_sku_without_loss() {
        let opts =
            SystemOptions::spotserve().with_fleet_policy(fleetctl::FleetPolicy::cost_aware_hedge());
        let report = ServingSystem::new(opts, mixed_sku_scenario(41)).run();
        assert_eq!(
            report.unfinished, 0,
            "zero request loss across the SKU switch"
        );
        assert!(report.preemptions >= 1, "the A100 collapse was observed");
        assert!(
            report
                .config_changes
                .iter()
                .any(|c| c.config.is_some() && c.at > SimTime::from_secs(60)),
            "a post-collapse configuration was adopted"
        );
        assert!(report.cost_usd > 0.0);
    }

    #[test]
    fn mixed_sku_runs_are_deterministic() {
        let run = || {
            let opts = SystemOptions::spotserve()
                .with_fleet_policy(fleetctl::FleetPolicy::cost_aware_hedge());
            let mut r = ServingSystem::new(opts, mixed_sku_scenario(43)).run();
            (
                r.latency.percentiles().mean,
                r.cost_usd.to_bits(),
                r.config_changes.len(),
                r.preemptions,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn homogeneous_pools_never_build_hetero_state() {
        // Multi-pool but single-SKU: the fleet must not count as mixed, so
        // the single-SKU decision rule runs.
        let scenario = small_scenario(AvailabilityTrace::constant(0), 0.8, 47).with_pools(vec![
            PoolSpec::new("z0", AvailabilityTrace::constant(3)),
            PoolSpec::new("z1", AvailabilityTrace::constant(3))
                .with_instance_type(cloudsim::InstanceType::g4dn_12xlarge()),
        ]);
        let sys = ServingSystem::new(
            SystemOptions::spotserve().with_fleet_policy(fleetctl::FleetPolicy::spot_hedge()),
            scenario,
        );
        assert!(!sys.lanes.mixed, "explicit base SKU is not mixed");
        assert_eq!(sys.optimizer.lane_count(), 1, "one lane: the base SKU");
        let report = sys.run();
        assert_eq!(report.unfinished, 0);
    }

    #[test]
    fn config_history_is_recorded() {
        let trace =
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(50), 4)]);
        let scenario = small_scenario(trace, 1.0, 31);
        let report = ServingSystem::new(SystemOptions::spotserve(), scenario).run();
        assert!(!report.config_changes.is_empty());
        assert!(report.config_changes[0].config.is_some());
    }
}
