//! The serving system: a discrete-event simulation wiring the cloud, the
//! engine, and SpotServe's control plane (or a baseline policy) together.
//!
//! One [`ServingSystem`] run replays an availability trace and a request
//! stream and produces a [`RunReport`]. The three §6.1 systems share every
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

use std::collections::{BTreeMap, BTreeSet};

use cloudsim::{
    AvailabilityTrace, CloudConfig, CloudEvent, CloudMarket, ColdStorage, InstanceId, InstanceKind,
    InstanceType, PoolId, PoolSpec,
};
use enginesim::{
    preemption_stop_time, recovery_worthwhile, BatchRun, ContextDaemon, EngineCounters,
    IterationScheduler, PendingQueue, RequestRun,
};
use kmatch::SkuCaps;
use llmsim::ModelSpec;
use migration::{
    evaluate_plan, plan_migration, transferable_fraction, triage, DeviceAssignment, MigrationPlan,
    MigrationTask, PlannerOptions, TriageTier,
};
use parallelism::{ParallelConfig, PerfModel};
use simkit::event::EventKey;
use simkit::{EventQueue, SimDuration, SimRng, SimTime};
use telemetry::{Recorder, TelemetryEvent, TelemetryStream, TriageVerdict};
use workload::{LatencyReport, Request, WorkloadSpec};

use fleetctl::{FleetController, FleetView, PoolCaps, PoolView};

use crate::config::{EngineMode, Policy, SystemOptions};
use crate::devicemap::{map_devices_with_skus, OldState, SkuTable};
use crate::optimizer::{ConfigOptimizer, MultiSkuDecision, OptimizerDecision};
use crate::report::{ConfigChange, RunReport};

/// A complete experiment input: model, availability trace, request stream.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The model being served.
    pub model: ModelSpec,
    /// Spot-capacity trace the cloud replays (the single-market case;
    /// ignored when [`Scenario::pools`] is non-empty).
    pub trace: AvailabilityTrace,
    /// Multi-pool market definition: when non-empty, the cloud replays
    /// one pool per spec (its own trace, grant delay, and spot price)
    /// behind a [`CloudMarket`] arbiter, and `trace` is unused.
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
        Scenario {
            model,
            trace,
            pools: Vec::new(),
            requests,
            cloud: CloudConfig::default(),
            storage: ColdStorage::default(),
            seed,
            initial_rate: rate,
        }
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
            trace,
            pools: Vec::new(),
            requests,
            cloud: CloudConfig::default(),
            storage: ColdStorage::default(),
            seed,
            initial_rate,
        }
    }

    /// Replaces the single availability trace with a multi-pool market
    /// definition (one [`PoolSpec`] per zone). With pools set, the
    /// scenario's `trace` field is unused.
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

/// In-flight work carried token-exact through a SpotServe transition into
/// a new pipeline (stateful recovery, §4).
#[derive(Clone)]
enum Carried {
    /// Fixed-batch engine: a uniform batch resumed at `committed` tokens.
    Batch(Vec<Request>, u32),
    /// Continuous engine: heterogeneous per-request records, each resumed
    /// at its own committed token.
    Records(Vec<RequestRun>),
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

/// Mixed-SKU fleet state. `None` whenever every pool leases the scenario's
/// base instance type — the single-SKU decision, pricing, and placement
/// paths then execute verbatim, keeping homogeneous replays byte-identical.
#[derive(Debug)]
struct HeteroState {
    /// Optimizer lane index of each pool (lane order = first-seen SKU
    /// order across the pool list).
    pool_lane: Vec<usize>,
    /// The lane whose SKU the serving mesh currently runs on (prices
    /// running batches and the old side of a migration).
    active_lane: usize,
    /// The lane the latest decision's `now` config is shaped for (prices
    /// the new mesh; placement draws from this lane's pools). Becomes
    /// `active_lane` when the configuration is adopted.
    decided_lane: usize,
}

/// The perf model pricing the *serving* mesh: the active lane's on a mixed
/// fleet, the base model otherwise. A free function over the two fields so
/// call sites holding disjoint `&mut` borrows of the system keep compiling.
fn serving_perf<'a>(optimizer: &'a ConfigOptimizer, hetero: &Option<HeteroState>) -> &'a PerfModel {
    match hetero {
        None => optimizer.perf(),
        Some(h) => optimizer.lane_perf(h.active_lane),
    }
}

/// The perf model pricing the *decided* (incoming) mesh — differs from
/// [`serving_perf`] only mid-transition on a mixed fleet.
fn decided_perf<'a>(optimizer: &'a ConfigOptimizer, hetero: &Option<HeteroState>) -> &'a PerfModel {
    match hetero {
        None => optimizer.perf(),
        Some(h) => optimizer.lane_perf(h.decided_lane),
    }
}

/// The capability card kmatch prices cross-SKU edges with.
fn sku_caps(ty: &InstanceType) -> SkuCaps {
    SkuCaps {
        memory_bytes: ty.gpu.memory_bytes,
        link_bandwidth: ty.net.inter_bw,
    }
}

/// The discrete-event serving simulation. See the crate-level example.
/// The grace-period triage decision attached to a migration plan (see
/// [`migration::triage`]): which tier the transferable-data fraction
/// graded into, and the fraction itself (what share of the optional
/// checkpoint data the remaining grace can move).
#[derive(Debug, Clone, Copy)]
struct CheckpointTriage {
    tier: TriageTier,
    fraction: f64,
    /// The tier an undegraded link would have earned, when a chaos
    /// degraded-link window cost a tier (the transfer stretched past the
    /// grace budget and triage downgraded instead of blowing it).
    downgraded_from: Option<TriageTier>,
}

impl CheckpointTriage {
    fn full() -> Self {
        CheckpointTriage {
            tier: TriageTier::Full,
            fraction: 1.0,
            downgraded_from: None,
        }
    }
}

/// The telemetry rendering of a triage tier.
fn verdict_of(tier: TriageTier) -> TriageVerdict {
    match tier {
        TriageTier::Full => TriageVerdict::Full,
        TriageTier::Partial => TriageVerdict::Partial,
        TriageTier::Restart => TriageVerdict::Restart,
    }
}

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
    /// Mixed-SKU fleet state; `None` on homogeneous fleets (see
    /// [`HeteroState`]).
    hetero: Option<HeteroState>,

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
        let gpus_per_instance = scenario.cloud.instance_type.gpus_per_instance;
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
        let mut optimizer = ConfigOptimizer::new(
            parallelism::PerfModel::paper_defaults(scenario.model.clone()),
            mem,
            scenario.cloud.instance_type.gpu,
            parallelism::ConfigSpace::default(),
            gpus_per_instance,
            opts.max_instances,
        )
        // Algorithm 1 prices candidates with the estimator of the engine
        // that actually serves (fixed batch-fill delay vs iteration-level
        // slot turnover).
        .with_engine_mode(opts.engine);
        // A pool leasing a different SKU than the base type turns on the
        // heterogeneous decision path: one optimizer lane per distinct SKU,
        // pools mapped onto lanes in first-seen order.
        let base_ty = &scenario.cloud.instance_type;
        let mixed = scenario
            .pools
            .iter()
            .any(|p| p.instance_type.as_ref().is_some_and(|t| t != base_ty));
        let hetero = if mixed {
            let mut lane_types: Vec<InstanceType> = Vec::new();
            let mut pool_lane = Vec::with_capacity(scenario.pools.len());
            for p in &scenario.pools {
                let ty = p.instance_type.clone().unwrap_or_else(|| base_ty.clone());
                let lane = lane_types.iter().position(|t| *t == ty).unwrap_or_else(|| {
                    lane_types.push(ty.clone());
                    lane_types.len() - 1
                });
                pool_lane.push(lane);
            }
            for ty in lane_types {
                optimizer = optimizer.with_sku(ty);
            }
            Some(HeteroState {
                pool_lane,
                active_lane: 0,
                decided_lane: 0,
            })
        } else {
            None
        };
        let mut cloud = if scenario.pools.is_empty() {
            CloudMarket::single(
                scenario.cloud.clone(),
                scenario.trace.clone(),
                scenario.seed,
            )
        } else {
            CloudMarket::new(&scenario.cloud, &scenario.pools, scenario.seed)
        };
        if opts.telemetry {
            cloud.enable_telemetry();
        }
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
            hetero,
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
    /// decided lane's on a mixed fleet, the base type's otherwise).
    fn gpus_per_instance(&self) -> u8 {
        match &self.hetero {
            None => self.scenario.cloud.instance_type.gpus_per_instance,
            Some(h) => self.optimizer.lane_type(h.decided_lane).gpus_per_instance,
        }
    }

    /// Instances usable for serving decisions: engine up, not being killed.
    fn usable(&self) -> Vec<InstanceId> {
        self.ready
            .iter()
            .copied()
            .filter(|id| !self.noticed.contains_key(id))
            .collect()
    }

    /// The SKU lane instance `id` belongs to (mixed fleets only).
    fn lane_of_instance(&self, id: InstanceId) -> usize {
        let h = self.hetero.as_ref().expect("mixed fleet");
        h.pool_lane[PoolId::of_instance(id).0 as usize]
    }

    /// Usable instances per lane, in lane registration order.
    fn lane_avail(&self) -> Vec<u32> {
        let mut avail = vec![0u32; self.optimizer.lane_count()];
        for id in self.usable() {
            avail[self.lane_of_instance(id)] += 1;
        }
        avail
    }

    /// Instances a new mesh may be placed on: every usable instance on a
    /// homogeneous fleet; the decided lane's usable instances on a mixed
    /// one (the serving mesh stays single-SKU).
    fn placement_instances(&self) -> Vec<InstanceId> {
        match &self.hetero {
            None => self.usable(),
            Some(h) => self
                .usable()
                .into_iter()
                .filter(|&id| self.lane_of_instance(id) == h.decided_lane)
                .collect(),
        }
    }

    /// Maps a lane-annotated decision onto the legacy decision shape,
    /// recording the decided lane and the target lane's fleet size.
    fn apply_multi(&mut self, d: MultiSkuDecision) -> OptimizerDecision {
        if let Some((lane, _)) = d.now {
            self.hetero.as_mut().expect("mixed fleet").decided_lane = lane;
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

    /// Algorithm 1 for the serving loop: the legacy single-SKU path on a
    /// homogeneous fleet (bit-identical to the pre-SKU system), the joint
    /// `(SKU, C, B)` decision across lanes on a mixed one.
    fn decide_serving(&mut self, n: u32, alpha: f64) -> OptimizerDecision {
        let hits_before = self.optimizer.memo_hits();
        let d = if self.hetero.is_none() {
            let d = self.optimizer.decide_with_incumbent(n, alpha, self.current);
            self.note_target(&d);
            d
        } else {
            let d = self.optimizer.decide_multi(&self.lane_avail(), alpha);
            self.apply_multi(d)
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
                sku: match &self.hetero {
                    None => self.scenario.cloud.instance_type.name,
                    Some(h) => self.optimizer.lane_type(h.decided_lane).name,
                },
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

    /// `φ(C)` of the serving mesh under its own SKU's estimator.
    fn serving_throughput(&self, c: &ParallelConfig) -> f64 {
        match &self.hetero {
            None => self.optimizer.estimated_throughput(c),
            Some(h) => self.optimizer.lane_throughput(h.active_lane, c),
        }
    }

    /// `l_req(C, α)` of a config on the serving mesh's SKU.
    fn serving_latency(&self, c: &ParallelConfig, alpha: f64) -> SimDuration {
        match &self.hetero {
            None => self.optimizer.estimated_latency(c, alpha),
            Some(h) => self.optimizer.lane_latency(h.active_lane, c, alpha),
        }
    }

    fn sample_fleet(&mut self) {
        let spot = self
            .ready
            .iter()
            .chain(self.initializing.keys())
            .filter(|id| {
                self.cloud
                    .fleet()
                    .any(|i| i.id == **id && i.kind == InstanceKind::Spot)
            })
            .count() as u32;
        let od = self
            .ready
            .iter()
            .chain(self.initializing.keys())
            .filter(|id| {
                self.cloud
                    .fleet()
                    .any(|i| i.id == **id && i.kind == InstanceKind::OnDemand)
            })
            .count() as u32;
        self.fleet_timeline.push((self.now, spot, od));
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
    /// Equivalent to [`start`](Self::start), advancing through every event
    /// up to the drain cap, then [`finish`](Self::finish) — the sharded
    /// runner drives the same three phases with barriers in between, so
    /// single-shard runs execute this exact path.
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
            let next_cloud = self.cloud.peek_time();
            let next = match (next_internal, next_cloud) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return false,
            };
            if next > hard_stop {
                return false;
            }
            if next > barrier {
                return true;
            }
            self.now = next;
            self.events_processed += 1;
            if next_cloud == Some(next) && next_internal.map(|t| next < t).unwrap_or(true) {
                let (_, ev) = self.cloud.pop_next().expect("peeked");
                self.on_cloud_event(ev);
            } else if next_internal == Some(next) {
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
        let cloud = self.cloud.peek_time();
        let transition = self.sync_points.keys().next().copied();
        match (cloud, transition) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
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
    pub(crate) fn finish(self) -> RunReport {
        let mut sys = self;
        // Close the stream with a final rollup, then capture it BEFORE the
        // teardown lease releases below: those are end-of-run bookkeeping,
        // not market events, and would drag every live-floor query to zero.
        sys.emit_rollups();
        let telemetry = sys.telemetry.is_enabled().then(|| {
            TelemetryStream::from_sources(vec![sys.cloud.take_telemetry(), sys.telemetry.take()])
        });
        let ids: Vec<InstanceId> = sys.cloud.fleet().map(|i| i.id).collect();
        for id in ids {
            sys.cloud.release(sys.now, id);
        }
        RunReport {
            cost_usd: sys.cloud.total_usd(sys.now),
            cost_breakdown: sys.cloud.cost_breakdown(sys.now),
            latency: sys.latency,
            unfinished: sys.outstanding,
            config_changes: sys.config_changes,
            finished_at: sys.now,
            preemptions: sys.preemptions,
            faults: sys.faults,
            lapses: sys.lapses,
            grants: sys.grants,
            fleet_timeline: sys.fleet_timeline,
            slo_rejections: sys.slo_rejections,
            telemetry,
        }
    }

    /// Warm start: the paper's runs begin with an initialized system.
    fn bootstrap(&mut self) {
        let alpha = self.scenario.initial_rate;
        match self.opts.policy {
            Policy::OnDemandOnly { instances } => {
                let ids = self.cloud.prewarm_on_demand(instances);
                self.ready.extend(ids);
                self.initial_fleet_target = instances;
            }
            _ => {
                // Reactive keeps the paper's single-market view (pool 0);
                // the controller policies size against every pool.
                let target = if self.hetero.is_some() {
                    // Mixed fleet: size against per-lane pool capacities;
                    // the joint decision already prices each lane's SKU.
                    let h = self.hetero.as_ref().expect("mixed fleet");
                    let mut cap = vec![0u32; self.optimizer.lane_count()];
                    for (pid, &lane) in h.pool_lane.iter().enumerate() {
                        cap[lane] += self.cloud.capacity_in(PoolId(pid as u32));
                    }
                    let d = self.optimizer.decide_multi(&cap, alpha);
                    self.apply_multi(d);
                    self.fleet_target
                } else {
                    let cap = if self.opts.fleet_policy.is_reactive() {
                        self.cloud.current_capacity()
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
                    // Hedged warm start: spread target + spares + hedge
                    // across pools so no zone holds a fleet-killing share.
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
                    self.cloud.prewarm_spot(want)
                };
                self.ready.extend(ids);
                self.initial_fleet_target = want;
            }
        }
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
        let hits_before = self.optimizer.memo_hits();
        let decision = match &self.hetero {
            None => self.optimizer.decide(n, alpha),
            Some(_) => {
                let d = self.optimizer.decide_multi(&self.lane_avail(), alpha);
                self.apply_multi(d)
            }
        };
        self.note_decision(&decision, hits_before);
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

    /// Applies the policy's configuration constraints to a decision.
    fn pick_config(&self, suggested: Option<ParallelConfig>, n: u32) -> Option<ParallelConfig> {
        match self.opts.policy {
            Policy::Rerouting => {
                let (p, m, b) = self.rerouting_shape?;
                let per =
                    ParallelConfig::new(1, p, m, b).instances_needed(self.gpus_per_instance());
                let d = n / per;
                (d > 0).then(|| ParallelConfig::new(d, p, m, b))
            }
            _ => {
                if self.opts.ablation.no_controller {
                    // The controller is frozen at the bootstrap choice: the
                    // shape never adapts; data parallelism degrades when the
                    // fleet cannot hold it and restores afterwards.
                    if let Some(frz) = self.frozen_config {
                        let per = ParallelConfig::new(1, frz.pipeline, frz.tensor, frz.batch)
                            .instances_needed(self.gpus_per_instance());
                        let d = (n / per).min(frz.data);
                        return (d > 0)
                            .then(|| ParallelConfig::new(d, frz.pipeline, frz.tensor, frz.batch));
                    }
                    suggested
                } else {
                    suggested
                }
            }
        }
    }

    fn on_cloud_event(&mut self, ev: CloudEvent) {
        match ev {
            CloudEvent::SpotGranted { id } => {
                self.grants += 1;
                // Retire the oldest outstanding request deadline for this
                // pool and reset its failure streak.
                self.fleet.observe_grant(PoolId::of_instance(id).0 as usize);
                let done = self.now + self.opts.engine_launch;
                self.initializing.insert(id, done);
                self.events.schedule(done, Ev::InitDone { id });
                self.sample_fleet();
            }
            CloudEvent::OnDemandGranted { id } => {
                self.grants += 1;
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
            CloudEvent::Preempted { id } => {
                // Feed the per-pool churn estimator (sizes the hedge).
                self.fleet
                    .observe_kill(PoolId::of_instance(id).0 as usize, self.now);
                self.ready.remove(&id);
                self.initializing.remove(&id);
                self.noticed.remove(&id);
                self.on_instance_gone(id, false);
                self.sample_fleet();
            }
            CloudEvent::InstanceFailed { id } => {
                // An unannounced death: a chaos kill, or a preemption
                // whose notice the harness swallowed. No grace window
                // ever existed — the context on this instance is gone,
                // so take the §4.2 fault path immediately with whatever
                // survived.
                self.faults += 1;
                self.fleet
                    .observe_kill(PoolId::of_instance(id).0 as usize, self.now);
                self.ready.remove(&id);
                self.initializing.remove(&id);
                self.noticed.remove(&id);
                self.on_instance_gone(id, true);
                self.sample_fleet();
            }
            CloudEvent::RequestLapsed { pool, .. } => {
                // A promised grant never materialized (capacity shed, or
                // the chaos grant-lapse channel). The tracker's backoff
                // masks the pool from hedged spreads; the reactive
                // baseline stays paper-exact and retries blindly on its
                // own cadence.
                self.lapses += 1;
                if !self.opts.fleet_policy.is_reactive() {
                    let d = self.fleet.observe_lapse(pool.0 as usize, self.now);
                    self.note_retry(d);
                }
            }
            CloudEvent::SpotPriceStep { .. } => {
                // A market re-quote changes no lease; it is purely a
                // steering point. The controller re-reads every pool's
                // price card in `steer_fleet` below.
            }
        }
        // Every cloud transition is a steering point for the controller
        // policies (no-op under ReactiveSpot, which replenishes via the
        // legacy path above).
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
                    self.complete_transition();
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

    // ---- Engine lifecycle ------------------------------------------

    /// KV-cache bytes one pipeline's engine provisions under `cfg` (the
    /// scheduler's admission budget, from [`llmsim::MemoryModel`]).
    fn pipeline_kv_budget(&self, cfg: &ParallelConfig) -> u64 {
        self.optimizer
            .memory()
            .kv_bytes_per_gpu(&self.scenario.model, cfg.pipeline, cfg.tensor)
            * cfg.gpus_per_pipeline() as u64
    }

    fn dispatch_all(&mut self) {
        match self.opts.engine {
            EngineMode::ContinuousBatching => self.dispatch_continuous(),
            EngineMode::FixedBatch => self.dispatch_fixed(),
        }
    }

    /// Fixed-batch engine: form a full batch on every idle ready pipeline
    /// and run it to completion.
    fn dispatch_fixed(&mut self) {
        let Some(cfg) = self.current else { return };
        for pi in 0..self.pipelines.len() {
            if self.pending.is_empty() {
                break;
            }
            let slot = &self.pipelines[pi];
            if slot.batch_key.is_some() || slot.ready_at > self.now {
                continue;
            }
            let id = slot.id;
            let take = (cfg.batch as usize).min(self.pending.len());
            let reqs: Vec<Request> = self.pending.drain_front(take).collect();
            let run = BatchRun::start(
                reqs,
                &cfg,
                self.now,
                serving_perf(&self.optimizer, &self.hetero),
            );
            let finish = run.finish_time();
            let key = self.events.schedule(finish, Ev::BatchDone { pipeline: id });
            let slot = &mut self.pipelines[pi];
            slot.daemon.attach(run);
            slot.batch_key = Some(key);
        }
    }

    /// Accounts requests dropped by SLO-aware admission on pipeline `pi`:
    /// a hopeless deadline is a terminal outcome, not a retry.
    fn drain_rejections(&mut self, pi: usize) {
        let Some(sched) = self.pipelines[pi].daemon.scheduler_mut() else {
            return;
        };
        for req in sched.take_rejected() {
            self.outstanding -= 1;
            self.telemetry
                .emit(self.now, TelemetryEvent::SloRejection { request: req.id.0 });
            self.slo_rejections.push(req);
        }
    }

    /// Continuous engine: admit waiting requests into each ready
    /// pipeline's iteration scheduler — immediately when the pipeline is
    /// at a boundary (or idle), otherwise by truncating the running
    /// segment to the next iteration boundary.
    fn dispatch_continuous(&mut self) {
        let Some(cfg) = self.current else { return };
        let kv_budget = self.pipeline_kv_budget(&cfg);
        let kv_bpt = self.scenario.model.kv_bytes_per_token();
        let now = self.now;
        // First pass: pipelines at a boundary (or idle) admit directly.
        for pi in 0..self.pipelines.len() {
            if self.pending.is_empty() {
                return;
            }
            if self.pipelines[pi].ready_at > self.now {
                continue;
            }
            let id = self.pipelines[pi].id;
            if self.pipelines[pi].daemon.scheduler().is_none() {
                self.pipelines[pi].daemon.attach_scheduler(
                    IterationScheduler::new(cfg, kv_bpt, kv_budget)
                        .with_prefill_chunk(self.opts.prefill_chunk),
                );
            }
            let sched = self.pipelines[pi]
                .daemon
                .scheduler_mut()
                .expect("just attached");
            if sched.next_event().is_none() {
                sched.admit(
                    &mut self.pending,
                    now,
                    serving_perf(&self.optimizer, &self.hetero),
                );
                let next = sched.next_event();
                self.drain_rejections(pi);
                if let Some(t) = next {
                    let key = self.events.schedule(t, Ev::IterBoundary { pipeline: id });
                    self.pipelines[pi].batch_key = Some(key);
                }
            }
        }
        // Second pass: find the first queued request some pipeline can
        // admit right now — skipping SLO-deferred requests in place, just
        // as the scheduler's own admission scan does, so a deferred head
        // cannot stall an admittable successor for a whole segment — and
        // truncate only the target pipeline's segment (the earliest
        // upcoming boundary among those with room); the others keep
        // decoding undisturbed. A request that fits *nowhere* ends the
        // scan: that is capacity head-blocking, unchanged from before.
        let perf = serving_perf(&self.optimizer, &self.hetero);
        let mut target: Option<(usize, Request)> = None;
        for r in self.pending.iter() {
            let mut fits_somewhere = false;
            let mut best: Option<(SimTime, usize)> = None;
            for (pi, slot) in self.pipelines.iter().enumerate() {
                if slot.ready_at > now {
                    continue;
                }
                let Some(sched) = slot.daemon.scheduler() else {
                    continue;
                };
                if !sched.fits(r) {
                    continue;
                }
                fits_somewhere = true;
                if !sched.can_admit(r, now, perf) {
                    continue; // SLO-deferred on this pipeline
                }
                if let Some(t) = sched.next_boundary_after(now) {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, pi));
                    }
                }
            }
            if let Some((_, pi)) = best {
                target = Some((pi, *r));
                break;
            }
            if !fits_somewhere {
                break;
            }
        }
        if let Some((pi, r)) = target {
            let id = self.pipelines[pi].id;
            let sched = self.pipelines[pi].daemon.scheduler_mut().expect("matched");
            if let Some(new_end) = sched.interrupt_for_admission(now, &r, perf) {
                if let Some(key) = self.pipelines[pi].batch_key.take() {
                    self.events.cancel(key);
                }
                let key = self
                    .events
                    .schedule(new_end, Ev::IterBoundary { pipeline: id });
                self.pipelines[pi].batch_key = Some(key);
            }
        }
    }

    /// Continuous engine: process one pipeline's iteration boundary —
    /// retire finished requests, admit waiting ones, reschedule.
    fn on_iter_boundary(&mut self, pipeline: usize) {
        self.pipelines[pipeline].batch_key = None;
        let now = self.now;
        let Some(sched) = self.pipelines[pipeline].daemon.scheduler_mut() else {
            return;
        };
        let retired = sched.advance(
            now,
            &mut self.pending,
            serving_perf(&self.optimizer, &self.hetero),
        );
        let next = sched.next_event();
        self.drain_rejections(pipeline);
        for request in retired {
            self.latency.record(workload::RequestOutcome {
                request,
                finished: now,
            });
            self.outstanding -= 1;
        }
        if let Some(t) = next {
            let id = self.pipelines[pipeline].id;
            let key = self.events.schedule(t, Ev::IterBoundary { pipeline: id });
            self.pipelines[pipeline].batch_key = Some(key);
        }
    }

    fn finish_batch(&mut self, pipeline: usize) {
        let slot = &mut self.pipelines[pipeline];
        slot.batch_key = None;
        if let Some(run) = slot.daemon.detach() {
            for req in run.requests() {
                self.latency.record(workload::RequestOutcome {
                    request: *req,
                    finished: self.now,
                });
                self.outstanding -= 1;
            }
        }
    }

    /// Tears down a pipeline's in-flight work, requeueing its requests at
    /// the front of the queue (recomputation path: progress is lost).
    fn requeue_pipeline(&mut self, pipeline: usize) {
        let slot = &mut self.pipelines[pipeline];
        if let Some(key) = slot.batch_key.take() {
            self.events.cancel(key);
        }
        if let Some(run) = slot.daemon.detach() {
            for req in run.requests().iter().rev() {
                self.pending.push_front(*req);
            }
        }
        if let Some(sched) = slot.daemon.detach_scheduler() {
            self.retired_counters.absorb(sched.counters());
            for req in sched.into_requests().into_iter().rev() {
                self.pending.push_front(req);
            }
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
        let lane_change = self
            .hetero
            .as_ref()
            .is_some_and(|h| h.decided_lane != h.active_lane);
        if next != self.current || lane_change {
            let worthwhile = match (self.current, next) {
                (Some(cur), Some(new)) => {
                    // Batch-only changes are free: always take them (a
                    // mesh key only matches within one SKU's lane).
                    if cur.mesh_key() == new.mesh_key() && !lane_change {
                        true
                    } else {
                        let backlog = self.pending.len();
                        let cap = cur.concurrent_requests() as usize;
                        // Overload: estimated rate exceeds capacity AND a
                        // real queue has formed (§3.2: reconfigure when
                        // serving capability is incompatible with the
                        // workload, not on estimator noise). Priced with
                        // the serving engine's own estimator.
                        let overloaded = self.serving_throughput(&cur) < alpha && backlog > cap;
                        // Or a large predicted latency win while calm.
                        let cur_l = self.serving_latency(&cur, alpha);
                        let new_l = match &self.hetero {
                            None => self.optimizer.estimated_latency(&new, alpha),
                            Some(h) => self.optimizer.lane_latency(h.decided_lane, &new, alpha),
                        };
                        let big_win =
                            backlog <= cap && new_l.as_secs_f64() < cur_l.as_secs_f64() * 0.7;
                        overloaded || big_win
                    }
                }
                _ => true,
            };
            if worthwhile {
                self.plan_transition(None);
            }
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
        let mut counters = self.retired_counters;
        let mut residents = 0u32;
        for slot in &self.pipelines {
            if let Some(s) = slot.daemon.scheduler() {
                counters.absorb(s.counters());
                residents += s.in_flight() as u32;
            } else if let Some(run) = slot.daemon.batch() {
                residents += run.requests().len() as u32;
            }
        }
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

    // ---- Fleet management ------------------------------------------

    /// Records the optimizer's desired fleet size for the controller.
    fn note_target(&mut self, decision: &OptimizerDecision) {
        if let Some(t) = decision.target {
            self.fleet_target = t.instances_needed(self.gpus_per_instance());
        }
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
            // ignore it; the cost-aware hedge rungs mask, bias and feed
            // price pressure by it.
            let ty = self.cloud.instance_type_in(pid);
            pool.caps = PoolCaps::of(ty);
            // Dynamically priced pools quote their *current* spot price,
            // not the SKU's list price. Constant pools round to the same
            // cents as the list price, keeping their views byte-identical.
            pool.caps.spot_cents_per_hour =
                (self.cloud.spot_price_in(pid, self.now) * 100.0).round() as u32;
            pool.caps.fits_model = self
                .optimizer
                .memory()
                .min_gpus(
                    &self.scenario.model,
                    &ty.gpu,
                    self.opts.max_instances * ty.gpus_per_instance as u32,
                )
                .is_some();
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
    fn steer_fleet(&mut self) {
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
            match cmd.ondemand_pool {
                // Cost-aware routing: the backstop lands in the named
                // pool (and inherits its SKU). Price-blind policies leave
                // this `None` — the legacy pool-0 path, byte-identical.
                Some(p) => self
                    .cloud
                    .request_on_demand_in(self.now, PoolId(p), cmd.ondemand),
                None => self.cloud.request_on_demand(self.now, cmd.ondemand),
            }
        }
        if cmd.release > 0 {
            // Idle instances only, on-demand first (the Algorithm 1
            // line 10 release priority the controller assumes).
            self.release_surplus(cmd.release);
        }
    }

    /// Algorithm 1 lines 6-10: allocate on positive delta (on-demand and
    /// spot together when mixing), release on negative (on-demand first).
    fn manage_fleet(&mut self, delta: i64) {
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
                self.cloud.request_spot(self.now, want);
            }
            if self.opts.on_demand_mixing {
                // Algorithm 1 line 8: allocate on-demand alongside spot so
                // a starved spot market does not stall serving. Cover the
                // part of the serving shortfall that spot requests are
                // still queueing for.
                let unfilled = self.cloud.pending_spot().min(delta as u32);
                let od_in_flight = self.initializing_on_demand();
                let od = unfilled.saturating_sub(od_in_flight);
                if od > 0 {
                    self.cloud.request_on_demand(self.now, od);
                }
            }
        } else if delta < 0 {
            let surplus = (-delta) as u32;
            let excess = surplus.saturating_sub(self.opts.spare_instances);
            if excess > 0 {
                self.release_surplus(excess);
            }
            self.cloud.cancel_pending_spot(surplus);
        }
    }

    /// Tops the fleet back to the initial target (Rerouting / spares).
    fn replenish_fleet(&mut self) {
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
            self.cloud.request_spot(self.now, want);
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
                self.cloud.request_on_demand(self.now, od);
            }
        }
    }

    /// On-demand instances currently provisioning.
    fn initializing_on_demand(&self) -> u32 {
        self.initializing
            .keys()
            .filter(|id| {
                self.cloud
                    .fleet()
                    .any(|i| i.id == **id && i.kind == InstanceKind::OnDemand)
            })
            .count() as u32
    }

    /// Releases held on-demand instances that spot capacity can now cover
    /// (Algorithm 1 line 10: on-demand has release priority). On-demand is
    /// kept only to bridge a spot shortfall, never as spare capacity.
    fn rebalance_on_demand(&mut self) {
        if !self.opts.on_demand_mixing {
            return;
        }
        let needed = self
            .current
            .map(|c| c.instances_needed(self.gpus_per_instance()))
            .unwrap_or(0);
        let usable = self.usable();
        let used = self.assignment.instances();
        let spot_usable = usable
            .iter()
            .filter(|id| {
                self.cloud
                    .fleet()
                    .any(|i| i.id == **id && i.kind == InstanceKind::Spot)
            })
            .count() as u32;
        let od_held: Vec<InstanceId> = usable
            .iter()
            .copied()
            .filter(|id| {
                self.cloud
                    .fleet()
                    .any(|i| i.id == *id && i.kind == InstanceKind::OnDemand)
            })
            .collect();
        let shortfall = needed.saturating_sub(spot_usable);
        let keep = shortfall.min(od_held.len() as u32);
        // Release idle on-demand first, then any excess.
        let mut excess: Vec<InstanceId> = od_held
            .iter()
            .copied()
            .filter(|id| !used.contains(id))
            .chain(od_held.iter().copied().filter(|id| used.contains(id)))
            .skip(keep as usize)
            .collect();
        excess.retain(|id| !used.contains(id));
        for id in excess {
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
            .map(|id| {
                let od = self
                    .cloud
                    .fleet()
                    .any(|i| i.id == id && i.kind == InstanceKind::OnDemand);
                (!od, id) // false sorts first: on-demand first
            })
            .collect();
        idle.sort_unstable();
        for (_, id) in idle.into_iter().take(n as usize) {
            self.ready.remove(&id);
            self.cloud.release(self.now, id);
        }
    }

    // ---- Transitions (SpotServe / Reparallelization) ----------------

    /// Decides the next configuration and schedules the transition: for
    /// SpotServe under a deadline, decoding continues until the JIT-arranged
    /// stop; otherwise the transition commits immediately.
    fn plan_transition(&mut self, deadline: Option<SimTime>) {
        if self.transition.is_some() {
            return;
        }
        let alpha = self.rate_estimate();
        let n = self.usable().len() as u32;
        let decision = self.decide_serving(n, alpha);
        let target = self.pick_config(decision.now, n);
        self.manage_fleet(decision.instance_delta);
        let lane_change = self
            .hetero
            .as_ref()
            .is_some_and(|h| h.decided_lane != h.active_lane);
        if target == self.current && deadline.is_none() && !lane_change {
            return;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.transition = Some(Transition { epoch, deadline });
        self.telemetry.emit(
            self.now,
            TelemetryEvent::TransitionBegin {
                epoch: epoch as u32,
                deadline_us: deadline.map(|t| t.as_micros()).unwrap_or(u64::MAX),
            },
        );
        let commit_at = match (self.opts.policy, deadline) {
            (Policy::SpotServe, Some(kill_at)) => {
                // JIT arrangement: estimate migration cost, decode until
                // just enough grace remains (§4.1).
                let est = self.estimate_migration(target);
                preemption_stop_time(self.now, kill_at, est, self.opts.migration_safety_margin)
            }
            _ => self.now,
        };
        self.events
            .schedule(commit_at, Ev::TransitionCommit { epoch });
        self.note_sync_point(commit_at);
    }

    /// The worst (minimum) chaos bandwidth multiplier across the pools
    /// hosting `instances` and the current assignment, as of now — the
    /// factor a checkpoint transfer crossing those links is slowed by.
    /// Exactly `1.0` whenever no degraded-link window is active.
    fn link_factor(&self, instances: &[InstanceId]) -> f64 {
        let mut pools: BTreeSet<u32> = BTreeSet::new();
        for &id in instances {
            pools.insert(PoolId::of_instance(id).0);
        }
        for id in self.assignment.instances() {
            pools.insert(PoolId::of_instance(id).0);
        }
        pools
            .iter()
            .map(|&p| self.cloud.bandwidth_factor_in(PoolId(p), self.now))
            .fold(1.0, f64::min)
    }

    /// Stretches a transfer duration by a degraded-link factor. The
    /// `factor == 1.0` guard keeps faults-off timelines bit-exact (no
    /// float round-trip on the clean path).
    fn stretch(d: SimDuration, factor: f64) -> SimDuration {
        if factor < 1.0 {
            SimDuration::from_secs_f64(d.as_secs_f64() / factor)
        } else {
            d
        }
    }

    /// Rough migration-time estimate for JIT arrangement (recomputed
    /// exactly at commit time). Accounts for any active degraded-link
    /// window: a slowed transfer needs the decode loop to stop earlier.
    fn estimate_migration(&self, target: Option<ParallelConfig>) -> SimDuration {
        let Some(cfg) = target else {
            return SimDuration::ZERO;
        };
        let usable = self.placement_instances();
        let needed = cfg.instances_needed(self.gpus_per_instance()) as usize;
        if usable.len() < needed {
            return SimDuration::ZERO;
        }
        let (plan, _, _) = self.build_plan(cfg, &usable, SimTime::MAX);
        let tl = evaluate_plan(
            &plan,
            decided_perf(&self.optimizer, &self.hetero)
                .cost_model()
                .net(),
            &self.scenario.storage,
        );
        Self::stretch(tl.total, self.link_factor(&usable))
    }

    /// Builds the migration task + plan toward `cfg` on `instances`,
    /// triaging the checkpoint when the `deadline` cannot fit the full
    /// plan (§4.2 fault tolerance, graded by the transferable-data
    /// fraction — see [`migration::triage`]). Returns the plan, the
    /// device-map outcome, and the triage decision the commit must apply
    /// to carried requests.
    fn build_plan(
        &self,
        cfg: ParallelConfig,
        instances: &[InstanceId],
        deadline: SimTime,
    ) -> (
        MigrationPlan,
        crate::devicemap::DeviceMapOutcome,
        CheckpointTriage,
    ) {
        let stateful = !self.opts.ablation.no_interruption_arranger;
        let cache_bytes: Vec<u64> = self
            .pipelines
            .iter()
            .map(|s| {
                if stateful {
                    s.daemon.cache_bytes_at(self.now)
                } else {
                    0
                }
            })
            .collect();
        let progress: Vec<u32> = self
            .pipelines
            .iter()
            .map(|s| s.daemon.committed_iters_at(self.now))
            .collect();
        let old = OldState {
            config_and_assignment: self.context_shape.map(|c| (c, self.assignment.clone())),
            cache_bytes_per_pipeline: cache_bytes.clone(),
            progress_per_pipeline: progress,
        };
        // On a mixed fleet the mapper prices edges with each SKU's
        // capability card: forbidden where the shard exceeds the target
        // GPU's memory, discounted where the reuse crosses into a slower
        // fabric. Homogeneous fleets pass no table — the legacy matrix.
        let caps_of =
            |id: InstanceId| sku_caps(self.cloud.instance_type_in(PoolId::of_instance(id)));
        let table = self.hetero.as_ref().map(|h| {
            let src_lane = self
                .assignment
                .instances()
                .first()
                .map(|&id| self.lane_of_instance(id))
                .unwrap_or(h.active_lane);
            SkuTable {
                caps_of: &caps_of,
                src: sku_caps(self.optimizer.lane_type(src_lane)),
                required_bytes_per_gpu: self.optimizer.memory().required_bytes_per_gpu(
                    &self.scenario.model,
                    cfg.pipeline,
                    cfg.tensor,
                ),
            }
        });
        let outcome = map_devices_with_skus(
            &self.scenario.model,
            &cfg,
            instances,
            self.gpus_per_instance(),
            &old,
            !self.opts.ablation.no_device_mapper,
            table.as_ref(),
        );
        let planner_opts = PlannerOptions {
            memory_optimized: !self.opts.ablation.no_migration_planner,
            progressive: !self.opts.ablation.no_migration_planner,
            ..PlannerOptions::default()
        };
        let mut task = MigrationTask {
            model: self.scenario.model.clone(),
            old_config: self.context_shape.unwrap_or(cfg),
            new_config: cfg,
            old_assignment: self.assignment.clone(),
            new_assignment: outcome.assignment.clone(),
            cache_bytes_per_pipeline: cache_bytes,
            pipeline_inheritance: outcome.inheritance.clone(),
        };
        let net = decided_perf(&self.optimizer, &self.hetero)
            .cost_model()
            .net();
        let plan = plan_migration(&task, &planner_opts);
        let tl = evaluate_plan(&plan, net, &self.scenario.storage);
        // A chaos degraded-link window stretches the transfer: triage
        // against the *effective* timeline, so a mid-grace slowdown
        // downgrades the tier instead of blowing the deadline.
        let factor = self.link_factor(instances);
        if self.now + Self::stretch(tl.total, factor) <= deadline {
            return (plan, outcome, CheckpointTriage::full());
        }
        // Grace too short for the full checkpoint: grade what the budget
        // *can* move against the weights-only floor and triage — full
        // migration, partial checkpoint, or restart (§4.2, refined by the
        // ≥80% / 30–80% / <30% transferable-fraction rule).
        let full_cache = task.cache_bytes_per_pipeline.clone();
        let full_inherit = task.pipeline_inheritance.clone();
        task.cache_bytes_per_pipeline = vec![0; full_cache.len()];
        task.pipeline_inheritance = vec![None; cfg.data as usize];
        let zero_plan = plan_migration(&task, &planner_opts);
        let t_zero = evaluate_plan(&zero_plan, net, &self.scenario.storage).total;
        let budget = deadline.saturating_since(self.now);
        let fraction = transferable_fraction(
            budget,
            Self::stretch(t_zero, factor),
            Self::stretch(tl.total, factor),
        );
        let tier = triage(fraction);
        // The tier an undegraded link would have earned: when the
        // slowdown cost a tier, the commit reports the downgrade.
        let clean_tier = if factor < 1.0 {
            if self.now + tl.total <= deadline {
                TriageTier::Full
            } else {
                triage(transferable_fraction(budget, t_zero, tl.total))
            }
        } else {
            tier
        };
        let tri = CheckpointTriage {
            tier,
            fraction,
            downgraded_from: (tier < clean_tier).then_some(clean_tier),
        };
        match tri.tier {
            // Nearly everything fits: accept the small overrun and move
            // the complete checkpoint (the fault path re-plans if the
            // kill truly lands first).
            TriageTier::Full => (plan, outcome, tri),
            // Move the deepest `fraction` of each pipeline's cache;
            // inheritance survives, shallow requests recompute.
            TriageTier::Partial => {
                task.cache_bytes_per_pipeline = full_cache
                    .iter()
                    .map(|&b| (b as f64 * fraction) as u64)
                    .collect();
                task.pipeline_inheritance = full_inherit;
                let plan = plan_migration(&task, &planner_opts);
                (plan, outcome, tri)
            }
            // Not worth the budget: weights only, all context abandoned.
            TriageTier::Restart => {
                let mut outcome = outcome;
                outcome.inheritance = vec![None; cfg.data as usize];
                (zero_plan, outcome, tri)
            }
        }
    }

    /// Executes the transition decided earlier: freeze engines, migrate or
    /// restart, schedule completion.
    fn commit_transition(&mut self) {
        let Some(tr) = self.transition.as_ref() else {
            return;
        };
        let deadline = tr.deadline;
        let t_epoch = tr.epoch as u32;
        // Re-decide with the fleet as of now (it may have changed while
        // decoding through the grace period).
        let alpha = self.rate_estimate();
        let n = self.usable().len() as u32;
        let decision = self.decide_serving(n, alpha);
        let target = self.pick_config(decision.now, n);
        let lane_change = self
            .hetero
            .as_ref()
            .is_some_and(|h| h.decided_lane != h.active_lane);

        // Batch-size-only change: same mesh, nothing to migrate — adopt
        // instantly without touching running batches or resident context.
        // A mesh key only matches within one SKU: crossing lanes always
        // migrates.
        if let (Some(cur), Some(cfg)) = (self.current, target) {
            if cur.mesh_key() == cfg.mesh_key() && cur != cfg && !lane_change {
                self.current = Some(cfg);
                self.context_shape = Some(cfg);
                // Running schedulers adopt the new batch capacity in place.
                for slot in &mut self.pipelines {
                    if let Some(s) = slot.daemon.scheduler_mut() {
                        s.set_config(cfg);
                    }
                }
                self.config_changes.push(ConfigChange {
                    at: self.now,
                    config: Some(cfg),
                    pause: SimDuration::ZERO,
                    migrated_bytes: 0,
                    reloaded_bytes: 0,
                });
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::TransitionCommit {
                        epoch: t_epoch,
                        verdict: TriageVerdict::Full,
                        fraction_ppm: 1_000_000,
                        migrated_bytes: 0,
                        reloaded_bytes: 0,
                        pause_us: 0,
                    },
                );
                self.transition = None;
                self.dispatch_all();
                return;
            }
            if cur == cfg && deadline.is_none() && !lane_change {
                self.transition = None;
                return;
            }
        }

        let Some(cfg) = target else {
            // Nothing feasible: drop all batches and halt serving; the
            // context daemons keep the model context resident for reuse.
            for pi in 0..self.pipelines.len() {
                self.requeue_pipeline(pi);
            }
            self.pipelines.clear();
            self.current = None;
            self.config_changes.push(ConfigChange {
                at: self.now,
                config: None,
                pause: SimDuration::ZERO,
                migrated_bytes: 0,
                reloaded_bytes: 0,
            });
            self.telemetry
                .emit(self.now, TelemetryEvent::TransitionHalt { epoch: t_epoch });
            self.transition = None;
            return;
        };

        match self.opts.policy {
            Policy::SpotServe => {
                let usable = self.placement_instances();
                let (plan, outcome, tri) =
                    self.build_plan(cfg, &usable, deadline.unwrap_or(SimTime::MAX));
                let net = *decided_perf(&self.optimizer, &self.hetero)
                    .cost_model()
                    .net();
                let tl = evaluate_plan(&plan, &net, &self.scenario.storage);
                // Stage step for progressive overlap: one stage's share of
                // a prefill pass (the incoming mesh's SKU sets the pace).
                let perf = decided_perf(&self.optimizer, &self.hetero);
                let (s_in, _) = perf.sequence_shape();
                let stage_step = perf.cost_model().prefill_time(
                    &self.scenario.model,
                    cfg.pipeline,
                    cfg.tensor,
                    cfg.batch,
                    s_in,
                ) / cfg.pipeline as u64;
                let pause = if self.opts.ablation.no_migration_planner {
                    tl.total
                } else {
                    tl.effective_pause(stage_step)
                };
                // The transfer physically crosses the (possibly degraded)
                // links: the serving pause stretches with them.
                let pause = Self::stretch(pause, self.link_factor(&usable));
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::TransitionCommit {
                        epoch: t_epoch,
                        verdict: verdict_of(tri.tier),
                        fraction_ppm: (tri.fraction * 1e6).round() as u32,
                        migrated_bytes: tl.network_bytes,
                        reloaded_bytes: tl.storage_bytes,
                        pause_us: pause.as_micros(),
                    },
                );
                if let Some(from) = tri.downgraded_from {
                    self.telemetry.emit(
                        self.now,
                        TelemetryEvent::TriageDowngrade {
                            epoch: t_epoch,
                            from: verdict_of(from),
                            to: verdict_of(tri.tier),
                        },
                    );
                }

                // Freeze pipelines, preserving progress where the cache
                // migrates (stateful recovery) and requeueing the rest.
                let keep: Vec<bool> = outcome
                    .inheritance
                    .iter()
                    .map(|inh| inh.is_some())
                    .collect();
                let mut carried: Vec<Option<Carried>> = vec![None; cfg.data as usize];
                for pi in 0..self.pipelines.len() {
                    let inherit_to = outcome
                        .inheritance
                        .iter()
                        .position(|inh| *inh == Some(pi as u32));
                    let slot = &mut self.pipelines[pi];
                    if let Some(key) = slot.batch_key.take() {
                        self.events.cancel(key);
                    }
                    // Fixed-batch engine: a monolithic batch at uniform
                    // progress.
                    if let Some(run) = slot.daemon.detach() {
                        let committed = run.committed_iters_at(self.now);
                        let finished = run.finished_at(self.now);
                        if finished {
                            for req in run.requests() {
                                self.latency.record(workload::RequestOutcome {
                                    request: *req,
                                    finished: self.now,
                                });
                                self.outstanding -= 1;
                            }
                            continue;
                        }
                        // Partial triage moved only `fraction` of the
                        // cache: the batch resumes from the matching
                        // (token-exact) shallower depth.
                        let committed = match tri.tier {
                            TriageTier::Partial => (f64::from(committed) * tri.fraction) as u32,
                            _ => committed,
                        };
                        let worthwhile = recovery_worthwhile(
                            tl.total,
                            run.finish_time().saturating_since(run.started()),
                            run.iter_time(),
                            committed,
                        );
                        match inherit_to {
                            Some(d_new)
                                if keep[d_new]
                                    && committed > 0
                                    && worthwhile
                                    && !self.opts.ablation.no_interruption_arranger =>
                            {
                                carried[d_new] =
                                    Some(Carried::Batch(run.requests().to_vec(), committed));
                            }
                            _ => {
                                for req in run.requests().iter().rev() {
                                    self.pending.push_front(*req);
                                }
                            }
                        }
                        continue;
                    }
                    // Continuous engine: a heterogeneous in-flight set,
                    // checkpointed token-exact per request.
                    let Some(mut sched) = self.pipelines[pi].daemon.detach_scheduler() else {
                        continue;
                    };
                    self.retired_counters.absorb(sched.counters());
                    let records = sched.freeze(self.now);
                    let mut live: Vec<RequestRun> = Vec::new();
                    for r in records {
                        if r.is_done() {
                            // Last token committed exactly at the freeze.
                            self.latency.record(workload::RequestOutcome {
                                request: *r.request(),
                                finished: self.now,
                            });
                            self.outstanding -= 1;
                        } else {
                            live.push(r);
                        }
                    }
                    // Anything with cached tokens — committed output *or*
                    // prefill chunks of a half-prefilled prompt — is a
                    // checkpoint worth considering; truly fresh requests
                    // (no KV yet) recompute via the queue.
                    let progressed: Vec<RequestRun> = live
                        .iter()
                        .copied()
                        .filter(RequestRun::has_progress)
                        .collect();
                    // Partial triage: the plan moves only `fraction` of
                    // this pipeline's cache, so carry the deepest
                    // checkpoints that fit that share (ties broken by
                    // arrival order); the rest recompute via the queue.
                    let progressed: Vec<RequestRun> = match tri.tier {
                        TriageTier::Partial => {
                            let cached = |r: &RequestRun| u64::from(r.prefilled() + r.committed());
                            let total: u64 = progressed.iter().map(cached).sum();
                            let budget = (total as f64 * tri.fraction) as u64;
                            let mut order: Vec<usize> = (0..progressed.len()).collect();
                            order.sort_by_key(|&i| (std::cmp::Reverse(cached(&progressed[i])), i));
                            let mut keep_rec = vec![false; progressed.len()];
                            let mut used = 0u64;
                            for &i in &order {
                                let c = cached(&progressed[i]);
                                if used + c <= budget {
                                    used += c;
                                    keep_rec[i] = true;
                                }
                            }
                            progressed
                                .iter()
                                .enumerate()
                                .filter_map(|(i, r)| keep_rec[i].then_some(*r))
                                .collect()
                        }
                        _ => progressed,
                    };
                    // The paper's recovery guard, applied to the deepest
                    // request: migrating the cache must beat recomputing
                    // the committed tokens under the new configuration.
                    let max_committed = progressed
                        .iter()
                        .map(RequestRun::committed)
                        .max()
                        .unwrap_or(0);
                    let max_prefilled = progressed
                        .iter()
                        .map(RequestRun::prefilled)
                        .max()
                        .unwrap_or(0);
                    let worthwhile = !progressed.is_empty() && {
                        let n = progressed.len() as u32;
                        let s_in = progressed
                            .iter()
                            .map(|r| r.request().s_in)
                            .max()
                            .expect("non-empty");
                        let cost = decided_perf(&self.optimizer, &self.hetero).cost_model();
                        let prefill = cost.prefill_time(
                            &self.scenario.model,
                            cfg.pipeline,
                            cfg.tensor,
                            n,
                            s_in,
                        );
                        let iter = cost.decode_time(
                            &self.scenario.model,
                            cfg.pipeline,
                            cfg.tensor,
                            n,
                            s_in + max_committed / 2,
                        );
                        if max_committed > 0 {
                            recovery_worthwhile(tl.total, prefill, iter, max_committed)
                        } else {
                            // Only prefill chunks are cached: migrating the
                            // partial cache must beat redoing the deepest
                            // prefill's cached share.
                            let redo = prefill * max_prefilled as u64 / s_in.max(1) as u64;
                            tl.total < redo
                        }
                    };
                    match inherit_to {
                        Some(d_new)
                            if keep[d_new]
                                && worthwhile
                                && !self.opts.ablation.no_interruption_arranger =>
                        {
                            // Carry the cached requests; fresh ones (no
                            // KV yet) and triaged-out checkpoints
                            // recompute via the queue.
                            let carried_ids: BTreeSet<workload::RequestId> =
                                progressed.iter().map(|r| r.request().id).collect();
                            for r in live
                                .iter()
                                .rev()
                                .filter(|r| !carried_ids.contains(&r.request().id))
                            {
                                self.pending.push_front(*r.request());
                            }
                            carried[d_new] = Some(Carried::Records(progressed));
                        }
                        _ => {
                            for r in live.iter().rev() {
                                self.pending.push_front(*r.request());
                            }
                        }
                    }
                }
                self.pipelines.clear();
                self.adopt_config_with_carry(
                    cfg,
                    outcome.assignment,
                    pause,
                    tl.network_bytes,
                    tl.storage_bytes,
                    carried,
                );
            }
            Policy::Reparallelization | Policy::OnDemandOnly { .. } => {
                // Cold restart: requeue everything, reload from storage.
                for pi in 0..self.pipelines.len() {
                    self.requeue_pipeline(pi);
                }
                self.pipelines.clear();
                let instances = cfg.instances_needed(self.gpus_per_instance());
                let pause = self.opts.engine_launch
                    + self
                        .scenario
                        .storage
                        .load_time(self.scenario.model.param_bytes(), instances);
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::TransitionCommit {
                        epoch: t_epoch,
                        verdict: TriageVerdict::Restart,
                        fraction_ppm: 0,
                        migrated_bytes: 0,
                        reloaded_bytes: self.scenario.model.param_bytes(),
                        pause_us: pause.as_micros(),
                    },
                );
                let usable = self.placement_instances();
                let gpus: Vec<cloudsim::GpuRef> = usable
                    .iter()
                    .flat_map(|&i| {
                        (0..self.gpus_per_instance()).map(move |s| cloudsim::GpuRef::new(i, s))
                    })
                    .collect();
                let assignment = DeviceAssignment::contiguous(&cfg, &gpus);
                self.adopt_config_with_carry(
                    cfg,
                    assignment,
                    pause,
                    0,
                    self.scenario.model.param_bytes(),
                    vec![None; cfg.data as usize],
                );
            }
            Policy::Rerouting => unreachable!("rerouting does not use global transitions"),
        }
    }

    fn adopt_config(
        &mut self,
        cfg: ParallelConfig,
        pause: SimDuration,
        migrated: u64,
        reloaded: u64,
    ) {
        let usable = self.placement_instances();
        let gpus: Vec<cloudsim::GpuRef> = usable
            .iter()
            .flat_map(|&i| (0..self.gpus_per_instance()).map(move |s| cloudsim::GpuRef::new(i, s)))
            .collect();
        let assignment = DeviceAssignment::contiguous(&cfg, &gpus);
        self.adopt_config_with_carry(
            cfg,
            assignment,
            pause,
            migrated,
            reloaded,
            vec![None; cfg.data as usize],
        );
        if matches!(self.opts.policy, Policy::Rerouting) {
            // Track per-pipeline instances for teardown.
            self.index_rerouting_instances();
        }
    }

    fn adopt_config_with_carry(
        &mut self,
        cfg: ParallelConfig,
        assignment: DeviceAssignment,
        pause: SimDuration,
        migrated: u64,
        reloaded: u64,
        carried: Vec<Option<Carried>>,
    ) {
        self.epoch += 1;
        // The decided SKU's mesh takes over: pricing follows it from here.
        if let Some(h) = &mut self.hetero {
            h.active_lane = h.decided_lane;
        }
        let resume_at = self.now + pause;
        self.current = Some(cfg);
        self.context_shape = Some(cfg);
        self.assignment = assignment;
        self.pipelines = (0..cfg.data)
            .map(|_| {
                let id = self.next_pipeline_id;
                self.next_pipeline_id += 1;
                PipelineSlot {
                    id,
                    daemon: ContextDaemon::new(self.scenario.model.kv_bytes_per_token()),
                    batch_key: None,
                    instances: Vec::new(),
                    ready_at: resume_at,
                }
            })
            .collect();
        // Resume carried work (stateful recovery).
        for (d, carry) in carried.into_iter().enumerate() {
            match carry {
                None => continue,
                Some(Carried::Batch(mut reqs, committed)) => {
                    // Shrinking capacity (§3.3 footnote 2): the new
                    // configuration holds fewer concurrent requests;
                    // discard the excess cache and requeue those requests
                    // for recomputation.
                    if reqs.len() > cfg.batch as usize {
                        for req in reqs.split_off(cfg.batch as usize).into_iter().rev() {
                            self.pending.push_front(req);
                        }
                    }
                    let run = if committed == 0 {
                        BatchRun::start(
                            reqs,
                            &cfg,
                            resume_at,
                            serving_perf(&self.optimizer, &self.hetero),
                        )
                    } else {
                        BatchRun::resume(
                            reqs,
                            &cfg,
                            resume_at,
                            serving_perf(&self.optimizer, &self.hetero),
                            committed,
                        )
                    };
                    let finish = run.finish_time();
                    let id = self.pipelines[d].id;
                    let key = self.events.schedule(finish, Ev::BatchDone { pipeline: id });
                    self.pipelines[d].daemon.attach(run);
                    self.pipelines[d].batch_key = Some(key);
                }
                Some(Carried::Records(records)) => {
                    // Shrink handling for a heterogeneous set (§3.3
                    // footnote 2): the scheduler applies its own admission
                    // rule, keeping the deepest-progress records within
                    // the new capacity and KV budget; the rest requeue for
                    // recomputation.
                    let (sched, dropped) = IterationScheduler::new(
                        cfg,
                        self.scenario.model.kv_bytes_per_token(),
                        self.pipeline_kv_budget(&cfg),
                    )
                    .with_prefill_chunk(self.opts.prefill_chunk)
                    .restore_within_budget(
                        records,
                        resume_at,
                        serving_perf(&self.optimizer, &self.hetero),
                    );
                    for req in dropped.into_iter().rev() {
                        self.pending.push_front(req);
                    }
                    let Some(finish) = sched.next_event() else {
                        continue;
                    };
                    let id = self.pipelines[d].id;
                    let key = self
                        .events
                        .schedule(finish, Ev::IterBoundary { pipeline: id });
                    self.pipelines[d].daemon.attach_scheduler(sched);
                    self.pipelines[d].batch_key = Some(key);
                }
            }
        }
        self.config_changes.push(ConfigChange {
            at: resume_at,
            config: Some(cfg),
            pause,
            migrated_bytes: migrated,
            reloaded_bytes: reloaded,
        });
        self.settle_until = resume_at + self.opts.rate_tick;
        let epoch = self.epoch;
        self.transition = None;
        self.events
            .schedule(resume_at, Ev::TransitionDone { epoch });
        self.note_sync_point(resume_at);
        // Give back what the new configuration does not need. Controller
        // policies size the fleet themselves (the hedge deliberately holds
        // more than `used + spares`, and the fallback's on-demand bridge
        // must not be shed here).
        if self.opts.fleet_policy.is_reactive() {
            self.rebalance_on_demand();
            let used = self.assignment.instances().len() as u32;
            let have = self.usable().len() as u32;
            if have > used + self.opts.spare_instances {
                self.release_surplus(have - used - self.opts.spare_instances);
            }
        } else {
            self.steer_fleet();
        }
    }

    fn complete_transition(&mut self) {
        self.dispatch_all();
    }

    // ---- Rerouting specifics -----------------------------------------

    fn index_rerouting_instances(&mut self) {
        let Some(cfg) = self.current else { return };
        let mut rekeyed = DeviceAssignment::new();
        for (d, slot) in self.pipelines.iter_mut().enumerate() {
            let mut insts: Vec<InstanceId> = Vec::new();
            for pos in cfg.positions().filter(|p| p.pipeline == d as u32) {
                if let Some(gpu) = self.assignment.gpu_at(pos) {
                    insts.push(gpu.instance);
                    // Re-key into the slot-id namespace (see reform).
                    rekeyed.insert(
                        parallelism::MeshPosition::new(slot.id as u32, pos.stage, pos.shard),
                        gpu,
                    );
                }
            }
            insts.sort_unstable();
            insts.dedup();
            slot.instances = insts;
        }
        self.assignment = rekeyed;
    }

    /// Forms new Rerouting pipelines from idle ready instances, cold.
    fn reform_rerouting_pipelines(&mut self) {
        let Some((p, m, b)) = self.rerouting_shape else {
            return;
        };
        let shape = ParallelConfig::new(1, p, m, b);
        let per = shape.instances_needed(self.gpus_per_instance());
        loop {
            let used: BTreeSet<InstanceId> = self
                .pipelines
                .iter()
                .flat_map(|s| s.instances.iter().copied())
                .collect();
            let idle: Vec<InstanceId> = self
                .usable()
                .into_iter()
                .filter(|id| !used.contains(id))
                .collect();
            if (idle.len() as u32) < per {
                break;
            }
            let chosen: Vec<InstanceId> = idle.into_iter().take(per as usize).collect();
            // Cold pipeline: engine relaunch + weight load for one replica.
            let ready_at = self.now
                + self.opts.engine_launch
                + self
                    .scenario
                    .storage
                    .load_time(self.scenario.model.param_bytes(), per);
            let gpus: Vec<cloudsim::GpuRef> = chosen
                .iter()
                .flat_map(|&i| {
                    (0..self.gpus_per_instance()).map(move |s| cloudsim::GpuRef::new(i, s))
                })
                .collect();
            let id = self.next_pipeline_id;
            self.next_pipeline_id += 1;
            // Extend the assignment with this pipeline's positions, using
            // the slot id as the pipeline namespace so reformations never
            // clobber a surviving pipeline's bindings.
            for (pos, gpu) in shape.positions().zip(&gpus) {
                let pos = parallelism::MeshPosition::new(id as u32, pos.stage, pos.shard);
                self.assignment.insert(pos, *gpu);
            }
            self.pipelines.push(PipelineSlot {
                id,
                daemon: ContextDaemon::new(self.scenario.model.kv_bytes_per_token()),
                batch_key: None,
                instances: chosen,
                ready_at,
            });
            self.events
                .schedule(ready_at, Ev::PipelineReady { pipeline: id });
            // Track the effective configuration for reporting.
            let d_total = self.pipelines.len() as u32;
            self.current = Some(ParallelConfig::new(d_total, p, m, b));
            self.config_changes.push(ConfigChange {
                at: ready_at,
                config: self.current,
                pause: ready_at.saturating_since(self.now),
                migrated_bytes: 0,
                reloaded_bytes: self.scenario.model.param_bytes(),
            });
        }
        if self.pipelines.is_empty() {
            self.current = None;
        } else if let Some((p, m, b)) = self.rerouting_shape {
            self.current = Some(ParallelConfig::new(self.pipelines.len() as u32, p, m, b));
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
        // Multi-pool but single-SKU: the hetero axis must stay off so the
        // legacy decision path executes verbatim.
        let scenario = small_scenario(AvailabilityTrace::constant(0), 0.8, 47).with_pools(vec![
            PoolSpec::new("z0", AvailabilityTrace::constant(3)),
            PoolSpec::new("z1", AvailabilityTrace::constant(3))
                .with_instance_type(cloudsim::InstanceType::g4dn_12xlarge()),
        ]);
        let sys = ServingSystem::new(
            SystemOptions::spotserve().with_fleet_policy(fleetctl::FleetPolicy::spot_hedge()),
            scenario,
        );
        assert!(sys.hetero.is_none(), "explicit base SKU is not mixed");
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
