//! The meta-context manager: when and how the parallel configuration
//! changes.
//!
//! A transition is planned when the fleet or the load moves
//! (`plan_transition`), timed just in time against the kill deadline under
//! SpotServe (§4.1), and committed by re-running Algorithm 1 on the fleet
//! as of the commit. SpotServe then maps devices with Kuhn–Munkres (§3.3),
//! plans the migration with Algorithm 2, triages the checkpoint against the
//! remaining grace (§4.2), and adopts the new mesh with the carried work;
//! Reparallelization and the on-demand baseline cold-restart instead, and
//! Rerouting reforms whole pipelines from idle instances.

use std::collections::BTreeSet;

use cloudsim::{GpuRef, InstanceId, PoolId};
use enginesim::preemption_stop_time;
use kmatch::SkuCaps;
use migration::{
    evaluate_plan, plan_migration, transferable_fraction, triage, DeviceAssignment, MigrationPlan,
    MigrationTask, PlannerOptions, TriageTier,
};
use parallelism::{MeshPosition, ParallelConfig};
use simkit::{SimDuration, SimTime};
use telemetry::{TelemetryEvent, TriageVerdict};

use super::engine::Checkpoints;
use super::{Ev, ServingSystem, Transition};
use crate::config::Policy;
use crate::devicemap::{map_devices_with_skus, DeviceMapOutcome, OldState, SkuTable};
use crate::report::ConfigChange;

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

/// The telemetry rendering of a triage tier.
fn verdict_of(tier: TriageTier) -> TriageVerdict {
    match tier {
        TriageTier::Full => TriageVerdict::Full,
        TriageTier::Partial => TriageVerdict::Partial,
        TriageTier::Restart => TriageVerdict::Restart,
    }
}

/// The capability card kmatch prices cross-SKU edges with.
fn sku_caps(ty: &cloudsim::InstanceType) -> SkuCaps {
    SkuCaps {
        memory_bytes: ty.gpu.memory_bytes,
        link_bandwidth: ty.net.inter_bw,
    }
}

/// Stretches a transfer duration by a degraded-link factor. The
/// `factor == 1.0` guard keeps faults-off timelines bit-exact (no float
/// round-trip on the clean path).
fn stretch(d: SimDuration, factor: f64) -> SimDuration {
    if factor < 1.0 {
        SimDuration::from_secs_f64(d.as_secs_f64() / factor)
    } else {
        d
    }
}

impl ServingSystem {
    /// Decides the next configuration and schedules the transition: for
    /// SpotServe under a deadline, decoding continues until the JIT-arranged
    /// stop; otherwise the transition commits immediately.
    pub(super) fn plan_transition(&mut self, deadline: Option<SimTime>) {
        if self.transition.is_some() {
            return;
        }
        let alpha = self.rate_estimate();
        let n = self.usable().len() as u32;
        let decision = self.decide_serving(n, alpha);
        let target = self.pick_config(decision.now, n);
        self.manage_fleet(decision.instance_delta);
        if target == self.current && deadline.is_none() && !self.lanes.changing() {
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
            self.lanes.decided_perf(&self.optimizer).cost_model().net(),
            &self.scenario.storage,
        );
        stretch(tl.total, self.link_factor(&usable))
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
    ) -> (MigrationPlan, DeviceMapOutcome, CheckpointTriage) {
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
        // The mapper prices edges with each SKU's capability card:
        // forbidden where the shard exceeds the target GPU's memory,
        // discounted where the reuse crosses into a slower fabric. On a
        // homogeneous fleet every card equals the source's, so every edge
        // is plain reuse (the optimizer only picks shards that fit).
        let caps_of =
            |id: InstanceId| sku_caps(self.cloud.instance_type_in(PoolId::of_instance(id)));
        let src_lane = self
            .assignment
            .instances()
            .first()
            .map(|&id| self.lane_of_instance(id))
            .unwrap_or(self.lanes.active);
        let table = SkuTable {
            caps_of: &caps_of,
            src: sku_caps(self.optimizer.lane_type(src_lane)),
            required_bytes_per_gpu: self.optimizer.memory().required_bytes_per_gpu(
                &self.scenario.model,
                cfg.pipeline,
                cfg.tensor,
            ),
        };
        let outcome = map_devices_with_skus(
            &self.scenario.model,
            &cfg,
            instances,
            self.gpus_per_instance(),
            &old,
            !self.opts.ablation.no_device_mapper,
            Some(&table),
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
        let net = self.lanes.decided_perf(&self.optimizer).cost_model().net();
        let plan = plan_migration(&task, &planner_opts);
        let tl = evaluate_plan(&plan, net, &self.scenario.storage);
        // A chaos degraded-link window stretches the transfer: triage
        // against the *effective* timeline, so a mid-grace slowdown
        // downgrades the tier instead of blowing the deadline.
        let factor = self.link_factor(instances);
        if self.now + stretch(tl.total, factor) <= deadline {
            let full = CheckpointTriage {
                tier: TriageTier::Full,
                fraction: 1.0,
                downgraded_from: None,
            };
            return (plan, outcome, full);
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
        let fraction =
            transferable_fraction(budget, stretch(t_zero, factor), stretch(tl.total, factor));
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

    /// Executes the transition decided earlier: re-decide on the fleet as
    /// of now, then adopt a batch-only change in place, halt, migrate
    /// (SpotServe) or cold-restart.
    pub(super) fn commit_transition(&mut self) {
        let Some(tr) = self.transition.as_ref() else {
            return;
        };
        let deadline = tr.deadline;
        let epoch = tr.epoch as u32;
        // Re-decide with the fleet as of now (it may have changed while
        // decoding through the grace period).
        let alpha = self.rate_estimate();
        let n = self.usable().len() as u32;
        let decision = self.decide_serving(n, alpha);
        let target = self.pick_config(decision.now, n);
        let lane_change = self.lanes.changing();
        if let (Some(cur), Some(cfg)) = (self.current, target) {
            // Batch-size-only change: same mesh, nothing to migrate. A
            // mesh key only matches within one SKU: crossing lanes always
            // migrates.
            if cur.mesh_key() == cfg.mesh_key() && cur != cfg && !lane_change {
                self.adopt_batch_change(cfg, epoch);
                return;
            }
            if cur == cfg && deadline.is_none() && !lane_change {
                self.transition = None;
                return;
            }
        }
        let Some(cfg) = target else {
            self.halt_serving(epoch);
            return;
        };
        match self.opts.policy {
            Policy::SpotServe => self.commit_migration(cfg, deadline, epoch),
            Policy::Reparallelization | Policy::OnDemandOnly { .. } => {
                self.commit_cold_restart(cfg, epoch)
            }
            Policy::Rerouting => unreachable!("rerouting does not use global transitions"),
        }
    }

    /// Adopts a batch-size-only change instantly, without touching
    /// running batches or resident context.
    fn adopt_batch_change(&mut self, cfg: ParallelConfig, epoch: u32) {
        self.current = Some(cfg);
        self.context_shape = Some(cfg);
        self.set_batch_capacity(cfg);
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
                epoch,
                verdict: TriageVerdict::Full,
                fraction_ppm: 1_000_000,
                migrated_bytes: 0,
                reloaded_bytes: 0,
                pause_us: 0,
            },
        );
        self.transition = None;
        self.dispatch_all();
    }

    /// Nothing is feasible: drop all batches and halt serving; the context
    /// daemons keep the model context resident for reuse.
    fn halt_serving(&mut self, epoch: u32) {
        self.requeue_all();
        self.current = None;
        self.config_changes.push(ConfigChange {
            at: self.now,
            config: None,
            pause: SimDuration::ZERO,
            migrated_bytes: 0,
            reloaded_bytes: 0,
        });
        self.telemetry
            .emit(self.now, TelemetryEvent::TransitionHalt { epoch });
        self.transition = None;
    }

    /// SpotServe's commit: KM device mapping, Algorithm 2 migration
    /// planning and grace triage, then freeze every pipeline and carry its
    /// checkpoint into the new mesh (stateful recovery, §4).
    fn commit_migration(&mut self, cfg: ParallelConfig, deadline: Option<SimTime>, epoch: u32) {
        let usable = self.placement_instances();
        let (plan, outcome, tri) = self.build_plan(cfg, &usable, deadline.unwrap_or(SimTime::MAX));
        let perf = self.lanes.decided_perf(&self.optimizer);
        let tl = evaluate_plan(&plan, perf.cost_model().net(), &self.scenario.storage);
        // Stage step for progressive overlap: one stage's share of a
        // prefill pass (the incoming mesh's SKU sets the pace).
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
        // The transfer physically crosses the (possibly degraded) links:
        // the serving pause stretches with them.
        let pause = stretch(pause, self.link_factor(&usable));
        self.telemetry.emit(
            self.now,
            TelemetryEvent::TransitionCommit {
                epoch,
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
                    epoch,
                    from: verdict_of(from),
                    to: verdict_of(tri.tier),
                },
            );
        }
        let partial = (tri.tier == TriageTier::Partial).then_some(tri.fraction);
        let carried = self.checkpoint_pipelines(&outcome.inheritance, &cfg, partial, tl.total);
        self.adopt_config_with_carry(
            cfg,
            outcome.assignment,
            pause,
            tl.network_bytes,
            tl.storage_bytes,
            carried,
        );
    }

    /// Reparallelization's (and the on-demand baseline's) commit: requeue
    /// everything and reload the weights from storage onto a contiguous
    /// placement.
    fn commit_cold_restart(&mut self, cfg: ParallelConfig, epoch: u32) {
        self.requeue_all();
        let instances = cfg.instances_needed(self.gpus_per_instance());
        let param_bytes = self.scenario.model.param_bytes();
        let pause =
            self.opts.engine_launch + self.scenario.storage.load_time(param_bytes, instances);
        self.telemetry.emit(
            self.now,
            TelemetryEvent::TransitionCommit {
                epoch,
                verdict: TriageVerdict::Restart,
                fraction_ppm: 0,
                migrated_bytes: 0,
                reloaded_bytes: param_bytes,
                pause_us: pause.as_micros(),
            },
        );
        let assignment = self.contiguous_assignment(&cfg);
        self.adopt_config_with_carry(
            cfg,
            assignment,
            pause,
            0,
            param_bytes,
            Checkpoints::default(),
        );
    }

    /// Every GPU of `instances`, instance by instance.
    fn gpus_of(&self, instances: &[InstanceId]) -> Vec<GpuRef> {
        let gpi = self.gpus_per_instance();
        instances
            .iter()
            .flat_map(|&i| (0..gpi).map(move |s| GpuRef::new(i, s)))
            .collect()
    }

    /// `cfg` laid out contiguously over the placement instances' GPUs.
    fn contiguous_assignment(&self, cfg: &ParallelConfig) -> DeviceAssignment {
        DeviceAssignment::contiguous(cfg, &self.gpus_of(&self.placement_instances()))
    }

    /// Adopts `cfg` on a contiguous placement with nothing carried (the
    /// warm start's pre-loaded configuration).
    pub(super) fn adopt_config(
        &mut self,
        cfg: ParallelConfig,
        pause: SimDuration,
        migrated: u64,
        reloaded: u64,
    ) {
        let assignment = self.contiguous_assignment(&cfg);
        self.adopt_config_with_carry(
            cfg,
            assignment,
            pause,
            migrated,
            reloaded,
            Checkpoints::default(),
        );
        if matches!(self.opts.policy, Policy::Rerouting) {
            // Track per-pipeline instances for teardown.
            self.index_rerouting_instances();
        }
    }

    /// Installs the new mesh: fresh pipelines that resume `carried` work
    /// after `pause`, then the fleet trim.
    fn adopt_config_with_carry(
        &mut self,
        cfg: ParallelConfig,
        assignment: DeviceAssignment,
        pause: SimDuration,
        migrated: u64,
        reloaded: u64,
        carried: Checkpoints,
    ) {
        self.epoch += 1;
        // The decided SKU's mesh takes over: pricing follows it from here.
        self.lanes.active = self.lanes.decided;
        let resume_at = self.now + pause;
        self.current = Some(cfg);
        self.context_shape = Some(cfg);
        self.assignment = assignment;
        self.pipelines = (0..cfg.data)
            .map(|_| self.new_slot(resume_at, Vec::new()))
            .collect();
        self.resume_pipelines(carried, &cfg, resume_at);
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
        self.trim_after_adopt();
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
                    rekeyed.insert(MeshPosition::new(slot.id as u32, pos.stage, pos.shard), gpu);
                }
            }
            insts.sort_unstable();
            insts.dedup();
            slot.instances = insts;
        }
        self.assignment = rekeyed;
    }

    /// Forms new Rerouting pipelines from idle ready instances, cold.
    pub(super) fn reform_rerouting_pipelines(&mut self) {
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
            let gpus = self.gpus_of(&chosen);
            let slot = self.new_slot(ready_at, chosen);
            let id = slot.id;
            // Extend the assignment with this pipeline's positions, using
            // the slot id as the pipeline namespace so reformations never
            // clobber a surviving pipeline's bindings.
            for (pos, gpu) in shape.positions().zip(&gpus) {
                let pos = MeshPosition::new(id as u32, pos.stage, pos.shard);
                self.assignment.insert(pos, *gpu);
            }
            self.pipelines.push(slot);
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
        } else {
            self.current = Some(ParallelConfig::new(self.pipelines.len() as u32, p, m, b));
        }
    }
}
