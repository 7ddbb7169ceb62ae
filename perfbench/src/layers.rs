//! Per-layer metrics, measured from outside the program.
//!
//! Counts come from the traced run's `TelemetryStream` and reports. Times
//! come from `Instant` spans in this file around calls into each crate's
//! public functions. Layers that work inside `run()` are timed as
//! *replays*: the layer's public function called again on inputs the run
//! produced. A replay time is not the layer's self time within the run.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use cloudsim::{CloudMarket, InstanceId};
use enginesim::IterationScheduler;
use fleetctl::{FleetController, FleetView, PoolCaps, PoolView};
use migration::{plan_migration, DeviceAssignment, MigrationTask, PlannerOptions};
use parallelism::{ConfigSpace, ParallelConfig, PerfModel};
use simkit::{EventQueue, Sampler, SimTime};
use spotserve::devicemap::OldState;
use spotserve::{map_devices, ConfigOptimizer, RunReport, Scenario, SystemOptions, TelemetryEvent};
use spotserve::{InvariantAuditor, TriageVerdict};
use telemetry::{Record, TelemetryStream};
use workload::Request;

use crate::metrics::median;
use crate::runner::{shard_requests, Report};

/// Requests the standalone engine replay drives to completion.
pub const ENGINE_REPLAY_REQUESTS: usize = 16_384;
/// `FleetController::command` calls timed per replay.
pub const COMMAND_CALLS: u32 = 20_000;

/// Counts read from a run's telemetry stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamCounts {
    pub records: usize,
    pub grants: u64,
    pub notices: u64,
    pub kills: u64,
    pub faults: u64,
    pub lapses: u64,
    pub price_steps: u64,
    pub commands: u64,
    pub retries: u64,
    pub escalations: u64,
    pub decisions: u64,
    pub halts: u64,
    pub memo_hits: u64,
    pub commits: u64,
    pub downgrades: u64,
    /// Commits under the `Full` triage verdict.
    pub full: u64,
    /// Commits under the `Restart` triage verdict.
    pub restart: u64,
    pub moved_bytes: u64,
    pub reloaded_bytes: u64,
    /// Simulated serving pause summed over commits.
    pub pause_us: u64,
    /// Engine admissions; requeued requests are admitted again.
    pub admitted: u64,
    pub deferrals: u64,
    pub rejected: u64,
    pub tokens: u64,
}

/// Tallies a stream. Engine rollups are cumulative per shard, so the
/// last rollup of each shard counts.
pub fn count_stream(stream: &TelemetryStream) -> StreamCounts {
    let mut c = StreamCounts {
        records: stream.len(),
        ..StreamCounts::default()
    };
    let mut engine: BTreeMap<u32, [u64; 4]> = BTreeMap::new();
    for r in stream.records() {
        match r.event {
            TelemetryEvent::InstanceGrant { .. } => c.grants += 1,
            TelemetryEvent::KillNotice { .. } => c.notices += 1,
            TelemetryEvent::InstanceKill { .. } => c.kills += 1,
            TelemetryEvent::Fault { .. } => c.faults += 1,
            TelemetryEvent::RequestLapsed { .. } => c.lapses += 1,
            TelemetryEvent::PriceStep { .. } => c.price_steps += 1,
            TelemetryEvent::FleetCommand { .. } => c.commands += 1,
            TelemetryEvent::RetryScheduled { .. } => c.retries += 1,
            TelemetryEvent::RetryEscalated { .. } => c.escalations += 1,
            TelemetryEvent::Decision { memo_hit, .. } => {
                c.decisions += 1;
                c.memo_hits += u64::from(memo_hit);
            }
            TelemetryEvent::DecisionHalt { memo_hit } => {
                c.decisions += 1;
                c.halts += 1;
                c.memo_hits += u64::from(memo_hit);
            }
            TelemetryEvent::TransitionCommit {
                verdict,
                migrated_bytes,
                reloaded_bytes,
                pause_us,
                ..
            } => {
                c.commits += 1;
                c.full += u64::from(verdict == TriageVerdict::Full);
                c.restart += u64::from(verdict == TriageVerdict::Restart);
                c.moved_bytes += migrated_bytes;
                c.reloaded_bytes += reloaded_bytes;
                c.pause_us += pause_us;
            }
            TelemetryEvent::TriageDowngrade { .. } => c.downgrades += 1,
            TelemetryEvent::EngineRollup {
                admitted,
                deferrals,
                rejected,
                tokens,
                ..
            } => {
                engine.insert(r.shard, [admitted, deferrals, rejected, tokens]);
            }
            _ => {}
        }
    }
    for [admitted, deferrals, rejected, tokens] in engine.into_values() {
        c.admitted += admitted;
        c.deferrals += deferrals;
        c.rejected += rejected;
        c.tokens += tokens;
    }
    c
}

/// Audits the traced run with its telemetry attached, so the
/// stream-checked invariants (lease lifecycle, monotone progress, cost
/// rollups) run too. A sharded stream is split back per shard.
pub fn audit_with_stream(report: &Report, requests: usize) -> usize {
    let auditor = |r: &RunReport, expected| {
        InvariantAuditor::new()
            .with_expected_requests(expected)
            .audit(r)
            .violations
            .len()
    };
    match report {
        Report::Single(r) => auditor(r, requests),
        Report::Sharded(s) => {
            let stream = s.telemetry.as_ref().expect("traced run records telemetry");
            let n = s.shards.len();
            s.shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    let records: Vec<Record> = stream
                        .records()
                        .iter()
                        .filter(|r| r.shard as usize == i)
                        .map(|r| Record {
                            time: r.time,
                            seq: r.seq,
                            event: r.event,
                        })
                        .collect();
                    let mut shard = shard.clone();
                    shard.telemetry = Some(TelemetryStream::from_sources(vec![records]));
                    auditor(&shard, shard_requests(requests, n, i))
                })
                .sum()
        }
    }
}

/// `ConfigOptimizer` built as `ServingSystem::new` builds it for
/// `scenario` (one lane per distinct SKU when the pools mix SKUs), plus
/// its first (cold) decision, which builds the candidate frontier of every
/// lane at the instance ceiling. Returns the optimizer and the seconds
/// both took.
pub fn optimizer_build(
    scenario: &Scenario,
    opts: &SystemOptions,
    alpha: f64,
) -> (ConfigOptimizer, f64) {
    let t = Instant::now();
    let base = &scenario.cloud.instance_type;
    let mut opt = ConfigOptimizer::new(
        PerfModel::paper_defaults(scenario.model.clone()),
        llmsim::MemoryModel::default(),
        base.gpu,
        ConfigSpace::default(),
        base.gpus_per_instance,
        opts.max_instances,
    )
    .with_engine_mode(opts.engine);
    let mut lanes: Vec<&cloudsim::InstanceType> = Vec::new();
    for p in &scenario.pools {
        let ty = p.instance_type.as_ref().unwrap_or(base);
        if !lanes.contains(&ty) {
            lanes.push(ty);
        }
    }
    if lanes.iter().any(|&ty| ty != base) {
        for ty in lanes {
            opt = opt.with_sku(ty.clone());
        }
        black_box(opt.decide_multi(&vec![opts.max_instances; opt.lane_count()], alpha));
    } else {
        black_box(opt.decide(opts.max_instances, alpha));
    }
    (opt, t.elapsed().as_secs_f64())
}

/// `decide` over every fleet size in the runs' fleet timelines. Returns
/// the replay time and the number of decisions made.
pub fn decide_replay(opt: &ConfigOptimizer, reports: &[&RunReport], alpha: f64) -> (f64, usize) {
    let t = Instant::now();
    let mut decisions = 0;
    for r in reports {
        for &(_, spot, ondemand) in &r.fleet_timeline {
            black_box(opt.decide(spot + ondemand, alpha));
            decisions += 1;
        }
    }
    (t.elapsed().as_secs_f64(), decisions)
}

/// The device-map and migration-plan replay of one run's transitions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransitionReplay {
    /// Config changes visited (halts included).
    pub visited: usize,
    /// Changes that adopted a configuration and were mapped and planned.
    pub mapped: usize,
    /// Host time in `map_devices`.
    pub map_s: f64,
    /// Host time in `plan_migration`.
    pub plan_s: f64,
    /// Context bytes the mappings reuse in place.
    pub reused_bytes: i64,
}

/// Chains `map_devices` over a run's config changes, each assignment
/// feeding the next `OldState`, and plans each migration with
/// `plan_migration`. The instances are synthetic: the previous mesh's
/// instances survive, except the oldest, which is preempted at every
/// transition; fresh instances fill the rest.
pub fn transition_replay(scenario: &Scenario, report: &RunReport, out: &mut TransitionReplay) {
    let model = &scenario.model;
    let gpi = scenario.cloud.instance_type.gpus_per_instance;
    let mut old: Option<(ParallelConfig, DeviceAssignment)> = None;
    let mut instances: Vec<InstanceId> = Vec::new();
    let mut next_id = 0u64;
    for change in &report.config_changes {
        out.visited += 1;
        let Some(cfg) = change.config else {
            continue;
        };
        if !instances.is_empty() {
            let gone = instances.remove(0);
            if let Some((_, a)) = old.as_mut() {
                a.remove_instance(gone);
            }
        }
        let need = cfg.instances_needed(gpi) as usize;
        instances.truncate(need);
        while instances.len() < need {
            instances.push(InstanceId(next_id));
            next_id += 1;
        }
        let pipelines = old.as_ref().map_or(0, |(c, _)| c.data as usize);
        let state = OldState {
            config_and_assignment: old.clone(),
            cache_bytes_per_pipeline: vec![0; pipelines],
            progress_per_pipeline: vec![0; pipelines],
        };
        let t = Instant::now();
        let mapped = map_devices(model, &cfg, &instances, gpi, &state, true);
        out.map_s += t.elapsed().as_secs_f64();
        out.reused_bytes += mapped.reused_bytes;
        let task = MigrationTask {
            model: model.clone(),
            old_config: old.as_ref().map_or(cfg, |(c, _)| *c),
            new_config: cfg,
            old_assignment: old.map_or_else(DeviceAssignment::new, |(_, a)| a),
            new_assignment: mapped.assignment.clone(),
            cache_bytes_per_pipeline: vec![0; pipelines],
            pipeline_inheritance: mapped.inheritance,
        };
        let t = Instant::now();
        black_box(plan_migration(&task, &PlannerOptions::default()));
        out.plan_s += t.elapsed().as_secs_f64();
        out.mapped += 1;
        old = Some((cfg, mapped.assignment));
    }
}

/// The configuration that served longest in simulated time.
pub fn dominant_config(report: &RunReport) -> Option<ParallelConfig> {
    let changes = &report.config_changes;
    let mut served: Vec<(ParallelConfig, u64)> = Vec::new();
    for (i, c) in changes.iter().enumerate() {
        let Some(cfg) = c.config else { continue };
        let end = changes.get(i + 1).map_or(report.finished_at, |n| n.at);
        let us = end.saturating_since(c.at).as_micros();
        match served.iter_mut().find(|(k, _)| *k == cfg) {
            Some((_, total)) => *total += us,
            None => served.push((cfg, us)),
        }
    }
    let best = served.iter().map(|&(_, us)| us).max()?;
    served
        .into_iter()
        .find(|&(_, us)| us == best)
        .map(|(c, _)| c)
}

/// A standalone `IterationScheduler` at `cfg` driving the first
/// [`ENGINE_REPLAY_REQUESTS`] requests (queued together, deadlines
/// dropped) to completion. Returns host nanoseconds per generated token.
pub fn engine_replay(scenario: &Scenario, cfg: ParallelConfig) -> f64 {
    let perf = PerfModel::paper_defaults(scenario.model.clone());
    let sample = &scenario.requests[..scenario.requests.len().min(ENGINE_REPLAY_REQUESTS)];
    let mut queue: VecDeque<Request> = sample
        .iter()
        .map(|r| Request::new(r.id, SimTime::ZERO, r.s_in, r.s_out))
        .collect();
    let tokens: u64 = sample.iter().map(|r| u64::from(r.s_out)).sum();
    let t = Instant::now();
    let mut engine = IterationScheduler::new(cfg, scenario.model.kv_bytes_per_token(), u64::MAX);
    engine.admit(&mut queue, SimTime::ZERO, &perf);
    let mut retired = 0;
    while let Some(end) = engine.next_event() {
        retired += engine.advance(end, &mut queue, &perf).len();
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(retired, sample.len(), "engine replay drains its queue");
    ns / tokens as f64
}

/// `EventQueue::schedule` of every arrival, then `pop` until empty.
/// Returns host nanoseconds per event.
pub fn queue_replay(requests: &[Request]) -> f64 {
    let t = Instant::now();
    let mut queue = EventQueue::new();
    for (i, r) in requests.iter().enumerate() {
        queue.schedule(r.arrival, i);
    }
    let mut popped = 0usize;
    while let Some(ev) = queue.pop() {
        black_box(ev);
        popped += 1;
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(popped, requests.len(), "every scheduled arrival pops");
    ns / requests.len().max(1) as f64
}

/// The quantile computation over every shard's outcomes.
pub fn percentiles_replay(reports: &[&RunReport]) -> f64 {
    let t = Instant::now();
    let mut latencies: Sampler = reports
        .iter()
        .flat_map(|r| r.latency.outcomes())
        .map(|o| o.latency().as_secs_f64())
        .collect();
    black_box(latencies.percentiles());
    t.elapsed().as_secs_f64()
}

/// `FleetController::command` on a fixed fleet snapshot with one pool
/// view per scenario pool. Returns host nanoseconds per call.
pub fn command_replay(scenario: &Scenario, opts: &SystemOptions) -> f64 {
    let pools = scenario.pools.len().max(1);
    let controller =
        FleetController::new(opts.fleet_policy, pools, scenario.cloud.spot_grant_delay);
    let base = &scenario.cloud.instance_type;
    let view = FleetView {
        pools: (0..pools)
            .map(|i| PoolView {
                live_spot: 2,
                noticed_spot: 1,
                provisioning_spot: 1,
                queued_spot: 0,
                capacity: 4,
                lapsed_spot: 0,
                caps: PoolCaps::of(
                    scenario
                        .pools
                        .get(i)
                        .and_then(|p| p.instance_type.as_ref())
                        .unwrap_or(base),
                ),
            })
            .collect(),
        live_ondemand: 0,
        pending_ondemand: 0,
        target: 3 * pools as u32,
        spares: 2,
    };
    let t = Instant::now();
    for i in 0..COMMAND_CALLS {
        black_box(controller.command(black_box(&view), SimTime::from_secs(u64::from(i))));
    }
    t.elapsed().as_nanos() as f64 / f64::from(COMMAND_CALLS)
}

/// `CloudMarket::new` on the scenario's pools: price paths and fault
/// plans are pre-drawn here.
pub fn market_replay(scenario: &Scenario) -> f64 {
    let t = Instant::now();
    black_box(CloudMarket::new(
        &scenario.cloud,
        &scenario.pools,
        scenario.seed,
    ));
    t.elapsed().as_secs_f64()
}

/// `jsonl_into` over the stream. Returns seconds and megabytes written.
pub fn jsonl_replay(stream: &TelemetryStream) -> (f64, f64) {
    let t = Instant::now();
    let mut out = String::new();
    stream.jsonl_into(&mut out);
    (t.elapsed().as_secs_f64(), out.len() as f64 / 1e6)
}

/// One pass of every replay, on one traced run's inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayPass {
    /// `CloudMarket::new` seconds.
    pub market_s: f64,
    /// Optimizer construction and first decision, seconds.
    pub build_s: f64,
    /// `decide` over the fleet timelines, seconds.
    pub decide_s: f64,
    /// Decisions the decide replay made.
    pub decisions: usize,
    /// The chained device-map and migration-plan replay.
    pub transitions: TransitionReplay,
    /// `FleetController::command`, nanoseconds per call.
    pub command_ns: f64,
    /// Standalone engine, nanoseconds per token (0 without a config).
    pub engine_ns_per_token: f64,
    /// Event queue, nanoseconds per scheduled and popped event.
    pub queue_ns_per_event: f64,
    /// Quantiles over the run's outcomes, seconds.
    pub percentiles_s: f64,
    /// JSONL export, seconds.
    pub jsonl_s: f64,
    /// JSONL export, megabytes.
    pub jsonl_mb: f64,
    /// `RunReport::canonical_into` digests of every shard, seconds.
    pub canonical_s: f64,
}

impl ReplayPass {
    /// The per-field median of `passes`; counts come from the last pass
    /// (every pass replays the same inputs).
    ///
    /// # Panics
    ///
    /// Panics if `passes` is empty.
    pub fn median_of(passes: &[ReplayPass]) -> ReplayPass {
        let last = *passes.last().expect("at least one replay pass");
        let med = |f: fn(&ReplayPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        ReplayPass {
            market_s: med(|p| p.market_s),
            build_s: med(|p| p.build_s),
            decide_s: med(|p| p.decide_s),
            transitions: TransitionReplay {
                map_s: med(|p| p.transitions.map_s),
                plan_s: med(|p| p.transitions.plan_s),
                ..last.transitions
            },
            command_ns: med(|p| p.command_ns),
            engine_ns_per_token: med(|p| p.engine_ns_per_token),
            queue_ns_per_event: med(|p| p.queue_ns_per_event),
            percentiles_s: med(|p| p.percentiles_s),
            jsonl_s: med(|p| p.jsonl_s),
            canonical_s: med(|p| p.canonical_s),
            ..last
        }
    }
}

/// Runs every replay once over `scenario` and the run's shard reports.
pub fn replay_pass(
    scenario: &Scenario,
    opts: &SystemOptions,
    shards: &[&RunReport],
    stream: &TelemetryStream,
    alpha: f64,
    dominant: Option<ParallelConfig>,
) -> ReplayPass {
    let market_s = market_replay(scenario);
    let (opt, build_s) = optimizer_build(scenario, opts, alpha);
    let (decide_s, decisions) = decide_replay(&opt, shards, alpha);
    let mut transitions = TransitionReplay::default();
    for r in shards {
        transition_replay(scenario, r, &mut transitions);
    }
    let (jsonl_s, jsonl_mb) = jsonl_replay(stream);
    let t = Instant::now();
    for r in shards {
        black_box(crate::runner::run_digest(r));
    }
    let canonical_s = t.elapsed().as_secs_f64();
    ReplayPass {
        market_s,
        build_s,
        decide_s,
        decisions,
        transitions,
        command_ns: command_replay(scenario, opts),
        engine_ns_per_token: dominant.map_or(0.0, |cfg| engine_replay(scenario, cfg)),
        queue_ns_per_event: queue_replay(&scenario.requests),
        percentiles_s: percentiles_replay(shards),
        jsonl_s,
        jsonl_mb,
        canonical_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{self, Report};
    use crate::workloads::{self, Workload};
    use spotserve::{ServingSystem, ShardedSystem};

    /// A two-hour spot-churn run: short enough for a debug test, long
    /// enough to reconfigure many times.
    fn short_churn() -> (Scenario, RunReport) {
        let scenario = workloads::spot_churn(5, 2);
        let report = ServingSystem::new(Workload::SpotChurn.options(), scenario.clone()).run();
        (scenario, report)
    }

    #[test]
    fn transition_replay_visits_every_config_change() {
        let (scenario, report) = short_churn();
        assert!(report.config_changes.len() > 10, "the trace churns");
        let mut out = TransitionReplay::default();
        transition_replay(&scenario, &report, &mut out);
        assert_eq!(out.visited, report.config_changes.len());
        let adopted = report
            .config_changes
            .iter()
            .filter(|c| c.config.is_some())
            .count();
        assert_eq!(out.mapped, adopted);
        assert!(out.reused_bytes > 0, "survivors keep their context");
    }

    #[test]
    fn decide_replay_makes_one_decision_per_fleet_sample() {
        let (scenario, report) = short_churn();
        let opts = Workload::SpotChurn.options();
        let (opt, _) = optimizer_build(&scenario, &opts, scenario.initial_rate);
        let (_, decisions) = decide_replay(&opt, &[&report, &report], scenario.initial_rate);
        assert_eq!(decisions, 2 * report.fleet_timeline.len());
    }

    #[test]
    fn sharded_replays_cover_every_shard() {
        let scenario = spotserve_bench::scale_replay_scenario(2, 20_000, 3);
        let report = ShardedSystem::new(Workload::ScaleReplay.options(), scenario.clone(), 2).run();
        let shards: Vec<&RunReport> = report.shards.iter().collect();
        let mut out = TransitionReplay::default();
        for r in &shards {
            transition_replay(&scenario, r, &mut out);
        }
        let changes: usize = shards.iter().map(|r| r.config_changes.len()).sum();
        assert_eq!(out.visited, changes);
        let (opt, _) = optimizer_build(&scenario, &Workload::ScaleReplay.options(), 1.5);
        let samples: usize = shards.iter().map(|r| r.fleet_timeline.len()).sum();
        assert_eq!(decide_replay(&opt, &shards, 1.5).1, samples);
        let audited = runner::audit(&Report::Sharded(report), 20_000);
        assert_eq!(audited.values().sum::<usize>(), 0, "{audited:?}");
    }

    #[test]
    fn stream_counts_match_the_report() {
        let scenario = workloads::fleet_chaos(2, 1);
        let n = scenario.requests.len();
        let report = ServingSystem::new(Workload::FleetChaos.options(), scenario.clone()).run();
        let counts = count_stream(
            report
                .telemetry
                .as_ref()
                .expect("fleet-chaos records telemetry"),
        );
        // The stream also records prewarmed grants, which never reach the
        // event queue the report counts from.
        assert!(counts.grants >= u64::from(report.grants));
        assert_eq!(counts.faults, u64::from(report.faults));
        assert_eq!(counts.tokens, report.latency.tokens_generated());
        assert_eq!(counts.rejected, report.slo_rejections.len() as u64);
        assert!(counts.price_steps > 0 && counts.commands > 0);
        assert!(counts.decisions >= counts.halts + counts.memo_hits.min(counts.decisions));
        assert_eq!(report.settled() + report.unfinished, n);
    }

    #[test]
    fn engine_and_queue_replays_drain_their_inputs() {
        let (scenario, report) = short_churn();
        let cfg = dominant_config(&report).expect("the run served");
        assert!(engine_replay(&scenario, cfg) > 0.0);
        assert!(queue_replay(&scenario.requests) > 0.0);
    }
}
