//! Property tests for Algorithm 1's invariants over the whole input space,
//! and for the scheduler's SLO-aware admission guard.

use std::cmp::{Ordering, Reverse};
use std::collections::VecDeque;

use cloudsim::InstanceType;
use enginesim::IterationScheduler;
use llmsim::{CostModel, MemoryModel, ModelSpec};
use parallelism::{enumerate_configs, ConfigSpace, ParallelConfig, PerfModel};
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};
use spotserve::{ConfigOptimizer, EngineMode, MultiSkuDecision};
use workload::{Request, RequestId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the fleet and load, a `now` decision always fits the fleet.
    #[test]
    fn now_config_always_fits_fleet(
        n in 0u32..20,
        alpha in 0.0f64..3.0,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
        let d = opt.decide(n, alpha);
        if let Some(c) = d.now {
            prop_assert!(c.instances_needed(4) <= n, "{c} needs more than {n}");
        }
    }

    /// If any feasible-now configuration sustains α, the chosen one does.
    #[test]
    fn sustaining_choice_when_possible(
        n in 3u32..16,
        alpha in 0.05f64..1.0,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
        let any_sustains = opt
            .feasible(n)
            .into_iter()
            .any(|c| opt.perf().throughput(&c) >= alpha);
        let d = opt.decide(n, alpha);
        if any_sustains {
            let c = d.now.expect("feasible set non-empty");
            prop_assert!(
                opt.perf().throughput(&c) >= alpha,
                "{c} does not sustain {alpha}"
            );
        }
    }

    /// The incumbent bias never selects an infeasible or overloaded config.
    #[test]
    fn incumbent_bias_is_safe(
        n in 3u32..16,
        alpha in 0.05f64..1.0,
        inc_idx in 0usize..64,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
        let feasible = opt.feasible(16);
        prop_assume!(!feasible.is_empty());
        let incumbent = feasible[inc_idx % feasible.len()];
        let with = opt.decide_with_incumbent(n, alpha, Some(incumbent));
        let without = opt.decide(n, alpha);
        if let Some(c) = with.now {
            prop_assert!(c.instances_needed(4) <= n);
            // Keeping the incumbent is only allowed when it sustains α,
            // so the choice can never be worse than 15% off the optimum
            // unless nothing sustains α at all.
            if let Some(best) = without.now {
                if opt.perf().throughput(&best) >= alpha && c == incumbent && c != best {
                    prop_assert!(opt.perf().throughput(&c) >= alpha);
                }
            }
        }
    }

    /// Positive instance deltas always accompany an unmet target.
    #[test]
    fn delta_consistent_with_target(
        n in 0u32..20,
        alpha in 0.0f64..2.0,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::llama_30b(), 16);
        let d = opt.decide(n, alpha);
        match d.target {
            Some(t) => prop_assert_eq!(
                d.instance_delta,
                t.instances_needed(4) as i64 - n as i64
            ),
            None => prop_assert_eq!(d.instance_delta, -(n as i64)),
        }
    }

    /// The PR 5 tentpole contract: frontier-backed decisions — memoized
    /// range lookups over precomputed, Pareto-pruned candidates — are
    /// **bit-identical** with the pre-frontier fresh-enumeration reference
    /// implementations, across fleet size, arrival rate, engine mode,
    /// model, SLO target, and incumbent bias. Each query runs twice so the
    /// memo-hit path is held to the same identity.
    #[test]
    fn frontier_decisions_equal_fresh_enumeration(
        n in 0u32..20,
        alpha_millis in 0u32..2000,
        model_sel in 0usize..8,
        engine_sel in 0usize..2,
        slo_secs in 1u64..300,
        inc_idx in 0usize..64,
    ) {
        let models = ModelSpec::paper_models();
        let engine = [EngineMode::FixedBatch, EngineMode::ContinuousBatching][engine_sel];
        let opt = ConfigOptimizer::paper_defaults(
            models[model_sel % models.len()].clone(),
            16,
        )
        .with_engine_mode(engine);
        let alpha = alpha_millis as f64 / 1000.0;
        let reference = opt.decide_reference(n, alpha);
        prop_assert_eq!(opt.decide(n, alpha), reference, "decide ({engine:?})");
        prop_assert_eq!(opt.decide(n, alpha), reference, "memo hit");
        let slo = SimDuration::from_secs(slo_secs);
        let slo_ref = opt.decide_slo_reference(n, alpha, slo);
        prop_assert_eq!(opt.decide_slo(n, alpha, slo), slo_ref, "decide_slo");
        prop_assert_eq!(opt.decide_slo(n, alpha, slo), slo_ref, "slo memo hit");
        let feasible = opt.feasible(16);
        if !feasible.is_empty() {
            let inc = feasible[inc_idx % feasible.len()];
            prop_assert_eq!(
                opt.decide_with_incumbent(n, alpha, Some(inc)),
                opt.decide_with_incumbent_reference(n, alpha, Some(inc)),
                "incumbent {inc}"
            );
        }
    }

    /// The continuous-batching estimator never reports a lower peak
    /// throughput than the fixed-batch one, whatever the configuration: an
    /// iteration-level slot can only turn over faster than a
    /// run-to-completion batch.
    #[test]
    fn continuous_estimator_dominates_fixed_throughput(
        n in 3u32..16,
        idx in 0usize..64,
    ) {
        let opt = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
        let feasible = opt.feasible(n);
        prop_assume!(!feasible.is_empty());
        let c = feasible[idx % feasible.len()];
        prop_assert!(
            opt.perf().throughput_continuous(&c) >= opt.perf().throughput(&c),
            "{c}"
        );
    }
}

/// An optimizer over `model` on `ty`'s hardware whose only SKU lane is
/// that same base SKU — the shape a homogeneous serving fleet builds.
fn base_lane_optimizer(model: ModelSpec, ty: InstanceType, engine: EngineMode) -> ConfigOptimizer {
    let scale = llmsim::calibration::calibration_scale(&model);
    let perf = PerfModel::new(
        model,
        CostModel::for_instance_type(&ty).with_scale(scale),
        llmsim::calibration::PAPER_S_IN,
        llmsim::calibration::PAPER_S_OUT,
    );
    ConfigOptimizer::new(
        perf,
        MemoryModel::default(),
        ty.gpu,
        ConfigSpace::default(),
        ty.gpus_per_instance,
        16,
    )
    .with_engine_mode(engine)
    .with_sku(ty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A lane registered for the optimizer's own base SKU prices every
    /// feasible configuration **bit-identically** with the base
    /// estimators, under either engine, both before the frontier exists
    /// (cost-model path) and after (frontier-cache path). A homogeneous
    /// fleet serves through lane 0, so its replays rest on this identity.
    #[test]
    fn base_sku_lane_prices_bit_identically_with_the_base_estimators(
        alpha_millis in 0u32..3000,
        model_sel in 0usize..8,
        sku_sel in 0usize..4,
        engine_sel in 0usize..2,
    ) {
        let models = ModelSpec::paper_models();
        let model = models[model_sel % models.len()].clone();
        let ty = [
            InstanceType::g4dn_12xlarge(),
            InstanceType::l4(),
            InstanceType::a100(),
            InstanceType::h100(),
        ][sku_sel]
            .clone();
        let engine = [EngineMode::FixedBatch, EngineMode::ContinuousBatching][engine_sel];
        let opt = base_lane_optimizer(model, ty, engine);
        let alpha = alpha_millis as f64 / 1000.0;
        // The engines, the migration net and prefill pricing all read the
        // lane's PerfModel itself, so the model must match, not only the
        // two estimators below — and a SKU pricing like the base shares
        // the base lane outright.
        prop_assert_eq!(opt.lane_perf(0), opt.perf());
        prop_assert!(std::ptr::eq(opt.lane_perf(0), opt.perf()), "lane 0 shares the base lane");
        let feasible = opt.feasible(16);
        for built in [false, true] {
            if built {
                opt.decide(16, alpha);
            }
            for c in &feasible {
                prop_assert_eq!(
                    opt.lane_throughput(0, c).to_bits(),
                    opt.estimated_throughput(c).to_bits(),
                    "phi({c}), {engine:?}, frontier built: {built}"
                );
                prop_assert_eq!(
                    opt.lane_latency(0, c, alpha),
                    opt.estimated_latency(c, alpha),
                    "l_req({c}, {alpha}), {engine:?}, frontier built: {built}"
                );
            }
        }
    }
}

// ---- The joint (SKU, C, B) decision against a brute-force oracle --------

/// `φ(C)` and `l_req(C, α)` under `engine`'s estimator, straight from the
/// cost model.
fn price(
    perf: &PerfModel,
    engine: EngineMode,
    c: &ParallelConfig,
    alpha: f64,
) -> (f64, SimDuration) {
    match engine {
        EngineMode::FixedBatch => (perf.throughput(c), perf.request_latency(c, alpha)),
        EngineMode::ContinuousBatching => (
            perf.throughput_continuous(c),
            perf.request_latency_continuous(c, alpha),
        ),
    }
}

/// Algorithm 1 over SKU lanes by brute force: every lane's space freshly
/// enumerated at `max(16, avail[i])` instances and priced from that lane's
/// `PerfModel`, the joint minimum taken over `(l_req, instances, lane,
/// config)` for the target and the within-availability pick, and the
/// fallback maximum over `(φ, Reverse((lane, config)))`.
fn decide_multi_oracle(
    opt: &ConfigOptimizer,
    engine: EngineMode,
    avail: &[u32],
    alpha: f64,
) -> MultiSkuDecision {
    type Key = (SimDuration, u32, usize, ParallelConfig);
    let mut target: Option<Key> = None;
    let mut now_sustaining: Option<Key> = None;
    let mut fastest: Option<(f64, Reverse<(usize, ParallelConfig)>)> = None;
    for (i, &lane_avail) in avail.iter().enumerate() {
        let ty = opt.lane_type(i);
        let perf = opt.lane_perf(i);
        let gpi = ty.gpus_per_instance;
        let configs = enumerate_configs(
            perf.model(),
            opt.memory(),
            &ty.gpu,
            &ConfigSpace::default(),
            lane_avail.max(16) * gpi as u32,
        );
        for c in configs {
            let instances = c.instances_needed(gpi);
            let (phi, l) = price(perf, engine, &c, alpha);
            if phi >= alpha {
                let k = (l, instances, i, c);
                if target.is_none_or(|b| k < b) {
                    target = Some(k);
                }
                if instances <= lane_avail && now_sustaining.is_none_or(|b| k < b) {
                    now_sustaining = Some(k);
                }
            }
            if instances <= lane_avail {
                let k = (phi, Reverse((i, c)));
                if fastest
                    .as_ref()
                    .is_none_or(|b| k.partial_cmp(b) == Some(Ordering::Greater))
                {
                    fastest = Some(k);
                }
            }
        }
    }
    let fastest = fastest.map(|(_, Reverse(pick))| pick);
    match target {
        Some((_, needed, lane, c)) => MultiSkuDecision {
            now: if needed <= avail[lane] {
                Some((lane, c))
            } else {
                now_sustaining.map(|(_, _, i, c)| (i, c)).or(fastest)
            },
            target: Some((lane, c)),
            instance_delta: needed as i64 - avail[lane] as i64,
        },
        None => MultiSkuDecision {
            now: fastest,
            target: fastest,
            instance_delta: fastest
                .map(|(i, c)| {
                    c.instances_needed(opt.lane_type(i).gpus_per_instance) as i64 - avail[i] as i64
                })
                .unwrap_or(0),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `decide_multi` — frontier scans, pruning, the memo and the lazy
    /// fallback — picks exactly what the brute-force oracle picks, over
    /// 1–3 lanes, per-lane availability 0..=16, any rate, both engines.
    /// SKUs may repeat, and `mirror` makes lane 1 a copy of lane 0 (same
    /// SKU, same availability), so every key ties across those two lanes
    /// and only the lane index breaks the tie. Each query runs twice so
    /// the memo-hit path is held to the oracle too.
    #[test]
    fn decide_multi_equals_the_brute_force_oracle(
        (lane_count, mirror) in (1usize..4, 0usize..2),
        skus in (0usize..4, 0usize..4, 0usize..4),
        avail in (0u32..17, 0u32..17, 0u32..17),
        alpha_millis in 0u32..8000,
        model_sel in 0usize..3,
        engine_sel in 0usize..2,
    ) {
        let (skus, avail) = if mirror == 1 {
            ((skus.0, skus.0, skus.2), (avail.0, avail.0, avail.2))
        } else {
            (skus, avail)
        };
        let all = [
            InstanceType::t4(),
            InstanceType::l4(),
            InstanceType::a100(),
            InstanceType::h100(),
        ];
        let engine = [EngineMode::FixedBatch, EngineMode::ContinuousBatching][engine_sel];
        let model = ModelSpec::paper_models()[model_sel].clone();
        let mut opt = ConfigOptimizer::paper_defaults(model, 16).with_engine_mode(engine);
        for &s in [skus.0, skus.1, skus.2].iter().take(lane_count) {
            opt = opt.with_sku(all[s].clone());
        }
        let avail = [avail.0, avail.1, avail.2];
        let avail = &avail[..lane_count];
        let alpha = alpha_millis as f64 / 1000.0;
        let oracle = decide_multi_oracle(&opt, engine, avail, alpha);
        prop_assert_eq!(opt.decide_multi(avail, alpha), oracle, "{engine:?} {avail:?} @ {alpha}");
        prop_assert_eq!(opt.decide_multi(avail, alpha), oracle, "memo hit");
    }
}

/// One query of a generated optimizer session.
#[derive(Debug, Clone, Copy)]
enum Query {
    Decide,
    Incumbent(usize),
    Multi,
    FlipEngine,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One optimizer answers a whole generated session, so its minima
    /// tables carry state from query to query: `decide`,
    /// `decide_with_incumbent` and 1–3-lane `decide_multi` (a T4 lane
    /// shares the base lane's table) at rates drawn from a four-entry pool
    /// (`0` included), so rows are reused; availability up to 24 against a
    /// 16-instance ceiling, so frontiers grow under live rows; and engine
    /// flips mid-session. Every answer must equal its reference or the
    /// brute-force oracle.
    #[test]
    fn query_sessions_match_the_references(
        (model_sel, engine_sel, lane_count) in (0usize..3, 0usize..2, 1usize..4),
        skus in (0usize..4, 0usize..4, 0usize..4),
        pool in (1u32..3000, 1u32..3000, 1u32..8000),
        len in 20usize..61,
        queries in prop::collection::vec(
            (0usize..16, 0usize..4, (0u32..25, 0u32..25, 0u32..25), 0usize..64),
            60,
        ),
    ) {
        let all = [
            InstanceType::t4(),
            InstanceType::l4(),
            InstanceType::a100(),
            InstanceType::h100(),
        ];
        let mut engine = [EngineMode::FixedBatch, EngineMode::ContinuousBatching][engine_sel];
        let model = ModelSpec::paper_models()[model_sel].clone();
        let mut opt = ConfigOptimizer::paper_defaults(model, 16).with_engine_mode(engine);
        for &s in [skus.0, skus.1, skus.2].iter().take(lane_count) {
            opt = opt.with_sku(all[s].clone());
        }
        let rates = [0.0, pool.0 as f64 / 1000.0, pool.1 as f64 / 1000.0, pool.2 as f64 / 1000.0];
        let incumbents = opt.feasible(16);
        for (step, &(kind, rate, avail, inc)) in queries.iter().take(len).enumerate() {
            let query = match kind {
                0..=4 => Query::Decide,
                5..=8 => Query::Incumbent(inc),
                9..=14 => Query::Multi,
                _ => Query::FlipEngine,
            };
            let alpha = rates[rate];
            let n = avail.0;
            match query {
                Query::Decide => prop_assert_eq!(
                    opt.decide(n, alpha),
                    opt.decide_reference(n, alpha),
                    "step {step}: decide({n}, {alpha}) {engine:?}"
                ),
                Query::Incumbent(i) => {
                    let inc = incumbents.get(i % incumbents.len().max(1)).copied();
                    prop_assert_eq!(
                        opt.decide_with_incumbent(n, alpha, inc),
                        opt.decide_with_incumbent_reference(n, alpha, inc),
                        "step {step}: incumbent {inc:?} at ({n}, {alpha}) {engine:?}"
                    );
                }
                Query::Multi => {
                    let avail = [avail.0, avail.1, avail.2];
                    let avail = &avail[..lane_count];
                    prop_assert_eq!(
                        opt.decide_multi(avail, alpha),
                        decide_multi_oracle(&opt, engine, avail, alpha),
                        "step {step}: decide_multi({avail:?}, {alpha}) {engine:?}"
                    );
                }
                Query::FlipEngine => {
                    engine = match engine {
                        EngineMode::FixedBatch => EngineMode::ContinuousBatching,
                        EngineMode::ContinuousBatching => EngineMode::FixedBatch,
                    };
                    opt = opt.with_engine_mode(engine);
                }
            }
        }
    }
}

// ---- SLO-aware admission properties -----------------------------------

fn perf() -> PerfModel {
    PerfModel::paper_defaults(ModelSpec::opt_6_7b())
}

fn kvbpt() -> u64 {
    ModelSpec::opt_6_7b().kv_bytes_per_token()
}

/// Drives one scheduler to idle; returns `(retire_time, request)` pairs and
/// the rejected requests. When every queued request defers on an idle
/// engine (worst-case projection busts, best-case does not), the harness
/// lets simulated time pass — exactly what happens in the serving system —
/// until each one is admitted or becomes certainly hopeless and rejects.
fn drive_to_idle(
    sched: &mut IterationScheduler,
    pending: &mut VecDeque<Request>,
    p: &PerfModel,
) -> (Vec<(SimTime, Request)>, Vec<Request>) {
    let mut retired = Vec::new();
    let mut rejected = Vec::new();
    let mut clock = SimTime::ZERO;
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "scheduler failed to make progress");
        match sched.next_event() {
            Some(end) => {
                clock = end;
                for r in sched.advance(end, pending, p) {
                    retired.push((end, r));
                }
                rejected.extend(sched.take_rejected());
            }
            None => {
                if pending.is_empty() {
                    break;
                }
                let before = pending.len();
                sched.admit(pending, clock, p);
                rejected.extend(sched.take_rejected());
                if sched.next_event().is_none() && pending.len() == before {
                    // Everything deferred on an idle engine: wait. Each
                    // deferred deadline eventually admits or turns
                    // certainly-hopeless (rejects), so this terminates.
                    clock += SimDuration::from_secs(5);
                }
            }
        }
    }
    (retired, rejected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The admission guard's end-to-end contract: whatever the workload
    /// mix, chunk size, and deadlines, **every admitted deadline-carrying
    /// request retires by its deadline** — admission never lets a request
    /// in whose projected `l_req` would bust its own SLO or an
    /// already-admitted request's. (Rejected requests are exactly the
    /// hopeless ones; deferred ones wait in the queue.)
    #[test]
    fn admitted_deadlines_are_always_met(
        shapes in prop::collection::vec((32u32..1024, 1u32..96, 30u64..2000), 8),
        chunk_sel in 0usize..4,
        batch in 2u32..9,
    ) {
        let shapes: Vec<(u32, u32, u64)> = shapes;
        let p = perf();
        let chunk = [Some(32), Some(128), Some(512), None][chunk_sel];
        let cfg = ParallelConfig::new(1, 1, 4, batch);
        let mut sched = IterationScheduler::new(cfg, kvbpt(), u64::MAX)
            .with_prefill_chunk(chunk);
        let mut pending: VecDeque<Request> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(s_in, s_out, slo))| {
                Request::new(RequestId(i as u64), SimTime::ZERO, s_in, s_out)
                    .with_slo(SimDuration::from_secs(slo))
            })
            .collect();
        let total = pending.len();
        let (retired, rejected) = drive_to_idle(&mut sched, &mut pending, &p);
        prop_assert_eq!(retired.len() + rejected.len(), total, "conservation");
        for (at, r) in &retired {
            let deadline = r.deadline.expect("all carry deadlines");
            prop_assert!(
                *at <= deadline,
                "{} admitted but retired at {at} past deadline {deadline}",
                r.id
            );
        }
    }

    /// Admission order is deterministic and FIFO under equal deadlines:
    /// identical queues admit identical prefixes in queue order, twice.
    #[test]
    fn admission_order_is_deterministic_under_equal_deadlines(
        count in 1usize..10,
        s_in in 64u32..768,
        s_out in 4u32..64,
        slo in 60u64..1200,
        batch in 2u32..9,
    ) {
        let p = perf();
        let cfg = ParallelConfig::new(1, 1, 4, batch);
        let build_queue = || -> VecDeque<Request> {
            (0..count)
                .map(|i| {
                    Request::new(RequestId(i as u64), SimTime::ZERO, s_in, s_out)
                        .with_slo(SimDuration::from_secs(slo))
                })
                .collect()
        };
        let admit_ids = |q: &mut VecDeque<Request>| -> Vec<u64> {
            let mut s = IterationScheduler::new(cfg, kvbpt(), u64::MAX)
                .with_prefill_chunk(Some(64));
            s.admit(q, SimTime::ZERO, &p);
            s.running().iter().map(|r| r.request().id.0).collect()
        };
        let mut q1 = build_queue();
        let mut q2 = build_queue();
        let a = admit_ids(&mut q1);
        let b = admit_ids(&mut q2);
        prop_assert_eq!(&a, &b, "identical inputs admit identically");
        // FIFO among equals: the admitted set is a prefix in id order.
        let expect: Vec<u64> = (0..a.len() as u64).collect();
        prop_assert_eq!(a, expect, "equal deadlines admit in queue order");
        prop_assert_eq!(q1, q2);
    }
}

// ---- The re-derived l_req estimator changes Algorithm 1's choices ------

/// The documented scenario (see README "Engine-aware Algorithm 1"):
/// GPT-20B, 12 usable instances, α = 0.35 req/s. The fixed-batch estimator
/// pays a batch-fill delay of `(B−1)/2α` and so picks a small batch,
/// `(D=3, P=2, M=8, B=2)`; the continuous estimator knows slots turn over
/// at iteration granularity and picks the full `B=8` capacity on the same
/// mesh — more headroom at the same latency. FixedBatch pricing is
/// untouched, so paper-exact figures stay bit-identical.
#[test]
fn continuous_estimator_changes_the_algorithm1_choice() {
    let fixed = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16);
    let cont = ConfigOptimizer::paper_defaults(ModelSpec::gpt_20b(), 16)
        .with_engine_mode(EngineMode::ContinuousBatching);

    let df = fixed.decide(12, 0.35).now.expect("feasible");
    let dc = cont.decide(12, 0.35).now.expect("feasible");
    assert_eq!(
        (df.data, df.pipeline, df.tensor, df.batch),
        (3, 2, 8, 2),
        "fixed-batch Algorithm 1 pick"
    );
    assert_eq!(
        (dc.data, dc.pipeline, dc.tensor, dc.batch),
        (3, 2, 8, 8),
        "continuous Algorithm 1 pick: same mesh, full batch capacity"
    );
    assert_ne!(df, dc, "the re-derived estimator changes the choice");

    // And the default-constructed optimizer still prices with the paper's
    // fixed-batch formulas (figure comparisons stay bit-exact).
    assert_eq!(fixed.engine_mode(), EngineMode::FixedBatch);
    assert_eq!(
        fixed.estimated_latency(&df, 0.35),
        fixed.perf().request_latency(&df, 0.35)
    );
}
