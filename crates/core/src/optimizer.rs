//! Algorithm 1: the adaptive configuration optimizer.
//!
//! Given the currently available instance count `N_t` and the estimated
//! arrival rate `α_t`, pick the next parallel configuration `C_{t+1}`:
//!
//! * if some configuration can sustain `α_t` (`φ(C) ≥ α_t`) within the
//!   fleet ceiling, choose — among sustaining configurations — the one
//!   minimizing end-to-end request latency `l_req(C)`, breaking ties toward
//!   fewer instances (lower cost);
//! * otherwise maximize throughput within the instances at hand (`N_t`);
//! * report the instance delta so the instance manager can allocate
//!   (on-demand and spot together, §3.2) or release (on-demand first).
//!
//! # Pricing lanes
//!
//! Every SKU is priced through one private lane: its `PerfModel`, GPU,
//! GPUs per instance, a lazily built [`CandidateFrontier`] and a minima
//! table over it. The base fleet is a lane, and each SKU registered with
//! [`ConfigOptimizer::with_sku`] gets its own lane unless it prices
//! exactly like the base, in which case it shares the base lane, table
//! included. The single-SKU [`ConfigOptimizer::decide`] is the joint
//! [`ConfigOptimizer::decide_multi`] over that one lane: both read the
//! same tables, and differ only in how they report the instance delta.
//!
//! # Hot-path architecture
//!
//! The paper's bound is "re-decide within 1 second" (§3.2) — and with
//! multi-pool markets every rate tick, grant and preemption in every pool
//! hits this code. The decision paths therefore run over a memoized
//! [`CandidateFrontier`]: the space is enumerated and priced **once** per
//! lane and fleet ceiling, for the optimizer's own engine only;
//! `feasible_at(n)` is a range lookup and Pareto-dominated candidates are
//! skipped.
//!
//! A lane's answer depends only on the arrival rate and that lane's
//! availability, and a run sees few distinct rates, so each lane keeps a
//! bounded table with one row per rate (keyed by α's IEEE-754 bits): the
//! steps of the running minimum-latency sustaining candidate as the fleet
//! grows, so the pick within any `n` instances is the last step starting
//! at or below `n`. One pass over the instance-sorted frontier builds a
//! row, skipping unpriced every candidate whose cached latency floor
//! already exceeds the running minimum. Every later decision at that
//! rate, at any availability, is two lookups per lane: each step keeps its
//! pick's `l_req`, so picks from competing lanes compare with no
//! re-pricing. Rows index one frontier, so they go when it is rebuilt or
//! grown and when the engine mode changes. Only the max-throughput
//! fallback (line 5) and [`ConfigOptimizer::decide_slo`] (behind its own
//! small memo) still scan.
//!
//! Decisions are **bit-identical** with the fresh-enumeration reference
//! implementations ([`ConfigOptimizer::decide_reference`] and friends),
//! which are kept — unchanged from the pre-frontier code — as the contract
//! the equivalence property tests and the §6.2 pinned tests hold both
//! paths to, and as the `control_plane` bench's baseline.

use std::cell::{Cell, Ref, RefCell};
use std::cmp::{Ordering, Reverse};
use std::collections::HashMap;

use cloudsim::{GpuSpec, InstanceType};
use llmsim::{CostModel, MemoryModel, ModelSpec};
use parallelism::{
    enumerate_configs, Candidate, CandidateFrontier, ConfigSpace, EngineMode, ParallelConfig,
    PerfModel,
};
use simkit::SimDuration;

/// The optimizer's verdict for one invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerDecision {
    /// The configuration to materialize *now* (fits in `N_t` instances),
    /// or `None` when even the smallest feasible mesh does not fit.
    pub now: Option<ParallelConfig>,
    /// The configuration the fleet should grow toward (may need more
    /// instances than `N_t`); equals `now` when no growth is warranted.
    pub target: Option<ParallelConfig>,
    /// `#Instances(target) − N_t` (Algorithm 1, line 6).
    pub instance_delta: i64,
}

/// The joint verdict over a heterogeneous fleet: which SKU lane serves,
/// and what configuration on it.
///
/// `now` and `target` may name *different* lanes — e.g. keep serving on
/// the surviving L4 pool while growing toward an H100 mesh — which is
/// exactly the cross-SKU migration the device mapper prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiSkuDecision {
    /// `(lane index, config)` to materialize now, or `None` when nothing
    /// fits any lane's current availability.
    pub now: Option<(usize, ParallelConfig)>,
    /// `(lane index, config)` the fleet should grow toward.
    pub target: Option<(usize, ParallelConfig)>,
    /// `#Instances(target) − avail[target lane]` — the delta on the
    /// *target lane's* pool(s); other lanes' instances are releasable.
    pub instance_delta: i64,
}

/// Key of a [`ConfigOptimizer::decide_slo`] decision. α is keyed by its
/// IEEE-754 bits: the memo must never conflate rates that price
/// differently.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SloKey {
    n: u32,
    alpha_bits: u64,
    slo: SimDuration,
}

/// Entries kept before the SLO decision memo is cleared wholesale
/// (decisions are pure, so eviction is only a space/speed trade-off,
/// never a correctness one).
const MEMO_CAP: usize = 64;

/// Arrival rates whose minima rows one lane keeps before it drops them
/// all. A run sees few distinct rates: the estimator divides an arrival
/// count by a fixed window.
const ROW_CAP: usize = 1024;

/// One step of a minima row: from `from` instances up to the next step,
/// the minimum-`(l_req, instances, config)` candidate sustaining the
/// row's rate is frontier candidate `index`, priced at `l_req`.
#[derive(Debug, Clone, Copy)]
struct Step {
    from: u32,
    l_req: SimDuration,
    index: u32,
}

/// One SKU's pricing state: its performance model (the per-model
/// calibration scale on that SKU's hardware terms), its hardware shape,
/// its memoized frontier, built lazily at the fleet ceiling under the
/// optimizer's engine (and grown if a query ever exceeds it), and the
/// minima table over that frontier.
#[derive(Debug, Clone)]
struct Lane {
    perf: PerfModel,
    gpu: GpuSpec,
    gpus_per_instance: u8,
    frontier: RefCell<Option<CandidateFrontier>>,
    /// One row per arrival rate, keyed by α's IEEE-754 bits: the
    /// [`Step`]s of the minimum candidate sustaining α, in increasing
    /// `from` (and strictly falling `l_req`); no step covers a fleet size
    /// at which nothing sustains α. Rows index the current frontier, so
    /// they go whenever it is rebuilt. Only ever probed by key, so the
    /// map's order never shows.
    rows: RefCell<HashMap<u64, Box<[Step]>>>,
}

impl Lane {
    fn new(perf: PerfModel, gpu: GpuSpec, gpus_per_instance: u8) -> Self {
        Lane {
            perf,
            gpu,
            gpus_per_instance,
            frontier: RefCell::new(None),
            rows: RefCell::new(HashMap::new()),
        }
    }

    /// Drops the frontier and every row priced over it.
    fn reset(&mut self) {
        *self.frontier.get_mut() = None;
        self.rows.get_mut().clear();
    }

    /// The minimum sustaining candidates of `fr` (this lane's frontier)
    /// within `ceiling` and within `n` instances at rate `alpha`, with
    /// their `l_req`, read from `alpha`'s row, and whether the row had to
    /// be built first.
    fn sustaining_picks<'f>(
        &self,
        fr: &'f CandidateFrontier,
        alpha: f64,
        ceiling: u32,
        n: u32,
    ) -> ([Option<(SimDuration, &'f Candidate)>; 2], bool) {
        let mut rows = self.rows.borrow_mut();
        let bits = alpha.to_bits();
        if rows.len() >= ROW_CAP && !rows.contains_key(&bits) {
            rows.clear();
        }
        let mut built = false;
        let row = rows.entry(bits).or_insert_with(|| {
            built = true;
            minima_row(fr, &self.perf, alpha)
        });
        let picks = [ceiling, n].map(|m| {
            let steps = row.partition_point(|s| s.from <= m);
            let s = row[..steps].last()?;
            Some((s.l_req, fr.candidate(s.index)))
        });
        (picks, built)
    }
}

/// A registered SKU: its instance type, and its own lane unless it prices
/// exactly like the base fleet (`None` shares the base lane).
#[derive(Debug, Clone)]
struct SkuLane {
    ty: InstanceType,
    own: Option<Lane>,
}

/// The performance estimator of `model` served on `ty`: the SKU's
/// hardware terms under the model-structure calibration scale, at sequence
/// shape `(s_in, s_out)`. Every SKU the system prices — the base fleet and
/// each heterogeneous lane — goes through here. On the T4 preset this is
/// [`PerfModel::paper_defaults`] bitwise.
pub(crate) fn sku_perf_model(
    model: ModelSpec,
    ty: &InstanceType,
    s_in: u32,
    s_out: u32,
) -> PerfModel {
    let scale = llmsim::calibration::calibration_scale(&model);
    let cost = CostModel::for_instance_type(ty).with_scale(scale);
    PerfModel::new(model, cost, s_in, s_out)
}

/// A `(lane index, config)` pick, if any.
type LanePick = Option<(usize, ParallelConfig)>;

/// The paper's Algorithm 1, parameterized by model, memory model and
/// hardware.
///
/// # Example
///
/// ```
/// use spotserve::ConfigOptimizer;
///
/// let opt = ConfigOptimizer::paper_defaults(llmsim::ModelSpec::gpt_20b(), 16);
/// // Ten 4-GPU instances, 0.35 req/s: a sustaining config exists.
/// let d = opt.decide(10, 0.35);
/// let c = d.now.expect("feasible");
/// assert!(opt.perf().throughput(&c) >= 0.35);
/// ```
#[derive(Debug, Clone)]
pub struct ConfigOptimizer {
    /// The base fleet's lane.
    base: Lane,
    mem: MemoryModel,
    space: ConfigSpace,
    max_instances: u32,
    /// Which engine's `φ(C)`/`l_req(C)` estimator prices candidates: the
    /// paper's fixed-batch formulas, or the re-derived continuous-batching
    /// ones ([`PerfModel::request_latency_continuous`]). Defaults to
    /// [`EngineMode::FixedBatch`] so paper-exact figures stay bit-exact;
    /// the serving system passes its own engine mode in.
    engine: EngineMode,
    /// Registered SKU lanes, in registration order. The serving system
    /// registers one per distinct SKU in its fleet, a homogeneous fleet's
    /// base SKU included.
    lanes: Vec<SkuLane>,
    /// Memo of [`ConfigOptimizer::decide_slo`], cleared wholesale past
    /// [`MEMO_CAP`] entries.
    slo_memo: RefCell<Vec<(SloKey, OptimizerDecision)>>,
    /// Lifetime count of decisions answered with no frontier scan.
    /// Telemetry instrumentation: callers difference it around a
    /// `decide*` call to tag the decision memo-hit or miss.
    memo_hits: Cell<u64>,
}

impl ConfigOptimizer {
    /// Builds an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_instance` or `max_instances` is zero.
    pub fn new(
        perf: PerfModel,
        mem: MemoryModel,
        gpu: GpuSpec,
        space: ConfigSpace,
        gpus_per_instance: u8,
        max_instances: u32,
    ) -> Self {
        assert!(gpus_per_instance > 0 && max_instances > 0);
        ConfigOptimizer {
            base: Lane::new(perf, gpu, gpus_per_instance),
            mem,
            space,
            max_instances,
            engine: EngineMode::FixedBatch,
            lanes: Vec::new(),
            slo_memo: RefCell::new(Vec::new()),
            memo_hits: Cell::new(0),
        }
    }

    /// Prices candidates with `engine`'s estimator — Algorithm 1 should
    /// model the engine that actually serves (the continuous engine has no
    /// batch-fill delay and turns slots over faster, which shifts its
    /// latency-minimizing choices toward larger batch capacities).
    /// Frontiers are priced for one engine, so this drops every frontier,
    /// minima row and memo entry.
    pub fn with_engine_mode(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        let own = self.lanes.iter_mut().filter_map(|l| l.own.as_mut());
        for lane in std::iter::once(&mut self.base).chain(own) {
            lane.reset();
        }
        self.slo_memo.get_mut().clear();
        self
    }

    /// Registers a SKU lane for heterogeneous decisions: `ty`'s hardware
    /// terms under this optimizer's model-structure calibration scale and
    /// sequence shape. Lane indices are assignment order — the caller's
    /// pool→SKU mapping must use the same order. A SKU that prices exactly
    /// like the base fleet (equal `PerfModel`, GPU and GPUs per instance)
    /// shares the base lane, frontier and minima table included.
    pub fn with_sku(mut self, ty: InstanceType) -> Self {
        let base = &self.base;
        let (s_in, s_out) = base.perf.sequence_shape();
        let perf = sku_perf_model(base.perf.model().clone(), &ty, s_in, s_out);
        let shares_base = perf == base.perf
            && ty.gpu == base.gpu
            && ty.gpus_per_instance == base.gpus_per_instance;
        let own = (!shares_base).then(|| Lane::new(perf, ty.gpu, ty.gpus_per_instance));
        self.lanes.push(SkuLane { ty, own });
        self
    }

    /// Lifetime count of `decide*` queries answered with no frontier scan:
    /// every lane's minima row for the rate was already built (and, for
    /// [`ConfigOptimizer::decide_slo`], the answer was memoized).
    /// Monotone; difference around a call to learn whether that call hit.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.get()
    }

    /// Number of registered SKU lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The instance type behind lane `i`.
    pub fn lane_type(&self, i: usize) -> &InstanceType {
        &self.lanes[i].ty
    }

    /// Lane `i`'s pricing state (the base lane when the SKU shares it).
    fn lane(&self, i: usize) -> &Lane {
        self.lanes[i].own.as_ref().unwrap_or(&self.base)
    }

    /// Lane `i`'s performance model (that SKU's hardware under the shared
    /// calibration scale).
    pub fn lane_perf(&self, i: usize) -> &PerfModel {
        &self.lane(i).perf
    }

    /// `φ(C)` on lane `i` under the selected engine's estimator.
    pub fn lane_throughput(&self, i: usize, c: &ParallelConfig) -> f64 {
        self.throughput_on(self.lane(i), c)
    }

    /// `l_req(C, α)` on lane `i` under the selected engine's estimator.
    pub fn lane_latency(&self, i: usize, c: &ParallelConfig, alpha: f64) -> SimDuration {
        self.latency_on(self.lane(i), c, alpha)
    }

    /// The engine mode whose estimator prices candidates.
    pub fn engine_mode(&self) -> EngineMode {
        self.engine
    }

    /// `φ(C)` under the selected engine's estimator (served from the
    /// frontier's cache when `c` is a priced candidate).
    pub fn estimated_throughput(&self, c: &ParallelConfig) -> f64 {
        self.throughput_on(&self.base, c)
    }

    /// `l_req(C, α)` under the selected engine's estimator (served from
    /// the frontier's cached components when `c` is a priced candidate).
    pub fn estimated_latency(&self, c: &ParallelConfig, alpha: f64) -> SimDuration {
        self.latency_on(&self.base, c, alpha)
    }

    /// `φ(C)` on `lane`: the frontier's cached value when `c` is a priced
    /// candidate there, else straight from the cost model.
    fn throughput_on(&self, lane: &Lane, c: &ParallelConfig) -> f64 {
        match lane.frontier.borrow().as_ref().and_then(|f| f.lookup(c)) {
            Some(cand) => cand.throughput(),
            None => lane.perf.throughput_under(self.engine, c),
        }
    }

    /// `l_req(C, α)` on `lane`, like [`Self::throughput_on`].
    fn latency_on(&self, lane: &Lane, c: &ParallelConfig, alpha: f64) -> SimDuration {
        match lane.frontier.borrow().as_ref().and_then(|f| f.lookup(c)) {
            Some(cand) => cand.latency(&lane.perf, alpha),
            None => lane.perf.latency_under(self.engine, c, alpha),
        }
    }

    /// The paper's evaluation setup for `model` with a fleet ceiling.
    pub fn paper_defaults(model: ModelSpec, max_instances: u32) -> Self {
        ConfigOptimizer::new(
            PerfModel::paper_defaults(model),
            MemoryModel::default(),
            GpuSpec::t4(),
            ConfigSpace::default(),
            4,
            max_instances,
        )
    }

    /// The performance model in use.
    pub fn perf(&self) -> &PerfModel {
        &self.base.perf
    }

    /// The memory model in use.
    pub fn memory(&self) -> &MemoryModel {
        &self.mem
    }

    /// Enumerates feasible configurations for a fleet of `instances` —
    /// the reference enumeration (fresh, canonical order), which the
    /// frontier's range lookups are held bit-equal to.
    pub fn feasible(&self, instances: u32) -> Vec<ParallelConfig> {
        enumerate_configs(
            self.base.perf.model(),
            &self.mem,
            &self.base.gpu,
            &self.space,
            instances * self.base.gpus_per_instance as u32,
        )
    }

    /// `lane`'s frontier, built (or grown) to cover `ceiling` instances; a
    /// rebuild drops the lane's minima rows. Must not be called while a
    /// borrow of a frontier it would rebuild is live.
    fn frontier<'a>(&'a self, lane: &'a Lane, ceiling: u32) -> Ref<'a, CandidateFrontier> {
        let covered = lane
            .frontier
            .borrow()
            .as_ref()
            .is_some_and(|f| f.ceiling() >= ceiling);
        if !covered {
            lane.rows.borrow_mut().clear();
            *lane.frontier.borrow_mut() = Some(CandidateFrontier::new(
                &lane.perf,
                self.engine,
                &self.mem,
                &lane.gpu,
                &self.space,
                lane.gpus_per_instance,
                ceiling.max(self.max_instances),
            ));
        }
        Ref::map(lane.frontier.borrow(), |f| f.as_ref().expect("built above"))
    }

    /// Counts one decision answered with no frontier scan.
    fn note_hit(&self) {
        self.memo_hits.set(self.memo_hits.get() + 1);
    }

    /// Runs Algorithm 1 for `n_instances` available instances (including
    /// grace-period arrivals, excluding instances being reclaimed) and
    /// arrival-rate estimate `alpha`.
    pub fn decide(&self, n_instances: u32, alpha: f64) -> OptimizerDecision {
        self.decide_with_incumbent(n_instances, alpha, None)
    }

    /// Like [`ConfigOptimizer::decide`], but biased toward the `incumbent`
    /// configuration: switching has a real migration cost, so the incumbent
    /// is kept whenever it still sustains `alpha` and its estimated latency
    /// is within 15% of the best candidate's.
    pub fn decide_with_incumbent(
        &self,
        n_instances: u32,
        alpha: f64,
        incumbent: Option<ParallelConfig>,
    ) -> OptimizerDecision {
        let mut d = self.decide_fresh(n_instances, alpha);
        let Some(inc) = incumbent else { return d };
        let gpi = self.base.gpus_per_instance;
        if inc.instances_needed(gpi) > n_instances {
            return d;
        }
        // Direct membership test: the incumbent is feasible iff it is in
        // the enumerated space and fits the fleet — a binary search over
        // the frontier, not an O(|space|) re-enumeration.
        let ceiling = self.max_instances.max(n_instances);
        if !self
            .frontier(&self.base, ceiling)
            .contains(&inc, n_instances)
        {
            return d;
        }
        let keepable = |best: ParallelConfig| {
            let inc_l = self.estimated_latency(&inc, alpha);
            let best_l = self.estimated_latency(&best, alpha);
            self.estimated_throughput(&inc) >= alpha
                && inc_l != SimDuration::MAX
                && inc_l.as_secs_f64() <= best_l.as_secs_f64() * 1.15
        };
        if let Some(best) = d.now {
            if best != inc && keepable(best) {
                d.now = Some(inc);
            }
        }
        if let Some(best) = d.target {
            if best != inc && keepable(best) {
                d.target = Some(inc);
                d.instance_delta = inc.instances_needed(gpi) as i64 - n_instances as i64;
            }
        }
        d
    }

    /// The §3.2 alternative objective: instead of minimizing latency, meet
    /// a pre-defined SLO (`l_req(C) ≤ slo`) with the *cheapest* fleet.
    /// Falls back to plain latency minimization when no configuration can
    /// meet the SLO.
    pub fn decide_slo(&self, n_instances: u32, alpha: f64, slo: SimDuration) -> OptimizerDecision {
        let key = SloKey {
            n: n_instances,
            alpha_bits: alpha.to_bits(),
            slo,
        };
        if let Some(d) = self.recall_slo(&key) {
            return d;
        }
        let ceiling = self.max_instances.max(n_instances);
        // Cheapest-meeting selection key: (instances, l_req, canonical).
        let mut target_key: Option<(u32, SimDuration, ParallelConfig)> = None;
        let mut now_key: Option<(u32, SimDuration, ParallelConfig)> = None;
        for cand in self.frontier(&self.base, ceiling).pruned_at(ceiling) {
            let l = cand.latency(&self.base.perf, alpha);
            if l > slo {
                continue;
            }
            let key = (cand.instances, l, cand.config);
            if target_key.is_none_or(|best| key < best) {
                target_key = Some(key);
            }
            if cand.instances <= n_instances && now_key.is_none_or(|best| key < best) {
                now_key = Some(key);
            }
        }
        let Some((needed, _, target)) = target_key else {
            // Nothing meets the SLO anywhere: plain latency minimization —
            // memoized under the SLO key too, so a standing unmeetable SLO
            // does not re-scan the ceiling range on every event.
            let d = self.decide(n_instances, alpha);
            self.memoize_slo(key, d);
            return d;
        };
        let now = if needed <= n_instances {
            Some(target)
        } else {
            now_key
                .map(|(_, _, c)| c)
                .or_else(|| self.decide(n_instances, alpha).now)
        };
        let d = OptimizerDecision {
            now,
            target: Some(target),
            instance_delta: needed as i64 - n_instances as i64,
        };
        self.memoize_slo(key, d);
        d
    }

    /// A memoized [`ConfigOptimizer::decide_slo`] answer, counted as a
    /// memo hit.
    fn recall_slo(&self, key: &SloKey) -> Option<OptimizerDecision> {
        let memo = self.slo_memo.borrow();
        let hit = memo.iter().find(|(k, _)| k == key).map(|&(_, d)| d);
        if hit.is_some() {
            self.note_hit();
        }
        hit
    }

    /// Memoizes a [`ConfigOptimizer::decide_slo`] answer.
    fn memoize_slo(&self, key: SloKey, d: OptimizerDecision) {
        let mut memo = self.slo_memo.borrow_mut();
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.push((key, d));
    }

    /// Algorithm 1 over a heterogeneous fleet: given per-lane instance
    /// availability `avail[i]` (same order as [`ConfigOptimizer::with_sku`]
    /// registration), pick the best `(SKU, C, B)` jointly.
    ///
    /// The structure is [`ConfigOptimizer::decide`]'s, with the lane index
    /// inserted into each tie-break:
    ///
    /// * if any lane has a sustaining configuration within its ceiling,
    ///   minimize `(l_req, instances, lane, config)` across *all* lanes —
    ///   a lane with zero availability today is still a valid growth
    ///   target (that is the cross-SKU recovery path);
    /// * otherwise maximize throughput over what is available right now,
    ///   ties toward the lower lane index then canonical order.
    ///
    /// `now` is what can materialize immediately and may sit on a
    /// *different* lane than `target` — the serving mesh stays single-SKU,
    /// and the device mapper prices the cross-SKU migration. When nothing
    /// fits anywhere, the delta is 0 (where `decide` reports `−N`).
    ///
    /// # Panics
    ///
    /// Panics when no lanes are registered or `avail.len()` differs from
    /// the lane count.
    pub fn decide_multi(&self, avail: &[u32], alpha: f64) -> MultiSkuDecision {
        assert!(!self.lanes.is_empty(), "no SKU lanes registered");
        assert_eq!(avail.len(), self.lanes.len(), "one entry per lane");
        let lanes: Vec<(&Lane, u32)> = avail
            .iter()
            .enumerate()
            .map(|(i, &a)| (self.lane(i), a))
            .collect();
        let (now, target, needed) = self.joint(&lanes, alpha);
        MultiSkuDecision {
            now,
            target,
            instance_delta: target.map_or(0, |(i, _)| needed as i64 - avail[i] as i64),
        }
    }

    /// Algorithm 1's core decision over the base lane.
    fn decide_fresh(&self, n_instances: u32, alpha: f64) -> OptimizerDecision {
        let (now, target, needed) = self.joint(&[(&self.base, n_instances)], alpha);
        OptimizerDecision {
            now: now.map(|(_, c)| c),
            target: target.map(|(_, c)| c),
            instance_delta: needed as i64 - n_instances as i64,
        }
    }

    /// Algorithm 1's lines 2–5 over `(lane, available instances)` pairs,
    /// lane indices being positions in `lanes`. Returns `(now, target,
    /// instances the target needs)`, the last 0 when there is no target.
    ///
    /// * Line 3: the target is the minimum-`(l_req, instances, lane,
    ///   config)` candidate sustaining `alpha` within any lane's ceiling;
    ///   `now` is the target when it fits its lane, else the minimum
    ///   within each lane's availability. Each lane answers both from its
    ///   minima row for `alpha`.
    /// * Line 5: when nothing sustains `alpha` (for `now`, within
    ///   availability), the maximum-`(φ, Reverse((lane, config)))`
    ///   candidate within availability — scanned only when needed.
    ///
    /// Counts a memo hit when no row had to be built and line 5 did not
    /// run: the decision touched no frontier beyond table lookups.
    fn joint(&self, lanes: &[(&Lane, u32)], alpha: f64) -> (LanePick, LanePick, u32) {
        let ceiling = |avail: u32| self.max_instances.max(avail);
        let mut target: Option<(SimDuration, u32, usize, ParallelConfig)> = None;
        let mut now = None;
        let mut scanned = false;
        for (i, &(lane, avail)) in lanes.iter().enumerate() {
            let fr = self.frontier(lane, ceiling(avail));
            let ([at_ceiling, within], built) =
                lane.sustaining_picks(&fr, alpha, ceiling(avail), avail);
            scanned |= built;
            let key = |(l, c): (SimDuration, &Candidate)| (l, c.instances, i, c.config);
            target = target.into_iter().chain(at_ceiling.map(key)).min();
            now = now.into_iter().chain(within.map(key)).min();
        }
        let mut fastest = || {
            scanned = true;
            let mut best: Option<(f64, Reverse<(usize, ParallelConfig)>)> = None;
            for (i, &(lane, avail)) in lanes.iter().enumerate() {
                for cand in self.frontier(lane, ceiling(avail)).pruned_at(avail) {
                    let key = (cand.throughput(), Reverse((i, cand.config)));
                    let better = best.as_ref().is_none_or(|b| {
                        key.partial_cmp(b).expect("throughput is finite") == Ordering::Greater
                    });
                    if better {
                        best = Some(key);
                    }
                }
            }
            best.map(|(_, Reverse(pick))| pick)
        };
        let picks = match target {
            Some((_, needed, lane, config)) => {
                let now = if needed <= lanes[lane].1 {
                    Some((lane, config))
                } else {
                    now.map(|(_, _, i, c)| (i, c)).or_else(fastest)
                };
                (now, Some((lane, config)), needed)
            }
            None => {
                let best = fastest();
                let needed =
                    best.map_or(0, |(i, c)| c.instances_needed(lanes[i].0.gpus_per_instance));
                (best, best, needed)
            }
        };
        if !scanned {
            self.note_hit();
        }
        picks
    }

    // ---- Reference implementations ----------------------------------
    //
    // The pre-frontier decision paths, kept verbatim: they re-enumerate
    // the space on every call and price every candidate from the cost
    // model. The frontier-backed paths above are pinned bit-identical to
    // these by the equivalence property test (and by the §6.2 pinned
    // tests, which predate the frontier). They also serve as the
    // before/after baseline for the `control_plane` bench.

    /// Scores candidates: minimize `l_req(C, α)`, tie-break toward fewer
    /// instances, then canonical order for determinism.
    fn best_latency(
        &self,
        configs: impl IntoIterator<Item = ParallelConfig>,
        alpha: f64,
    ) -> Option<ParallelConfig> {
        configs
            .into_iter()
            .map(|c| {
                let l = self.estimated_latency_uncached(&c, alpha);
                (l, c.instances_needed(self.base.gpus_per_instance), c)
            })
            .min_by(|a, b| a.cmp(b))
            .map(|(_, _, c)| c)
    }

    /// `φ(C)` straight from the cost model (never the frontier cache).
    fn estimated_throughput_uncached(&self, c: &ParallelConfig) -> f64 {
        self.base.perf.throughput_under(self.engine, c)
    }

    /// `l_req(C, α)` straight from the cost model (never the frontier
    /// cache).
    fn estimated_latency_uncached(&self, c: &ParallelConfig, alpha: f64) -> SimDuration {
        self.base.perf.latency_under(self.engine, c, alpha)
    }

    /// The pre-frontier [`ConfigOptimizer::decide`]: fresh enumeration and
    /// pricing on every call. Reference implementation — see above.
    pub fn decide_reference(&self, n_instances: u32, alpha: f64) -> OptimizerDecision {
        self.decide_with_incumbent_reference(n_instances, alpha, None)
    }

    /// The pre-frontier [`ConfigOptimizer::decide_with_incumbent`],
    /// including its `O(|space|)` incumbent membership re-enumeration.
    /// Reference implementation — see above.
    pub fn decide_with_incumbent_reference(
        &self,
        n_instances: u32,
        alpha: f64,
        incumbent: Option<ParallelConfig>,
    ) -> OptimizerDecision {
        let mut d = self.decide_fresh_reference(n_instances, alpha);
        let Some(inc) = incumbent else { return d };
        if inc.instances_needed(self.base.gpus_per_instance) > n_instances {
            return d;
        }
        if !self.feasible(n_instances).contains(&inc) {
            return d;
        }
        let keepable = |best: ParallelConfig| {
            let inc_l = self.estimated_latency_uncached(&inc, alpha);
            let best_l = self.estimated_latency_uncached(&best, alpha);
            self.estimated_throughput_uncached(&inc) >= alpha
                && inc_l != SimDuration::MAX
                && inc_l.as_secs_f64() <= best_l.as_secs_f64() * 1.15
        };
        if let Some(best) = d.now {
            if best != inc && keepable(best) {
                d.now = Some(inc);
            }
        }
        if let Some(best) = d.target {
            if best != inc && keepable(best) {
                d.target = Some(inc);
                d.instance_delta =
                    inc.instances_needed(self.base.gpus_per_instance) as i64 - n_instances as i64;
            }
        }
        d
    }

    /// The pre-frontier [`ConfigOptimizer::decide_slo`]. Reference
    /// implementation — see above.
    pub fn decide_slo_reference(
        &self,
        n_instances: u32,
        alpha: f64,
        slo: SimDuration,
    ) -> OptimizerDecision {
        let ceiling = self.max_instances.max(n_instances);
        let meeting: Vec<ParallelConfig> = self
            .feasible(ceiling)
            .into_iter()
            .filter(|c| self.estimated_latency_uncached(c, alpha) <= slo)
            .collect();
        if meeting.is_empty() {
            return self.decide_reference(n_instances, alpha);
        }
        let target = meeting
            .iter()
            .copied()
            .map(|c| {
                // Cheapest first, then lowest latency, then canonical.
                (
                    c.instances_needed(self.base.gpus_per_instance),
                    self.estimated_latency_uncached(&c, alpha),
                    c,
                )
            })
            .min()
            .map(|(_, _, c)| c);
        let now = target
            .filter(|t| t.instances_needed(self.base.gpus_per_instance) <= n_instances)
            .or_else(|| {
                meeting
                    .into_iter()
                    .filter(|c| c.instances_needed(self.base.gpus_per_instance) <= n_instances)
                    .map(|c| {
                        (
                            c.instances_needed(self.base.gpus_per_instance),
                            self.estimated_latency_uncached(&c, alpha),
                            c,
                        )
                    })
                    .min()
                    .map(|(_, _, c)| c)
            })
            .or(self.decide_reference(n_instances, alpha).now);
        let needed = target
            .map(|t| t.instances_needed(self.base.gpus_per_instance))
            .unwrap_or(0);
        OptimizerDecision {
            now,
            target,
            instance_delta: needed as i64 - n_instances as i64,
        }
    }

    fn decide_fresh_reference(&self, n_instances: u32, alpha: f64) -> OptimizerDecision {
        // Line 2: does any configuration within the ceiling sustain α?
        let ceiling = self.max_instances.max(n_instances);
        let all = self.feasible(ceiling);
        let sustaining: Vec<ParallelConfig> = all
            .iter()
            .copied()
            .filter(|c| self.estimated_throughput_uncached(c) >= alpha)
            .collect();

        let target = if !sustaining.is_empty() {
            // Line 3: minimize l_req among sustaining configs.
            self.best_latency(sustaining, alpha)
        } else {
            // Line 5: maximize throughput within the current fleet.
            self.feasible(n_instances)
                .into_iter()
                .map(|c| (self.estimated_throughput_uncached(&c), Reverse(c)))
                .max_by(|a, b| a.partial_cmp(b).expect("throughput is finite"))
                .map(|(_, Reverse(c))| c)
        };

        // What can actually run right now, consistent with the target's
        // shape preference.
        let now_candidates = self.feasible(n_instances);
        let now = match target {
            Some(t) if t.instances_needed(self.base.gpus_per_instance) <= n_instances => Some(t),
            _ => {
                let sustaining_now: Vec<ParallelConfig> = now_candidates
                    .iter()
                    .copied()
                    .filter(|c| self.estimated_throughput_uncached(c) >= alpha)
                    .collect();
                if sustaining_now.is_empty() {
                    // Max throughput with what we have.
                    now_candidates
                        .into_iter()
                        .map(|c| (self.estimated_throughput_uncached(&c), Reverse(c)))
                        .max_by(|a, b| a.partial_cmp(b).expect("finite"))
                        .map(|(_, Reverse(c))| c)
                } else {
                    self.best_latency(sustaining_now, alpha)
                }
            }
        };

        let needed = target
            .map(|t| t.instances_needed(self.base.gpus_per_instance))
            .unwrap_or(0);
        OptimizerDecision {
            now,
            target,
            instance_delta: needed as i64 - n_instances as i64,
        }
    }
}

/// One minima row of `fr` at rate `alpha` (see `Lane::rows`), from one
/// pass over the instance-sorted pruned candidates that starts a step
/// wherever the running minimum falls (a later fall in the same
/// instance bucket replaces that bucket's step). Scanning in
/// `(instances, config)` order, a candidate beats the running minimum iff
/// its `l_req` is strictly lower, so the row is bit-identical to
/// `best_latency` over the sustaining subset of a fresh enumeration at
/// every fleet size (pruning only skips candidates that lose every key
/// comparison). For `alpha > 0` a candidate whose latency floor exceeds
/// the running minimum's `l_req` is skipped unpriced: it loses to that
/// minimum, and the minimum only falls as the fleet grows.
fn minima_row(fr: &CandidateFrontier, perf: &PerfModel, alpha: f64) -> Box<[Step]> {
    let mut row: Vec<Step> = Vec::new();
    for (index, cand) in fr.indexed_pruned() {
        let best = row.last().map(|s| s.l_req);
        let beaten = |floor| best.is_some_and(|l| floor > l);
        if cand.throughput() < alpha || (alpha > 0.0 && beaten(cand.latency_floor())) {
            continue;
        }
        let l_req = cand.latency(perf, alpha);
        if best.is_some_and(|b| l_req >= b) {
            continue;
        }
        let step = Step {
            from: cand.instances,
            l_req,
            index,
        };
        match row.last_mut() {
            Some(last) if last.from == step.from => *last = step,
            _ => row.push(step),
        }
    }
    row.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(model: ModelSpec) -> ConfigOptimizer {
        ConfigOptimizer::paper_defaults(model, 16)
    }

    #[test]
    fn sustaining_config_minimizes_latency() {
        let o = opt(ModelSpec::gpt_20b());
        let d = o.decide(10, 0.35);
        let c = d.now.expect("feasible at 10 instances");
        assert!(o.perf().throughput(&c) >= 0.35);
        // Exhaustive check: no sustaining config within 10 instances has
        // strictly lower l_req.
        let l = o.perf().request_latency(&c, 0.35);
        for other in o.feasible(10) {
            if o.perf().throughput(&other) >= 0.35 {
                assert!(
                    o.perf().request_latency(&other, 0.35) >= l,
                    "{other} beats {c}"
                );
            }
        }
    }

    #[test]
    fn overload_maximizes_throughput() {
        let o = opt(ModelSpec::gpt_20b());
        // 3 instances = 12 GPUs: nothing sustains 0.35 req/s.
        let d = o.decide(3, 0.35);
        let c = d.now.expect("12 GPUs fit GPT-20B");
        let phi = o.perf().throughput(&c);
        for other in o.feasible(3) {
            assert!(o.perf().throughput(&other) <= phi + 1e-12, "{other}");
        }
        // The optimizer wants more instances.
        assert!(d.instance_delta > 0, "delta {}", d.instance_delta);
    }

    #[test]
    fn too_few_instances_yields_none() {
        let o = opt(ModelSpec::llama_30b());
        // LLaMA-30B needs 16 GPUs = 4 instances (Table 1).
        let d = o.decide(3, 0.2);
        assert_eq!(d.now, None);
        assert!(d.target.is_some(), "growth target exists");
        assert!(d.instance_delta > 0);
    }

    #[test]
    fn overprovision_suggests_release() {
        let o = opt(ModelSpec::opt_6_7b());
        // Tiny load: one pipeline suffices; with 12 instances the optimizer
        // should want fewer.
        let d = o.decide(12, 0.05);
        assert!(d.instance_delta < 0, "delta {}", d.instance_delta);
        let c = d.now.unwrap();
        assert!(o.perf().throughput(&c) >= 0.05);
    }

    #[test]
    fn gpt20b_paper_scenario_prefers_2_2_8_at_8_instances() {
        // §6.2: with ≥8 instances, (D=2,P=2,M=8) is the minimum-latency
        // sustaining configuration for 0.35 req/s.
        let o = opt(ModelSpec::gpt_20b());
        let d = o.decide(8, 0.35);
        let c = d.now.unwrap();
        assert_eq!(c.mesh_key(), (2, 2, 8), "picked {c}");
    }

    #[test]
    fn gpt20b_after_preemption_avoids_overload() {
        // §6.2: at 7 instances, Rerouting's fixed (1,2,8) overloads, while
        // the optimizer finds a sustaining alternative, e.g. (2,3,4).
        let o = opt(ModelSpec::gpt_20b());
        let d = o.decide(7, 0.35);
        let c = d.now.unwrap();
        assert!(
            o.perf().throughput(&c) >= 0.35,
            "{c} must sustain 0.35 req/s"
        );
        assert!(c.total_gpus() <= 28);
    }

    #[test]
    fn decisions_are_deterministic() {
        let o = opt(ModelSpec::gpt_20b());
        assert_eq!(o.decide(9, 0.4), o.decide(9, 0.4));
    }

    #[test]
    fn slo_objective_picks_cheapest_meeting_config() {
        let o = opt(ModelSpec::gpt_20b());
        // A loose SLO: many configs qualify, so the cheapest fleet wins.
        let loose = simkit::SimDuration::from_secs(120);
        let d = o.decide_slo(10, 0.35, loose);
        let c = d.now.expect("feasible");
        assert!(o.perf().request_latency(&c, 0.35) <= loose);
        // No cheaper configuration also meets the SLO.
        let needed = c.instances_needed(4);
        for other in o.feasible(10) {
            if o.perf().request_latency(&other, 0.35) <= loose {
                assert!(other.instances_needed(4) >= needed, "{other} is cheaper");
            }
        }
    }

    #[test]
    fn impossible_slo_falls_back_to_latency_minimization() {
        let o = opt(ModelSpec::gpt_20b());
        let impossible = simkit::SimDuration::from_secs(1);
        let d = o.decide_slo(10, 0.35, impossible);
        assert_eq!(d.now, o.decide(10, 0.35).now);
    }

    #[test]
    fn zero_rate_picks_cheapest_feasible() {
        let o = opt(ModelSpec::gpt_20b());
        let d = o.decide(10, 0.0);
        let c = d.now.unwrap();
        // Everything sustains α=0; latency minimization should not pick
        // more GPUs than help latency, and the tie-break favours fewer
        // instances.
        assert!(c.total_gpus() <= 40);
    }

    // ---- Frontier/minima-table mechanics -----------------------------

    #[test]
    fn memoized_decisions_match_first_computation() {
        let o = opt(ModelSpec::gpt_20b());
        let first = o.decide(9, 0.4);
        for _ in 0..3 {
            assert_eq!(o.decide(9, 0.4), first, "the table must be transparent");
        }
        let slo = simkit::SimDuration::from_secs(60);
        let s1 = o.decide_slo(9, 0.4, slo);
        assert_eq!(o.decide_slo(9, 0.4, slo), s1);
    }

    /// Number of minima rows the base lane holds.
    fn rows(o: &ConfigOptimizer) -> usize {
        o.base.rows.borrow().len()
    }

    #[test]
    fn one_row_answers_every_fleet_size_at_its_rate() {
        let o = opt(ModelSpec::gpt_20b());
        let hits = o.memo_hits();
        assert_eq!(o.decide(8, 0.35), o.decide_reference(8, 0.35));
        assert_eq!(o.memo_hits(), hits, "the first query at a rate scans");
        for n in [0u32, 3, 7, 12, 16] {
            assert_eq!(o.decide(n, 0.35), o.decide_reference(n, 0.35), "n = {n}");
        }
        assert_eq!(rows(&o), 1, "one row per rate, whatever the fleet");
        assert!(o.memo_hits() > hits, "later fleet sizes are table lookups");
    }

    #[test]
    fn memo_overflow_clears_and_keeps_answers_correct() {
        let o = opt(ModelSpec::gpt_20b());
        let pinned = o.decide_reference(8, 0.35);
        for i in 0..(ROW_CAP as u32 + 8) {
            let alpha = 0.05 + i as f64 * 1e-3;
            let d = o.decide(8, alpha);
            // A sample before the table fills, every rate after the clear.
            if i >= ROW_CAP as u32 || i % 97 == 0 {
                assert_eq!(d, o.decide_reference(8, alpha), "α = {alpha}");
            }
            assert!(rows(&o) <= ROW_CAP, "the table is bounded");
        }
        assert_eq!(rows(&o), 8, "the overflow cleared the table");
        assert_eq!(o.decide(8, 0.35), pinned);
    }

    #[test]
    fn queries_beyond_the_ceiling_grow_the_frontier() {
        let o = opt(ModelSpec::gpt_20b());
        // Warm the frontier at the ceiling, then exceed it: the frontier
        // rebuilds at the larger fleet, the rows priced over the old one
        // go with it, and the decision still matches the reference.
        let _ = o.decide(8, 0.35);
        let _ = o.decide(8, 0.5);
        assert_eq!(rows(&o), 2);
        let big = o.decide(24, 0.35);
        assert_eq!(big, o.decide_reference(24, 0.35));
        assert_eq!(rows(&o), 1, "growth drops the stale rows");
        assert_eq!(o.decide(8, 0.5), o.decide_reference(8, 0.5));
    }

    #[test]
    fn engine_mode_change_invalidates_the_memo() {
        let fixed = opt(ModelSpec::gpt_20b());
        let d_fixed = fixed.decide(12, 0.35);
        let cont = opt(ModelSpec::gpt_20b()).with_engine_mode(EngineMode::ContinuousBatching);
        let d_cont = cont.decide(12, 0.35);
        assert_ne!(d_fixed.now, d_cont.now, "estimator change changes picks");
        assert_eq!(d_cont, cont.decide_reference(12, 0.35));
    }

    #[test]
    fn engine_mode_flip_clears_the_memo_and_reprices() {
        let mut o = opt(ModelSpec::gpt_20b()); // FixedBatch by default
        let d_fixed = o.decide(12, 0.35);
        assert_eq!(rows(&o), 1);
        assert!(o.base.frontier.borrow().is_some());
        o = o.with_engine_mode(EngineMode::ContinuousBatching);
        assert_eq!(rows(&o), 0, "the flip drops rows priced by the old engine");
        assert!(
            o.base.frontier.borrow().is_none(),
            "and the old engine's frontier"
        );
        let d_cont = o.decide(12, 0.35);
        assert_eq!(d_cont, o.decide_reference(12, 0.35));
        assert_ne!(d_cont, d_fixed);
        o = o.with_engine_mode(EngineMode::FixedBatch);
        assert_eq!(
            o.decide(12, 0.35),
            d_fixed,
            "round-trip reprices identically"
        );
        assert_eq!(rows(&o), 1);
    }

    #[test]
    fn the_optimizer_is_send() {
        fn send<T: Send>() {}
        send::<ConfigOptimizer>();
    }

    // ---- Heterogeneous lanes -----------------------------------------

    use cloudsim::InstanceType;

    #[test]
    fn single_t4_lane_reproduces_the_single_sku_decision() {
        // A one-lane T4 fleet is the homogeneous problem in multi-SKU
        // clothing: `paper_defaults` prices with
        // `for_instance_type(t4()).with_scale(scale)` bitwise, so the
        // joint decision must pick the same (config, delta).
        let o = opt(ModelSpec::gpt_20b()).with_sku(InstanceType::t4());
        for (n, alpha) in [(10u32, 0.35), (3, 0.35), (8, 0.35), (12, 0.05)] {
            let single = o.decide(n, alpha);
            let multi = o.decide_multi(&[n], alpha);
            assert_eq!(multi.now.map(|(_, c)| c), single.now, "now at {n}/{alpha}");
            assert_eq!(
                multi.target.map(|(_, c)| c),
                single.target,
                "target at {n}/{alpha}"
            );
            assert_eq!(multi.instance_delta, single.instance_delta);
            assert!(multi.now.iter().all(|&(lane, _)| lane == 0));
        }
    }

    #[test]
    fn collapsed_lane_recovers_on_another_sku() {
        // T4 pool collapsed to zero, L4 pool healthy: the target must sit
        // on the L4 lane, and `now` must be materializable there.
        let o = opt(ModelSpec::gpt_20b())
            .with_sku(InstanceType::t4())
            .with_sku(InstanceType::l4());
        let d = o.decide_multi(&[0, 10], 0.35);
        let (lane, c) = d.target.expect("L4s can serve GPT-20B");
        assert_eq!(lane, 1, "target recovers on the surviving SKU");
        assert!(
            o.lane_throughput(1, &c) >= 0.35,
            "{c} must sustain 0.35 req/s on L4"
        );
        let (now_lane, now_c) = d.now.expect("10 L4 instances fit GPT-20B");
        assert_eq!(now_lane, 1);
        assert!(now_c.instances_needed(o.lane_type(1).gpus_per_instance) <= 10);
    }

    #[test]
    fn faster_sku_wins_the_latency_objective() {
        // Both lanes available: H100s dominate T4s on latency at equal
        // request rate, so the joint minimum must come from the H100 lane.
        let o = opt(ModelSpec::gpt_20b())
            .with_sku(InstanceType::t4())
            .with_sku(InstanceType::h100());
        let d = o.decide_multi(&[8, 8], 0.35);
        let (lane, c) = d.target.expect("sustaining config exists");
        assert_eq!(lane, 1, "H100 lane wins, got {c} on lane {lane}");
        // And the pick is the joint minimum: no sustaining candidate on
        // either lane has a strictly lower (l, instances, lane, config).
        let l = o.lane_latency(lane, &c, 0.35);
        for i in 0..o.lane_count() {
            let gpi = o.lane_type(i).gpus_per_instance;
            let fr_configs: Vec<_> = {
                let perf = o.lane_perf(i);
                enumerate_configs(
                    perf.model(),
                    o.memory(),
                    &o.lane_type(i).gpu,
                    &ConfigSpace::default(),
                    16 * gpi as u32,
                )
            };
            for other in fr_configs {
                if o.lane_throughput(i, &other) >= 0.35 {
                    assert!(
                        o.lane_latency(i, &other, 0.35) >= l,
                        "{other} on lane {i} beats the pick"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_memo_is_transparent_and_bounded() {
        let o = opt(ModelSpec::gpt_20b())
            .with_sku(InstanceType::t4())
            .with_sku(InstanceType::l4());
        let first = o.decide_multi(&[6, 4], 0.35);
        let hits = o.memo_hits();
        for _ in 0..3 {
            assert_eq!(o.decide_multi(&[6, 4], 0.35), first);
        }
        assert_eq!(o.memo_hits(), hits + 3, "repeats touch no frontier");
        // Overflow every lane's table and confirm the pinned answer
        // survives.
        for i in 0..(ROW_CAP as u32 + 8) {
            let _ = o.decide_multi(&[6, 4], 0.05 + i as f64 * 1e-3);
        }
        assert_eq!(o.decide_multi(&[6, 4], 0.35), first);
    }

    #[test]
    fn model_too_big_for_lane_serves_now_on_the_capable_sku() {
        // LLaMA-30B does not fit one L4 instance (4×24 GiB): with a single
        // L4 available and T4s plentiful, `now` must materialize on the
        // T4 lane — a starved lane stays a legal *growth* target, but it
        // cannot serve today.
        let o = opt(ModelSpec::llama_30b())
            .with_sku(InstanceType::t4())
            .with_sku(InstanceType::l4());
        let d = o.decide_multi(&[8, 1], 0.2);
        let (now_lane, now_c) = d.now.expect("8 T4 instances fit LLaMA-30B");
        assert_eq!(now_lane, 0, "only the T4 fleet can serve now");
        assert!(now_c.instances_needed(4) <= 8);
    }

    #[test]
    fn incumbent_membership_is_bit_equal_with_reference() {
        let o = opt(ModelSpec::gpt_20b());
        // Sweep incumbents including infeasible and out-of-space shapes.
        let mut incumbents = o.feasible(16);
        incumbents.push(ParallelConfig::new(1, 1, 3, 5)); // outside the space
        incumbents.push(ParallelConfig::new(16, 16, 8, 8)); // beyond any fleet
        for inc in incumbents {
            for n in [3u32, 7, 10, 16] {
                assert_eq!(
                    o.decide_with_incumbent(n, 0.35, Some(inc)),
                    o.decide_with_incumbent_reference(n, 0.35, Some(inc)),
                    "incumbent {inc} at {n}"
                );
            }
        }
    }
}
