//! The memoized candidate frontier: Algorithm 1's search space, enumerated
//! once and priced up front.
//!
//! `ConfigOptimizer::decide*` used to re-run [`enumerate_configs`] three to
//! four times per invocation and re-price every candidate's `φ(C)` and
//! `l_req(C, α)` from the cost model each time. Every availability change in
//! every pool hits the optimizer, so at multi-pool event churn this is the
//! control plane's hot loop. A [`CandidateFrontier`] makes the steady-state
//! path allocation-free:
//!
//! * **enumerate once** at the fleet ceiling — the set feasible at `n`
//!   instances is exactly the candidates with `instances_needed(n) ≤ n`, so
//!   candidates are sorted by `(instances_needed, canonical order)` and
//!   `feasible_at(n)` is a prefix range behind a cumulative index;
//! * **price once**, for the one engine the optimizer serves with — `φ`
//!   plus either `l_exe` (fixed-batch) or the per-occupancy
//!   slot/steady-iteration tables (continuous) are computed per candidate
//!   at build time; `l_req(C, α)` then runs the shared [`PerfModel`]
//!   kernels over the cached components, bit-identical to fresh pricing;
//! * **Pareto-prune** — candidates dominated at equal instance cost
//!   (throughput no higher, latency no lower *for every* `α`, and losing
//!   every tie-break) can never be chosen by any of Algorithm 1's
//!   objectives, so the decision loops skip them entirely;
//! * **bound below** — each candidate also caches an α-independent
//!   [`Candidate::latency_floor`] (`l_exe` for fixed batch, `min slot +
//!   min steady / 2` for continuous) that no `l_req` at `α > 0` undercuts,
//!   so a scan for the minimum latency skips, unpriced, every candidate
//!   whose floor already exceeds the best so far.
//!
//! The domination test is deliberately conservative: it only fires on
//! component-wise orderings that imply `l_req(y, α) ≤ l_req(x, α)` for all
//! `α` through the estimators' monotone structure (the fill term is
//! monotone in `B`, the queueing term in `ρ = α/φ` and the server count,
//! the continuous fixed-point iteration in the slot-time table), with the
//! canonical-order tie-break required to agree — so a pruned candidate
//! loses to its dominator under *every* selection key the optimizer uses,
//! and frontier-backed decisions stay bit-identical with fresh
//! enumeration. That contract is pinned by the equivalence property test
//! in `tests/optimizer_properties.rs`.

use cloudsim::GpuSpec;
use llmsim::MemoryModel;
use simkit::SimDuration;

use crate::config::ParallelConfig;
use crate::enumerate::{enumerate_configs, ConfigSpace};
use crate::perf::{EngineMode, PerfModel};

/// The components one engine's `l_req` kernel reads.
#[derive(Debug, Clone, PartialEq)]
enum Pricing {
    /// Cached `exec_latency` (the fixed-batch `l_exe`).
    Fixed { l_exe: SimDuration },
    /// `slot_time(C, b)` and `steady_iteration(C, b)` for `b = 1..=B`
    /// (index `b − 1`).
    Continuous {
        slot_times: Box<[SimDuration]>,
        steady_times: Box<[SimDuration]>,
    },
}

/// One enumerated configuration with its precomputed pricing components
/// under the frontier's engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The configuration.
    pub config: ParallelConfig,
    /// `instances_needed` on the frontier's instance size.
    pub instances: u32,
    /// Cached `φ(C)`.
    phi: f64,
    /// Cached α-independent lower bound on `l_req(C, α)` for `α > 0`.
    floor: SimDuration,
    pricing: Pricing,
}

impl Candidate {
    fn price(
        perf: &PerfModel,
        engine: EngineMode,
        config: ParallelConfig,
        gpus_per_instance: u8,
    ) -> Self {
        let served = (config.data * config.batch) as f64;
        // Bitwise the same computations as `PerfModel::throughput` /
        // `throughput_continuous` over the cached components.
        let (phi, floor, pricing) = match engine {
            EngineMode::FixedBatch => {
                let l_exe = perf.exec_latency(&config);
                (
                    served / l_exe.as_secs_f64(),
                    l_exe,
                    Pricing::Fixed { l_exe },
                )
            }
            EngineMode::ContinuousBatching => {
                let slot_times: Box<[SimDuration]> = (1..=config.batch)
                    .map(|b| perf.slot_time(&config, b))
                    .collect();
                let steady_times: Box<[SimDuration]> = (1..=config.batch)
                    .map(|b| perf.steady_iteration(&config, b))
                    .collect();
                let phi = served / slot_times[config.batch as usize - 1].as_secs_f64();
                let min = |t: &[SimDuration]| t.iter().copied().min().expect("B ≥ 1");
                let floor = min(&slot_times) + min(&steady_times) / 2;
                (
                    phi,
                    floor,
                    Pricing::Continuous {
                        slot_times,
                        steady_times,
                    },
                )
            }
        };
        Candidate {
            config,
            instances: config.instances_needed(gpus_per_instance),
            phi,
            floor,
            pricing,
        }
    }

    /// Cached `φ(C)` — bit-identical to [`PerfModel::throughput_under`].
    pub fn throughput(&self) -> f64 {
        self.phi
    }

    /// `l_req(C, α)` via the shared [`PerfModel`] kernels over the cached
    /// components — bit-identical to [`PerfModel::latency_under`].
    pub fn latency(&self, perf: &PerfModel, alpha: f64) -> SimDuration {
        match &self.pricing {
            Pricing::Fixed { l_exe } => perf.request_latency_with_exec(&self.config, *l_exe, alpha),
            Pricing::Continuous {
                slot_times,
                steady_times,
            } => perf.request_latency_continuous_with(
                &self.config,
                alpha,
                |b| slot_times[b as usize - 1],
                |b| steady_times[b as usize - 1],
            ),
        }
    }

    /// A lower bound on [`Candidate::latency`] at every `α > 0`, cached at
    /// build time: `l_exe` under the fixed-batch estimator (the fill and
    /// queueing terms are non-negative), and `min slot + min steady / 2`
    /// under the continuous one (its `l_req` is `slot(b̄) + steady(b̄) / 2`
    /// plus a non-negative queueing term, at some occupancy `b̄`). At
    /// `α = 0` the continuous estimator prices `slot(1)` alone, which the
    /// bound does not cover.
    pub fn latency_floor(&self) -> SimDuration {
        self.floor
    }

    /// Whether `self` dominates `x`: no Algorithm 1 objective —
    /// minimum-latency-among-sustaining, maximum-throughput, or
    /// cheapest-meeting-SLO — can ever select `x` while `self` is present,
    /// for *any* arrival rate, including every exact-tie case.
    ///
    /// Requirements (all conservative, see the module docs):
    /// * equal instance cost and strictly earlier canonical order, so
    ///   `self` wins every `(instances, config)` and `Reverse(config)`
    ///   tie-break;
    /// * `φ(self) ≥ φ(x)`, so `self` is in every sustaining/feasible set
    ///   `x` is in, and wins the throughput objective;
    /// * component-wise latency ordering that implies
    ///   `l_req(self, α) ≤ l_req(x, α)` for all `α` through the
    ///   estimator's monotone structure.
    fn dominates(&self, x: &Candidate) -> bool {
        if self.instances != x.instances || self.config >= x.config || self.phi < x.phi {
            return false;
        }
        match (&self.pricing, &x.pricing) {
            (Pricing::Fixed { l_exe: a }, Pricing::Fixed { l_exe: b }) => {
                // l_req = l_exe + (B−1)/2α + l_exe·ρ^√(2(D+1))/(2D(1−ρ)):
                // monotone in l_exe, B, ρ = α/φ and anti-monotone in D.
                a <= b && self.config.batch <= x.config.batch && self.config.data >= x.config.data
            }
            (
                Pricing::Continuous {
                    slot_times: slot_a,
                    steady_times: steady_a,
                },
                Pricing::Continuous {
                    slot_times: slot_b,
                    steady_times: steady_b,
                },
            ) => {
                // The occupancy fixed point iterates b ← clamp((α/D)·slot(b))
                // from the same seed over the same clamp range (equal B):
                // a pointwise-≤ slot table and D ≥ keep the iterate ≤ at
                // every step, so every component (slot(b̄), steady(b̄)/2,
                // queueing over slot(B)) is ≤.
                self.config.batch == x.config.batch
                    && self.config.data >= x.config.data
                    && slot_a.iter().zip(slot_b.iter()).all(|(a, b)| a <= b)
                    && steady_a.iter().zip(steady_b.iter()).all(|(a, b)| a <= b)
            }
            _ => unreachable!("one frontier prices one engine"),
        }
    }
}

/// The enumerated, priced and pruned candidate set for one
/// `(model, space, gpu, mem)` at a fleet ceiling, under one engine's
/// estimator. See the module docs.
///
/// # Example
///
/// ```
/// use cloudsim::GpuSpec;
/// use llmsim::{MemoryModel, ModelSpec};
/// use parallelism::{CandidateFrontier, ConfigSpace, EngineMode, PerfModel};
///
/// let model = ModelSpec::gpt_20b();
/// let perf = PerfModel::paper_defaults(model.clone());
/// let f = CandidateFrontier::new(
///     &perf,
///     EngineMode::FixedBatch,
///     &MemoryModel::default(),
///     &GpuSpec::t4(),
///     &ConfigSpace::default(),
///     4,
///     16,
/// );
/// // GPT-20B needs 12 GPUs = 3 instances: nothing fits at 2.
/// assert!(f.feasible_at(2).is_empty());
/// assert!(!f.feasible_at(3).is_empty());
/// // Every survivor of pruning is still priced exactly.
/// let c = f.pruned_at(16).next().unwrap();
/// assert_eq!(c.throughput(), perf.throughput(&c.config));
/// ```
#[derive(Debug, Clone)]
pub struct CandidateFrontier {
    gpus_per_instance: u8,
    /// Fleet ceiling (instances) this frontier was enumerated at.
    ceiling: u32,
    /// All candidates, sorted by `(instances, canonical config order)`.
    candidates: Vec<Candidate>,
    /// `cum[n]` = number of candidates needing at most `n` instances
    /// (`n = 0..=ceiling`), so `feasible_at(n)` is `candidates[..cum[n]]`.
    cum: Vec<u32>,
    /// Indices (ascending) of candidates surviving pruning, with its own
    /// cumulative per-instance index.
    pruned: Vec<u32>,
    pruned_cum: Vec<u32>,
}

impl CandidateFrontier {
    /// Enumerates, prices (under `engine`'s estimator) and prunes the
    /// space for a fleet of up to `ceiling_instances` instances of
    /// `gpus_per_instance` GPUs each.
    ///
    /// # Panics
    ///
    /// Panics if `gpus_per_instance` or `ceiling_instances` is zero.
    pub fn new(
        perf: &PerfModel,
        engine: EngineMode,
        mem: &MemoryModel,
        gpu: &GpuSpec,
        space: &ConfigSpace,
        gpus_per_instance: u8,
        ceiling_instances: u32,
    ) -> Self {
        assert!(gpus_per_instance > 0 && ceiling_instances > 0);
        let mut candidates: Vec<Candidate> = enumerate_configs(
            perf.model(),
            mem,
            gpu,
            space,
            ceiling_instances * gpus_per_instance as u32,
        )
        .into_iter()
        .map(|c| Candidate::price(perf, engine, c, gpus_per_instance))
        .collect();
        // Stable sort: within one instance bucket the canonical
        // (enumeration) order is preserved.
        candidates.sort_by_key(|a| (a.instances, a.config));
        let cum = cumulative(candidates.iter().map(|c| c.instances), ceiling_instances);
        let (pruned, pruned_cum) = prune(&candidates, ceiling_instances);
        CandidateFrontier {
            gpus_per_instance,
            ceiling: ceiling_instances,
            candidates,
            cum,
            pruned,
            pruned_cum,
        }
    }

    /// The fleet ceiling (instances) this frontier covers.
    pub fn ceiling(&self) -> u32 {
        self.ceiling
    }

    /// Total enumerated candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the space is empty at the ceiling.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Candidates surviving pruning, at the ceiling.
    pub fn pruned_len(&self) -> usize {
        self.pruned.len()
    }

    /// Every candidate feasible on a fleet of `n` instances — the range
    /// lookup replacing a fresh `enumerate_configs` call. `n` above the
    /// ceiling clamps to the ceiling (callers grow the frontier instead).
    pub fn feasible_at(&self, n: u32) -> &[Candidate] {
        let n = n.min(self.ceiling) as usize;
        &self.candidates[..self.cum[n] as usize]
    }

    /// The candidates feasible at `n` instances that survive Pareto
    /// pruning — the set the decision loops scan, instance-sorted, so the
    /// set at `n` is a prefix of the set at any larger fleet. Skipped
    /// candidates are exactly those that can never be selected (see
    /// [`Candidate`] `dominates`), so a scan over this iterator picks the
    /// same winner as a scan over [`CandidateFrontier::feasible_at`].
    pub fn pruned_at(&self, n: u32) -> impl Iterator<Item = &Candidate> + '_ {
        let n = n.min(self.ceiling) as usize;
        self.pruned[..self.pruned_cum[n] as usize]
            .iter()
            .map(move |&i| &self.candidates[i as usize])
    }

    /// Every candidate surviving pruning at the ceiling, instance-sorted,
    /// with the index [`CandidateFrontier::candidate`] takes back — so a
    /// caller can remember a pick as a `u32`.
    pub fn indexed_pruned(&self) -> impl Iterator<Item = (u32, &Candidate)> + '_ {
        self.pruned
            .iter()
            .map(move |&i| (i, &self.candidates[i as usize]))
    }

    /// The candidate at `index`, as yielded by
    /// [`CandidateFrontier::indexed_pruned`].
    pub fn candidate(&self, index: u32) -> &Candidate {
        &self.candidates[index as usize]
    }

    /// Whether `c` is feasible on a fleet of `n` instances — the direct
    /// membership test replacing `feasible(n).contains(&c)` (a binary
    /// search over the enumerated set instead of an `O(|space|)`
    /// re-enumeration). `n` must be within the ceiling.
    pub fn contains(&self, c: &ParallelConfig, n: u32) -> bool {
        let inst = c.instances_needed(self.gpus_per_instance);
        inst <= n.min(self.ceiling) && self.lookup(c).is_some()
    }

    /// The priced candidate for `c`, if `c` is in the enumerated space.
    pub fn lookup(&self, c: &ParallelConfig) -> Option<&Candidate> {
        let inst = c.instances_needed(self.gpus_per_instance);
        self.candidates
            .binary_search_by(|cand| (cand.instances, cand.config).cmp(&(inst, *c)))
            .ok()
            .map(|i| &self.candidates[i])
    }
}

/// `out[n]` = number of entries needing at most `n` instances, for
/// `n = 0..=ceiling` (entries are instance-sorted, each within the
/// ceiling).
fn cumulative(instances: impl Iterator<Item = u32>, ceiling: u32) -> Vec<u32> {
    let mut cum = vec![0u32; ceiling as usize + 1];
    for inst in instances {
        debug_assert!(inst >= 1 && inst <= ceiling);
        cum[inst as usize] += 1;
    }
    for n in 1..cum.len() {
        cum[n] += cum[n - 1];
    }
    cum
}

/// Pareto pruning within equal-instance buckets: drop every candidate
/// dominated by another of the same instance cost. Domination is
/// transitive, so any dominated candidate has a *surviving* dominator.
fn prune(candidates: &[Candidate], ceiling: u32) -> (Vec<u32>, Vec<u32>) {
    let mut keep: Vec<u32> = Vec::new();
    let mut start = 0;
    while start < candidates.len() {
        let inst = candidates[start].instances;
        let mut end = start;
        while end < candidates.len() && candidates[end].instances == inst {
            end += 1;
        }
        let bucket = &candidates[start..end];
        for (i, x) in bucket.iter().enumerate() {
            let dominated = bucket
                .iter()
                .enumerate()
                .any(|(j, y)| j != i && y.dominates(x));
            if !dominated {
                keep.push((start + i) as u32);
            }
        }
        start = end;
    }
    // Cumulative index over the kept (still instance-sorted) list.
    let cum = cumulative(
        keep.iter().map(|&i| candidates[i as usize].instances),
        ceiling,
    );
    (keep, cum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim::ModelSpec;

    const ENGINES: [EngineMode; 2] = [EngineMode::FixedBatch, EngineMode::ContinuousBatching];

    fn frontier(
        model: ModelSpec,
        engine: EngineMode,
        ceiling: u32,
    ) -> (PerfModel, CandidateFrontier) {
        let perf = PerfModel::paper_defaults(model);
        let f = CandidateFrontier::new(
            &perf,
            engine,
            &MemoryModel::default(),
            &GpuSpec::t4(),
            &ConfigSpace::default(),
            4,
            ceiling,
        );
        (perf, f)
    }

    #[test]
    fn feasible_at_matches_fresh_enumeration_at_every_fleet_size() {
        let (perf, f) = frontier(ModelSpec::gpt_20b(), EngineMode::FixedBatch, 16);
        for n in 0..=16u32 {
            let mut from_frontier: Vec<ParallelConfig> =
                f.feasible_at(n).iter().map(|c| c.config).collect();
            from_frontier.sort_unstable();
            let fresh = enumerate_configs(
                perf.model(),
                &MemoryModel::default(),
                &GpuSpec::t4(),
                &ConfigSpace::default(),
                n * 4,
            );
            assert_eq!(from_frontier, fresh, "fleet of {n}");
        }
    }

    #[test]
    fn cached_pricing_is_bit_identical_with_fresh_pricing() {
        for engine in ENGINES {
            let (perf, f) = frontier(ModelSpec::gpt_20b(), engine, 12);
            for cand in f.feasible_at(12) {
                let c = &cand.config;
                assert_eq!(cand.throughput(), perf.throughput_under(engine, c));
                for alpha in [0.0, 0.1, 0.35, 1.0, 3.0] {
                    assert_eq!(
                        cand.latency(&perf, alpha),
                        perf.latency_under(engine, c, alpha),
                        "{c} {engine:?} @ {alpha}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_never_drops_an_optimum() {
        // For a sweep of (n, α): the best (latency, instances, config) key
        // over the pruned set equals the best over the full feasible set,
        // under both estimators — the domination contract, checked
        // exhaustively at a small ceiling.
        for engine in ENGINES {
            let (perf, f) = frontier(ModelSpec::gpt_20b(), engine, 10);
            for n in [3u32, 5, 8, 10] {
                for alpha in [0.0, 0.05, 0.2, 0.35, 0.6, 1.5] {
                    let best_full = f
                        .feasible_at(n)
                        .iter()
                        .map(|c| (c.latency(&perf, alpha), c.instances, c.config))
                        .min();
                    let best_pruned = f
                        .pruned_at(n)
                        .map(|c| (c.latency(&perf, alpha), c.instances, c.config))
                        .min();
                    assert_eq!(best_full, best_pruned, "latency {engine:?} n={n} α={alpha}");
                    let phi_full = f
                        .feasible_at(n)
                        .iter()
                        .map(|c| (c.throughput(), std::cmp::Reverse(c.config)))
                        .max_by(|a, b| a.partial_cmp(b).expect("finite"));
                    let phi_pruned = f
                        .pruned_at(n)
                        .map(|c| (c.throughput(), std::cmp::Reverse(c.config)))
                        .max_by(|a, b| a.partial_cmp(b).expect("finite"));
                    assert_eq!(phi_full, phi_pruned, "throughput {engine:?} n={n}");
                }
            }
        }
    }

    /// A frontier for every SKU preset × paper model × engine, each SKU
    /// priced like the optimizer's lanes, at a 16-instance ceiling. Built
    /// once: every property case checks all of them.
    fn sku_frontiers() -> &'static [(PerfModel, CandidateFrontier)] {
        use cloudsim::InstanceType;
        use llmsim::calibration::{calibration_scale, PAPER_S_IN, PAPER_S_OUT};
        use llmsim::CostModel;
        static ALL: std::sync::OnceLock<Vec<(PerfModel, CandidateFrontier)>> =
            std::sync::OnceLock::new();
        ALL.get_or_init(|| {
            let mut all = Vec::new();
            for ty in [
                InstanceType::t4(),
                InstanceType::l4(),
                InstanceType::a100(),
                InstanceType::h100(),
            ] {
                for model in ModelSpec::paper_models() {
                    let cost =
                        CostModel::for_instance_type(&ty).with_scale(calibration_scale(&model));
                    let perf = PerfModel::new(model, cost, PAPER_S_IN, PAPER_S_OUT);
                    for engine in ENGINES {
                        let f = CandidateFrontier::new(
                            &perf,
                            engine,
                            &MemoryModel::default(),
                            &ty.gpu,
                            &ConfigSpace::default(),
                            ty.gpus_per_instance,
                            16,
                        );
                        all.push((perf.clone(), f));
                    }
                }
            }
            all
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The latency floor the optimizer skips candidates by never
        /// exceeds the priced `l_req`, on every SKU, model and engine, at
        /// generated rates `α = u·φ(C)` for `u` in `(0, 1)`.
        #[test]
        fn latency_floor_never_exceeds_the_priced_latency(
            fractions in proptest::prelude::prop::collection::vec(1e-6f64..1.0, 4),
        ) {
            for (perf, f) in sku_frontiers() {
                for cand in f.feasible_at(16) {
                    for &u in &fractions {
                        let alpha = u * cand.throughput();
                        proptest::prop_assert!(
                            cand.latency_floor() <= cand.latency(perf, alpha),
                            "{} on {}: floor {} > l_req {} at α = {alpha}",
                            cand.config,
                            perf.model().name,
                            cand.latency_floor(),
                            cand.latency(perf, alpha)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_actually_removes_candidates() {
        let (_, f) = frontier(ModelSpec::gpt_20b(), EngineMode::FixedBatch, 16);
        assert!(
            f.pruned_len() < f.len(),
            "fixed-batch pruning must bite: {} of {}",
            f.pruned_len(),
            f.len()
        );
    }

    #[test]
    fn contains_matches_linear_membership() {
        let (_, f) = frontier(ModelSpec::opt_6_7b(), EngineMode::FixedBatch, 8);
        for n in [0u32, 1, 3, 8] {
            let set: Vec<ParallelConfig> = f.feasible_at(n).iter().map(|c| c.config).collect();
            for cand in f.feasible_at(8) {
                assert_eq!(
                    f.contains(&cand.config, n),
                    set.contains(&cand.config),
                    "{} at {n}",
                    cand.config
                );
            }
        }
        // A config outside the space is never contained.
        assert!(!f.contains(&ParallelConfig::new(1, 1, 3, 5), 8));
    }

    #[test]
    fn lookup_finds_every_candidate() {
        let (_, f) = frontier(ModelSpec::llama_30b(), EngineMode::FixedBatch, 8);
        for cand in f.feasible_at(8) {
            assert_eq!(f.lookup(&cand.config).unwrap().config, cand.config);
        }
    }
}
