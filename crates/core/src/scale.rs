//! The sharded, deterministic parallel simulation core.
//!
//! Pools and pipelines are near-independent between fleet events, so a
//! multi-pool scenario can be partitioned into shards — each shard a full
//! [`ServingSystem`] over a contiguous slice of the pool list and a
//! round-robin slice of the request stream — and the shards advanced on
//! worker threads between synchronization barriers. Barriers sit at every
//! fleet/market event (grants, preemption notices and kills,
//! `SpotPriceStep` re-quotes) and at migration-transition commits/resumes:
//! the epoch loop advances every shard through all events at or before the
//! earliest pending sync point, joins, logs the epoch, and repeats.
//!
//! Determinism comes from partitioning, not locks. Shards share nothing;
//! within an epoch each shard advances its own `EventQueue` in `(time,
//! seq)` order, and the merged record is assembled in `(SimTime, shard_id,
//! seq)` order — so [`ScaleReport::digest`] is byte-identical for every
//! thread count, and a single-shard run executes the legacy sequential
//! path verbatim.

use simkit::{run_shards, Percentiles, Sampler, SimTime};
use telemetry::{Fnv1a, TelemetryStream};

use crate::config::SystemOptions;
use crate::report::RunReport;
use crate::system::{Scenario, ServingSystem};

/// One shard of a partitioned run.
struct Shard {
    /// `None` after the report has been taken at the end of the run.
    sys: Option<ServingSystem>,
    /// Still has events to process.
    running: bool,
}

/// A multi-pool scenario partitioned into independently-advanceable
/// shards, run in barrier-delimited epochs on up to `threads` workers.
///
/// # Example
///
/// ```no_run
/// use spotserve::{Scenario, ShardedSystem, SystemOptions};
/// # fn scenario() -> Scenario { unimplemented!() }
/// let report = ShardedSystem::new(SystemOptions::spotserve(), scenario(), 8)
///     .with_threads(4)
///     .run();
/// println!("digest={:016x}", report.digest());
/// ```
pub struct ShardedSystem {
    shards: Vec<Shard>,
    threads: usize,
}

impl ShardedSystem {
    /// Partitions `scenario` into `shards` independent serving systems:
    /// shard `i` owns a contiguous slice of the pool list, every
    /// `shards`-th request (round-robin by arrival index, preserving
    /// arrival order), a proportional share of the initial rate estimate,
    /// and a seed derived from the scenario seed and the shard id. With
    /// `shards == 1` the scenario passes through untouched, so a
    /// single-shard run is the legacy sequential system verbatim.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero, or when `shards > 1` and the scenario
    /// has fewer pools than shards.
    pub fn new(opts: SystemOptions, scenario: Scenario, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        let parts = partition(scenario, shards);
        ShardedSystem {
            shards: parts
                .into_iter()
                .map(|sc| Shard {
                    sys: Some(ServingSystem::new(opts.clone(), sc)),
                    running: true,
                })
                .collect(),
            threads: 1,
        }
    }

    /// Sets the worker-thread budget (default 1). The output is
    /// byte-identical for every value; threads only buy wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs every shard to completion in barrier-delimited epochs and
    /// merges the results in shard order.
    pub fn run(mut self) -> ScaleReport {
        let threads = self.threads;
        run_shards(&mut self.shards, threads, |_, s| {
            s.sys.as_mut().expect("not finished").start();
        });

        let mut epochs = Vec::new();
        loop {
            // The global barrier: the earliest sync point any running
            // shard still owes the others. `None` once nothing constrains
            // the fleet again — the final epoch then drains to the end.
            let mut barrier: Option<SimTime> = None;
            for s in self.shards.iter_mut().filter(|s| s.running) {
                if let Some(t) = s.sys.as_mut().expect("not finished").next_sync_time() {
                    barrier = Some(barrier.map_or(t, |b| b.min(t)));
                }
            }
            let target = barrier.unwrap_or(SimTime::MAX);

            // Fan out: every running shard processes all events at or
            // before the barrier (including its own barrier event), then
            // joins. Each shard's advance is the sequential loop verbatim.
            run_shards(&mut self.shards, threads, |_, s| {
                if s.running {
                    s.running = s.sys.as_mut().expect("not finished").advance_until(target);
                }
            });

            epochs.push(EpochRecord {
                barrier,
                events: self
                    .shards
                    .iter()
                    .map(|s| s.sys.as_ref().expect("not finished").events_processed())
                    .collect(),
                completed: self
                    .shards
                    .iter()
                    .map(|s| s.sys.as_ref().expect("not finished").completed_so_far())
                    .collect(),
            });
            if !self.shards.iter().any(|s| s.running) {
                break;
            }
        }

        // Merge in shard order — the `(time, shard_id, seq)` order within
        // an epoch, since each shard's records are already time-sorted.
        let mut shards: Vec<RunReport> = self
            .shards
            .iter_mut()
            .map(|s| s.sys.take().expect("finished once").finish())
            .collect();
        // The fleet-wide telemetry stream: per-shard streams (each already
        // deterministic in isolation) re-tagged and merged `(time, shard,
        // seq)`, so the export is identical at every thread count.
        let telemetry = shards.iter().all(|r| r.telemetry.is_some()).then(|| {
            TelemetryStream::merge_shards(
                shards
                    .iter_mut()
                    .map(|r| r.telemetry.take().expect("checked above"))
                    .collect(),
            )
        });
        let mut latencies = Sampler::new();
        let mut total_cost_usd = 0.0;
        let mut completed = 0;
        let mut unfinished = 0;
        for rep in &shards {
            let shard_latencies: Sampler = rep
                .latency
                .outcomes()
                .iter()
                .map(|o| o.latency().as_secs_f64())
                .collect();
            latencies.merge(&shard_latencies);
            total_cost_usd += rep.cost_usd;
            completed += rep.latency.completed();
            unfinished += rep.unfinished;
        }
        ScaleReport {
            latency: latencies.percentiles(),
            total_cost_usd,
            completed,
            unfinished,
            epochs,
            shards,
            telemetry,
        }
    }
}

/// Splits a scenario into per-shard scenarios (see [`ShardedSystem::new`]).
fn partition(scenario: Scenario, shards: usize) -> Vec<Scenario> {
    if shards == 1 {
        return vec![scenario];
    }
    assert!(
        scenario.pools.len() >= shards,
        "{} pools cannot fill {} shards",
        scenario.pools.len(),
        shards
    );
    let total = scenario.requests.len();
    let base = scenario.pools.len() / shards;
    let extra = scenario.pools.len() % shards;
    let mut pool_cursor = 0;
    (0..shards)
        .map(|i| {
            let n_pools = base + usize::from(i < extra);
            let pools = scenario.pools[pool_cursor..pool_cursor + n_pools].to_vec();
            pool_cursor += n_pools;
            let requests: Vec<_> = scenario
                .requests
                .iter()
                .skip(i)
                .step_by(shards)
                .copied()
                .collect();
            let share = if total == 0 {
                1.0 / shards as f64
            } else {
                requests.len() as f64 / total as f64
            };
            Scenario {
                model: scenario.model.clone(),
                pools,
                requests,
                cloud: scenario.cloud.clone(),
                storage: scenario.storage,
                // Golden-ratio mixing keeps shard streams independent while
                // shard 0 of a 1-shard split keeps the scenario seed.
                seed: scenario
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                initial_rate: scenario.initial_rate * share,
            }
        })
        .collect()
}

/// One barrier-delimited epoch of a sharded run.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// The sync point this epoch advanced to, `None` for the final drain
    /// epoch (no fleet event or transition pending anywhere).
    pub barrier: Option<SimTime>,
    /// Cumulative events processed per shard when the epoch joined.
    pub events: Vec<u64>,
    /// Cumulative completions per shard when the epoch joined.
    pub completed: Vec<usize>,
}

/// Everything a sharded run produced: the per-shard [`RunReport`]s in
/// shard order, the epoch log, and fleet-wide merged summaries.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<RunReport>,
    /// The barrier log, in epoch order.
    pub epochs: Vec<EpochRecord>,
    /// Request latencies merged across shards (exact quantiles — the
    /// merged sampler holds every shard's samples).
    pub latency: Percentiles,
    /// Fleet-wide spend, summed in shard order.
    pub total_cost_usd: f64,
    /// Completions across all shards.
    pub completed: usize,
    /// Requests still unfinished across all shards.
    pub unfinished: usize,
    /// The fleet-wide telemetry stream, merged `(time, shard, seq)` from
    /// the per-shard streams (which are drained into it — the per-shard
    /// [`RunReport::telemetry`] fields here are `None`). `Some` only when
    /// the run was built with [`SystemOptions::with_telemetry`].
    pub telemetry: Option<TelemetryStream>,
}

impl ScaleReport {
    /// Streams the byte-exact rendering of the whole sharded run: the
    /// epoch log, the merged summaries (float bits), and every shard's
    /// [`RunReport::canonical_into`] section in shard order.
    pub fn canonical_into(&self, out: &mut impl std::fmt::Write) {
        for (i, e) in self.epochs.iter().enumerate() {
            write!(
                out,
                "epoch {i} barrier_us={}",
                e.barrier.map(|t| t.as_micros() as i128).unwrap_or(-1)
            )
            .expect("write");
            write!(out, " events=").expect("write");
            for (j, n) in e.events.iter().enumerate() {
                write!(out, "{}{n}", if j > 0 { "," } else { "" }).expect("write");
            }
            write!(out, " completed=").expect("write");
            for (j, n) in e.completed.iter().enumerate() {
                write!(out, "{}{n}", if j > 0 { "," } else { "" }).expect("write");
            }
            writeln!(out).expect("write");
        }
        writeln!(
            out,
            "total_cost_bits={:016x}",
            self.total_cost_usd.to_bits()
        )
        .expect("write");
        writeln!(
            out,
            "latency count={} mean_bits={:016x} p50_bits={:016x} p99_bits={:016x} max_bits={:016x}",
            self.latency.count,
            self.latency.mean.to_bits(),
            self.latency.p50.to_bits(),
            self.latency.p99.to_bits(),
            self.latency.max.to_bits(),
        )
        .expect("write");
        writeln!(
            out,
            "completed={} unfinished={}",
            self.completed, self.unfinished
        )
        .expect("write");
        for (i, rep) in self.shards.iter().enumerate() {
            writeln!(out, "shard {i}").expect("write");
            rep.canonical_into(out);
        }
    }

    /// FNV-1a (64-bit) over [`canonical_into`](Self::canonical_into) —
    /// stable across platforms and builds, so 1-thread and N-thread runs
    /// can be compared without materializing the (potentially huge)
    /// canonical string.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.canonical_into(&mut h);
        h.finish()
    }

    /// FNV-1a digest of the merged telemetry stream's JSONL rendering,
    /// `None` when the run was built without telemetry. Like
    /// [`digest`](Self::digest), pinned equal across thread counts.
    pub fn stream_digest(&self) -> Option<u64> {
        self.telemetry.as_ref().map(TelemetryStream::digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsim::{AvailabilityTrace, PoolSpec};
    use llmsim::ModelSpec;

    fn scenario(pools: usize, requests_per_pool: usize) -> Scenario {
        let rate = 1.2 * pools as f64;
        let mut spec = workload::WorkloadSpec::paper_stable(rate);
        spec.duration =
            simkit::SimDuration::from_secs_f64((requests_per_pool * pools) as f64 / rate);
        let requests = spec.generate(&mut simkit::SimRng::new(11).stream("arrivals"));
        Scenario::with_requests(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::constant(4),
            requests,
            rate,
            11,
        )
        .with_pools(
            (0..pools)
                .map(|i| PoolSpec::new(format!("z{i}"), AvailabilityTrace::constant(4)))
                .collect(),
        )
    }

    #[test]
    fn single_shard_run_is_the_legacy_run_verbatim() {
        let sc = scenario(2, 40);
        let legacy = ServingSystem::new(SystemOptions::spotserve(), sc.clone()).run();
        let sharded = ShardedSystem::new(SystemOptions::spotserve(), sc, 1).run();
        assert_eq!(sharded.shards.len(), 1);
        assert_eq!(sharded.shards[0].canonical(), legacy.canonical());
    }

    #[test]
    fn digest_is_thread_count_invariant() {
        let mk = || ShardedSystem::new(SystemOptions::spotserve(), scenario(4, 30), 4);
        let one = mk().with_threads(1).run();
        let four = mk().with_threads(4).run();
        let many = mk().with_threads(16).run();
        assert_eq!(one.digest(), four.digest());
        assert_eq!(one.digest(), many.digest());
        let mut a = String::new();
        let mut b = String::new();
        one.canonical_into(&mut a);
        four.canonical_into(&mut b);
        assert_eq!(a, b, "canonical streams match byte for byte");
    }

    #[test]
    fn telemetry_stream_is_thread_count_invariant() {
        let mk = || {
            ShardedSystem::new(
                SystemOptions::spotserve().with_telemetry(),
                scenario(4, 30),
                4,
            )
        };
        let one = mk().with_threads(1).run();
        let eight = mk().with_threads(8).run();
        assert!(one.stream_digest().is_some());
        assert_eq!(one.stream_digest(), eight.stream_digest());
        assert_eq!(
            one.telemetry.as_ref().unwrap().to_jsonl(),
            eight.telemetry.as_ref().unwrap().to_jsonl(),
            "exported JSONL matches byte for byte across thread counts"
        );
        // Observation must not perturb the run: the canonical digest with
        // telemetry on equals the telemetry-off digest.
        let off = ShardedSystem::new(SystemOptions::spotserve(), scenario(4, 30), 4).run();
        assert_eq!(off.stream_digest(), None);
        assert_eq!(off.digest(), one.digest());
    }

    #[test]
    fn partition_conserves_requests_and_pools() {
        let sc = scenario(5, 20);
        let total = sc.requests.len();
        let parts = partition(sc, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts.iter().map(|p| p.requests.len()).sum::<usize>(), total);
        assert_eq!(parts.iter().map(|p| p.pools.len()).sum::<usize>(), 5);
        assert_eq!(parts[0].pools.len(), 2, "extras go to the first shards");
        for p in &parts {
            assert!(
                p.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                "round-robin keeps arrival order"
            );
        }
    }

    #[test]
    fn sharded_run_settles_every_request() {
        let sc = scenario(4, 25);
        let total = sc.requests.len();
        let rep = ShardedSystem::new(SystemOptions::spotserve(), sc, 4)
            .with_threads(2)
            .run();
        assert_eq!(rep.completed + rep.unfinished, total);
        assert_eq!(rep.latency.count, rep.completed);
        assert!(!rep.epochs.is_empty());
        let last = rep.epochs.last().unwrap();
        assert_eq!(last.completed.iter().sum::<usize>(), rep.completed);
        assert!(rep.total_cost_usd > 0.0);
    }
}
