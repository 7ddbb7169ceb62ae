//! One benchmark cycle: set up a workload, run it, report and audit it,
//! with an `Instant` span around each phase.

use std::collections::BTreeMap;
use std::time::Instant;

use spotserve::{
    InvariantAuditor, RunReport, ScaleReport, ServingSystem, ShardedSystem, SystemOptions,
};
use telemetry::Fnv1a;

use crate::workloads::{Workload, SCALE_THREADS};

/// The report of a finished run: one `RunReport`, or the merged report of
/// a sharded run.
pub enum Report {
    /// An unsharded `ServingSystem` run.
    Single(RunReport),
    /// A `ShardedSystem` run.
    Sharded(ScaleReport),
}

impl Report {
    /// The per-shard run reports (one for an unsharded run).
    pub fn shards(&self) -> Vec<&RunReport> {
        match self {
            Report::Single(r) => vec![r],
            Report::Sharded(s) => s.shards.iter().collect(),
        }
    }

    /// The merged telemetry stream, if the run recorded one.
    pub fn telemetry(&self) -> Option<&telemetry::TelemetryStream> {
        match self {
            Report::Single(r) => r.telemetry.as_ref(),
            Report::Sharded(s) => s.telemetry.as_ref(),
        }
    }
}

/// What a run produced, reduced to the values the benchmark checks and
/// reports. Every field is simulated and deterministic per seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// `ScaleReport::digest` for sharded runs, FNV-1a over
    /// `RunReport::canonical_into` otherwise.
    pub digest: u64,
    /// Requests sent.
    pub requests: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests refused by SLO admission.
    pub rejected: usize,
    /// Requests still queued when the run ended.
    pub unfinished: usize,
    /// Output tokens generated.
    pub tokens: u64,
    /// Simulated spend.
    pub cost_usd: f64,
    /// Median simulated request latency.
    pub p50_s: f64,
    /// 99th-percentile simulated request latency.
    pub p99_s: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// `InvariantAuditor` violations per invariant name.
    pub audit: BTreeMap<&'static str, usize>,
}

impl Outcome {
    /// Completed + rejected + unfinished must equal the requests sent.
    pub fn conserves(&self) -> bool {
        self.completed + self.rejected + self.unfinished == self.requests
    }

    /// Total audit violations.
    pub fn violations(&self) -> usize {
        self.audit.values().sum()
    }
}

/// Host-time spans of one cycle, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// Workload generation and scenario assembly.
    pub generate_s: f64,
    /// `ServingSystem` / `ShardedSystem` construction.
    pub build_s: f64,
    /// The `run()` call.
    pub run_s: f64,
    /// Digest and percentiles.
    pub report_s: f64,
    /// The invariant audit.
    pub audit_s: f64,
    /// Peak live heap over the cycle, MiB.
    pub peak_heap_mib: f64,
}

impl Spans {
    /// The benchmark's set-up time.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s
    }

    /// Set-up, run, report and audit together.
    pub fn wall_s(&self) -> f64 {
        self.generate_s + self.build_s + self.run_s + self.report_s + self.audit_s
    }
}

/// One finished cycle.
pub struct Cycle {
    /// The seed the workload was built from.
    pub seed: u64,
    /// Host-time spans.
    pub spans: Spans,
    /// The checked outcome.
    pub outcome: Outcome,
    /// The full report, for the traced run's per-layer metrics.
    pub report: Report,
}

/// FNV-1a over a run report's canonical rendering.
pub fn run_digest(report: &RunReport) -> u64 {
    let mut h = Fnv1a::new();
    report.canonical_into(&mut h);
    h.finish()
}

/// Requests the round-robin shard split hands shard `i` of `shards`.
pub fn shard_requests(requests: usize, shards: usize, i: usize) -> usize {
    (requests + shards - 1 - i) / shards
}

/// Audits every shard report against its own request count and tallies
/// violations per invariant name.
pub fn audit(report: &Report, requests: usize) -> BTreeMap<&'static str, usize> {
    let shards = report.shards();
    let mut counts = BTreeMap::new();
    for (i, r) in shards.iter().enumerate() {
        let expected = shard_requests(requests, shards.len(), i);
        let verdict = InvariantAuditor::new()
            .with_expected_requests(expected)
            .audit(r);
        for v in verdict.violations {
            *counts.entry(v.invariant).or_insert(0) += 1;
        }
    }
    counts
}

/// Builds workload `w` from `seed` and runs it under `opts` with `threads`
/// worker threads (sharded workloads only).
pub fn cycle_with(w: Workload, seed: u64, opts: SystemOptions, threads: usize) -> Cycle {
    crate::metrics::reset_peak_heap();
    let t0 = Instant::now();
    let scenario = w.scenario(seed);
    let requests = scenario.requests.len();
    let t1 = Instant::now();
    let (t2, t3, mut report) = if w.shards() > 1 {
        let system = ShardedSystem::new(opts, scenario, w.shards()).with_threads(threads);
        let t2 = Instant::now();
        let report = system.run();
        (t2, Instant::now(), Report::Sharded(report))
    } else {
        let system = ServingSystem::new(opts, scenario);
        let t2 = Instant::now();
        let report = system.run();
        (t2, Instant::now(), Report::Single(report))
    };
    let (digest, p50_s, p99_s, samples) = match &mut report {
        Report::Sharded(s) => (s.digest(), s.latency.p50, s.latency.p99, s.latency.count),
        Report::Single(r) => {
            let digest = run_digest(r);
            let p = r.latency.percentiles();
            (digest, p.p50, p.p99, p.count)
        }
    };
    let shards = report.shards();
    let mut outcome = Outcome {
        digest,
        requests,
        completed: shards.iter().map(|r| r.latency.completed()).sum(),
        rejected: shards.iter().map(|r| r.slo_rejections.len()).sum(),
        unfinished: shards.iter().map(|r| r.unfinished).sum(),
        tokens: shards.iter().map(|r| r.latency.tokens_generated()).sum(),
        cost_usd: shards.iter().map(|r| r.cost_usd).sum(),
        p50_s,
        p99_s,
        samples,
        audit: BTreeMap::new(),
    };
    let t4 = Instant::now();
    outcome.audit = audit(&report, requests);
    let t5 = Instant::now();
    Cycle {
        seed,
        spans: Spans {
            generate_s: (t1 - t0).as_secs_f64(),
            build_s: (t2 - t1).as_secs_f64(),
            run_s: (t3 - t2).as_secs_f64(),
            report_s: (t4 - t3).as_secs_f64(),
            audit_s: (t5 - t4).as_secs_f64(),
            peak_heap_mib: crate::metrics::peak_heap_mib(),
        },
        outcome,
        report,
    }
}

/// A cycle of the workload as the untraced benchmark runs it.
pub fn cycle(w: Workload, seed: u64) -> Cycle {
    cycle_with(w, seed, w.options(), SCALE_THREADS)
}

/// The workload on `ShardedSystem` at one shard, which passes the
/// scenario through unchanged. Returns the shard's run digest and the
/// events it processed.
pub fn one_shard(w: Workload, seed: u64) -> (u64, u64) {
    let report = ShardedSystem::new(w.options(), w.scenario(seed), 1).run();
    let events = report.epochs.last().map_or(0, |e| e.events.iter().sum());
    (run_digest(&report.shards[0]), events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_split_covers_every_request() {
        for n in [0, 1, 7, 8, 9, 1_000_000] {
            for shards in [1, 2, 8] {
                let total: usize = (0..shards).map(|i| shard_requests(n, shards, i)).sum();
                assert_eq!(total, n);
            }
        }
    }
}
