//! Metric declarations and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test keeps the two lists equal.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

/// The end-to-end metrics an untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_req_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("usd_per_mtoken", "USD/Mtoken"),
    ("served_share", "ratio"),
];

/// The per-layer metrics a traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("workload.requests", "count"),
    ("cloudsim.market_new_s", "s"),
    ("cloudsim.grants", "count"),
    ("cloudsim.notices", "count"),
    ("cloudsim.kills", "count"),
    ("cloudsim.faults", "count"),
    ("cloudsim.lapses", "count"),
    ("cloudsim.price_steps", "count"),
    ("fleetctl.commands", "count"),
    ("fleetctl.retries", "count"),
    ("fleetctl.escalations", "count"),
    ("fleetctl.command_ns", "ns"),
    ("optimizer.build_s", "s"),
    ("optimizer.decisions", "count"),
    ("optimizer.halts", "count"),
    ("optimizer.memo_hit_share", "ratio"),
    ("optimizer.decide_replay_s", "s"),
    ("devicemap.replay_s", "s"),
    ("devicemap.reused_gb", "GB"),
    ("migration.commits", "count"),
    ("migration.downgrades", "count"),
    ("migration.full_share", "ratio"),
    ("migration.restart_share", "ratio"),
    ("migration.moved_gb", "GB"),
    ("migration.reloaded_gb", "GB"),
    ("migration.pause_s", "s"),
    ("migration.plan_replay_s", "s"),
    ("engine.admitted", "count"),
    ("engine.deferrals", "count"),
    ("engine.slo_rejections", "count"),
    ("engine.tokens", "count"),
    ("engine.admit_share", "ratio"),
    ("engine.replay_ns_per_token", "ns/token"),
    ("simkit.events", "count"),
    ("simkit.queue_ns_per_event", "ns/event"),
    ("simkit.percentiles_s", "s"),
    ("telemetry.records", "count"),
    ("telemetry.jsonl_s", "s"),
    ("telemetry.jsonl_mb", "MB"),
    ("scale.epochs", "count"),
    ("scale.speedup_2t", "ratio"),
    ("scale.digest_s", "s"),
    ("report.canonical_s", "s"),
    ("audit.s", "s"),
    ("audit.telemetry_violations", "count"),
    ("audit.request-conservation", "count"),
    ("audit.outcome-causality", "count"),
    ("audit.lease-lifecycle", "count"),
    ("audit.monotone-progress", "count"),
    ("audit.billing-consistency", "count"),
    ("audit_violations", "count"),
    ("system.run_s", "s"),
    ("trace.overhead", "ratio"),
    ("p50_latency_s", "s"),
    ("p99_latency_s", "s"),
    ("latency_samples", "count"),
    ("failed_share", "ratio"),
];

/// The invariant names `InvariantAuditor` reports, in `PER_LAYER` order.
pub const INVARIANTS: [&str; 5] = [
    "request-conservation",
    "outcome-causality",
    "lease-lifecycle",
    "monotone-progress",
    "billing-consistency",
];

/// The per-layer metric of each invariant, in `INVARIANTS` order.
pub const INVARIANT_METRICS: [&str; 5] = [
    "audit.request-conservation",
    "audit.outcome-causality",
    "audit.lease-lifecycle",
    "audit.monotone-progress",
    "audit.billing-consistency",
];

/// The benchmark's result: the last line of standard output.
pub struct Result {
    /// Whether every output check passed.
    pub correct: bool,
    /// Requests sent over every run.
    pub attempted: u64,
    /// Requests unfinished or refused over every run.
    pub failed: u64,
    /// Metric values by name, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Result {
    /// Renders the result as one JSON object, units taken from `decls`.
    ///
    /// # Panics
    ///
    /// Panics if the metrics are not exactly `decls`, in order: a
    /// benchmark bug, never an input error.
    pub fn json(&self, decls: &[(&str, &str)]) -> String {
        let names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = decls.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared, "metrics printed must be the declared set");
        let body: Vec<String> = self
            .metrics
            .iter()
            .zip(decls)
            .map(|((name, value), (_, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The system allocator, counting live heap bytes and their peak, so the
/// benchmark can read each cycle's peak heap. `VmHWM` cannot be reset
/// between cycles and spread ~10% across seeds on fleet-chaos; the
/// counted peak is the same for every run of a single-threaded seed.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result, so `System` upholds the `GlobalAlloc` contract; the
// counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller meets `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Starts a new peak window at the current live heap.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak live heap since the last [`reset_peak_heap`], in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, f: &str| {
            let at = entry.find(&format!("\"{f}\"")).expect("field present");
            let rest = &entry[at + f.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let len = rest[open..].find('"').expect("value closes");
            rest[open..open + len].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn pairs(decls: &[(&str, &str)]) -> Vec<(String, String)> {
        decls
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_metrics() {
        assert_eq!(pairs(END_TO_END), declared("end_to_end"));
        assert_eq!(pairs(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn every_invariant_has_a_per_layer_metric() {
        for (name, metric) in INVARIANTS.iter().zip(INVARIANT_METRICS) {
            assert_eq!(metric.strip_prefix("audit."), Some(*name));
            assert!(PER_LAYER.iter().any(|(n, _)| *n == metric));
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let result = Result {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END.iter().map(|(n, _)| (*n, 1.25)).collect(),
        };
        let line = result.json(END_TO_END);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"#));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!(r#""{name}": {{"value": 1.25, "unit": "{unit}"}}"#)));
        }
    }

    #[test]
    #[should_panic(expected = "declared set")]
    fn result_line_refuses_undeclared_metrics() {
        let result = Result {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![("nope", 1.0)],
        };
        result.json(END_TO_END);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
