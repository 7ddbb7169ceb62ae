//! Shared helpers for the integration suites.
//!
//! `canonical` is THE byte-exact rendering of a [`RunReport`]. The
//! implementation lives on [`RunReport::canonical`] so the determinism
//! gate, the fleet-policy suite, and the sharded-replay digest all consume
//! the same bytes; this module keeps the historical free-function shape
//! the suites call.

use spotserve::{InvariantAuditor, RunReport};
use telemetry::Fnv1a;

/// Canonical byte-exact rendering of everything a run produced: floats
/// via their IEEE-754 bit patterns (so "close enough" can never pass),
/// including the per-kind / per-pool cost breakdown and SLO rejections.
#[allow(dead_code)] // each suite compiles this module separately
pub fn canonical(report: &RunReport) -> String {
    report.canonical()
}

/// FNV-1a digest of a rendering (canonical report or JSONL stream), for
/// golden pins: a refactor that must keep behaviour fixed compares against
/// a constant, not just against a second run of itself.
#[allow(dead_code)] // each suite compiles this module separately
pub fn digest(rendering: &str) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a::new();
    h.write_str(rendering)
        .expect("hashing into FNV-1a cannot fail");
    h.finish()
}

/// Runs the [`InvariantAuditor`] over `report` pinned to `expected`
/// scenario requests, panicking with every violated invariant listed
/// unless the run is clean. Every integration suite routes its reports
/// through this — chaos on or off, a run may degrade but never corrupt.
#[allow(dead_code)] // each suite compiles this module separately
pub fn assert_audit_clean(report: &RunReport, expected: usize) {
    InvariantAuditor::new()
        .with_expected_requests(expected)
        .audit(report)
        .assert_clean();
}
