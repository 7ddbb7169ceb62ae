//! Chaos figure (beyond-paper): SLO attainment, $-cost and loss per
//! acquisition policy as fault intensity rises.
//!
//! The scenario is the pinned zone outage with the standard fault pack
//! layered on top: `z0` collapses at t = 300 s and recovers at t = 600 s
//! while every pool injects unannounced kills, lost/truncated preemption
//! notices, lapsed grants and a degraded link at the swept intensity.
//! `ReactiveSpot` is bound to `z0` and loses requests to the outage
//! itself, at every intensity; the hedged policies re-request with
//! exponential backoff, escalate to on-demand after repeated lapses, and
//! spread the target across the survivors.
//! Every run — all policies, all intensities — is replayed through the
//! [`InvariantAuditor`]: a run may degrade under chaos, never corrupt.
//!
//! When `CRITERION_JSON` names a file, one record per (policy,
//! intensity) cell is appended there so CI can jq-gate graceful
//! degradation: at the standard intensity the hedged policies finish
//! with zero unfinished requests and a clean audit, while the reactive
//! baseline's loss is strictly worse.

use spotserve::{InvariantAuditor, ServingSystem, SystemOptions};
use spotserve_bench::{append_json_record, criterion_json_path, header};
use spotserve_bench::{chaos_pack_scenario, chaos_policy_ladder, STANDARD_CHAOS_INTENSITY};

fn main() {
    header("Chaos pack over the zone outage: z0 collapses at t=300s under injected faults, OPT-6.7B @ 1 req/s");
    let seed = 1;
    let json_path = criterion_json_path();

    println!(
        "{:<14} {:>9} {:>7} {:>7} {:>7} {:>8} {:>10} {:>10} {:>7}",
        "Policy",
        "intensity",
        "faults",
        "lapses",
        "unfin",
        "slo rej",
        "total USD",
        "USD/token",
        "audit"
    );
    for intensity in [0.0, 0.3, STANDARD_CHAOS_INTENSITY, 1.0] {
        for (name, policy) in chaos_policy_ladder() {
            let scenario = chaos_pack_scenario(intensity, seed);
            let total = scenario.requests.len();
            let opts = SystemOptions::spotserve()
                .with_fleet_policy(policy)
                .with_telemetry();
            let report = ServingSystem::new(opts, scenario).run();
            let audit = InvariantAuditor::new()
                .with_expected_requests(total)
                .audit(&report);
            let cost = report.cost();
            let cpt = cost.usd_per_token.unwrap_or(f64::NAN);
            println!(
                "{name:<14} {intensity:>9.2} {:>7} {:>7} {:>7} {:>8} {:>10.3} {:>7.2}e-5 {:>7}",
                report.faults,
                report.lapses,
                report.unfinished,
                report.slo_rejections.len(),
                cost.total_usd,
                cpt * 1e5,
                if audit.is_clean() { "clean" } else { "DIRTY" },
            );
            if !audit.is_clean() {
                eprintln!("{audit}");
            }
            if let Some(path) = &json_path {
                append_json_record(
                    path,
                    &format!(
                        concat!(
                            r#"{{"group":"fig_chaos","bench":"{name}","intensity":{intensity:.2},"#,
                            r#""faults":{faults},"lapses":{lapses},"unfinished":{unfin},"#,
                            r#""slo_rejections":{rej},"total_usd":{total_usd:.6},"#,
                            r#""usd_per_token":{cpt:.9},"audit_clean":{clean}}}"#
                        ),
                        name = name,
                        intensity = intensity,
                        faults = report.faults,
                        lapses = report.lapses,
                        unfin = report.unfinished,
                        rej = report.slo_rejections.len(),
                        total_usd = cost.total_usd,
                        cpt = cpt,
                        clean = audit.is_clean(),
                    ),
                );
            }
        }
    }
    println!();
    println!("ReactiveSpot loses the same requests to SLO rejection at every");
    println!("intensity, 0 included: the loss comes from the z0 outage, which its");
    println!("single market cannot route around, not from the injected faults.");
    println!("The hedged policies re-request with backoff, escalate to on-demand");
    println!("after repeated lapses, and lose nothing at any intensity. SpotHedge");
    println!("and CostPerToken coincide in every cell: the pools share one SKU at");
    println!("one constant price, so no pool nears parity and the $/token rung");
    println!("adds nothing to the price-blind hedge. Every cell is auditor-verified.");
}
