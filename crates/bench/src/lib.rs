//! Experiment drivers that regenerate every table and figure of the paper.
//!
//! Each binary in `src/bin/` prints one table/figure in row/series form:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1: model sizes, min #GPUs, minimal `(P,M)`, `l_exe(B=1)` |
//! | `fig5`   | Figure 5: availability traces `A_S`, `B_S` and the mixed `+O` fleets |
//! | `fig6`   | Figure 6: avg/P90…P99 latency, 3 systems × 3 models × 4 traces |
//! | `fig7`   | Figure 7: monetary cost (USD/token) vs latency on GPT-20B |
//! | `fig8`   | Figure 8: fluctuating (MAF) workload study |
//! | `fig9`   | Figure 9: component ablation on GPT-20B |
//! | `fig_fleet` | Fleet policies: availability + cost split under a zone outage (beyond-paper) |
//! | `fig_hetero` | Heterogeneous SKUs: A100 collapse → L4/H100 recovery, per-policy cost (beyond-paper) |
//! | `fig_chaos` | Chaos pack: per-policy SLO attainment / cost / loss vs fault intensity, auditor-verified (beyond-paper) |
//!
//! The criterion benches (`benches/`) cover the paper's systems claims:
//! the online optimizer runs in well under a second (§3.2), KM mapping is
//! fast at fleet scale (§3.3), and migration planning is cheap (§3.4).

use cloudsim::{AvailabilityTrace, FaultSpec, InstanceType, PoolSpec, PriceModel, PriceTrace};
use llmsim::ModelSpec;
use simkit::metrics::Percentiles;
use simkit::{SimDuration, SimTime};
use spotserve::{AblationFlags, FleetPolicy, RunReport, Scenario, ServingSystem, SystemOptions};

/// The three serving systems of §6.1, in the paper's comparison order.
pub fn paper_systems() -> Vec<(&'static str, SystemOptions)> {
    vec![
        ("SpotServe", SystemOptions::spotserve()),
        ("Reparallelization", SystemOptions::reparallelization()),
        ("Rerouting", SystemOptions::rerouting()),
    ]
}

/// The paper's per-model request rates (§6.1): OPT 1.5, GPT 0.35,
/// LLaMA 0.2 requests/s.
pub fn paper_rate(model: &ModelSpec) -> f64 {
    match model.name {
        "OPT-6.7B" => 1.5,
        "GPT-20B" => 0.35,
        "LLaMA-30B" => 0.2,
        _ => 1.0,
    }
}

/// The four §6.2 trace variants: `A_S`, `B_S` spot-only, and the same
/// spot traces with on-demand mixing enabled (`A_S+O`, `B_S+O`).
pub fn paper_traces() -> Vec<(&'static str, AvailabilityTrace, bool)> {
    vec![
        ("AS", AvailabilityTrace::paper_as(), false),
        ("BS", AvailabilityTrace::paper_bs(), false),
        ("AS+O", AvailabilityTrace::paper_as(), true),
        ("BS+O", AvailabilityTrace::paper_bs(), true),
    ]
}

/// Runs one `(system, model, trace)` cell of Figure 6 and returns the
/// report. `seed` controls workload + cloud randomness.
pub fn run_cell(
    mut opts: SystemOptions,
    model: &ModelSpec,
    trace: &AvailabilityTrace,
    mixing: bool,
    rate: f64,
    seed: u64,
) -> RunReport {
    if mixing {
        opts = opts.with_on_demand_mixing();
    }
    let scenario = Scenario::paper_stable(model.clone(), trace.clone(), rate, seed);
    ServingSystem::new(opts, scenario).run()
}

/// The fleet acquisition policies compared by the `fig_fleet` figure, in
/// escalation order: the paper baseline, the on-demand bridge, and the
/// SkyServe-style multi-pool hedge.
pub fn fleet_policy_ladder() -> Vec<(&'static str, FleetPolicy)> {
    vec![
        ("ReactiveSpot", FleetPolicy::ReactiveSpot),
        ("OnDemandFallback", FleetPolicy::OnDemandFallback),
        ("SpotHedge", FleetPolicy::spot_hedge()),
    ]
}

/// The scripted zone-outage scenario behind `fig_fleet` and the pinned
/// acceptance test: three pools, `z0` collapsing entirely at t = 300 s
/// while `z1`/`z2` stay healthy (`z2` priced below list). OPT-6.7B at
/// 1 req/s for 480 s of arrivals, every request carrying a 900 s SLO.
pub fn zone_outage_scenario(seed: u64) -> Scenario {
    let pools = vec![
        PoolSpec::new(
            "z0",
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(300), 0)]),
        ),
        PoolSpec::new("z1", AvailabilityTrace::constant(4)),
        PoolSpec::new("z2", AvailabilityTrace::constant(4)).with_spot_price(1.4),
    ];
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        1.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(480));
    workload::apply_slo(&mut scenario.requests, SimDuration::from_secs(900));
    scenario
}

/// The acquisition policies compared on the heterogeneous-SKU scenario:
/// the single-SKU-minded on-demand bridge, the price-blind multi-pool
/// hedge, and the SKU/price-aware hedge that routes its on-demand
/// backstop to the cheapest capable pool.
pub fn hetero_policy_ladder() -> Vec<(&'static str, FleetPolicy)> {
    vec![
        ("OnDemandFallback", FleetPolicy::OnDemandFallback),
        ("SpotHedge", FleetPolicy::spot_hedge()),
        ("CostAwareHedge", FleetPolicy::cost_aware_hedge()),
    ]
}

/// The heterogeneous-fleet collapse behind `fig_hetero`: three pools with
/// *different* SKUs. The A100 pool (`p4d.24xlarge`) carries the fleet
/// until its spot market collapses entirely at t = 300 s; the cheap L4
/// pool (`g6.12xlarge`) stays healthy, and the premium H100 pool
/// (`p5.48xlarge`) has zero spot capacity — it only matters as an
/// on-demand backstop. OPT-6.7B at 1 req/s for 480 s of arrivals, every
/// request carrying a 900 s SLO. Recovery therefore *must* cross SKUs:
/// the optimizer's L4 lane (or on-demand H100) picks up the traffic.
pub fn hetero_outage_scenario(seed: u64) -> Scenario {
    let pools = vec![
        PoolSpec::new(
            "a100",
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(300), 0)]),
        )
        .with_instance_type(InstanceType::a100()),
        PoolSpec::new("l4", AvailabilityTrace::constant(6)).with_instance_type(InstanceType::l4()),
        PoolSpec::new("h100", AvailabilityTrace::constant(0))
            .with_instance_type(InstanceType::h100()),
    ];
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        1.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(480));
    workload::apply_slo(&mut scenario.requests, SimDuration::from_secs(900));
    scenario
}

/// The acquisition policies compared on the price-spike scenario: the
/// price-blind hedge, the price-biased hedge, and the $/token optimizer
/// that masks spiked pools and bridges with on-demand past parity.
pub fn price_policy_ladder() -> Vec<(&'static str, FleetPolicy)> {
    vec![
        ("SpotHedge", FleetPolicy::spot_hedge()),
        ("CostAwareHedge", FleetPolicy::cost_aware_hedge()),
        ("CostPerToken", FleetPolicy::cost_per_token()),
    ]
}

/// The spot-market squeeze behind `fig_price`: two same-SKU pools where
/// the cheap pool's market *tightens* mid-run — capacity collapses at
/// t = 300 s while the clearing price spikes from \$1.9/h to \$6.0/h
/// (well past on-demand parity: the SKU lists at \$3.9/h on-demand),
/// capacity returns at t = 450 s *at the spiked price* (re-quoted at
/// \$6.3/h at t = 480 s), and the market only cools long after the run.
/// The calm pool stays at \$2.1/h but is too small to hold the target
/// alone, so every policy must find capacity somewhere:
///
/// * `SpotHedge` is price-blind — once `spiky` re-opens it re-spreads
///   into it and pays the spiked price for the rest of the run;
/// * `CostPerToken` masks the pool past its parity threshold and bridges
///   the shortfall with on-demand at \$3.9/h — strictly cheaper than
///   spiked spot, and acquired sooner (it never waits for `spiky` to
///   re-open).
///
/// OPT-6.7B at 1 req/s for 900 s of arrivals, every request carrying a
/// 900 s SLO. Price re-quotes reach the controller as
/// [`SpotPriceStep`](cloudsim::CloudEvent::SpotPriceStep) events.
pub fn price_spike_scenario(seed: u64) -> Scenario {
    let pools = vec![
        PoolSpec::new(
            "spiky",
            AvailabilityTrace::from_steps(vec![
                (SimTime::ZERO, 6),
                (SimTime::from_secs(300), 0),
                (SimTime::from_secs(450), 6),
            ]),
        )
        .with_price(PriceModel::Trace(PriceTrace::from_steps(vec![
            (SimTime::ZERO, 1.9),
            (SimTime::from_secs(300), 6.0),
            (SimTime::from_secs(480), 6.3),
            (SimTime::from_secs(3600), 1.9),
        ]))),
        PoolSpec::new("calm", AvailabilityTrace::constant(3)).with_spot_price(2.1),
    ];
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        1.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(900));
    workload::apply_slo(&mut scenario.requests, SimDuration::from_secs(900));
    scenario
}

/// The acquisition policies compared on the chaos pack: the single-market
/// reactive baseline (which stalls when its pool degrades), the
/// price-blind hedge, and the $/token optimizer — both hedged policies
/// carry the retry/backoff/escalation machinery.
pub fn chaos_policy_ladder() -> Vec<(&'static str, FleetPolicy)> {
    vec![
        ("ReactiveSpot", FleetPolicy::ReactiveSpot),
        ("SpotHedge", FleetPolicy::spot_hedge()),
        ("CostPerToken", FleetPolicy::cost_per_token()),
    ]
}

/// The intensity the CI gate pins: high enough that every fault channel
/// fires, low enough that a hedged policy recovers with zero loss.
pub const STANDARD_CHAOS_INTENSITY: f64 = 0.6;

/// The chaos-pack scenario behind `fig_chaos`: the pinned zone outage
/// (`z0` collapses at t = 300 s, recovers at t = 600 s) with the
/// [`FaultSpec::pack`] layered on top at `intensity` — unannounced kills,
/// lost and truncated notices, lapsed grants, and a degraded link on
/// `z0`; `z1`/`z2` run a half-intensity pack so the survivors churn too.
/// OPT-6.7B at 1 req/s for 480 s of arrivals, every request carrying a
/// 900 s SLO. At `intensity = 0`, the packs are all-off (`calm`) and the
/// scenario degenerates to the plain scripted outage.
pub fn chaos_pack_scenario(intensity: f64, seed: u64) -> Scenario {
    let pack = |scale: f64| {
        let i = intensity * scale;
        if i > 0.0 {
            FaultSpec::pack(i)
        } else {
            FaultSpec::calm()
        }
    };
    let pools = vec![
        PoolSpec::new(
            "z0",
            AvailabilityTrace::from_steps(vec![
                (SimTime::ZERO, 6),
                (SimTime::from_secs(300), 0),
                (SimTime::from_secs(600), 6),
            ]),
        )
        .with_faults(pack(1.0)),
        PoolSpec::new("z1", AvailabilityTrace::constant(4)).with_faults(pack(0.5)),
        PoolSpec::new("z2", AvailabilityTrace::constant(4)).with_faults(pack(0.5)),
    ];
    let mut scenario = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        1.0,
        seed,
    )
    .with_pools(pools);
    scenario
        .requests
        .retain(|r| r.arrival < SimTime::from_secs(480));
    workload::apply_slo(&mut scenario.requests, SimDuration::from_secs(900));
    scenario
}

/// The Figure 9 ablation ladder: components disabled cumulatively, in the
/// paper's order.
pub fn ablation_ladder() -> Vec<(&'static str, AblationFlags)> {
    let mut flags = AblationFlags::default();
    let mut out = vec![("SpotServe", flags)];
    flags.no_controller = true;
    out.push(("-Controller", flags));
    flags.no_migration_planner = true;
    out.push(("-Migration Planner", flags));
    flags.no_interruption_arranger = true;
    out.push(("-Interruption Arranger", flags));
    flags.no_device_mapper = true;
    out.push(("-Device Mapper", flags));
    out
}

/// The million-request replay behind `fig_scale`: `pools` stable zones
/// (one per shard), OPT-6.7B at a per-pool-sustainable aggregate rate,
/// exactly `requests` Gamma arrivals. Every pool carries a price trace
/// with a re-quote step every simulated hour, so the sharded run crosses
/// a `SpotPriceStep` barrier each hour — the epoch machinery is
/// exercised, not idled, at scale.
///
/// # Panics
///
/// Panics if the generated stream falls short of `requests` (the
/// duration carries 3% slack, so this means the workload model changed).
pub fn scale_replay_scenario(pools: usize, requests: usize, seed: u64) -> Scenario {
    // ~1.5 req/s per pool: the paper's sustainable OPT-6.7B rate, so
    // per-shard queues stay bounded over the whole replay.
    let rate = 1.5 * pools as f64;
    let mut spec = workload::WorkloadSpec::paper_stable(rate);
    spec.duration = SimDuration::from_secs_f64(requests as f64 / rate * 1.03);
    let mut stream = simkit::SimRng::new(seed).stream("arrivals");
    let mut all = spec.generate(&mut stream);
    assert!(
        all.len() >= requests,
        "workload produced {} < {requests} requests",
        all.len()
    );
    all.truncate(requests);
    let horizon = spec.duration.as_secs_f64() as u64;
    let pool_specs = (0..pools)
        .map(|i| {
            let steps: Vec<(SimTime, f64)> = (0..=horizon / 3600)
                .map(|h| {
                    // Deterministic +/-10% wobble around $1.9/h, staggered
                    // per pool so the hourly barriers are real re-quotes.
                    let wobble = ((h + i as u64) % 5) as f64 * 0.05 - 0.1;
                    (SimTime::from_secs(h * 3600), 1.9 * (1.0 + wobble))
                })
                .collect();
            PoolSpec::new(format!("z{i}"), AvailabilityTrace::constant(4))
                .with_price(PriceModel::Trace(PriceTrace::from_steps(steps)))
        })
        .collect();
    Scenario::with_requests(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        all,
        rate,
        seed,
    )
    .with_pools(pool_specs)
}

/// Formats a Figure 6 style row: `Avg  P90 P95 P96 P97 P98 P99` (seconds).
pub fn latency_row(p: &Percentiles) -> String {
    format!(
        "avg={:7.1}  p90={:7.1}  p95={:7.1}  p96={:7.1}  p97={:7.1}  p98={:7.1}  p99={:7.1}",
        p.mean, p.p90, p.p95, p.p96, p.p97, p.p98, p.p99
    )
}

/// Prints a boxed section header.
pub fn header(title: &str) {
    println!();
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// The machine-readable output path named by `CRITERION_JSON`, if set —
/// the growing JSON array document the vendored criterion shim writes
/// ns/iter records into and the figure binaries append their summary
/// records to, so CI jq-gates one file per run.
pub fn criterion_json_path() -> Option<std::path::PathBuf> {
    std::env::var_os("CRITERION_JSON").map(std::path::PathBuf::from)
}

/// Appends one record to the JSON array document at `path`, creating the
/// array if the file is missing or empty. Mirrors the vendored criterion
/// shim's format so figure records and ns/iter records share one file.
pub fn append_json_record(path: &std::path::Path, record: &str) {
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            match trimmed.strip_suffix(']') {
                Some(init) if !init.trim_end().ends_with('[') => {
                    format!("{init},\n  {record}\n]\n", init = init.trim_end())
                }
                _ => format!("[\n  {record}\n]\n"),
            }
        }
        Err(_) => format!("[\n  {record}\n]\n"),
    };
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("append_json_record: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_cover_paper_models() {
        for m in ModelSpec::paper_models() {
            assert!(paper_rate(&m) > 0.0);
        }
        assert_eq!(paper_rate(&ModelSpec::llama_13b()), 1.0);
    }

    #[test]
    fn ablation_ladder_is_cumulative() {
        let ladder = ablation_ladder();
        assert_eq!(ladder.len(), 5);
        assert!(!ladder[0].1.no_controller);
        assert!(ladder[4].1.no_controller && ladder[4].1.no_device_mapper);
    }

    #[test]
    fn fleet_ladder_and_outage_scenario_are_well_formed() {
        let ladder = fleet_policy_ladder();
        assert_eq!(ladder.len(), 3);
        assert!(ladder[0].1.is_reactive());
        let s = zone_outage_scenario(1);
        assert_eq!(s.pools.len(), 3);
        assert_eq!(s.pools[0].trace.min_capacity(), 0, "z0 collapses");
        assert!(s.requests.iter().all(|r| r.deadline.is_some()));
    }

    #[test]
    fn hetero_ladder_and_scenario_are_well_formed() {
        let ladder = hetero_policy_ladder();
        assert_eq!(ladder.len(), 3);
        let s = hetero_outage_scenario(1);
        assert_eq!(s.pools.len(), 3);
        let skus: Vec<&str> = s
            .pools
            .iter()
            .map(|p| p.instance_type.as_ref().unwrap().name)
            .collect();
        assert_eq!(skus, ["p4d.24xlarge", "g6.12xlarge", "p5.48xlarge"]);
        assert_eq!(s.pools[0].trace.min_capacity(), 0, "a100 pool collapses");
        assert_eq!(s.pools[2].trace.min_capacity(), 0, "h100 is on-demand only");
        assert!(s.requests.iter().all(|r| r.deadline.is_some()));
    }

    #[test]
    fn price_ladder_and_spike_scenario_are_well_formed() {
        let ladder = price_policy_ladder();
        assert_eq!(ladder.len(), 3);
        assert_eq!(ladder[2].1, FleetPolicy::cost_per_token());
        let s = price_spike_scenario(1);
        assert_eq!(s.pools.len(), 2);
        let spiky = s.pools[0].price.as_ref().expect("spiky pool is priced");
        assert!(spiky.is_dynamic(), "the squeeze needs a moving price");
        assert_eq!(s.pools[0].trace.min_capacity(), 0, "spiky pool collapses");
        assert!(s.requests.iter().all(|r| r.deadline.is_some()));
    }

    #[test]
    fn traces_cover_four_variants() {
        let ts = paper_traces();
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.iter().filter(|(_, _, mix)| *mix).count(), 2);
    }
}
