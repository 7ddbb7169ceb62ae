//! Fleet-controller policies end to end: the paper-exact reactive
//! baseline, on-demand fallback, and the multi-pool spot hedge.
//!
//! The pinned scenario is a scripted single-zone capacity collapse
//! (pool `z0` drops to zero mid-run while `z1`/`z2` stay healthy):
//! `SpotHedge` must sustain at least the optimizer's target `N` live
//! instances with zero request loss and zero SLO rejections, while
//! `ReactiveSpot` — bound to the single market — stalls. The spot vs
//! on-demand cost split lands in [`RunReport::cost_breakdown`].

use cloudsim::{AvailabilityTrace, PoolSpec};
use llmsim::ModelSpec;
use simkit::{SimDuration, SimTime};
use spotserve::{FleetPolicy, RunReport, Scenario, ServingSystem, SystemOptions};
use workload::apply_slo;

mod common;
use common::{canonical, digest};

/// The scripted single-zone collapse: `z0` healthy then dead at t = 300 s,
/// `z1`/`z2` steady.
fn outage_pools() -> Vec<PoolSpec> {
    vec![
        PoolSpec::new(
            "z0",
            AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(300), 0)]),
        ),
        PoolSpec::new("z1", AvailabilityTrace::constant(4)),
        PoolSpec::new("z2", AvailabilityTrace::constant(4)),
    ]
}

fn scenario(
    pools: Vec<PoolSpec>,
    horizon_secs: u64,
    slo: Option<SimDuration>,
    seed: u64,
) -> Scenario {
    let mut s = Scenario::paper_stable(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        1.0,
        seed,
    )
    .with_pools(pools);
    s.requests
        .retain(|r| r.arrival < SimTime::from_secs(horizon_secs));
    if let Some(slo) = slo {
        apply_slo(&mut s.requests, slo);
    }
    s
}

/// Target fleet size `N` the optimizer adopted at bootstrap.
fn target_n(report: &RunReport) -> u32 {
    report.config_changes[0]
        .config
        .expect("bootstrap adopts a configuration")
        .instances_needed(4)
}

/// Minimum live instance count (spot + on-demand) from `t0` to the end of
/// the run. The timeline is a step function sampled at fleet events, so
/// the level *at* `t0` is the last sample at or before it.
fn min_live_after(report: &RunReport, t0: SimTime) -> u32 {
    let level_at_t0 = report
        .fleet_timeline
        .iter()
        .take_while(|(t, _, _)| *t <= t0)
        .last()
        .map(|(_, s, o)| s + o)
        .expect("samples before the window");
    report
        .fleet_timeline
        .iter()
        .filter(|(t, _, _)| *t > t0)
        .map(|(_, s, o)| s + o)
        .fold(level_at_t0, u32::min)
}

#[test]
fn reactive_spot_replays_bit_identical_to_the_default_path() {
    // `ReactiveSpot` *is* the default: selecting it explicitly must change
    // nothing, and a single-`PoolSpec` market must be byte-identical to
    // the plain single-trace form (the arbiter is a pass-through).
    let run = |opts: SystemOptions, pooled: bool| {
        let mut s = Scenario::paper_stable(
            ModelSpec::opt_6_7b(),
            AvailabilityTrace::paper_bs(),
            1.0,
            23,
        );
        s.requests.retain(|r| r.arrival < SimTime::from_secs(300));
        if pooled {
            s = s.with_pools(vec![PoolSpec::new(
                "default",
                AvailabilityTrace::paper_bs(),
            )]);
        }
        canonical(&ServingSystem::new(opts, s).run())
    };
    let legacy = run(SystemOptions::spotserve(), false);
    let explicit = run(
        SystemOptions::spotserve().with_fleet_policy(FleetPolicy::ReactiveSpot),
        false,
    );
    let pooled = run(SystemOptions::spotserve(), true);
    assert!(!legacy.is_empty());
    assert_eq!(legacy, explicit, "explicit ReactiveSpot must be a no-op");
    assert_eq!(legacy, pooled, "single-pool market must be a pass-through");
}

#[test]
fn on_demand_fallback_holds_target_after_the_grant_delay() {
    // Single market collapses from 6 to 1 instance at t = 300 s: spot alone
    // cannot hold the optimizer's target N, so on-demand must bridge —
    // and after (grace + on-demand grant delay) the live fleet never dips
    // below N again.
    let pools = vec![PoolSpec::new(
        "only",
        AvailabilityTrace::from_steps(vec![(SimTime::ZERO, 6), (SimTime::from_secs(300), 1)]),
    )];
    let s = scenario(pools, 480, None, 31);
    let total = s.requests.len();
    let report = ServingSystem::new(
        SystemOptions::spotserve().with_fleet_policy(FleetPolicy::OnDemandFallback),
        s,
    )
    .run();
    assert_eq!(report.unfinished, 0, "fallback serves everything");
    assert_eq!(report.latency.completed(), total);
    let n = target_n(&report);
    assert!(n > 1, "the outage must actually undershoot the target");
    // Settling window: 30 s grace + 40 s on-demand grant + scheduling slack.
    let settled_after = SimTime::from_secs(300 + 30 + 40 + 30);
    let min_live = min_live_after(&report, settled_after);
    assert!(
        min_live >= n,
        "live fleet {min_live} must hold target {n} after the grant delay"
    );
    assert!(
        report.cost().ondemand_usd > 0.0,
        "the bridge must show up in the cost split"
    );
    assert!(report.cost().spot_usd > 0.0);
}

#[test]
fn spot_hedge_survives_a_full_single_pool_outage() {
    // The pinned acceptance scenario: z0 collapses entirely at t = 300 s.
    // SpotHedge spreads target + hedge across zones, so the survivors
    // alone still hold the target: zero request loss, zero SLO rejections,
    // and live capacity never drops below N once the collapse settles.
    let slo = Some(SimDuration::from_secs(900));
    let hedge = ServingSystem::new(
        SystemOptions::spotserve().with_fleet_policy(FleetPolicy::spot_hedge()),
        scenario(outage_pools(), 480, slo, 41),
    )
    .run();
    assert_eq!(hedge.unfinished, 0, "zero request loss through the outage");
    assert!(hedge.slo_rejections.is_empty(), "zero SLO rejections");
    assert!(hedge.preemptions > 0, "the outage must actually bite");
    let n = target_n(&hedge);
    let settled_after = SimTime::from_secs(300 + 30 + 40 + 30);
    let min_live = min_live_after(&hedge, settled_after);
    assert!(
        min_live >= n,
        "hedged fleet {min_live} must sustain target {n} through the collapse"
    );
    // The cost split is reported; the hedge may bridge with on-demand
    // during the re-spread, but spot dominates.
    let cost = hedge.cost();
    assert!(cost.spot_usd > 0.0);
    assert!(cost.spot_usd > cost.ondemand_usd);

    // The reactive baseline is bound to z0 and stalls when it dies.
    let reactive = ServingSystem::new(
        SystemOptions::spotserve(),
        scenario(outage_pools(), 480, slo, 41),
    )
    .run();
    assert!(
        reactive.unfinished > 0 || !reactive.slo_rejections.is_empty(),
        "single-market reactive must stall on a z0 collapse"
    );
    assert_eq!(
        reactive.cost().ondemand_usd,
        0.0,
        "reactive never mixes in on-demand"
    );
}

/// Golden digests of the squeeze below (seed 61): the price-blind hedge,
/// and the $/token hedge whose parity mask and price-pressure feed both
/// fire on this scenario.
const SQUEEZE_HEDGE_DIGEST: u64 = 0xb382_c515_daed_1e3c;
const SQUEEZE_COST_PER_TOKEN_DIGEST: u64 = 0xf978_1df0_f386_b0f4;

#[test]
fn cost_per_token_undercuts_the_price_blind_hedge_through_a_squeeze() {
    // A spot-market squeeze: the cheap pool collapses at t = 300 s while
    // its price spikes past on-demand parity, then re-opens at the spiked
    // price (re-quoted mid-spike so controllers get a steering point).
    // SpotHedge is price-blind and re-enters; CostPerToken masks the pool
    // and bridges with on-demand below the spiked spot price — strictly
    // lower $/token at equal-or-better SLO attainment and zero loss.
    use cloudsim::{PriceModel, PriceTrace};
    let pools = || {
        vec![
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
        ]
    };
    let slo = Some(SimDuration::from_secs(900));
    let run = |policy| {
        ServingSystem::new(
            SystemOptions::spotserve().with_fleet_policy(policy),
            scenario(pools(), 900, slo, 61),
        )
        .run()
    };
    let hedge = run(FleetPolicy::spot_hedge());
    let cpt = run(FleetPolicy::cost_per_token());
    assert_eq!(digest(&canonical(&hedge)), SQUEEZE_HEDGE_DIGEST);
    assert_eq!(digest(&canonical(&cpt)), SQUEEZE_COST_PER_TOKEN_DIGEST);
    assert_eq!(cpt.unfinished, 0, "the optimizer may never lose requests");
    assert!(
        cpt.slo_rejections.len() <= hedge.slo_rejections.len(),
        "cheaper must not mean later: {} > {} rejections",
        cpt.slo_rejections.len(),
        hedge.slo_rejections.len()
    );
    let (h, c) = (hedge.cost(), cpt.cost());
    let h_cpt = h.usd_per_token.expect("hedge committed tokens");
    let c_cpt = c.usd_per_token.expect("optimizer committed tokens");
    assert!(
        c_cpt < h_cpt,
        "CostPerToken must undercut SpotHedge: {c_cpt} vs {h_cpt}"
    );
    assert!(
        c.ondemand_usd > 0.0,
        "the shortfall bridge must show up as on-demand spend"
    );
}

#[test]
fn multi_pool_replay_is_byte_identical() {
    let run = || {
        let report = ServingSystem::new(
            SystemOptions::spotserve().with_fleet_policy(FleetPolicy::spot_hedge()),
            scenario(outage_pools(), 480, Some(SimDuration::from_secs(900)), 77),
        )
        .run();
        canonical(&report)
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "multi-pool hedged replays must be byte-identical");
}

#[test]
fn preemption_landing_during_an_acquisition_grant_is_survived() {
    // z0 oscillates so that capacity drops land while replacement grants
    // are still in flight (the grant is cancelled, the request lost) and
    // kills overlap provisioning. Conservation and determinism must hold.
    let pools = vec![
        PoolSpec::new(
            "z0",
            AvailabilityTrace::from_steps(vec![
                (SimTime::ZERO, 4),
                (SimTime::from_secs(60), 1),
                (SimTime::from_secs(100), 4),
                (SimTime::from_secs(130), 1),
                (SimTime::from_secs(200), 3),
            ]),
        ),
        PoolSpec::new("z1", AvailabilityTrace::constant(2)),
    ];
    let run = |seed| {
        let s = scenario(pools.clone(), 240, None, seed);
        let total = s.requests.len();
        let report = ServingSystem::new(
            SystemOptions::spotserve().with_fleet_policy(FleetPolicy::spot_hedge()),
            s,
        )
        .run();
        (total, report)
    };
    let (total, report) = run(53);
    assert!(report.preemptions >= 2, "churn must actually happen");
    assert_eq!(
        report.settled() + report.unfinished,
        total,
        "every request has exactly one terminal outcome"
    );
    let (_, again) = run(53);
    assert_eq!(canonical(&report), canonical(&again));
}
