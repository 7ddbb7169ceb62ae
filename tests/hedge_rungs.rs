//! Properties of the one hedge path: the three presets are rungs of a
//! single policy, each adding masks or biases to the rung below.
//!
//! Views and controller states are generated: pool counts, every
//! `PoolView` counter, price cards, SKU capability, lapse streaks (which
//! arm the tracker's backoff masks and escalation) and observed kills
//! (which inflate the hedge).

use fleetctl::policy::PARITY_PERMILLE;
use fleetctl::{
    FleetCommand, FleetController, FleetPolicy, FleetView, HedgeRung, PoolCaps, PoolView,
};
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};

const RUNGS: [HedgeRung; 3] = [
    HedgeRung::PriceBlind,
    HedgeRung::CostAware,
    HedgeRung::CostPerToken,
];

/// When the controller's history happened: lapses and kills land at
/// `T0`, the command is computed `dt` seconds later.
const T0: SimTime = SimTime::from_secs(100);

/// One generated pool: its view plus how many consecutive grant lapses
/// it has suffered.
#[derive(Debug, Clone)]
struct GenPool {
    view: PoolView,
    lapses: u32,
}

/// One generated case: the fleet snapshot and the controller history.
#[derive(Debug, Clone)]
struct Case {
    view: FleetView,
    lapses: Vec<u32>,
    kills: u32,
    dt: u64,
}

impl Case {
    /// A controller for `rung` with this case's history replayed.
    fn controller(&self, rung: HedgeRung) -> FleetController {
        let n = self.view.pools.len();
        let mut c = FleetController::new(FleetPolicy::Hedge(rung), n, SimDuration::from_secs(40));
        for (pool, &k) in self.lapses.iter().enumerate() {
            for _ in 0..k {
                c.observe_lapse(pool, T0);
            }
        }
        for k in 0..self.kills as usize {
            c.observe_kill(k % n, T0);
        }
        c
    }

    fn now(&self) -> SimTime {
        T0 + SimDuration::from_secs(self.dt)
    }

    fn command(&self, rung: HedgeRung) -> FleetCommand {
        self.controller(rung).command(&self.view, self.now())
    }
}

fn pool() -> impl Strategy<Value = GenPool> {
    (
        (0u32..6, 0u32..3, 0u32..4, 0u32..4),
        0u32..10,
        (0u32..800, 0u32..600),
        0u8..4,
        0u32..4,
    )
        .prop_map(
            |((live, noticed, provisioning, queued), capacity, (spot, od), fits, lapses)| GenPool {
                view: PoolView {
                    live_spot: live,
                    noticed_spot: noticed,
                    provisioning_spot: provisioning,
                    queued_spot: queued,
                    capacity,
                    lapsed_spot: lapses,
                    caps: PoolCaps {
                        sku: "gen",
                        spot_cents_per_hour: spot,
                        ondemand_cents_per_hour: od,
                        gpus_per_instance: 4,
                        fits_model: fits != 0,
                    },
                },
                lapses,
            },
        )
}

fn case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(pool(), 5),
        1usize..6,
        (0u32..16, 0u32..3),
        (0u32..4, 0u32..3),
        0u32..6,
        0u64..240,
    )
        .prop_map(
            |(pools, n, (target, spares), (live_ondemand, pending_ondemand), kills, dt)| {
                let pools = &pools[..n];
                Case {
                    view: FleetView {
                        pools: pools.iter().map(|p| p.view).collect(),
                        live_ondemand,
                        pending_ondemand,
                        target,
                        spares,
                    },
                    lapses: pools.iter().map(|p| p.lapses).collect(),
                    kills,
                    dt,
                }
            },
        )
}

/// Whether `rung` masks `pool` out of the spread, stated independently
/// of the controller: backed off (every rung), an SKU that cannot host
/// the model (cost-aware and up), spot at or past parity ($/token only).
fn masked(
    c: &FleetController,
    rung: HedgeRung,
    view: &FleetView,
    pool: usize,
    now: SimTime,
) -> bool {
    let caps = &view.pools[pool].caps;
    let past_parity = caps.ondemand_cents_per_hour > 0
        && u64::from(caps.spot_cents_per_hour) * 1000
            >= u64::from(PARITY_PERMILLE) * u64::from(caps.ondemand_cents_per_hour);
    c.tracker().is_backed_off(pool, now)
        || (rung >= HedgeRung::CostAware && !caps.fits_model)
        || (rung == HedgeRung::CostPerToken && past_parity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On a uniform fleet — every pool fits the model, every pool quotes
    /// the same prices, none at parity — the rungs' extra masks and biases
    /// are inert: the three presets command the same thing, except that
    /// the price-blind backstop keeps its legacy pool-0 routing (`None`)
    /// where the others name pool 0 explicitly.
    #[test]
    fn presets_coincide_on_uniform_fleets(
        mut c in case(),
        spot in 0u32..350,
        od in prop::sample::select(vec![0u32, 390, 460, 600]),
    ) {
        for p in &mut c.view.pools {
            p.caps.fits_model = true;
            p.caps.spot_cents_per_hour = spot;
            p.caps.ondemand_cents_per_hour = od;
        }
        let blind = c.command(HedgeRung::PriceBlind);
        let aware = c.command(HedgeRung::CostAware);
        let per_token = c.command(HedgeRung::CostPerToken);
        prop_assert_eq!(&aware, &per_token);
        prop_assert_eq!(aware.ondemand_pool, Some(0));
        prop_assert!(
            matches!(blind.ondemand_pool, None | Some(0)),
            "price-blind routing: {:?}",
            blind.ondemand_pool
        );
        prop_assert_eq!(
            FleetCommand { ondemand_pool: Some(0), ..blind },
            aware
        );
    }

    /// The price-blind rung reads no price card and no capability flag:
    /// re-pricing every pool changes nothing it commands, except where an
    /// escalation routes the on-demand bridge to the cheapest capable pool.
    #[test]
    fn price_blind_rung_ignores_price_cards(c in case(), other in case()) {
        let mut repriced = c.clone();
        for (p, q) in repriced.view.pools.iter_mut().zip(other.view.pools.iter().cycle()) {
            p.caps = q.caps;
        }
        let a = c.command(HedgeRung::PriceBlind);
        let b = repriced.command(HedgeRung::PriceBlind);
        prop_assert_eq!(
            FleetCommand { ondemand_pool: None, ..a },
            FleetCommand { ondemand_pool: None, ..b }
        );
    }

    /// A pool masked at one rung receives no spot request at that rung or
    /// at any rung above it.
    #[test]
    fn a_masked_pool_gets_no_spot_at_its_rung_or_above(c in case()) {
        let now = c.now();
        for (k, &low) in RUNGS.iter().enumerate() {
            let ctl = c.controller(low);
            for pool in 0..c.view.pools.len() {
                if !masked(&ctl, low, &c.view, pool, now) {
                    continue;
                }
                for &high in &RUNGS[k..] {
                    let cmd = c.command(high);
                    prop_assert_eq!(
                        cmd.spot[pool],
                        0,
                        "pool {} masked at {:?} got spot at {:?}: {:?}",
                        pool,
                        low,
                        high,
                        cmd
                    );
                }
            }
        }
    }
}
