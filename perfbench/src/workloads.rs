//! The three benchmark workloads, each built from a seed alone.
//!
//! Every workload is pure in its seed: the same seed gives the same
//! requests, traces, prices and fault plans, and the system under test
//! receives only the generated [`Scenario`].

use cloudsim::{AvailabilityTrace, FaultSpec, InstanceType, OuParams, PoolSpec, PriceModel};
use llmsim::ModelSpec;
use simkit::{SimDuration, SimRng};
use spotserve::{FleetPolicy, Scenario, SystemOptions};
use workload::{Request, WorkloadSpec};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The million-request sharded replay behind `fig_scale`.
    ScaleReplay,
    /// GPT-20B on one churning spot pool under `ReactiveSpot`.
    SpotChurn,
    /// OPT-6.7B on four mixed-SKU pools with OU prices and chaos faults.
    FleetChaos,
}

/// Pools (and shards) of the scale replay.
pub const SCALE_POOLS: usize = 8;
/// Requests of the scale replay.
pub const SCALE_REQUESTS: usize = 1_000_000;
/// Worker threads of the scale replay's timed runs.
pub const SCALE_THREADS: usize = 2;

/// Arrival rate of spot-churn: the paper's GPT-20B rate (§6.1).
pub const CHURN_RATE: f64 = 0.35;
/// Simulated hours of spot-churn arrivals.
pub const CHURN_HOURS: u64 = 200;

/// Arrival rate of fleet-chaos.
pub const CHAOS_RATE: f64 = 2.0;
/// Simulated hours of fleet-chaos arrivals.
pub const CHAOS_HOURS: u64 = 20;
/// Chaos-pack intensity applied to every fleet-chaos pool.
pub const CHAOS_INTENSITY: f64 = 0.6;
/// SLO carried by every fleet-chaos request.
pub const CHAOS_SLO: SimDuration = SimDuration::from_secs(900);

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 3] = [
        Workload::ScaleReplay,
        Workload::SpotChurn,
        Workload::FleetChaos,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleReplay => "scale-replay",
            Workload::SpotChurn => "spot-churn",
            Workload::FleetChaos => "fleet-chaos",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shards the workload's system is split into (1 = the unsharded
    /// `ServingSystem`).
    pub fn shards(self) -> usize {
        match self {
            Workload::ScaleReplay => SCALE_POOLS,
            _ => 1,
        }
    }

    /// System options of the untraced run. Only fleet-chaos records
    /// telemetry there: it is part of what that workload measures.
    pub fn options(self) -> SystemOptions {
        match self {
            Workload::ScaleReplay | Workload::SpotChurn => SystemOptions::spotserve(),
            Workload::FleetChaos => SystemOptions::spotserve()
                .with_fleet_policy(FleetPolicy::cost_per_token())
                .with_telemetry(),
        }
    }

    /// The workload's request stream and market for `seed`. The scale
    /// replay delegates to `spotserve_bench::scale_replay_scenario`, whose
    /// seed-8 output the `fig_scale` digest pins.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::ScaleReplay => {
                spotserve_bench::scale_replay_scenario(SCALE_POOLS, SCALE_REQUESTS, seed)
            }
            Workload::SpotChurn => spot_churn(seed, CHURN_HOURS),
            Workload::FleetChaos => fleet_chaos(seed, CHAOS_HOURS),
        }
    }
}

/// Open-loop Gamma arrivals (CV 6, the paper's `S_in = 512`,
/// `S_out = 128`) at `rate` for `hours` of simulated time.
fn arrivals(rate: f64, hours: u64, rng: &SimRng) -> Vec<Request> {
    let mut spec = WorkloadSpec::paper_stable(rate);
    spec.duration = SimDuration::from_secs(hours * 3600);
    spec.generate(&mut rng.stream("arrivals"))
}

/// A churning spot-capacity trace covering the arrivals.
fn churn_trace(hours: u64, min: u32, max: u32, start: u32, rng: &mut SimRng) -> AvailabilityTrace {
    cloudsim::TraceGenerator {
        duration: SimDuration::from_secs(hours * 3600),
        min_capacity: min,
        max_capacity: max,
        start_capacity: start,
        mean_dwell: SimDuration::from_secs(120),
        drop_probability: 0.5,
        max_step: 4,
    }
    .generate(rng)
}

/// GPT-20B at 0.35 req/s on one pool whose capacity walks between 4 and
/// 16 instances (~120 s mean dwell, steps of at most 4).
pub fn spot_churn(seed: u64, hours: u64) -> Scenario {
    let rng = SimRng::new(seed);
    let requests = arrivals(CHURN_RATE, hours, &rng);
    let trace = churn_trace(hours, 4, 16, 12, &mut rng.stream("trace"));
    Scenario::with_requests(
        ModelSpec::gpt_20b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        requests,
        CHURN_RATE,
        seed,
    )
    .with_pools(vec![PoolSpec::new("spot", trace)])
}

/// The SKUs of the four fleet-chaos pools, in pool order.
pub fn chaos_skus() -> [InstanceType; 4] {
    [
        InstanceType::a100(),
        InstanceType::l4(),
        InstanceType::h100(),
        InstanceType::l4(),
    ]
}

/// OPT-6.7B at 2 req/s over four mixed-SKU pools: each with its own
/// 0–8 instance trace, an OU spot price around its list spot price, and
/// the chaos pack at intensity 0.6. Every request carries a 900 s SLO.
pub fn fleet_chaos(seed: u64, hours: u64) -> Scenario {
    let rng = SimRng::new(seed);
    let mut requests = arrivals(CHAOS_RATE, hours, &rng);
    workload::apply_slo(&mut requests, CHAOS_SLO);
    let pools = chaos_skus()
        .into_iter()
        .enumerate()
        .map(|(i, ty)| {
            let trace = churn_trace(hours, 0, 8, 6, &mut rng.stream(&format!("trace/pool{i}")));
            let price = PriceModel::Ou(OuParams::around(ty.spot_price_per_hour));
            PoolSpec::new(format!("p{i}"), trace)
                .with_instance_type(ty)
                .with_price(price)
                .with_faults(FaultSpec::pack(CHAOS_INTENSITY))
        })
        .collect();
    Scenario::with_requests(
        ModelSpec::opt_6_7b(),
        AvailabilityTrace::constant(0), // unused once pools are set
        requests,
        CHAOS_RATE,
        seed,
    )
    .with_pools(pools)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimTime;

    #[test]
    fn scenarios_are_deterministic_in_their_seed() {
        for w in Workload::ALL {
            let (a, b, c) = (w.scenario(3), w.scenario(3), w.scenario(4));
            assert_eq!(a.requests, b.requests, "{}", w.name());
            assert_eq!(a.pools, b.pools, "{}", w.name());
            assert_eq!(a.seed, 3);
            assert_ne!(
                a.requests,
                c.requests,
                "{}: the seed drives arrivals",
                w.name()
            );
        }
        for w in [Workload::SpotChurn, Workload::FleetChaos] {
            let (a, c) = (w.scenario(3), w.scenario(4));
            let traces = |s: &Scenario| s.pools.iter().map(|p| p.trace.clone()).collect::<Vec<_>>();
            assert_ne!(
                traces(&a),
                traces(&c),
                "{}: the seed drives traces",
                w.name()
            );
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn scale_replay_has_its_stated_shape() {
        let s = Workload::ScaleReplay.scenario(8);
        assert_eq!(s.pools.len(), SCALE_POOLS);
        assert_eq!(s.requests.len(), SCALE_REQUESTS);
        assert_eq!(Workload::ScaleReplay.shards(), SCALE_POOLS);
        assert_eq!(s.model.name, "OPT-6.7B");
        assert!(s.requests.iter().all(|r| r.deadline.is_none()));
    }

    #[test]
    fn spot_churn_has_its_stated_shape() {
        let s = Workload::SpotChurn.scenario(1);
        assert_eq!(s.model.name, "GPT-20B");
        assert_eq!(s.pools.len(), 1);
        let trace = &s.pools[0].trace;
        assert!(trace.min_capacity() >= 4 && trace.max_capacity() <= 16);
        assert!(trace.steps().len() > 1000, "capacity churns over the run");
        let expected = CHURN_RATE * (CHURN_HOURS * 3600) as f64;
        let n = s.requests.len() as f64;
        assert!((n - expected).abs() < 0.05 * expected, "{n} requests");
        assert!(s.requests.iter().all(|r| r.deadline.is_none()));
        assert!(Workload::SpotChurn.options().fleet_policy.is_reactive());
        assert!(!Workload::SpotChurn.options().telemetry);
    }

    #[test]
    fn fleet_chaos_has_its_stated_shape() {
        let s = Workload::FleetChaos.scenario(8);
        assert_eq!(s.model.name, "OPT-6.7B");
        let skus: Vec<&str> = s
            .pools
            .iter()
            .map(|p| {
                p.instance_type
                    .as_ref()
                    .expect("every pool names its SKU")
                    .name
            })
            .collect();
        let expected: Vec<&str> = chaos_skus().iter().map(|t| t.name).collect();
        assert_eq!(skus, expected);
        assert_eq!(s.pools.len(), 4);
        for p in &s.pools {
            assert!(p.trace.max_capacity() <= 8);
            assert!(matches!(p.price, Some(PriceModel::Ou(_))));
            assert!(p.faults.as_ref().is_some_and(FaultSpec::is_active));
        }
        assert!(s
            .requests
            .iter()
            .all(|r| r.deadline == Some(r.arrival + CHAOS_SLO)));
        let expected = CHAOS_RATE * (CHAOS_HOURS * 3600) as f64;
        let n = s.requests.len() as f64;
        assert!((n - expected).abs() < 0.05 * expected, "{n} requests");
        assert!(
            s.requests.last().expect("requests").arrival < SimTime::from_secs(CHAOS_HOURS * 3600)
        );
        let opts = Workload::FleetChaos.options();
        assert!(opts.telemetry);
        assert_eq!(opts.fleet_policy, FleetPolicy::cost_per_token());
    }
}
