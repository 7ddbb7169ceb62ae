//! The fleet controller sits on the serving hot path (every cloud event
//! is a steering point), so its decision must be cheap — microseconds,
//! not the optimizer's milliseconds — and the multi-pool market's merged
//! event pump must stay linear in events, not pools.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cloudsim::{AvailabilityTrace, CloudConfig, CloudMarket, PoolId, PoolSpec};
use fleetctl::{FleetController, FleetPolicy, FleetView, PoolCaps, PoolView};
use simkit::{SimDuration, SimTime};

fn controller_view(pools: usize) -> FleetView {
    FleetView {
        pools: (0..pools)
            .map(|i| PoolView {
                live_spot: (i % 3) as u32,
                provisioning_spot: (i % 2) as u32,
                queued_spot: 0,
                noticed_spot: 0,
                lapsed_spot: 0,
                capacity: 4 + (i % 5) as u32,
                caps: PoolCaps {
                    sku: "g4dn.12xlarge",
                    spot_cents_per_hour: 190 + (i % 4) as u32 * 75,
                    ondemand_cents_per_hour: 390 + (i % 4) as u32 * 110,
                    gpus_per_instance: 4,
                    fits_model: i % 7 != 6,
                },
            })
            .collect(),
        live_ondemand: 1,
        pending_ondemand: 0,
        target: 8,
        spares: 2,
    }
}

fn bench_controller(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_controller");
    for pools in [2usize, 8, 32] {
        let view = controller_view(pools);
        let mut hedged =
            FleetController::new(FleetPolicy::spot_hedge(), pools, SimDuration::from_secs(40));
        // Warm estimator: every pool has seen churn.
        for p in 0..pools {
            hedged.observe_kill(p, SimTime::from_secs(p as u64));
        }
        g.bench_function(format!("spot_hedge/{pools}_pools"), |b| {
            b.iter(|| hedged.command(black_box(&view), black_box(SimTime::from_secs(100))))
        });
        let fallback = FleetController::new(
            FleetPolicy::OnDemandFallback,
            pools,
            SimDuration::from_secs(40),
        );
        g.bench_function(format!("ondemand_fallback/{pools}_pools"), |b| {
            b.iter(|| fallback.command(black_box(&view), black_box(SimTime::from_secs(100))))
        });
        let cost_aware = FleetController::new(
            FleetPolicy::cost_aware_hedge(),
            pools,
            SimDuration::from_secs(40),
        );
        g.bench_function(format!("cost_aware_hedge/{pools}_pools"), |b| {
            b.iter(|| cost_aware.command(black_box(&view), black_box(SimTime::from_secs(100))))
        });
    }
    g.finish();
}

fn bench_market_pump(c: &mut Criterion) {
    let mut g = c.benchmark_group("cloud_market");
    for pools in [1usize, 4, 16] {
        let specs: Vec<PoolSpec> = (0..pools)
            .map(|i| PoolSpec::new(format!("z{i}"), AvailabilityTrace::paper_bs()))
            .collect();
        g.bench_function(format!("drain/{pools}_pools"), |b| {
            b.iter(|| {
                let mut m = CloudMarket::new(&CloudConfig::default(), &specs, 7);
                for i in 0..pools {
                    m.request_spot_in(SimTime::ZERO, PoolId(i as u32), 6);
                }
                let mut n = 0u32;
                while let Some(ev) = m.pop_next() {
                    black_box(&ev);
                    n += 1;
                }
                n
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_controller, bench_market_pump);
criterion_main!(benches);
