//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale-replay|spot-churn|fleet-chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics; `--trace 1` makes the traced run and prints the per-layer
//! metrics. The last line of standard output is the JSON result; the exit
//! code is non-zero when an output check failed. See `perfbench/README.md`.

mod layers;
mod metrics;
mod runner;
mod workloads;

#[global_allocator]
static ALLOC: metrics::CountingAlloc = metrics::CountingAlloc;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{median, ratio, Result, END_TO_END, INVARIANTS, INVARIANT_METRICS, PER_LAYER};
use runner::{Cycle, Outcome, Report};
use workloads::Workload;

/// Distinct seeds an untraced run covers: replica 0 is the `--seed`
/// itself, the others are derived from it, so a run averages over the
/// seed-to-seed variation of the simulated work.
pub const REPLICAS: usize = 8;

/// Digests pinned at known seeds: the `fig_scale` replay at seed 8.
const PINNED: &[(Workload, u64, u64)] = &[(Workload::ScaleReplay, 8, 0x58b7_dd02_6d19_14d2)];

/// The seed of replica `j` of a run at `seed`.
pub fn replica_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: Duration::from_secs(
            get("--seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
        ),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Output checks that apply to every run: request conservation and the
/// pinned digests.
fn check_outcome(w: Workload, seed: u64, o: &Outcome, errors: &mut Vec<String>) {
    if !o.conserves() {
        errors.push(format!(
            "seed {seed}: completed {} + rejected {} + unfinished {} != sent {}",
            o.completed, o.rejected, o.unfinished, o.requests
        ));
    }
    for &(pw, ps, digest) in PINNED {
        if pw == w && ps == seed && o.digest != digest {
            errors.push(format!(
                "seed {seed}: digest {:#018x} != pinned {digest:#018x}",
                o.digest
            ));
        }
    }
}

fn print_cycle(label: &str, c: &Cycle) {
    let o = &c.outcome;
    println!(
        "{label} seed={} digest={:#018x} setup_s={:.4} run_s={:.4} wall_s={:.4} heap_mib={:.1} \
         p50_latency_s={:.3} p99_latency_s={:.3} samples={} completed={} rejected={} \
         unfinished={} audit_violations={} {:?}",
        c.seed,
        o.digest,
        c.spans.setup_s(),
        c.spans.run_s,
        c.spans.wall_s(),
        c.spans.peak_heap_mib,
        o.p50_s,
        o.p99_s,
        o.samples,
        o.completed,
        o.rejected,
        o.unfinished,
        o.violations(),
        o.audit,
    );
}

/// The untraced run: cycles over the replicas until `--seconds` have
/// passed and every replica ran; a replica that runs again must repeat
/// its digest. Host metrics are medians over cycles; simulated metrics
/// pool the first round of replicas.
fn untraced(args: &Args) -> Result {
    let w = args.workload;
    let start = Instant::now();
    let mut errors = Vec::new();
    let mut digests: Vec<Option<u64>> = vec![None; REPLICAS];
    let (mut rates, mut walls, mut setups, mut heaps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut sent, mut completed, mut tokens, mut cost) = (0usize, 0usize, 0u64, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut i = 0;
    while i < REPLICAS || start.elapsed() < args.seconds {
        let j = i % REPLICAS;
        let seed = replica_seed(args.seed, j);
        let c = runner::cycle(w, seed);
        let o = &c.outcome;
        print_cycle(&format!("cycle={i} replica={j}"), &c);
        check_outcome(w, seed, o, &mut errors);
        match digests[j] {
            None => digests[j] = Some(o.digest),
            Some(d) if d != o.digest => errors.push(format!(
                "seed {seed}: digest {:#018x} != earlier {d:#018x}",
                o.digest
            )),
            Some(_) => {}
        }
        if i < REPLICAS {
            sent += o.requests;
            completed += o.completed;
            tokens += o.tokens;
            cost += o.cost_usd;
        }
        rates.push((o.completed + o.rejected) as f64 / c.spans.run_s);
        walls.push(c.spans.wall_s());
        setups.push(c.spans.setup_s());
        heaps.push(c.spans.peak_heap_mib);
        attempted += o.requests as u64;
        failed += (o.rejected + o.unfinished) as u64;
        i += 1;
    }
    println!(
        "replicas={REPLICAS} cycles={i} requests={sent} completed={completed} tokens={tokens} \
         cost_usd={cost:.4}"
    );
    report_errors(&errors);
    Result {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics: vec![
            ("sim_req_per_s", median(&rates)),
            ("wall_s", median(&walls)),
            ("setup_s", median(&setups)),
            ("peak_heap_mb", median(&heaps)),
            ("usd_per_mtoken", ratio(cost * 1e6, tokens as f64)),
            ("served_share", ratio(completed as f64, sent as f64)),
        ],
    }
}

fn report_errors(errors: &[String]) {
    for e in errors {
        eprintln!("perfbench: check failed: {e}");
        println!("check failed: {e}");
    }
}

/// The traced run at `--seed`: an untraced and a telemetry-on run that
/// must agree, a determinism run (1 thread for scale-replay, the
/// `ShardedSystem` at one shard otherwise), then replays of each layer repeated
/// until `--seconds` have passed.
fn traced(args: &Args) -> Result {
    let (w, seed) = (args.workload, args.seed);
    let start = Instant::now();
    let mut errors = Vec::new();
    let base = runner::cycle(w, seed);
    print_cycle("untraced", &base);
    check_outcome(w, seed, &base.outcome, &mut errors);
    let traced = runner::cycle_with(
        w,
        seed,
        w.options().with_telemetry(),
        workloads::SCALE_THREADS,
    );
    print_cycle("traced", &traced);
    check_outcome(w, seed, &traced.outcome, &mut errors);
    if traced.outcome.digest != base.outcome.digest {
        errors.push(format!(
            "traced digest {:#018x} != untraced {:#018x}",
            traced.outcome.digest, base.outcome.digest
        ));
    }
    let requests = base.outcome.requests;
    let mut runs = 2u64;

    // simkit events, scale epochs and the 1-thread speed-up.
    let (events, epochs, speedup, digest_s) = match &base.report {
        Report::Sharded(s) => {
            let one = runner::cycle_with(w, seed, w.options(), 1);
            print_cycle("one-thread", &one);
            runs += 1;
            if one.outcome.digest != base.outcome.digest {
                errors.push(format!(
                    "1-thread digest {:#018x} differs",
                    one.outcome.digest
                ));
            }
            let t = Instant::now();
            std::hint::black_box(s.digest());
            let digest_s = t.elapsed().as_secs_f64();
            let events: u64 = s.epochs.last().map_or(0, |e| e.events.iter().sum());
            (
                events,
                s.epochs.len(),
                one.spans.run_s / base.spans.run_s,
                digest_s,
            )
        }
        Report::Single(_) => {
            let (digest, events) = runner::one_shard(w, seed);
            runs += 1;
            println!("one-shard digest={digest:#018x} events={events}");
            if digest != base.outcome.digest {
                errors.push(format!("one-shard digest {digest:#018x} differs"));
            }
            (events, 0, 0.0, 0.0)
        }
    };

    let stream = traced
        .report
        .telemetry()
        .expect("traced run records telemetry");
    let telemetry_violations = layers::audit_with_stream(&traced.report, requests);

    // Replays, repeated until the run has measured for --seconds.
    let scenario = w.scenario(seed);
    let opts = w.options();
    let alpha = scenario.initial_rate / w.shards() as f64;
    let shards = base.report.shards();
    let dominant = layers::dominant_config(shards[0]);
    let mut passes = Vec::new();
    loop {
        passes.push(layers::replay_pass(
            &scenario, &opts, &shards, stream, alpha, dominant,
        ));
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    let replay = layers::ReplayPass::median_of(&passes);
    println!(
        "replay_passes={} decide_replays={} transitions={} mapped={} dominant={dominant:?}",
        passes.len(),
        replay.decisions,
        replay.transitions.visited,
        replay.transitions.mapped
    );
    for name in base
        .outcome
        .audit
        .keys()
        .filter(|k| !INVARIANTS.contains(k))
    {
        println!("note: invariant {name} is counted in audit_violations only");
    }
    report_errors(&errors);
    let o = &base.outcome;
    Result {
        correct: errors.is_empty(),
        attempted: requests as u64 * runs,
        failed: (o.rejected + o.unfinished) as u64 * runs,
        metrics: per_layer(&LayerInputs {
            untraced: base.outcome.clone(),
            untraced_spans: base.spans,
            traced_spans: traced.spans,
            counts: layers::count_stream(stream),
            replay,
            events,
            epochs,
            speedup,
            digest_s,
            telemetry_violations,
        }),
    }
}

/// What the per-layer metrics are computed from.
#[derive(Default)]
struct LayerInputs {
    /// The untraced run's outcome (simulated metrics, audit counts).
    untraced: Outcome,
    /// The untraced run's spans.
    untraced_spans: runner::Spans,
    /// The telemetry-on run's spans.
    traced_spans: runner::Spans,
    /// Counts from the telemetry-on run's stream.
    counts: layers::StreamCounts,
    /// Median replay times.
    replay: layers::ReplayPass,
    /// Events processed.
    events: u64,
    /// Scale epochs (0 unsharded).
    epochs: usize,
    /// 1-thread over 2-thread run time (0 unsharded).
    speedup: f64,
    /// `ScaleReport::digest` seconds (0 unsharded).
    digest_s: f64,
    /// Violations auditing the telemetry-on run with its stream.
    telemetry_violations: usize,
}

/// The per-layer metrics, in `PER_LAYER` order.
fn per_layer(x: &LayerInputs) -> Vec<(&'static str, f64)> {
    let (c, r, o) = (&x.counts, &x.replay, &x.untraced);
    let mut m: Vec<(&'static str, f64)> = vec![
        ("workload.generate_s", x.traced_spans.generate_s),
        ("workload.requests", o.requests as f64),
        ("cloudsim.market_new_s", r.market_s),
        ("cloudsim.grants", c.grants as f64),
        ("cloudsim.notices", c.notices as f64),
        ("cloudsim.kills", c.kills as f64),
        ("cloudsim.faults", c.faults as f64),
        ("cloudsim.lapses", c.lapses as f64),
        ("cloudsim.price_steps", c.price_steps as f64),
        ("fleetctl.commands", c.commands as f64),
        ("fleetctl.retries", c.retries as f64),
        ("fleetctl.escalations", c.escalations as f64),
        ("fleetctl.command_ns", r.command_ns),
        ("optimizer.build_s", r.build_s),
        ("optimizer.decisions", c.decisions as f64),
        ("optimizer.halts", c.halts as f64),
        (
            "optimizer.memo_hit_share",
            ratio(c.memo_hits as f64, c.decisions as f64),
        ),
        ("optimizer.decide_replay_s", r.decide_s),
        ("devicemap.replay_s", r.transitions.map_s),
        (
            "devicemap.reused_gb",
            r.transitions.reused_bytes as f64 / 1e9,
        ),
        ("migration.commits", c.commits as f64),
        ("migration.downgrades", c.downgrades as f64),
        (
            "migration.full_share",
            ratio(c.full as f64, c.commits as f64),
        ),
        (
            "migration.restart_share",
            ratio(c.restart as f64, c.commits as f64),
        ),
        ("migration.moved_gb", c.moved_bytes as f64 / 1e9),
        ("migration.reloaded_gb", c.reloaded_bytes as f64 / 1e9),
        ("migration.pause_s", c.pause_us as f64 / 1e6),
        ("migration.plan_replay_s", r.transitions.plan_s),
        ("engine.admitted", c.admitted as f64),
        ("engine.deferrals", c.deferrals as f64),
        ("engine.slo_rejections", c.rejected as f64),
        ("engine.tokens", c.tokens as f64),
        (
            "engine.admit_share",
            ratio(c.admitted as f64, (c.admitted + c.deferrals) as f64),
        ),
        ("engine.replay_ns_per_token", r.engine_ns_per_token),
        ("simkit.events", x.events as f64),
        ("simkit.queue_ns_per_event", r.queue_ns_per_event),
        ("simkit.percentiles_s", r.percentiles_s),
        ("telemetry.records", c.records as f64),
        ("telemetry.jsonl_s", r.jsonl_s),
        ("telemetry.jsonl_mb", r.jsonl_mb),
        ("scale.epochs", x.epochs as f64),
        ("scale.speedup_2t", x.speedup),
        ("scale.digest_s", x.digest_s),
        ("report.canonical_s", r.canonical_s),
        ("audit.s", x.untraced_spans.audit_s),
        ("audit.telemetry_violations", x.telemetry_violations as f64),
    ];
    for (name, key) in INVARIANTS.iter().zip(INVARIANT_METRICS) {
        m.push((key, o.audit.get(name).copied().unwrap_or(0) as f64));
    }
    m.extend([
        ("audit_violations", o.violations() as f64),
        ("system.run_s", x.traced_spans.run_s),
        (
            "trace.overhead",
            ratio(x.traced_spans.wall_s(), x.untraced_spans.wall_s()),
        ),
        ("p50_latency_s", o.p50_s),
        ("p99_latency_s", o.p99_s),
        ("latency_samples", o.samples as f64),
        (
            "failed_share",
            ratio((o.rejected + o.unfinished) as f64, o.requests as f64),
        ),
    ]);
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <scale-replay|spot-churn|fleet-chaos> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (result, decls) = if args.trace {
        (traced(&args), PER_LAYER)
    } else {
        (untraced(&args), END_TO_END)
    };
    println!("{}", result.json(decls));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_prints_exactly_the_declared_metrics() {
        let names: Vec<&str> = per_layer(&LayerInputs::default())
            .iter()
            .map(|(n, _)| *n)
            .collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, declared);
    }

    #[test]
    fn replica_zero_is_the_seed_itself() {
        assert_eq!(replica_seed(8, 0), 8);
        let seeds: std::collections::BTreeSet<u64> =
            (0..REPLICAS).map(|j| replica_seed(8, j)).collect();
        assert_eq!(seeds.len(), REPLICAS);
    }
}
