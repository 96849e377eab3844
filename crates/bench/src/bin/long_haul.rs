//! Long-haul soak runner for the open-system engine, with the full
//! continuous-observability stack attached: flight recorder (K-step
//! black box), health watchdogs, and periodic metrics exposition.
//!
//! ```text
//! cargo run -p dtm-bench --release --bin long_haul -- \
//!     [--steps N] [--rate R] [--out DIR] [--policy NAME] [--source KIND] \
//!     [--flight-k K] [--expose-every N] [--expect-overload]
//! # --steps N          steps per run (default 1_000_000)
//! # --rate R           arrival rate ρ (default 0.3)
//! # --out DIR          artifact directory (default long-haul-artifacts)
//! # --policy NAME      run only this policy (default: all six)
//! # --source KIND      poisson | adversarial (default: both)
//! # --flight-k K       flight-recorder ring size (default 1024)
//! # --expose-every N   live-metrics flush cadence (default steps/100)
//! # --expect-overload  invert the verdict: the run must trip the
//! #                    overload watchdog (used by the CI health smoke)
//! ```
//!
//! Each (policy, source) cell drives `run_stream_observed` on a
//! clique(8); verdicts check bounded memory (`arena_hwm <= peak_live`)
//! and — unless `--expect-overload` — that no health watchdog fired.
//! The health monitor reads the kernel's step-end view, so its
//! starvation and arena-drift checks run on every step; the `steady_*`
//! entries in `.live.json` / `.prom` are written by the harness from
//! kernel state after each tick.
//! Every cell writes `<policy>-<source>.flight.jsonl` (plus an
//! `.onset.flight.jsonl` at the first health event) into `--out`, so a
//! failing CI job uploads the black boxes as artifacts; `trace_report`
//! renders them. Exits nonzero on any failed verdict.

use dtm_bench::{fail, flag_value, run_stream_observed, ObserveSpec};
use dtm_core::{
    BucketPolicy, DistributedBucketPolicy, DistributedMsgPolicy, FifoPolicy, GreedyPolicy,
    TspPolicy,
};
use dtm_graph::topology;
use dtm_model::{ArrivalProcess, OpenLoopSource, WorkloadSpec};
use dtm_offline::ListScheduler;
use dtm_sim::{EngineConfig, SchedulingPolicy};
use std::path::PathBuf;

const POLICIES: [&str; 6] = ["greedy", "bucket", "fifo", "tsp", "dist-bucket", "dist-msg"];

fn policy_for(name: &str, net: &dtm_graph::Network) -> Box<dyn SchedulingPolicy> {
    match name {
        "greedy" => Box::new(GreedyPolicy::new()),
        "bucket" => Box::new(BucketPolicy::new(ListScheduler::fifo())),
        "fifo" => Box::new(FifoPolicy::new()),
        "tsp" => Box::new(TspPolicy::new()),
        "dist-bucket" => Box::new(DistributedBucketPolicy::new(net, ListScheduler::fifo(), 31)),
        "dist-msg" => Box::new(DistributedMsgPolicy::new(net, ListScheduler::fifo(), 31)),
        other => fail(&format!(
            "unknown --policy {other:?} (expected one of {POLICIES:?})"
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u64 = flag_value(&args, "--steps")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--steps takes an integer"))
        })
        .unwrap_or(1_000_000);
    let rate: f64 = flag_value(&args, "--rate")
        .map(|v| v.parse().unwrap_or_else(|_| fail("--rate takes a number")))
        .unwrap_or(0.3);
    if !(rate.is_finite() && rate >= 0.0) {
        fail(&format!(
            "--rate must be finite and non-negative, got {rate}"
        ));
    }
    let out = PathBuf::from(
        flag_value(&args, "--out").unwrap_or_else(|| "long-haul-artifacts".to_string()),
    );
    let flight_k: usize = flag_value(&args, "--flight-k")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--flight-k takes an integer"))
        })
        .unwrap_or(1024);
    let expose_every: u64 = flag_value(&args, "--expose-every")
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail("--expose-every takes an integer"))
        })
        .unwrap_or_else(|| (steps / 100).max(1));
    let expect_overload = args.iter().any(|a| a == "--expect-overload");
    let only_policy = flag_value(&args, "--policy");
    let only_source = flag_value(&args, "--source");

    let warmup = (steps / 5).max(1).min(steps - 1);
    let net = topology::clique(8);
    let spec = WorkloadSpec::batch_uniform(8, 2);
    let policies: Vec<&str> = match &only_policy {
        Some(p) => vec![p.as_str()],
        None => POLICIES.to_vec(),
    };
    let sources: Vec<&str> = match only_source.as_deref() {
        Some("poisson") => vec!["poisson"],
        Some("adversarial") => vec!["adversarial"],
        Some(other) => fail(&format!(
            "unknown --source {other:?} (expected poisson | adversarial)"
        )),
        None => vec!["poisson", "adversarial"],
    };

    println!(
        "long_haul: {steps} steps, ρ={rate}, {} x {} cells on {}, artifacts in {}",
        policies.len(),
        sources.len(),
        net.name(),
        out.display()
    );
    let mut failures = 0usize;
    for policy_name in &policies {
        for source_name in &sources {
            let process = match *source_name {
                "poisson" => ArrivalProcess::Poisson { rate },
                _ => ArrivalProcess::Adversarial { rate },
            };
            let source = OpenLoopSource::new(net.clone(), spec.clone(), process, 2026);
            let spec_obs = ObserveSpec {
                health: Some(dtm_telemetry::HealthConfig::default()),
                flight_k: Some(flight_k),
                expose_every: Some(expose_every),
                dir: out.clone(),
                label: format!("{policy_name}-{source_name}"),
            };
            let (s, obs) = run_stream_observed(
                &net,
                source,
                policy_for(policy_name, &net),
                EngineConfig::default(),
                steps,
                warmup,
                &spec_obs,
            );
            let bounded = s.arena_high_water <= s.backlog_peak;
            let overloaded = obs.health_events.iter().any(|e| e.kind.tag() == "overload");
            let healthy = obs.is_healthy();
            let ok = bounded
                && if expect_overload {
                    overloaded
                } else {
                    healthy && s.is_stable(0.05)
                };
            if !ok {
                failures += 1;
            }
            println!(
                "  {:<28} {:<12} committed={:<8} peak={:<6} arena_hwm={:<6} slope={:+.4} events={:<3} flushes={:<4} {}",
                s.policy,
                source_name,
                s.committed,
                s.backlog_peak,
                s.arena_high_water,
                s.backlog_slope,
                obs.health_events.len(),
                obs.expose_flushes,
                if ok { "ok" } else { "FAIL" }
            );
            for ev in obs.health_events.iter().take(4) {
                println!(
                    "      health: t={} live={} {}",
                    ev.t,
                    ev.live,
                    ev.kind.tag()
                );
            }
            if let Some(e) = &obs.io_error {
                eprintln!("      io error: {e}");
            }
        }
    }
    if failures > 0 {
        eprintln!(
            "long_haul: {failures} cell(s) failed — flight dumps in {}",
            out.display()
        );
        std::process::exit(1);
    }
    println!("long_haul: all cells passed");
}
