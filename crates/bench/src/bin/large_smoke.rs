//! Release-mode large-graph smoke test: a 10⁵-node random-geometric
//! network (landmark routing tier) driven for 1000 engine steps under
//! `Retention::Streaming` with the edge-telemetry workload. Asserts the
//! landmark oracle builds, routing keeps its promise (1000 seeded pairs
//! walked hop by hop reach their target within `n` hops at a cost no
//! larger than the reported distance, every hop reporting its edge's
//! weight), the kernel stays memory-bounded (the arena never outgrows the
//! peak live set, the backlog stays small) and the run shuts down cleanly
//! with real throughput. Exits nonzero on any violation.
//!
//! ```text
//! cargo run -p dtm-bench --release --bin large_smoke
//! ```

use dtm_bench::run_stream;
use dtm_core::{FifoPolicy, GreedyPolicy};
use dtm_graph::{topology, Network, NodeId, Weight};
use dtm_model::{presets, ArrivalProcess, OpenLoopSource};
use dtm_sim::{EngineConfig, SchedulingPolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const NODES: u32 = 100_000;
const STEPS: u64 = 1_000;
const WARMUP: u64 = 250;
const RATE: f64 = 1.0;
const ROUTED_PAIRS: u32 = 1_000;

/// Walk `hop_toward` from `u` to `v`: the hop count and total cost, or
/// `None` if the walk did not arrive within `n` hops or reported a hop
/// weight other than the graph's edge weight.
fn walk(net: &Network, u: NodeId, v: NodeId) -> Option<(usize, Weight)> {
    let (mut cur, mut hops, mut cost) = (u, 0, 0);
    while cur != v {
        if hops == net.n() {
            return None;
        }
        let (next, w) = net.hop_toward(cur, v);
        if net.graph().edge_weight(cur, next) != Some(w) {
            return None;
        }
        cur = next;
        hops += 1;
        cost += w;
    }
    Some((hops, cost))
}

/// Route [`ROUTED_PAIRS`] seeded pairs to completion; prints one summary
/// line and returns the number of pairs that broke the routing promise.
fn check_routing(net: &Network) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    let mut pick = || NodeId(rng.gen_range(0..net.n() as u32));
    let (mut bad, mut hops, mut cost, mut promised) = (0usize, 0usize, 0u64, 0u64);
    for _ in 0..ROUTED_PAIRS {
        let (u, v) = (pick(), pick());
        if u == v {
            continue;
        }
        let bound = net.distance(u, v);
        match walk(net, u, v) {
            Some((h, c)) if c <= bound => {
                hops += h;
                cost += c;
                promised += bound;
            }
            outcome => {
                bad += 1;
                eprintln!("  routing {u}->{v}: {outcome:?} (hops, cost) vs distance {bound}");
            }
        }
    }
    println!(
        "  routing: {ROUTED_PAIRS} pairs hops={hops} cost={cost} promised={promised} {}",
        if bad == 0 { "ok" } else { "FAIL" }
    );
    bad
}

fn main() {
    dtm_bench::init_jobs();
    let net = topology::geometric(NODES, 4, 18);
    println!(
        "large_smoke: {} — n={} edges={} tier={} diameter<={} slack<={}",
        net.name(),
        net.n(),
        net.graph().edge_count(),
        net.routing_tier(),
        net.diameter(),
        net.distance_slack(),
    );
    assert_eq!(net.routing_tier(), "landmark");

    // Locality radius = base + the landmark tier's advertised additive
    // slack: reported distances overestimate by up to `slack`, so the
    // neighborhood filter must widen by the same amount to keep truly
    // nearby objects eligible.
    let radius = 48 + net.distance_slack();
    let spec = presets::edge_sensors(NODES, 5, radius, 0.0, 0);
    let policies: Vec<Box<dyn SchedulingPolicy>> =
        vec![Box::new(GreedyPolicy::new()), Box::new(FifoPolicy::new())];
    let mut failures = usize::from(check_routing(&net) > 0);
    for policy in policies {
        let source = OpenLoopSource::new(
            net.clone(),
            spec.clone(),
            ArrivalProcess::Poisson { rate: RATE },
            2026,
        );
        let s = run_stream(&net, source, policy, EngineConfig::default(), STEPS, WARMUP);
        // Bounded memory: live-set slots are recycled (the arena high
        // water never exceeds the peak backlog) and the backlog itself
        // stays far below anything O(n). Clean shutdown: the run reached
        // STEPS, retired its history, and committed real work. No slope
        // gate: at this horizon sojourn times (a few hundred steps of
        // object transit) are comparable to the run length, so the
        // backlog is still ramping toward its bounded plateau ~= rate x
        // sojourn; the peak cap is the unboundedness check.
        let bounded = s.arena_high_water <= s.backlog_peak && s.backlog_peak < 2_000;
        let productive = s.committed as u64 > (STEPS as f64 * RATE * 0.2) as u64;
        let ok = bounded && productive;
        if !ok {
            failures += 1;
        }
        println!(
            "  {:<28} committed={:<6} backlog_end={:<5} peak={:<5} arena_hwm={:<5} slope={:+.4} p95={:<5} {}",
            s.policy,
            s.committed,
            s.backlog_end,
            s.backlog_peak,
            s.arena_high_water,
            s.backlog_slope,
            s.p95_latency,
            if ok { "ok" } else { "FAIL" }
        );
    }
    if failures > 0 {
        eprintln!("large_smoke: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("large_smoke: bounded memory and clean shutdown at n={NODES}");
}
