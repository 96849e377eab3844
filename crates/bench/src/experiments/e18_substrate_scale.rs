//! E18 — substrate scale-decade sweep: the CSR spine and tiered routing
//! oracles on 10²–10⁵-node networks.
//!
//! The paper's analysis is asymptotic in `n` and `D`, but all earlier
//! experiments run on networks of a few hundred nodes where an all-pairs
//! distance table is affordable. This sweep walks the three large-graph
//! generators (random geometric, preferential-attachment power law, and
//! the fog/cloud tree) up a decade ladder and records, per decade:
//!
//! * **E18a** — which routing tier serves the network (lazy trees,
//!   landmark oracle, or closed-form structured routing),
//!   its size, and the diameter bound the schedulers will consume;
//! * **E18b** — routing fidelity spot checks against exact Dijkstra:
//!   reported distances must be symmetric, within the advertised
//!   additive slack `2R` of the true distance, and *walkable* — greedily
//!   following `hop_toward` must reach the target at a cost no larger
//!   than the reported distance (the invariant the simulator's
//!   `MissedExecution` check relies on);
//! * **E18c** — a short open-system engine run per decade under the
//!   [`dtm_model::presets::edge_sensors`] telemetry workload, witnessing
//!   that the full kernel (forwarding, conflict maintenance, streaming
//!   retirement) stays bounded at scales where per-node state would blow
//!   up if anything were accidentally `O(n)` per live transaction.
//!
//! Tables contain only deterministic quantities (counts, exact
//! distances, seeded-run outcomes) so `exp_all --quick` stays
//! byte-identical at any `--jobs` level; wall-clock numbers live in the
//! `substrate/scale/*` Criterion benches and the `BENCH_substrate.json`
//! ledger instead.

use crate::runner::{run_stream_labeled, StreamSummary};
use crate::{ParallelGrid, Table};
use dtm_core::GreedyPolicy;
use dtm_graph::{topology, Network, NodeId, ShortestPathTree};
use dtm_model::{presets, ArrivalProcess, OpenLoopSource};
use dtm_sim::EngineConfig;

/// Backlog-slope tolerance for the E18c stability verdict (matches
/// [`crate::experiments::e17_stability::SLOPE_TOL`]).
const SLOPE_TOL: f64 = 0.02;

/// Fog-tree shape whose node count lands nearest the requested decade
/// (ternary tree: `(3^levels - 1) / 2` nodes).
fn fog_levels_for(n: usize) -> u32 {
    let count = |l: u32| (3u64.pow(l) - 1) / 2;
    (1..=12)
        .min_by_key(|&l| count(l).abs_diff(n as u64))
        .unwrap()
}

/// The three scale-ladder generators at (roughly) `n` nodes.
fn nets_at(n: usize) -> Vec<Network> {
    vec![
        topology::geometric(n as u32, 4, 18),
        topology::power_law(n as u32, 2, 18),
        topology::fog_tree(fog_levels_for(n), 3),
    ]
}

/// Short generator label for table rows (`geometric(n=..)` is too wide
/// once every decade appears).
fn kind(net: &Network) -> &'static str {
    let name = net.name();
    if name.starts_with("geometric") {
        "geometric"
    } else if name.starts_with("powerlaw") {
        "power-law"
    } else {
        "fog-tree"
    }
}

/// Fidelity spot-check outcome for one network.
struct Fidelity {
    pairs: usize,
    /// Largest observed `reported - true` over the sampled pairs.
    max_slack: u64,
    /// Advertised additive bound (`2R`; 0 on exact tiers).
    slack_bound: u64,
    symmetric: bool,
    walkable: bool,
}

/// Compare the network's reported distances and greedy routes against
/// exact shortest-path trees from a few spread-out roots.
fn spot_check(net: &Network) -> Fidelity {
    let n = net.n();
    let roots = [0usize, n / 2, n - 1];
    let stride = (n / 7).max(1);
    let mut out = Fidelity {
        pairs: 0,
        max_slack: 0,
        slack_bound: net.distance_slack(),
        symmetric: true,
        walkable: true,
    };
    for &r in &roots {
        let root = NodeId(r as u32);
        let exact = ShortestPathTree::compute(net.graph(), root);
        for v in (0..n).step_by(stride) {
            let v = NodeId(v as u32);
            if v == root {
                continue;
            }
            out.pairs += 1;
            let reported = net.distance(root, v);
            let truth = exact.dist(v);
            out.symmetric &= net.distance(v, root) == reported;
            out.max_slack = out.max_slack.max(reported.saturating_sub(truth));
            // Walk the greedy route root -> v; it must arrive within
            // `reported` total weight (and certainly within n hops).
            let mut at = root;
            let mut cost = 0u64;
            let mut hops = 0usize;
            while at != v && hops <= n {
                let (next, w) = net.hop_toward(at, v);
                cost += w;
                at = next;
                hops += 1;
            }
            out.walkable &= at == v && cost <= reported;
        }
    }
    out
}

/// Run E18.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: Vec<usize> = if quick {
        vec![100, 1_000]
    } else {
        vec![100, 1_000, 10_000, 100_000]
    };
    let (steps, warmup) = if quick {
        (500u64, 125u64)
    } else {
        (1_500, 375)
    };

    // Every (size, generator) cell builds its network inside the cell —
    // construction cost is part of what the decade ladder exercises, and
    // cells stay independent for the job pool.
    let mut grid = ParallelGrid::new("E18");
    for &n in &sizes {
        for g in 0..3usize {
            grid.cell(move || {
                let net = nets_at(n)[g].clone();
                let fidelity = spot_check(&net);
                // One object per 5 nodes with a locality radius wide
                // enough to catch the nearest object on every generator
                // (object spacing on the geometric decade ladder is
                // ~25-30 in weighted distance), widened by the landmark
                // tier's additive slack so reported-distance filtering
                // still admits truly nearby objects: fetches stay local,
                // so the service rate is set by nearby hops, not `D`.
                let radius = 48 + net.distance_slack();
                let spec = presets::edge_sensors(net.n() as u32, 5, radius, 0.0, 0);
                let source = OpenLoopSource::new(
                    net.clone(),
                    spec,
                    ArrivalProcess::Poisson { rate: 0.4 },
                    1800,
                );
                let label = format!("e18-{}-greedy-sensors", net.name());
                let s = run_stream_labeled(
                    &label,
                    &net,
                    source,
                    GreedyPolicy::new(),
                    EngineConfig::default(),
                    steps,
                    warmup,
                );
                (net, fidelity, s)
            });
        }
    }
    let cells: Vec<(Network, Fidelity, StreamSummary)> = grid.run();

    let mut tiers = Table::new(
        "E18a — routing substrate per scale decade",
        &[
            "generator",
            "nodes",
            "edges",
            "tier",
            "diameter ≤",
            "dist slack ≤",
        ],
    );
    for (net, _, _) in &cells {
        tiers.row(vec![
            kind(net).to_string(),
            net.n().to_string(),
            net.graph().edge_count().to_string(),
            net.routing_tier().to_string(),
            net.diameter().to_string(),
            net.distance_slack().to_string(),
        ]);
    }

    let mut fid = Table::new(
        "E18b — routing fidelity vs exact Dijkstra (sampled pairs)",
        &[
            "generator",
            "nodes",
            "pairs",
            "max obs slack",
            "slack bound",
            "symmetric",
            "walkable ≤ reported",
        ],
    );
    for (net, f, _) in &cells {
        fid.row(vec![
            kind(net).to_string(),
            net.n().to_string(),
            f.pairs.to_string(),
            f.max_slack.to_string(),
            f.slack_bound.to_string(),
            if f.symmetric { "yes" } else { "VIOLATED" }.to_string(),
            if f.walkable { "yes" } else { "VIOLATED" }.to_string(),
        ]);
    }

    let mut stream = Table::new(
        "E18c — open-system edge-telemetry run per decade (greedy, Poisson ρ=0.4)",
        &[
            "generator",
            "nodes",
            "committed",
            "backlog@end",
            "arena hwm",
            "slope/step",
            "p95 lat",
            "verdict",
        ],
    );
    for (net, _, s) in &cells {
        // "stable" = backlog flat within SLOPE_TOL; "bounded" = memory
        // invariants hold but the backlog is still ramping toward its
        // plateau (on the landmark decades sojourn times are comparable
        // to the run horizon); "UNBOUNDED" = arena outgrew the live set
        // or the backlog passed the hard cap.
        let bounded = s.arena_high_water <= s.backlog_peak && s.backlog_peak < 2_000;
        stream.row(vec![
            kind(net).to_string(),
            net.n().to_string(),
            s.committed.to_string(),
            s.backlog_end.to_string(),
            s.arena_high_water.to_string(),
            format!("{:+.4}", s.backlog_slope),
            s.p95_latency.to_string(),
            if bounded && s.is_stable(SLOPE_TOL) {
                "stable"
            } else if bounded {
                "bounded"
            } else {
                "UNBOUNDED"
            }
            .to_string(),
        ]);
    }

    vec![tiers, fid, stream]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_sweep_completes() {
        let tables = run(true);
        // 2 decades x 3 generators in every table.
        assert_eq!(tables[0].len(), 6);
        assert_eq!(tables[1].len(), 6);
        assert_eq!(tables[2].len(), 6);
    }

    #[test]
    fn fidelity_holds_on_every_quick_cell() {
        for &n in &[100usize, 1_000] {
            for net in nets_at(n) {
                let f = spot_check(&net);
                assert!(f.symmetric, "{} asymmetric", net.name());
                assert!(f.walkable, "{} route overran estimate", net.name());
                assert!(
                    f.max_slack <= f.slack_bound,
                    "{}: slack {} > bound {}",
                    net.name(),
                    f.max_slack,
                    f.slack_bound
                );
            }
        }
    }

    #[test]
    fn fog_levels_track_decades() {
        assert_eq!(fog_levels_for(100), 5); // 121 nodes
        assert_eq!(fog_levels_for(1_000), 7); // 1093
        assert_eq!(fog_levels_for(10_000), 9); // 9841
        assert_eq!(fog_levels_for(100_000), 11); // 88573
    }
}
