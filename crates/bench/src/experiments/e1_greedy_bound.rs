//! E1/E2 — Theorems 1 and 2: the greedy schedule's execution offset never
//! exceeds its dependency-degree bound.
//!
//! Theorem 1: a transaction generated at `t` executes by
//! `t + 2Γ'_t - Δ'_t`. Theorem 2 (uniform weights β): by `t + Γ'_t`
//! (we report against the conservative `βΔ' + β` reading). The experiment
//! runs the greedy scheduler over online workloads on several topologies
//! and reports the worst observed color/bound utilization — any value
//! above 1.00 would falsify the theorem in this implementation.

use crate::table::fmt_ratio;
use crate::{ParallelGrid, Table};
use dtm_core::GreedyPolicy;
use dtm_graph::{topology, Network};
use dtm_model::{FiniteArrivals, ObjectChoice, Time, TraceSource, WorkloadGenerator, WorkloadSpec};
use dtm_sim::{run_policy, EngineConfig};
use dtm_telemetry::{decision_trace, DecisionKind};
use std::sync::Arc;

fn workload(net: &Network, k: usize, seed: u64) -> dtm_model::Instance {
    let spec = WorkloadSpec {
        num_objects: (net.n() as u32 / 2).max(2),
        k,
        object_choice: ObjectChoice::Uniform,
        arrival: FiniteArrivals::Bernoulli {
            rate: 0.25,
            horizon: 30,
        },
    };
    WorkloadGenerator::new(spec, seed).generate(net)
}

/// `(color, bound)` of every [`DecisionKind::GreedyColor`] record.
fn color_bounds(decisions: &[dtm_telemetry::Decision]) -> Vec<(Time, Time)> {
    decisions
        .iter()
        .filter_map(|d| match d.kind {
            DecisionKind::GreedyColor { color, bound, .. } => Some((color, bound)),
            _ => None,
        })
        .collect()
}

/// Largest color/bound ratio over records with a positive bound.
fn worst_util(assigned: &[(Time, Time)]) -> f64 {
    assigned
        .iter()
        .filter(|&&(_, b)| b > 0)
        .map(|&(c, b)| c as f64 / b as f64)
        .fold(0.0f64, f64::max)
}

/// Run E1/E2.
pub fn run(quick: bool) -> Vec<Table> {
    let seeds: Vec<u64> = if quick { vec![1] } else { (1..=5).collect() };
    let mut t1 = Table::new(
        "E1 — Theorem 1: greedy color <= 2Γ' - Δ' (general weights)",
        &[
            "topology",
            "txns",
            "max color",
            "max bound",
            "worst util",
            "violations",
        ],
    );
    let topologies: Vec<Network> = vec![
        topology::clique(16),
        topology::line(24),
        topology::grid(&[5, 5]),
        topology::star(4, 4),
        topology::random(24, 3, 3, 7),
    ];
    let mut grid1 = ParallelGrid::new("E1");
    for net in &topologies {
        let seeds = &seeds;
        grid1.cell(move || {
            // Traces are per-cell: each topology accumulates its own
            // decisions across its seeds, so cells stay independent.
            let trace = decision_trace();
            let mut txns = 0usize;
            for &seed in seeds {
                let inst = workload(net, 3, seed);
                txns += inst.num_txns();
                let res = run_policy(
                    net,
                    TraceSource::new(inst),
                    GreedyPolicy::new().with_decision_trace(Arc::clone(&trace)),
                    EngineConfig::default(),
                );
                res.expect_ok();
            }
            let assigned = color_bounds(&trace.lock().decisions);
            let max_color = assigned.iter().map(|&(c, _)| c).max().unwrap_or(0);
            let max_bound = assigned.iter().map(|&(_, b)| b).max().unwrap_or(0);
            let worst = worst_util(&assigned);
            let violations = assigned.iter().filter(|&&(c, b)| c > b).count();
            vec![
                net.name().to_string(),
                txns.to_string(),
                max_color.to_string(),
                max_bound.to_string(),
                fmt_ratio(worst),
                violations.to_string(),
            ]
        });
    }
    for row in grid1.run() {
        t1.row(row);
    }

    let mut t2 = Table::new(
        "E2 — Theorem 2: uniform-weight greedy colors (multiples of β)",
        &[
            "topology",
            "beta",
            "txns",
            "max color",
            "worst util",
            "violations",
        ],
    );
    let uniform_cases: Vec<(Network, u64)> = vec![
        (topology::clique(16), 1),
        (topology::hypercube(4), 4),
        (topology::hypercube(5), 5),
    ];
    let mut grid2 = ParallelGrid::new("E2");
    for (net, beta) in &uniform_cases {
        let seeds = &seeds;
        grid2.cell(move || {
            let trace = decision_trace();
            let mut txns = 0usize;
            for &seed in seeds {
                let inst = workload(net, 2, seed);
                txns += inst.num_txns();
                let res = run_policy(
                    net,
                    TraceSource::new(inst),
                    GreedyPolicy::uniform(*beta).with_decision_trace(Arc::clone(&trace)),
                    EngineConfig::default(),
                );
                res.expect_ok();
            }
            let assigned = color_bounds(&trace.lock().decisions);
            let max_color = assigned.iter().map(|&(c, _)| c).max().unwrap_or(0);
            let worst = worst_util(&assigned);
            let violations = assigned.iter().filter(|&&(c, b)| c > b).count();
            // Colors are offsets from arrival; absolute execution times are
            // the β-multiples (checked by the greedy unit tests), so here we
            // only require positivity.
            assert!(assigned.iter().all(|&(c, _)| c >= 1));
            vec![
                net.name().to_string(),
                beta.to_string(),
                txns.to_string(),
                max_color.to_string(),
                fmt_ratio(worst),
                violations.to_string(),
            ]
        });
    }
    for row in grid2.run() {
        t2.row(row);
    }
    vec![t1, t2]
}

#[cfg(test)]
mod tests {
    #[test]
    fn quick_run_has_no_violations() {
        for t in super::run(true) {
            assert!(!t.is_empty());
            // The last column of every row is the violation count.
            let csv = t.to_csv();
            for line in csv.lines().skip(1) {
                assert!(line.ends_with(",0"), "violations in: {line}");
            }
        }
    }
}
