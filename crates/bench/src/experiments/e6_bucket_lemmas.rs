//! E6/E7 — Lemmas 3 and 4 of the bucket algorithm.
//!
//! Lemma 3: bucket levels never exceed `log2(n·D) + 1`. Lemma 4: a
//! transaction inserted into a level-i bucket at time t executes by
//! `t + (i+1)·2^(i+2)`. Both are *hard assertions* here; the table
//! reports how much headroom the implementation leaves.

use crate::table::fmt_ratio;
use crate::{ParallelGrid, Table};
use dtm_core::BucketPolicy;
use dtm_graph::{topology, Network};
use dtm_model::{
    FiniteArrivals, ObjectChoice, Time, TraceSource, TxnId, WorkloadGenerator, WorkloadSpec,
};
use dtm_offline::{BatchScheduler, LineScheduler, ListScheduler};
use dtm_sim::{run_policy, EngineConfig, RunResult};
use dtm_telemetry::{decision_trace, Decision, DecisionKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Run Algorithm 2 on a Bernoulli workload; returns the run and its
/// decision records.
fn run_one<A: BatchScheduler>(
    net: &Network,
    scheduler: A,
    seed: u64,
    rate: f64,
) -> (RunResult, Vec<Decision>) {
    let spec = WorkloadSpec {
        num_objects: (net.n() as u32 / 3).max(2),
        k: 2,
        object_choice: ObjectChoice::Uniform,
        arrival: FiniteArrivals::Bernoulli { rate, horizon: 40 },
    };
    let inst = WorkloadGenerator::new(spec, seed).generate(net);
    let trace = decision_trace();
    let res = run_policy(
        net,
        TraceSource::new(inst),
        BucketPolicy::new(scheduler).with_decision_trace(Arc::clone(&trace)),
        EngineConfig::default(),
    );
    res.expect_ok();
    let decisions = std::mem::take(&mut trace.lock().decisions);
    (res, decisions)
}

/// `(txn, insert step, level, overflow)` per `BucketInsert` record.
fn insertions(decisions: &[Decision]) -> Vec<(TxnId, Time, u32, bool)> {
    decisions
        .iter()
        .filter_map(|d| match d.kind {
            DecisionKind::BucketInsert { level, overflow } => Some((d.txn, d.t, level, overflow)),
            _ => None,
        })
        .collect()
}

/// Run E6/E7.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E6/E7 — Lemma 3 (level <= log(nD)+1) and Lemma 4 (deadline) headroom",
        &[
            "topology",
            "txns",
            "max level",
            "lemma3 bound",
            "overflows",
            "worst deadline util",
        ],
    );
    let rate = if quick { 0.15 } else { 0.3 };
    let cases: Vec<(Network, bool)> = vec![
        (topology::line(64), true),
        (topology::grid(&[6, 6]), false),
        (topology::star(4, 8), false),
        (topology::clique(24), false),
    ];
    let mut grid = ParallelGrid::new("E6");
    for (net, use_line) in cases {
        grid.cell(move || {
            let (res, decisions) = if use_line {
                run_one(&net, LineScheduler, 5, rate)
            } else {
                run_one(&net, ListScheduler::fifo(), 5, rate)
            };
            let inserted = insertions(&decisions);
            let bound = net.max_bucket_level();
            let max_level = inserted.iter().map(|&(_, _, l, _)| l).max().unwrap_or(0);
            assert!(max_level <= bound, "Lemma 3 violated on {}", net.name());
            // Lemma 4: worst utilization of the deadline budget.
            let mut worst = 0.0f64;
            for &(id, at, lvl, _) in &inserted {
                let commit = res.commits[&id];
                let deadline = (lvl as u64 + 1) * (1u64 << (lvl + 2));
                let used = (commit - at) as f64 / deadline as f64;
                assert!(
                    used <= 1.0,
                    "Lemma 4 violated for {id} on {}: used {used:.2}",
                    net.name()
                );
                worst = worst.max(used);
            }
            vec![
                net.name().to_string(),
                inserted.len().to_string(),
                max_level.to_string(),
                bound.to_string(),
                inserted.iter().filter(|i| i.3).count().to_string(),
                fmt_ratio(worst),
            ]
        });
    }
    for row in grid.run() {
        t.row(row);
    }

    // Level histogram on the line (how the probe distributes load).
    let mut hist = Table::new(
        "E6 — bucket level distribution, line(64), Bernoulli arrivals",
        &["level", "txns inserted", "activations"],
    );
    let (_, decisions) = run_one(&topology::line(64), LineScheduler, 6, rate);
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for (_, _, lvl, _) in insertions(&decisions) {
        *counts.entry(lvl).or_insert(0) += 1;
    }
    // One activation per distinct (level, epoch) among the records.
    let activations: BTreeSet<(u32, u64)> = decisions
        .iter()
        .filter_map(|d| match d.kind {
            DecisionKind::BucketActivate { level, epoch, .. } => Some((level, epoch)),
            _ => None,
        })
        .collect();
    for (lvl, cnt) in counts {
        let fired = activations.iter().filter(|&&(l, _)| l == lvl).count();
        hist.row(vec![lvl.to_string(), cnt.to_string(), fired.to_string()]);
    }
    vec![t, hist]
}

#[cfg(test)]
mod tests {
    #[test]
    fn lemmas_hold_in_quick_mode() {
        let tables = super::run(true);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 4);
        // run() itself asserts Lemma 3 and Lemma 4; reaching here is the test.
    }
}
