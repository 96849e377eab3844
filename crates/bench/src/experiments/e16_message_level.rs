//! E16 — the price of strictly local knowledge: idealized Algorithm 3
//! (timing-faithful, globally-informed leaders) vs the message-level
//! implementation (origin-chasing discovery, object-carried registries,
//! leader-local scheduling with late execution).
//!
//! Reported lateness = mean/max of `commit − target` over transactions:
//! zero for the idealized protocol (targets are guarantees), positive for
//! the message-level one (targets are optimistic under stale knowledge).

use crate::table::fmt_ratio;
use crate::{ParallelGrid, Table};
use dtm_core::{DistributedBucketPolicy, DistributedMsgPolicy};
use dtm_graph::{topology, Network};
use dtm_model::{ClosedLoopSource, Time, WorkloadSpec};
use dtm_offline::{competitive_ratio, ListScheduler};
use dtm_sim::{run_policy, validate_events, RunResult, ValidationConfig};
use dtm_telemetry::{decision_trace, Counter, DecisionKind};
use std::sync::Arc;

fn lateness(res: &RunResult) -> (f64, Time) {
    let mut total = 0u64;
    let mut max = 0u64;
    let mut n = 0u64;
    for (txn, &commit) in &res.commits {
        if let Some(target) = res.schedule.get(*txn) {
            let late = commit.saturating_sub(target);
            total += late;
            max = max.max(late);
            n += 1;
        }
    }
    (total as f64 / n.max(1) as f64, max)
}

/// Run E16.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E16 — Algorithm 3: idealized (global-info) vs message-level (local-info)",
        &[
            "topology",
            "variant",
            "txns",
            "makespan",
            "ratio",
            "messages",
            "mean late",
            "max late",
        ],
    );
    let nets: Vec<Network> = if quick {
        vec![topology::grid(&[4, 4])]
    } else {
        vec![
            topology::line(24),
            topology::grid(&[5, 5]),
            topology::star(4, 5),
        ]
    };
    let mut grid = ParallelGrid::new("E16");
    for net in nets {
        for msg_level in [false, true] {
            let net = net.clone();
            grid.cell(move || {
                let spec = WorkloadSpec::batch_uniform((net.n() as u32 / 2).max(2), 2);
                let src = ClosedLoopSource::new(net.clone(), spec, 2, 1600);
                let messages = Arc::new(Counter::default());
                if msg_level {
                    let trace = decision_trace();
                    let res = run_policy(
                        &net,
                        src,
                        DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 23)
                            .with_decision_trace(Arc::clone(&trace))
                            .with_message_counter(Arc::clone(&messages)),
                        DistributedMsgPolicy::<ListScheduler>::engine_config(),
                    );
                    res.expect_ok();
                    validate_events(
                        &net,
                        &res,
                        &ValidationConfig {
                            speed_divisor: 2,
                            allow_late_execution: true,
                            ..ValidationConfig::default()
                        },
                    )
                    .unwrap();
                    let ratio = competitive_ratio(&net, &res);
                    let (mean_late, max_late) = lateness(&res);
                    let chases = trace
                        .lock()
                        .decisions
                        .iter()
                        .filter(|d| matches!(d.kind, DecisionKind::DistChase { .. }))
                        .count();
                    vec![
                        net.name().to_string(),
                        format!("message-level (+{chases} chases)"),
                        res.metrics.committed.to_string(),
                        res.metrics.makespan.to_string(),
                        fmt_ratio(ratio.max_ratio),
                        messages.get().to_string(),
                        format!("{mean_late:.1}"),
                        max_late.to_string(),
                    ]
                } else {
                    let res = run_policy(
                        &net,
                        src,
                        DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 23)
                            .with_message_counter(Arc::clone(&messages)),
                        DistributedBucketPolicy::<ListScheduler>::engine_config(),
                    );
                    res.expect_ok();
                    validate_events(
                        &net,
                        &res,
                        &ValidationConfig {
                            speed_divisor: 2,
                            ..ValidationConfig::default()
                        },
                    )
                    .unwrap();
                    let ratio = competitive_ratio(&net, &res);
                    let (mean_late, max_late) = lateness(&res);
                    vec![
                        net.name().to_string(),
                        "idealized".into(),
                        res.metrics.committed.to_string(),
                        res.metrics.makespan.to_string(),
                        fmt_ratio(ratio.max_ratio),
                        messages.get().to_string(),
                        format!("{mean_late:.1}"),
                        max_late.to_string(),
                    ]
                }
            });
        }
    }
    for row in grid.run() {
        t.row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn both_variants_complete() {
        let tables = super::run(true);
        assert_eq!(tables[0].len(), 2);
        // Idealized lateness is exactly zero.
        let rows: Vec<Vec<String>> = tables[0]
            .to_csv()
            .lines()
            .skip(1)
            .map(|l| l.split(',').map(str::to_string).collect())
            .collect();
        // Index from the end: the topology cell may contain commas.
        let mean_late = &rows[0][rows[0].len() - 2];
        assert_eq!(mean_late, "0.0");
    }
}
