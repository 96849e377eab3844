//! E11 — Theorem 5: the distributed bucket schedule pays a polylog
//! overhead over the centralized bucket schedule.
//!
//! Same workload, same batch scheduler: Algorithm 2 with instant central
//! knowledge (objects at full speed) vs Algorithm 3 over the sparse cover
//! (half-speed objects, discovery + report + notify latencies, leader-held
//! partial buckets). The table reports the end-to-end overhead factor and
//! the protocol's message counts — the price of decentralization the
//! theorems trade against (log^3 → log^9).

use crate::runner::{run_summary, WorkloadKind};
use crate::table::fmt_ratio;
use crate::{ParallelGrid, Table};
use dtm_core::{BucketPolicy, DistributedBucketPolicy};
use dtm_graph::{topology, Network};
use dtm_model::WorkloadSpec;
use dtm_offline::ListScheduler;
use dtm_sim::EngineConfig;
use dtm_telemetry::{decision_trace, Counter, DecisionKind};
use std::sync::Arc;

/// Run E11.
pub fn run(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E11 — Theorem 5: distributed vs centralized bucket schedule",
        &[
            "topology",
            "txns",
            "central makespan",
            "dist makespan",
            "overhead",
            "central ratio",
            "dist ratio",
            "messages",
            "max report lat",
        ],
    );
    let nets: Vec<Network> = if quick {
        vec![topology::line(16), topology::grid(&[4, 4])]
    } else {
        vec![
            topology::line(32),
            topology::grid(&[5, 5]),
            topology::star(4, 6),
            topology::cluster(3, 4, 4),
        ]
    };
    let mut grid = ParallelGrid::new("E11");
    for net in nets {
        grid.cell(move || {
            let spec = WorkloadSpec::batch_uniform((net.n() as u32 / 2).max(2), 2);
            let wl = |seed: u64| WorkloadKind::ClosedLoop {
                spec: spec.clone(),
                rounds: 2,
                seed,
            };
            let central = run_summary(
                &net,
                wl(1100),
                BucketPolicy::new(ListScheduler::fifo()),
                EngineConfig::default(),
            );
            let trace = decision_trace();
            let messages = Arc::new(Counter::default());
            let dist_policy = DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 17)
                .with_decision_trace(Arc::clone(&trace))
                .with_message_counter(Arc::clone(&messages));
            let dist = run_summary(
                &net,
                wl(1100),
                dist_policy,
                DistributedBucketPolicy::<ListScheduler>::engine_config(),
            );
            let max_report_latency = trace
                .lock()
                .decisions
                .iter()
                .filter_map(|d| match d.kind {
                    DecisionKind::DistReport { report_latency, .. } => Some(report_latency),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let overhead = dist.makespan as f64 / central.makespan.max(1) as f64;
            vec![
                net.name().to_string(),
                central.txns.to_string(),
                central.makespan.to_string(),
                dist.makespan.to_string(),
                fmt_ratio(overhead),
                fmt_ratio(central.ratio),
                fmt_ratio(dist.ratio),
                messages.get().to_string(),
                max_report_latency.to_string(),
            ]
        });
    }
    for row in grid.run() {
        t.row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn distributed_pays_bounded_overhead() {
        let tables = super::run(true);
        let t = &tables[0];
        assert_eq!(t.len(), 2);
        for line in t.to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let overhead: f64 = cells[4].parse().unwrap();
            assert!(overhead >= 1.0, "distribution cannot be free: {line}");
            assert!(
                overhead < 200.0,
                "overhead should be polylog-ish, got {line}"
            );
        }
    }
}
