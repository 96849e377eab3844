//! Conservative competitive-ratio estimation for online runs.
//!
//! The paper (Section II) defines, for a schedule `S` at time `t` with live
//! transactions `T_t`, the ratio `r_S(t) = max_{T in T_t} (t_T - t) / t*`
//! where `t*` is the optimal time to execute all of `T_t` given current
//! object positions, and `r_S = sup_t r_S(t)`.
//!
//! `t*` is NP-hard, so we divide by [`batch_lower_bound`] evaluated on the
//! live set with object positions reconstructed from the run's event log —
//! a provable lower bound on `t*`. The resulting ratio **over-estimates**
//! the true competitive ratio, which makes every "measured ratio tracks
//! the theorem" conclusion conservative.
//!
//! Sampling: `r_S(t)` is evaluated at every time step where new
//! transactions were generated (the suprema of `(t_T - t)` over a fixed
//! live set are attained right after arrivals).

use crate::lower_bound::batch_lower_bound;
use crate::traits::BatchContext;
use dtm_graph::{Network, NodeId};
use dtm_model::{ObjectId, Time, Transaction, TxnId};
use dtm_sim::{Event, RunResult};
use std::collections::BTreeMap;

/// Competitive-ratio estimate of a run.
#[derive(Clone, Debug, Default)]
pub struct RatioReport {
    /// `sup_t r_S(t)` over the sampled times.
    pub max_ratio: f64,
    /// Per-sample `(t, r_S(t), lower_bound, worst_latency)`.
    pub samples: Vec<(Time, f64, Time, Time)>,
}

/// Estimate the competitive ratio of `result` on `network`.
///
/// Requires the run to have been recorded with events enabled and to have
/// no violations.
pub fn competitive_ratio(network: &Network, result: &RunResult) -> RatioReport {
    assert!(
        result.ok(),
        "competitive ratio requires a clean run; violations: {:?}",
        result.violations
    );
    // Sample times: generation steps.
    let mut sample_times: Vec<Time> = result.txns.values().map(|tx| tx.generated_at).collect();
    sample_times.sort_unstable();
    sample_times.dedup();

    // Forward replay of object positions. Position at time t = state after
    // processing all events with time <= t (arrivals at t land before the
    // live set is evaluated, matching the engine's step order).
    let mut positions: BTreeMap<ObjectId, (NodeId, Time)> = BTreeMap::new();
    let mut event_idx = 0usize;

    // Live set management: transactions sorted by generation time.
    let mut txns_by_gen: Vec<&Transaction> = result.txns.values().collect();
    txns_by_gen.sort_by_key(|t| (t.generated_at, t.id));

    let commit_of = |id: TxnId| -> Time {
        result
            .commits
            .get(&id)
            .copied()
            .expect("clean run commits everything") // dtm-lint: allow(C1) -- caller contract: ratios are computed on violation-free runs where every txn commits
    };

    let mut report = RatioReport::default();
    for &t in &sample_times {
        // Advance the replay to time t inclusive.
        while event_idx < result.events.len() && result.events[event_idx].time() <= t {
            match result.events[event_idx] {
                Event::ObjectCreated { object, node, .. } => {
                    positions.insert(object, (node, 0));
                }
                Event::Departed {
                    object, to, arrive, ..
                } => {
                    positions.insert(object, (to, arrive));
                }
                Event::Arrived { object, node, t } => {
                    positions.insert(object, (node, t));
                }
                _ => {}
            }
            event_idx += 1;
        }
        // Live set at t.
        let live: Vec<Transaction> = txns_by_gen
            .iter()
            .filter(|x| x.generated_at <= t && commit_of(x.id) >= t)
            .map(|x| (*x).clone())
            .collect();
        if live.is_empty() {
            continue;
        }
        let worst_latency = live
            .iter()
            .map(|x| commit_of(x.id).saturating_sub(t))
            .max()
            .unwrap_or(0);
        let ctx = BatchContext {
            now: t,
            object_avail: positions
                .iter()
                .map(|(&o, &(node, ready))| (o, (node, ready.max(t))))
                .collect(),
            fixed: Vec::new(),
        };
        let lb = batch_lower_bound(network, &live, &ctx).combined();
        let ratio = worst_latency as f64 / lb as f64;
        report.samples.push((t, ratio, lb, worst_latency));
        if ratio > report.max_ratio {
            report.max_ratio = ratio;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;
    use dtm_model::{Instance, ObjectInfo, Schedule, TraceSource};
    use dtm_sim::{run_policy, EngineConfig, SchedulingPolicy, SystemView};

    struct Fixed(BTreeMap<TxnId, Time>);
    impl SchedulingPolicy for Fixed {
        fn step(&mut self, _: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
            arrivals
                .iter()
                .filter_map(|id| self.0.get(id).map(|&t| (*id, t)))
                .collect()
        }
        fn name(&self) -> String {
            "fixed".into()
        }
    }

    #[test]
    fn perfect_schedule_has_low_ratio() {
        let net = topology::line(8);
        let inst = Instance::new(
            vec![ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            }],
            vec![Transaction::new(TxnId(0), NodeId(7), [ObjectId(0)], 0)],
        );
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            Fixed([(TxnId(0), 7)].into()),
            EngineConfig::default(),
        );
        res.expect_ok();
        let report = competitive_ratio(&net, &res);
        // Latency 7, lower bound 7: ratio exactly 1.
        assert_eq!(report.max_ratio, 1.0);
        assert_eq!(report.samples.len(), 1);
    }

    #[test]
    fn padded_schedule_has_higher_ratio() {
        let net = topology::line(8);
        let inst = Instance::new(
            vec![ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            }],
            vec![Transaction::new(TxnId(0), NodeId(7), [ObjectId(0)], 0)],
        );
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            Fixed([(TxnId(0), 21)].into()), // 3x slower than necessary
            EngineConfig::default(),
        );
        res.expect_ok();
        let report = competitive_ratio(&net, &res);
        assert_eq!(report.max_ratio, 3.0);
    }

    #[test]
    #[should_panic(expected = "clean run")]
    fn rejects_dirty_runs() {
        let net = topology::line(4);
        let inst = Instance::new(
            vec![ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            }],
            vec![Transaction::new(TxnId(0), NodeId(3), [ObjectId(0)], 0)],
        );
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            Fixed([(TxnId(0), 1)].into()), // infeasible
            EngineConfig::default(),
        );
        let _ = competitive_ratio(&net, &res);
    }
}
