//! Per-policy decision tracing: *why* a transaction got its slot.
//!
//! Every scheduler in `dtm-core` accepts an optional
//! [`DecisionTraceHandle`] and appends one [`Decision`] per choice it
//! makes — the conflict-set size and assigned color for the greedy
//! coloring, bucket level and activation epoch for the bucket schedules,
//! cover layer and report latency for the distributed protocols (plus
//! object chases for the message-level one), queue and tour positions
//! for the baselines. The records are structured (serde) so traces can be
//! exported as JSONL or joined against the event log by transaction id.

use dtm_model::{ObjectId, Time, TxnId};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Policy-specific reason a decision was taken.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DecisionKind {
    /// Algorithm 1: the transaction was greedily colored in `H'_t`.
    GreedyColor {
        /// Live conflicting transactions considered (degree in `H'_t`).
        conflicts: usize,
        /// Assigned color (execution offset from decision time).
        color: Time,
        /// The theorem bound on the color at decision time.
        bound: Time,
    },
    /// FIFO baseline: scheduled at the earliest feasible time, in arrival
    /// order.
    FifoQueue {
        /// Position among this step's arrivals (0 = first served).
        queue_position: usize,
    },
    /// TSP baseline: slot assigned by the per-object nearest-neighbor
    /// tour.
    TspTour {
        /// Visit position within this step's batch tour (0 = first).
        tour_position: usize,
    },
    /// Algorithm 2: the arrival was parked in a bucket.
    BucketInsert {
        /// Chosen bucket level `i` (probe `F <= 2^i` succeeded).
        level: u32,
        /// True when every probe failed and the transaction was forced
        /// into the top level.
        overflow: bool,
    },
    /// Algorithm 2: a bucket activation assigned the execution time.
    BucketActivate {
        /// Activated bucket level.
        level: u32,
        /// Activation epoch: `t / 2^level` at activation time.
        epoch: u64,
        /// Transactions scheduled together in this activation.
        batch: usize,
    },
    /// Algorithm 3: the transaction reported to a cluster leader.
    DistReport {
        /// Sparse-cover layer whose cluster covers the dependency radius.
        layer: u32,
        /// Reporting cluster id.
        cluster: u64,
        /// Steps from arrival until the report reached the leader.
        report_latency: Time,
    },
    /// Algorithm 3: a leader parked the transaction in a partial bucket.
    DistInsert {
        /// Partial-bucket level.
        level: u32,
        /// Leader's cluster id.
        cluster: u64,
    },
    /// Algorithm 3: a partial-bucket activation assigned the execution
    /// time.
    DistActivate {
        /// Activated partial-bucket level.
        level: u32,
        /// Leader's cluster id.
        cluster: u64,
        /// Farthest leader-to-home notification distance the schedule
        /// waited for.
        notify: Time,
    },
    /// Message-level Algorithm 3: a `Find` for one of the transaction's
    /// objects was forwarded along the object's trail (or re-sent while
    /// the object is inbound) instead of catching it.
    DistChase {
        /// The object being chased.
        object: ObjectId,
    },
}

impl DecisionKind {
    /// Stable lowercase tag for reports and trace lines.
    pub fn tag(&self) -> &'static str {
        match self {
            DecisionKind::GreedyColor { .. } => "greedy-color",
            DecisionKind::FifoQueue { .. } => "fifo-queue",
            DecisionKind::TspTour { .. } => "tsp-tour",
            DecisionKind::BucketInsert { .. } => "bucket-insert",
            DecisionKind::BucketActivate { .. } => "bucket-activate",
            DecisionKind::DistReport { .. } => "dist-report",
            DecisionKind::DistInsert { .. } => "dist-insert",
            DecisionKind::DistActivate { .. } => "dist-activate",
            DecisionKind::DistChase { .. } => "dist-chase",
        }
    }
}

/// One scheduling decision.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Step at which the decision was taken.
    pub t: Time,
    /// The transaction decided about.
    pub txn: TxnId,
    /// Execution time assigned by this decision (`None` for intermediate
    /// decisions such as bucket insertions).
    pub exec_at: Option<Time>,
    /// Why.
    pub kind: DecisionKind,
}

/// An append-only log of scheduling decisions.
///
/// By default the log is unbounded (suits finite batch runs, where the
/// whole trace is exported afterwards). Open-system runs that only want
/// a recent-decisions tail — e.g. feeding a
/// [`crate::FlightRecorder`] — should use [`DecisionTrace::bounded`],
/// which retains the most recent `cap` decisions and counts evictions.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DecisionTrace {
    /// Decisions in the order they were taken (oldest first; in bounded
    /// mode, the most recent `cap`).
    pub decisions: Vec<Decision>,
    /// Retention cap (`None` = unbounded).
    cap: Option<usize>,
    /// Decisions evicted by the cap.
    dropped: u64,
}

impl DecisionTrace {
    /// Bounded trace retaining the most recent `cap` decisions
    /// (clamped to ≥ 1). O(cap) memory regardless of run length.
    pub fn bounded(cap: usize) -> Self {
        DecisionTrace {
            decisions: Vec::new(),
            cap: Some(cap.max(1)),
            dropped: 0,
        }
    }

    /// Append one decision, evicting the oldest when at the cap.
    pub fn push(&mut self, d: Decision) {
        if let Some(cap) = self.cap {
            if self.decisions.len() == cap {
                self.decisions.remove(0);
                self.dropped += 1;
            }
        }
        self.decisions.push(d);
    }

    /// Decisions evicted so far (always 0 when unbounded).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Decisions about `txn`, in order.
    pub fn for_txn(&self, txn: TxnId) -> Vec<&Decision> {
        self.decisions.iter().filter(|d| d.txn == txn).collect()
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

/// Shared handle a policy writes through while the caller keeps the other
/// end.
pub type DecisionTraceHandle = Arc<Mutex<DecisionTrace>>;

/// Fresh empty handle.
pub fn decision_trace() -> DecisionTraceHandle {
    Arc::new(Mutex::new(DecisionTrace::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accumulates_and_filters() {
        let h = decision_trace();
        h.lock().push(Decision {
            t: 0,
            txn: TxnId(1),
            exec_at: None,
            kind: DecisionKind::BucketInsert {
                level: 2,
                overflow: false,
            },
        });
        h.lock().push(Decision {
            t: 4,
            txn: TxnId(1),
            exec_at: Some(9),
            kind: DecisionKind::BucketActivate {
                level: 2,
                epoch: 1,
                batch: 3,
            },
        });
        let t = h.lock();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let mine = t.for_txn(TxnId(1));
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[1].exec_at, Some(9));
        assert_eq!(mine[0].kind.tag(), "bucket-insert");
    }

    #[test]
    fn bounded_trace_keeps_a_recent_tail() {
        let mut t = DecisionTrace::bounded(3);
        for i in 0..7u64 {
            t.push(Decision {
                t: i,
                txn: TxnId(i),
                exec_at: None,
                kind: DecisionKind::FifoQueue {
                    queue_position: i as usize,
                },
            });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 4);
        let ts: Vec<Time> = t.decisions.iter().map(|d| d.t).collect();
        assert_eq!(ts, vec![4, 5, 6], "most recent tail, oldest first");
        // Unbounded default never drops.
        let mut u = DecisionTrace::default();
        for i in 0..7u64 {
            u.push(Decision {
                t: i,
                txn: TxnId(i),
                exec_at: None,
                kind: DecisionKind::FifoQueue { queue_position: 0 },
            });
        }
        assert_eq!(u.len(), 7);
        assert_eq!(u.dropped(), 0);
    }

    #[test]
    fn decision_roundtrips_through_json() {
        let d = Decision {
            t: 3,
            txn: TxnId(7),
            exec_at: Some(12),
            kind: DecisionKind::GreedyColor {
                conflicts: 2,
                color: 9,
                bound: 20,
            },
        };
        let s = serde_json::to_string(&d).unwrap();
        let back: Decision = serde_json::from_str(&s).unwrap();
        assert_eq!(back, d);
    }
}
