//! Run results and execution-quality metrics.

use crate::column::IdColumn;
use crate::events::Event;
use dtm_model::{Schedule, Time, Transaction, TxnId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Ways a run can go wrong. A correct scheduler on a correct engine
/// produces none; experiments assert emptiness.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// A transaction's scheduled time arrived but some object was missing.
    MissedExecution {
        /// The transaction.
        txn: TxnId,
        /// The scheduled time that was missed.
        scheduled: Time,
    },
    /// A policy tried to schedule a transaction in the past.
    ScheduledInPast {
        /// The transaction.
        txn: TxnId,
        /// The (invalid) proposed time.
        proposed: Time,
        /// Current time when proposed.
        now: Time,
    },
    /// A policy tried to re-time an already scheduled transaction.
    Rescheduled {
        /// The transaction.
        txn: TxnId,
    },
    /// A policy scheduled an unknown / already-committed transaction.
    UnknownTxn {
        /// The transaction.
        txn: TxnId,
    },
    /// The run hit the step limit with live transactions remaining.
    MaxStepsExceeded {
        /// Number of transactions still live.
        live: usize,
        /// The lowest-id live transactions, capped at
        /// [`Violation::MAX_REPORTED_LIVE`] so a stuck large run stays
        /// reportable.
        sample: Vec<TxnId>,
    },
}

impl Violation {
    /// Cap on the live-transaction sample carried by
    /// [`Violation::MaxStepsExceeded`].
    pub const MAX_REPORTED_LIVE: usize = 8;
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissedExecution { txn, scheduled } => {
                write!(f, "{txn} missed its scheduled execution at {scheduled}")
            }
            Violation::ScheduledInPast { txn, proposed, now } => {
                write!(f, "{txn} scheduled at {proposed} < now {now}")
            }
            Violation::Rescheduled { txn } => write!(f, "{txn} re-scheduled"),
            Violation::UnknownTxn { txn } => write!(f, "unknown {txn} scheduled"),
            Violation::MaxStepsExceeded { live, sample } => {
                write!(f, "step limit reached with {live} live transactions")?;
                if !sample.is_empty() {
                    let ids: Vec<String> = sample.iter().map(|t| t.to_string()).collect();
                    write!(f, " (e.g. {})", ids.join(", "))?;
                    if *live > sample.len() {
                        write!(f, " and {} more", live - sample.len())?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Latency distribution summary (execution duration `t_T - t` per
/// transaction, the quantity the competitive ratio bounds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of committed transactions.
    pub count: usize,
    /// Mean latency.
    pub mean: f64,
    /// Median latency.
    pub p50: Time,
    /// 95th percentile latency.
    pub p95: Time,
    /// Maximum latency.
    pub max: Time,
}

impl LatencySummary {
    /// Summarize a latency sample (unsorted).
    pub fn from_samples(mut samples: Vec<Time>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let count = samples.len();
        let sum: u128 = samples.iter().map(|&x| x as u128).sum();
        LatencySummary {
            count,
            mean: sum as f64 / count as f64,
            p50: percentile(&samples, 0.50),
            p95: percentile(&samples, 0.95),
            max: samples[count - 1],
        }
    }
}

/// Number of log2 buckets in a [`Log2Histogram`]: bucket 0 holds the
/// value 0, bucket `i >= 1` holds `[2^(i-1), 2^i - 1]`; 65 covers `u64`.
pub const LOG2_BUCKETS: usize = 65;

/// Log2 bucket of `v`: 0 for 0, else `1 + floor(log2 v)`. Every log2
/// histogram in the workspace buckets through this function.
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Fixed-size log2-bucketed histogram of `Time` samples — the
/// bounded-memory latency accumulator for open-system (streaming) runs,
/// where keeping one sample per commit would grow without bound.
///
/// Deterministic and allocation-free after construction: recording is a
/// bucket increment plus min/max/sum updates. Percentiles are
/// approximate — nearest-rank over buckets, reporting the bucket's
/// **upper bound** — so a reported p95 of 127 means "at least 95% of
/// samples were ≤ 127"; relative error is bounded by the 2× bucket
/// width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: Time) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Samples per bucket: entry 0 counts the value 0, entry `i >= 1`
    /// counts `[2^(i-1), 2^i - 1]`.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> Time {
        self.max
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> Time {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Approximate nearest-rank percentile: the upper bound of the first
    /// bucket whose cumulative count reaches `⌈p·n⌉`, clamped to the
    /// observed maximum. 0 when empty.
    pub fn percentile(&self, p: f64) -> Time {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i: 0 for bucket 0, else 2^i - 1.
                let upper = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Condense into a [`LatencySummary`] (approximate percentiles; see
    /// [`Log2Histogram::percentile`]).
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.count as usize,
            mean: self.mean(),
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            max: self.max,
        }
    }
}

/// Nearest-rank percentile of a **sorted, non-empty** sample: the
/// smallest element such that at least `⌈p·n⌉` samples are ≤ it
/// (`sorted[⌈p·n⌉ - 1]`). This is the textbook nearest-rank definition:
/// p50 of `[1, 2]` is 1 (rank ⌈1⌉), not 2 — the previous
/// `round((n-1)·p)` indexing rounded half-way points up, biasing every
/// even-count median (and p99 on most sample sizes) toward the maximum.
///
/// # Panics
/// Panics on an empty sample; callers summarize emptiness separately.
pub fn percentile(sorted: &[Time], p: f64) -> Time {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Aggregate metrics of one run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Time of the last commit (total execution time / makespan).
    pub makespan: Time,
    /// Committed transaction count.
    pub committed: usize,
    /// Total weighted distance traveled by all objects (the paper's
    /// *communication cost*).
    pub comm_cost: u64,
    /// Total number of edge traversals (hops).
    pub hops: u64,
    /// Latency summary over committed transactions.
    pub latency: LatencySummary,
    /// Peak number of simultaneously live transactions.
    pub peak_live: usize,
    /// Number of time steps simulated.
    pub steps: Time,
}

/// Everything a run produces.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Final merged schedule (txn -> execution time).
    pub schedule: Schedule,
    /// Commit time per transaction, in id order.
    pub commits: IdColumn<(TxnId, Time)>,
    /// Every transaction seen during the run in id order, each carrying
    /// its generation time (needed by the validator and by
    /// post-processing).
    pub txns: IdColumn<Transaction>,
    /// Aggregate metrics.
    pub metrics: Metrics,
    /// Event log (empty when event recording is disabled).
    pub events: Vec<Event>,
    /// Violations (empty for a correct run).
    pub violations: Vec<Violation>,
    /// Name of the policy that produced the run.
    pub policy: String,
}

impl RunResult {
    /// True when the run completed with no violations.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Per-transaction execution duration `commit - generated`, in id
    /// order.
    pub fn latencies(&self) -> Vec<(TxnId, Time)> {
        self.latency_iter().collect()
    }

    /// [`RunResult::latencies`] as a merge-join of the two id-sorted
    /// columns: one forward pass over `txns`, no lookup per commit. A
    /// commit without a body counts from generation time 0.
    pub(crate) fn latency_iter(&self) -> impl Iterator<Item = (TxnId, Time)> + '_ {
        let mut bodies = self.txns.as_slice().iter().peekable();
        self.commits.as_slice().iter().map(move |&(id, commit)| {
            while bodies.next_if(|tx| tx.id < id).is_some() {}
            let generated = bodies
                .next_if(|tx| tx.id == id)
                .map_or(0, |tx| tx.generated_at);
            (id, commit - generated)
        })
    }

    /// Assert the run is clean; panics with diagnostics otherwise.
    /// Convenient in tests and experiment harnesses.
    pub fn expect_ok(&self) -> &Self {
        assert!(
            self.ok(),
            "run with policy {} had violations: {:?}",
            self.policy,
            self.violations
        );
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_basic() {
        let s = LatencySummary::from_samples(vec![5, 1, 3, 2, 4]);
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.p50, 3);
        assert_eq!(s.max, 5);
    }

    #[test]
    fn latency_summary_empty() {
        let s = LatencySummary::from_samples(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn latency_summary_p95() {
        let samples: Vec<Time> = (1..=100).collect();
        let s = LatencySummary::from_samples(samples);
        assert_eq!(s.p95, 95); // rank ceil(100 * 0.95) = 95 -> sample 95
        assert_eq!(s.p50, 50); // rank ceil(100 * 0.50) = 50 -> sample 50
    }

    #[test]
    fn percentile_nearest_rank_even_count() {
        // The case the old round() indexing got wrong: p50 of two samples
        // must be the *lower* one (rank ceil(1.0) = 1).
        assert_eq!(percentile(&[10, 20], 0.50), 10);
        let sorted: Vec<Time> = vec![1, 2, 3, 4];
        assert_eq!(percentile(&sorted, 0.50), 2); // rank ceil(2.0) = 2
        assert_eq!(percentile(&sorted, 0.90), 4); // rank ceil(3.6) = 4
        assert_eq!(percentile(&sorted, 0.99), 4); // rank ceil(3.96) = 4
        let ten: Vec<Time> = (1..=10).collect();
        assert_eq!(percentile(&ten, 0.50), 5); // rank ceil(5.0) = 5
        assert_eq!(percentile(&ten, 0.90), 9); // rank ceil(9.0) = 9
        assert_eq!(percentile(&ten, 0.99), 10); // rank ceil(9.9) = 10
    }

    #[test]
    fn percentile_nearest_rank_odd_count() {
        let sorted: Vec<Time> = vec![1, 2, 3, 4, 5];
        assert_eq!(percentile(&sorted, 0.50), 3); // rank ceil(2.5) = 3
        assert_eq!(percentile(&sorted, 0.90), 5); // rank ceil(4.5) = 5
        assert_eq!(percentile(&sorted, 0.99), 5); // rank ceil(4.95) = 5
        let one = [42];
        assert_eq!(percentile(&one, 0.50), 42);
        assert_eq!(percentile(&one, 0.99), 42);
    }

    #[test]
    fn percentile_extreme_p_clamps() {
        let sorted: Vec<Time> = vec![1, 2, 3];
        assert_eq!(percentile(&sorted, 0.0), 1); // rank clamps up to 1
        assert_eq!(percentile(&sorted, 1.0), 3); // rank n
    }

    #[test]
    fn violation_display() {
        let v = Violation::MissedExecution {
            txn: TxnId(3),
            scheduled: 9,
        };
        assert!(v.to_string().contains("T3"));
    }
}

/// Peak concurrent object count per undirected edge, recovered from the
/// event log by interval sweep. The congestion quantity the paper's
/// conclusion asks about (§VI) — complements the engine's optional
/// `link_capacity` enforcement.
pub fn edge_congestion(
    result: &RunResult,
) -> BTreeMap<(dtm_graph::NodeId, dtm_graph::NodeId), u32> {
    use crate::events::Event;
    let key = |a: dtm_graph::NodeId, b: dtm_graph::NodeId| if a <= b { (a, b) } else { (b, a) };
    let mut intervals: BTreeMap<_, Vec<(Time, Time)>> = BTreeMap::new();
    for e in &result.events {
        if let Event::Departed {
            t,
            from,
            to,
            arrive,
            ..
        } = *e
        {
            intervals
                .entry(key(from, to))
                .or_default()
                .push((t, arrive));
        }
    }
    intervals
        .into_iter()
        .map(|(edge, mut ivs)| {
            ivs.sort_unstable();
            let peak = ivs
                .iter()
                .enumerate()
                .map(|(i, &(start, _))| {
                    ivs[..i]
                        .iter()
                        .filter(|&&(s, e)| s <= start && e > start)
                        .count() as u32
                        + 1
                })
                .max()
                .unwrap_or(0);
            (edge, peak)
        })
        .collect()
}

/// The maximum of [`edge_congestion`] over all edges (0 if nothing moved).
pub fn peak_congestion(result: &RunResult) -> u32 {
    edge_congestion(result).values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod congestion_tests {
    use super::*;
    use crate::events::Event;
    use dtm_graph::NodeId;
    use dtm_model::ObjectId;

    fn result_with_events(events: Vec<Event>) -> RunResult {
        RunResult {
            events,
            ..RunResult::default()
        }
    }

    #[test]
    fn overlapping_traversals_counted() {
        let res = result_with_events(vec![
            Event::Departed {
                t: 0,
                object: ObjectId(0),
                from: NodeId(0),
                to: NodeId(1),
                arrive: 5,
            },
            Event::Departed {
                t: 2,
                object: ObjectId(1),
                from: NodeId(1),
                to: NodeId(0),
                arrive: 7,
            },
            Event::Departed {
                t: 6,
                object: ObjectId(2),
                from: NodeId(0),
                to: NodeId(1),
                arrive: 11,
            },
        ]);
        let peaks = edge_congestion(&res);
        // Intervals [0,5), [2,7), [6,11): peak overlap 2.
        assert_eq!(peaks[&(NodeId(0), NodeId(1))], 2);
        assert_eq!(peak_congestion(&res), 2);
    }

    #[test]
    fn empty_run_has_zero_congestion() {
        let res = result_with_events(vec![]);
        assert_eq!(peak_congestion(&res), 0);
    }
}
