//! Algorithm 2 — the online bucket schedule (Section IV).
//!
//! Converts any offline batch scheduler `𝒜` into an online scheduler.
//! Bucket `B_i` (level `i >= 0`) holds unscheduled transactions whose
//! batch — together with everything already scheduled — would execute
//! within `2^i` steps, and activates every `2^i` steps. On arrival a
//! transaction is inserted into the smallest-level bucket whose probe
//! `F_𝒜(T_t^s ∪ B_i ∪ {T}) <= 2^i` succeeds; on activation the bucket's
//! transactions are scheduled by `𝒜` around the fixed schedule (never
//! altering it) and become part of `T_t^s`. When several levels activate
//! simultaneously, lower levels are processed first (their output joins
//! the fixed context seen by higher levels).
//!
//! Theorem 4: the resulting online schedule is `O(b_𝒜 log^3(nD))`
//! competitive; Lemma 3 bounds bucket levels by `log(nD) + 1`; Lemma 4
//! bounds the completion of a level-`i` insertion by `t + (i+1) 2^{i+2}`.

use crate::viewctx::FixedCache;
use dtm_graph::Network;
use dtm_model::{Schedule, Time, Transaction, TxnId};
use dtm_offline::{BatchContext, BatchScheduler};
use dtm_sim::{SchedulingPolicy, SystemView};
use dtm_telemetry::{Decision, DecisionKind, DecisionTraceHandle};
use std::collections::BTreeMap;

/// Algorithm 2, generic over the offline batch scheduler `𝒜`.
///
/// `Clone` (for [`dtm_sim::SchedulingPolicy::fork`] checkpoints)
/// captures the parked buckets and the fixed-context cache; an attached
/// decision-trace handle is shared, not duplicated.
///
/// **Boundedness (open-system audit).** `buckets` holds only parked,
/// unscheduled transactions and drains completely at each activation;
/// the [`FixedCache`] tracks live scheduled transactions only. Policy
/// state is O(live set), safe for indefinite streaming runs.
#[derive(Clone)]
pub struct BucketPolicy<A> {
    scheduler: A,
    // dtm-lint: bounded -- parked transactions only; each level drains fully at its activation step
    buckets: BTreeMap<u32, Vec<Transaction>>,
    max_level: Option<u32>,
    period_multiplier: u64,
    decisions: Option<DecisionTraceHandle>,
    cache: FixedCache,
}

impl<A: BatchScheduler> BucketPolicy<A> {
    /// Wrap a batch scheduler.
    pub fn new(scheduler: A) -> Self {
        BucketPolicy {
            scheduler,
            buckets: BTreeMap::new(),
            max_level: None,
            period_multiplier: 1,
            decisions: None,
            cache: FixedCache::default(),
        }
    }

    /// Record one [`DecisionKind::BucketInsert`] per arrival and one
    /// [`DecisionKind::BucketActivate`] per scheduled transaction into
    /// `trace` (the caller keeps the other `Arc` end).
    pub fn with_decision_trace(mut self, trace: DecisionTraceHandle) -> Self {
        self.decisions = Some(trace);
        self
    }

    /// Ablation knob (experiment A1): activate level `i` every
    /// `m * 2^i` steps instead of every `2^i`. `m = 1` is Algorithm 2.
    pub fn with_period_multiplier(mut self, m: u64) -> Self {
        assert!(m >= 1);
        self.period_multiplier = m;
        self
    }

    /// Number of transactions currently parked in buckets.
    pub fn parked(&self) -> usize {
        self.buckets.values().map(|b| b.len()).sum()
    }
}

/// The insertion probe shared by Algorithms 2 and 3: place `txn` into the
/// bucket of the smallest level `i <= max_level` whose probe
/// `F_𝒜(T_t^s ∪ B_i ∪ {T}) <= 2^i` succeeds, or into level `max_level`
/// when every probe fails (an overflow). `key` maps a level to the
/// bucket's key in `buckets`. The candidate is pushed onto the bucket in
/// place, probed, and popped again if it does not fit, so no bucket is
/// copied. Returns `(level, overflow)`.
// dtm-lint: hot-path
pub(crate) fn insert_probe<A: BatchScheduler, K: Ord>(
    scheduler: &mut A,
    network: &Network,
    ctx: &BatchContext,
    buckets: &mut BTreeMap<K, Vec<Transaction>>,
    key: impl Fn(u32) -> K,
    max_level: u32,
    mut txn: Transaction,
) -> (u32, bool) {
    for i in 0..=max_level {
        let fits = |f: Time| f <= 1u64 << i;
        match buckets.get_mut(&key(i)) {
            Some(bucket) => {
                bucket.push(txn);
                if fits(scheduler.makespan(network, bucket, ctx)) {
                    return (i, false);
                }
                txn = bucket.pop().expect("candidate pushed above"); // dtm-lint: allow(C1) -- the candidate was pushed onto this bucket just above
            }
            None if fits(scheduler.makespan(network, std::slice::from_ref(&txn), ctx)) => {
                buckets.insert(key(i), vec![txn]); // dtm-lint: allow(H1) -- a new bucket, one per (level, leader) between activations
                return (i, false);
            }
            None => {}
        }
    }
    buckets.entry(key(max_level)).or_default().push(txn);
    (max_level, true)
}

impl<A: BatchScheduler> SchedulingPolicy for BucketPolicy<A> {
    // dtm-lint: hot-path
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        let max_level = *self
            .max_level
            .get_or_insert_with(|| view.network.max_bucket_level());
        self.cache.refresh(view);
        // The batch context re-projects every object position; skip
        // building it on quiet steps (no arrivals to insert, no bucket
        // activating). Buckets never hold empty vecs — entries are
        // created by a push and removed whole on activation — so
        // `activating` exactly predicts whether the loop below has work.
        let now = view.now;
        let activating = self
            .buckets
            .iter()
            .any(|(&i, b)| !b.is_empty() && now.is_multiple_of(self.period_multiplier << i));
        if arrivals.is_empty() && !activating {
            return Schedule::new();
        }
        let mut ctx = self.cache.context(view);

        // Insertion (before activation, as in Algorithm 2).
        let mut order: Vec<TxnId> = arrivals.to_vec(); // dtm-lint: allow(H1) -- O(arrival batch); an empty to_vec does not allocate, so quiet steps stay allocation-free
        order.sort_unstable();
        for id in order {
            let txn = view.live(id).expect("arrival is live").txn.clone(); // dtm-lint: allow(C1, H1) -- engine contract: every id in `arrivals` is live this step; one clone per arrival, absent on quiet steps
            let (level, overflow) = insert_probe(
                &mut self.scheduler,
                view.network,
                &ctx,
                &mut self.buckets,
                |i| i,
                max_level,
                txn,
            );
            if let Some(trace) = &self.decisions {
                trace.lock().push(Decision {
                    t: now,
                    txn: id,
                    exec_at: None,
                    kind: DecisionKind::BucketInsert { level, overflow },
                });
            }
        }

        // Activation: level i fires when t is a multiple of 2^i; lower
        // levels first, feeding the fixed context of higher levels.
        let mut fragment = Schedule::new();
        for i in 0..=max_level {
            if !now.is_multiple_of(self.period_multiplier << i) {
                continue;
            }
            let Some(bucket) = self.buckets.remove(&i) else {
                continue;
            };
            if bucket.is_empty() {
                continue;
            }
            let s = self.scheduler.schedule(view.network, &bucket, &ctx);
            if let Some(trace) = &self.decisions {
                let epoch = now / (self.period_multiplier << i);
                let mut trace = trace.lock();
                for t in &bucket {
                    trace.push(Decision {
                        t: now,
                        txn: t.id,
                        exec_at: s.get(t.id),
                        kind: DecisionKind::BucketActivate {
                            level: i,
                            epoch,
                            batch: bucket.len(),
                        },
                    });
                }
            }
            // The batch joins the fixed context of higher levels; the
            // StepContext truncates these entries when the step ends.
            for t in bucket {
                let at = s.get(t.id).expect("scheduled"); // dtm-lint: allow(C1) -- BatchScheduler contract: schedule() assigns every pending transaction
                ctx.fixed.push((t, at));
            }
            fragment.merge(&s);
        }
        fragment
    }

    fn name(&self) -> String {
        format!("bucket({})", self.scheduler.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;
    use dtm_graph::NodeId;
    use dtm_model::{
        ClosedLoopSource, FiniteArrivals, Instance, ObjectChoice, ObjectId, ObjectInfo,
        TraceSource, WorkloadGenerator, WorkloadSpec,
    };
    use dtm_offline::{LineScheduler, ListScheduler};
    use dtm_sim::{run_policy, validate_events, EngineConfig, ValidationConfig};
    use dtm_telemetry::{decision_trace, DecisionTrace};
    use std::sync::Arc;

    /// `(txn, insert step, level, overflow)` per `BucketInsert` record.
    fn insertions(trace: &DecisionTrace) -> Vec<(TxnId, Time, u32, bool)> {
        trace
            .decisions
            .iter()
            .filter_map(|d| match d.kind {
                DecisionKind::BucketInsert { level, overflow } => {
                    Some((d.txn, d.t, level, overflow))
                }
                _ => None,
            })
            .collect()
    }

    fn obj(id: u32, origin: u32) -> ObjectInfo {
        ObjectInfo {
            id: ObjectId(id),
            origin: NodeId(origin),
            created_at: 0,
        }
    }

    fn txn(id: u64, home: u32, objs: &[u32], t: Time) -> Transaction {
        Transaction::new(
            TxnId(id),
            NodeId(home),
            objs.iter().map(|&o| ObjectId(o)),
            t,
        )
    }

    #[test]
    fn light_txn_lands_in_low_bucket() {
        let net = topology::line(8);
        let trace = decision_trace();
        // Object next to its single requester: F = 1 -> level 0.
        let inst = Instance::new(vec![obj(0, 4)], vec![txn(0, 5, &[0], 0)]);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            BucketPolicy::new(ListScheduler::fifo()).with_decision_trace(Arc::clone(&trace)),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(insertions(&trace.lock()), vec![(TxnId(0), 0, 0, false)]);
        // Level 0 activates instantly: committed at t = 1 (distance 1).
        assert_eq!(res.commits[&TxnId(0)], 1);
    }

    #[test]
    fn heavy_txn_lands_in_higher_bucket() {
        let net = topology::line(32);
        let trace = decision_trace();
        // Object at the far end: F = 31 -> level 5 (2^5 = 32).
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 31, &[0], 0)]);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            BucketPolicy::new(ListScheduler::fifo()).with_decision_trace(Arc::clone(&trace)),
            EngineConfig::default(),
        );
        res.expect_ok();
        assert_eq!(insertions(&trace.lock()), vec![(TxnId(0), 0, 5, false)]);
    }

    #[test]
    fn lemma3_level_bound_holds() {
        let net = topology::line(16);
        let trace = decision_trace();
        let spec = WorkloadSpec {
            num_objects: 4,
            k: 2,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bernoulli {
                rate: 0.4,
                horizon: 20,
            },
        };
        let inst = WorkloadGenerator::new(spec, 7).generate(&net);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            BucketPolicy::new(LineScheduler).with_decision_trace(Arc::clone(&trace)),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        let bound = net.max_bucket_level();
        let inserted = insertions(&trace.lock());
        assert!(!inserted.is_empty());
        for (id, _, lvl, overflow) in inserted {
            assert!(!overflow, "{id} overflowed every probe");
            assert!(lvl <= bound, "{id} at level {lvl} > Lemma 3 bound {bound}");
        }
    }

    #[test]
    fn lemma4_deadline_holds() {
        // Every txn inserted into level i at time t commits by
        // t + (i+1) * 2^(i+2).
        let net = topology::line(16);
        let trace = decision_trace();
        let spec = WorkloadSpec {
            num_objects: 4,
            k: 2,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bernoulli {
                rate: 0.3,
                horizon: 16,
            },
        };
        let inst = WorkloadGenerator::new(spec, 9).generate(&net);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            BucketPolicy::new(LineScheduler).with_decision_trace(Arc::clone(&trace)),
            EngineConfig::default(),
        );
        res.expect_ok();
        for (id, t, lvl, _) in insertions(&trace.lock()) {
            let commit = res.commits[&id];
            let deadline = t + (lvl as u64 + 1) * (1u64 << (lvl + 2));
            assert!(
                commit <= deadline,
                "{id} (level {lvl}, inserted {t}) committed {commit} > Lemma 4 deadline {deadline}"
            );
        }
    }

    #[test]
    fn closed_loop_line_runs_clean() {
        let net = topology::line(8);
        let src = ClosedLoopSource::new(net.clone(), WorkloadSpec::batch_uniform(4, 2), 2, 3);
        let res = run_policy(
            &net,
            src,
            BucketPolicy::new(LineScheduler),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(res.metrics.committed, 16);
    }

    #[test]
    fn burst_arrivals_batch_into_buckets() {
        let net = topology::line(16);
        let spec = WorkloadSpec {
            num_objects: 3,
            k: 1,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bursts {
                period: 8,
                per_burst: 6,
                bursts: 3,
            },
        };
        let inst = WorkloadGenerator::new(spec, 11).generate(&net);
        let n = inst.num_txns();
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            BucketPolicy::new(LineScheduler),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(res.metrics.committed, n);
    }
}

#[cfg(test)]
mod period_tests {
    use super::*;
    use dtm_graph::topology;
    use dtm_graph::NodeId;
    use dtm_model::{Instance, ObjectId, ObjectInfo, TraceSource, Transaction};
    use dtm_offline::ListScheduler;
    use dtm_sim::{run_policy, EngineConfig};

    /// With period multiplier m, level-0 activations happen only on
    /// multiples of m: a transaction arriving off-grid waits.
    #[test]
    fn period_multiplier_delays_activation() {
        let net = topology::line(4);
        let make = || {
            TraceSource::new(Instance::new(
                vec![ObjectInfo {
                    id: ObjectId(0),
                    origin: NodeId(1),
                    created_at: 0,
                }],
                // Arrives at t=1 with a local object: F = 1 -> level 0.
                vec![Transaction::new(TxnId(0), NodeId(1), [ObjectId(0)], 1)],
            ))
        };
        let fast = run_policy(
            &net,
            make(),
            BucketPolicy::new(ListScheduler::fifo()),
            EngineConfig::default(),
        );
        fast.expect_ok();
        let slow = run_policy(
            &net,
            make(),
            BucketPolicy::new(ListScheduler::fifo()).with_period_multiplier(4),
            EngineConfig::default(),
        );
        slow.expect_ok();
        // m=1: level 0 activates at t=1 -> immediate commit. m=4: the
        // next activation grid point is t=4.
        assert_eq!(fast.commits[&TxnId(0)], 1);
        assert!(slow.commits[&TxnId(0)] >= 4);
    }
}
