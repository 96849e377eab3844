//! Algorithm 3 — the distributed bucket schedule (Section V).
//!
//! Decentralizes Algorithm 2 over a hierarchical sparse cover: partial
//! `i`-buckets live at cluster *leaders*; a new transaction
//!
//! 1. **discovers** the current positions of its objects (objects move at
//!    half speed — engine `speed_divisor = 2` — so a discovery message
//!    catches an object at distance `d` within `3d` steps, Section V);
//! 2. learns its conflicting transactions from the objects, giving the
//!    dependency radius `y` (max of object distance and conflict distance);
//! 3. **reports** to the leader of its lowest home cluster whose layer
//!    covers the `y`-neighborhood (one message over distance
//!    `d(home, leader)`);
//! 4. the leader places it into a partial `i`-bucket (same `F_𝒜` probe as
//!    Algorithm 2, leader-local contents);
//! 5. all partial `i`-buckets activate globally every `2^i` steps; each
//!    leader schedules its bucket and **notifies** the member homes /
//!    objects (the schedule starts after the farthest notification lands).
//!
//! Simulation fidelity note (documented in DESIGN.md): message *timing*
//! (discovery `3x`, report distance, notification distance) and the
//! half-speed object rule are modeled exactly and every message is
//! counted; leader-local *knowledge* is taken from the global state at
//! the leader's decision time. Sub-layer partition properties guarantee
//! non-interference in the paper (Lemma 6 / Corollary 1); here leaders
//! activating at the same step are processed in deterministic height
//! order, each seeing the previous leaders' output as fixed — the
//! centralized simulation of the same serialization.

use crate::conflict::ConflictCache;
use crate::viewctx::FixedCache;
use dtm_graph::{ClusterId, Graph, Network, SparseCover};
use dtm_model::{Schedule, Time, Transaction, TxnId};
use dtm_offline::BatchScheduler;
use dtm_sim::{EngineConfig, SchedulingPolicy, SystemView};
use dtm_telemetry::{Decision, DecisionKind, DecisionTraceHandle};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A transaction in flight between arrival and its report reaching the
/// cluster leader.
#[derive(Clone, Debug)]
struct PendingReport {
    txn: Transaction,
    cluster: ClusterId,
    /// Object availability for the transaction's objects as observed at
    /// arrival time — the information the report physically carries.
    // dtm-lint: bounded -- one entry per object the txn touches, fixed at arrival
    snapshot: Vec<(dtm_model::ObjectId, (dtm_graph::NodeId, Time))>,
}

/// Algorithm 3, generic over the offline batch scheduler `𝒜`.
///
/// `Clone` (for [`dtm_sim::SchedulingPolicy::fork`] checkpoints)
/// captures the in-flight reports, partial buckets and caches; attached
/// decision-trace and message-counter handles are shared, not duplicated.
///
/// **Boundedness (open-system audit).** `reporting` entries are removed
/// when their arrival step is processed and `partials` drain at each
/// activation; the [`FixedCache`] tracks live scheduled transactions
/// only and the [`ConflictCache`] live conflict pairs only. Policy state
/// is O(live set + in-flight reports), safe for indefinite streaming
/// runs.
#[derive(Clone)]
pub struct DistributedBucketPolicy<A> {
    scheduler: A,
    cover: SparseCover,
    /// Copy of the network with doubled edge weights: all scheduling math
    /// runs against it so schedules stay feasible under the engine's
    /// half-speed objects (`speed_divisor = 2`).
    doubled: Network,
    max_level: Option<u32>,
    /// Reports arriving at their leaders, keyed by arrival time.
    // dtm-lint: bounded -- in-flight reports; every entry with key <= now drains each step
    reporting: BTreeMap<Time, Vec<PendingReport>>,
    /// Partial buckets: (level, cluster) -> parked transactions.
    // dtm-lint: bounded -- parked transactions only; each partial bucket drains at activation
    partials: BTreeMap<(u32, ClusterId), Vec<Transaction>>,
    /// When true, the leader's insertion probe uses the object positions
    /// *carried in the report* (stale by the protocol latency) instead of
    /// fresh global state — stricter locality of knowledge (ablation A5).
    stale_knowledge: bool,
    decisions: Option<DecisionTraceHandle>,
    /// Live protocol-message counter (telemetry registry handle).
    msg_counter: Option<Arc<dtm_telemetry::Counter>>,
    cache: FixedCache,
    /// Incremental conflict pairs + memoized distances for the discovery
    /// phase (conflict radius and per-conflict message counts).
    conflicts: ConflictCache,
}

/// Double every edge weight of a network (dropping any structured oracle —
/// distances simply double, but `Structured` variants encode unit weights).
fn double_weights(network: &Network) -> Network {
    let g = network.graph();
    let mut out = Graph::new(g.n(), format!("{}-halfspeed", g.name()));
    for (u, v, w) in g.edges() {
        out.add_edge(u, v, 2 * w).expect("copying a valid graph"); // dtm-lint: allow(C1) -- copying the edges of an already-validated graph into a fresh one
    }
    Network::new(out, None)
}

impl<A: BatchScheduler> DistributedBucketPolicy<A> {
    /// Build the policy: constructs the sparse cover of `network`
    /// (deterministic in `seed`).
    pub fn new(network: &Network, scheduler: A, seed: u64) -> Self {
        let cover = SparseCover::build(network, seed);
        DistributedBucketPolicy {
            scheduler,
            cover,
            doubled: double_weights(network),
            max_level: None,
            reporting: BTreeMap::new(),
            partials: BTreeMap::new(),
            stale_knowledge: false,
            decisions: None,
            msg_counter: None,
            cache: FixedCache::default(),
            conflicts: ConflictCache::default(),
        }
    }

    /// Count every protocol message on a live telemetry counter (e.g.
    /// `registry.counter("dist_messages_total")`).
    pub fn with_message_counter(mut self, counter: Arc<dtm_telemetry::Counter>) -> Self {
        self.msg_counter = Some(counter);
        self
    }

    /// Record the protocol's per-transaction decisions
    /// ([`DecisionKind::DistReport`], [`DecisionKind::DistInsert`],
    /// [`DecisionKind::DistActivate`]) into `trace` (the caller keeps the
    /// other `Arc` end).
    pub fn with_decision_trace(mut self, trace: DecisionTraceHandle) -> Self {
        self.decisions = Some(trace);
        self
    }

    /// Leader insertion probes use the stale object positions carried in
    /// each report instead of fresh global state (ablation A5): a
    /// strictly more local model of leader knowledge.
    pub fn with_stale_knowledge(mut self) -> Self {
        self.stale_knowledge = true;
        self
    }

    /// Ablation knob (experiment A3): drop the half-speed rule — objects
    /// move at full speed and scheduling math uses true distances. The
    /// paper's `3d` discovery-catch-up guarantee no longer holds in a real
    /// deployment; in this simulation discovery still works (snapshots),
    /// so the ablation isolates the *price* of the rule.
    pub fn with_full_speed(mut self, network: &Network) -> Self {
        self.doubled = network.clone();
        self
    }

    /// The engine configuration this policy requires: objects at half
    /// speed (the discovery rule of Section V).
    pub fn engine_config() -> EngineConfig {
        EngineConfig {
            speed_divisor: 2,
            ..EngineConfig::default()
        }
    }

    /// The sparse cover in use (for tests / reports).
    pub fn cover(&self) -> &SparseCover {
        &self.cover
    }

    fn bump_messages(&self, by: u64) {
        if let Some(c) = &self.msg_counter {
            c.add(by);
        }
    }
}

impl<A: BatchScheduler> SchedulingPolicy for DistributedBucketPolicy<A> {
    // dtm-lint: hot-path
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        let now = view.now;
        let max_level = *self
            .max_level
            .get_or_insert_with(|| view.network.max_bucket_level());
        self.cache.refresh(view);
        self.conflicts.refresh(view);

        // 1-3. Discovery + report for this step's arrivals.
        let mut order: Vec<TxnId> = arrivals.to_vec(); // dtm-lint: allow(H1) -- O(arrival batch); an empty to_vec does not allocate, so quiet steps stay allocation-free
        order.sort_unstable();
        for id in order {
            let txn = view.live(id).expect("arrival is live").txn.clone(); // dtm-lint: allow(C1, H1) -- engine contract: every id in `arrivals` is live this step; one clone per arrival, absent on quiet steps
                                                                           // Discovery radius x: furthest current object position.
            let x: Time = txn
                .objects()
                .filter_map(|o| {
                    view.object(o)
                        .map(|st| st.effective_distance(view.network, txn.home, now))
                })
                .max()
                .unwrap_or(0);
            // Conflict radius: furthest conflicting live transaction,
            // answered from the incremental conflict cache (the arrival
            // was just folded in by the refresh above).
            let (n_conflicts, conflict_radius) = self
                .conflicts
                .conflict_stats(id)
                .expect("arrival folded by refresh"); // dtm-lint: allow(C1) -- refresh() above caches every live txn, and arrivals are live
            let y = x.max(conflict_radius);
            let layer = self.cover.lowest_covering_layer(y);
            let cluster = self.cover.home_cluster(txn.home, layer);
            let leader = cluster.leader;
            let discovery_delay = 3 * x;
            let report_delay = view.network.distance(txn.home, leader);
            let t_report = now + discovery_delay + report_delay;
            // Messages: discovery round trip per object, one conflict
            // notice per conflicting txn, one report.
            self.bump_messages(2 * txn.k() as u64 + n_conflicts as u64 + 1);
            if let Some(trace) = &self.decisions {
                trace.lock().push(Decision {
                    t: now,
                    txn: txn.id,
                    exec_at: None,
                    kind: DecisionKind::DistReport {
                        layer,
                        cluster: cluster.id.0 as u64,
                        report_latency: t_report - now,
                    },
                });
            }
            let snapshot = txn
                .objects()
                .filter_map(|o| view.object(o).map(|st| (o, st.position(now))))
                .collect(); // dtm-lint: allow(H1) -- per-arrival report snapshot, O(objects per txn)
            self.reporting
                .entry(t_report)
                .or_default()
                .push(PendingReport {
                    txn,
                    cluster: cluster.id,
                    snapshot,
                });
        }

        // 4. Reports that reached their leader by now: partial-bucket
        // insertion (leader-local probe against the doubled network).
        // The batch context re-projects every object position, so build
        // it lazily: on a quiet step (no due report, no bucket
        // activating) nothing below reads it. Partial buckets are never
        // empty, so `activating` exactly predicts whether step 5 has work.
        let due = self
            .reporting
            .first_key_value()
            .is_some_and(|(&t, _)| t <= now);
        let activating = self
            .partials
            .keys()
            .any(|&(i, _)| now.is_multiple_of(1u64 << i));
        if !due && !activating {
            return Schedule::new();
        }
        let mut ctx = self.cache.context(view);
        while let Some(entry) = self.reporting.first_entry() {
            if *entry.key() > now {
                break;
            }
            for report in entry.remove() {
                // Under stale knowledge the probe sees the object
                // positions the report carried, aged to the present.
                let stale = self.stale_knowledge.then(|| {
                    let mut c = ctx.clone(); // dtm-lint: allow(H1) -- stale-knowledge ablation path (A5), one copy per due report
                    for &(o, (node, ready)) in &report.snapshot {
                        c.object_avail.insert(o, (node, ready.max(now)));
                    }
                    c
                });
                let probe_ctx = stale.as_ref().unwrap_or(&ctx);
                let id = report.txn.id;
                let (level, _) = crate::bucket::insert_probe(
                    &mut self.scheduler,
                    &self.doubled,
                    probe_ctx,
                    &mut self.partials,
                    |i| (i, report.cluster),
                    max_level,
                    report.txn,
                );
                if let Some(trace) = &self.decisions {
                    trace.lock().push(Decision {
                        t: now,
                        txn: id,
                        exec_at: None,
                        kind: DecisionKind::DistInsert {
                            level,
                            cluster: report.cluster.0 as u64,
                        },
                    });
                }
            }
        }

        // 5. Activation: all partial i-buckets fire when 2^i divides now.
        // Deterministic serialization: ascending (level, cluster id);
        // each leader sees earlier outputs as fixed. The firing levels
        // are 0..=v2(now), so the firing buckets are a key-order prefix.
        let mut fragment = Schedule::new();
        let mut notices = 0u64;
        while let Some(entry) = self.partials.first_entry() {
            if !now.is_multiple_of(1u64 << entry.key().0) {
                break;
            }
            let (key, bucket) = entry.remove_entry();
            let leader = self.cover.cluster(key.1).leader;
            // Notification latency: the schedule may only start once every
            // member home has heard from the leader.
            let notify: Time = bucket
                .iter()
                .map(|t| view.network.distance(leader, t.home))
                .max()
                .unwrap_or(0);
            notices += bucket.len() as u64;
            ctx.now = now + notify;
            let s = self.scheduler.schedule(&self.doubled, &bucket, &ctx);
            ctx.now = now;
            if let Some(trace) = &self.decisions {
                let mut trace = trace.lock();
                for t in &bucket {
                    trace.push(Decision {
                        t: now,
                        txn: t.id,
                        exec_at: s.get(t.id),
                        kind: DecisionKind::DistActivate {
                            level: key.0,
                            cluster: key.1 .0 as u64,
                            notify,
                        },
                    });
                }
            }
            // The batch joins the fixed context of later leaders; the
            // StepContext truncates these entries when the step ends.
            for t in bucket {
                let at = s.get(t.id).expect("scheduled"); // dtm-lint: allow(C1) -- BatchScheduler contract: schedule() assigns every pending transaction
                ctx.fixed.push((t, at));
            }
            fragment.merge(&s);
        }
        drop(ctx);
        if notices > 0 {
            self.bump_messages(notices);
        }
        fragment
    }

    fn name(&self) -> String {
        format!("distributed-bucket({})", self.scheduler.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;
    use dtm_model::{
        ClosedLoopSource, FiniteArrivals, ObjectChoice, TraceSource, WorkloadGenerator,
        WorkloadSpec,
    };
    use dtm_offline::ListScheduler;
    use dtm_sim::{run_policy, validate_events, ValidationConfig};

    fn dist_validation() -> ValidationConfig {
        ValidationConfig {
            speed_divisor: 2,
            ..ValidationConfig::default()
        }
    }

    #[test]
    fn doubled_network_doubles_distances() {
        let net = topology::line(8);
        let d = double_weights(&net);
        assert_eq!(d.distance(dtm_graph::NodeId(0), dtm_graph::NodeId(5)), 10);
        assert_eq!(d.diameter(), 14);
    }

    #[test]
    fn batch_on_line_runs_clean() {
        let net = topology::line(12);
        let inst = WorkloadGenerator::new(WorkloadSpec::batch_uniform(4, 2), 3).generate(&net);
        let n = inst.num_txns();
        let policy = DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 1);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            policy,
            DistributedBucketPolicy::<ListScheduler>::engine_config(),
        );
        res.expect_ok();
        validate_events(&net, &res, &dist_validation()).unwrap();
        assert_eq!(res.metrics.committed, n);
    }

    #[test]
    fn online_arrivals_on_grid_run_clean() {
        let net = topology::grid(&[4, 4]);
        let spec = WorkloadSpec {
            num_objects: 5,
            k: 2,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bernoulli {
                rate: 0.15,
                horizon: 12,
            },
        };
        let inst = WorkloadGenerator::new(spec, 5).generate(&net);
        let n = inst.num_txns();
        let trace = dtm_telemetry::decision_trace();
        let messages = Arc::new(dtm_telemetry::Counter::default());
        let policy = DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 2)
            .with_decision_trace(Arc::clone(&trace))
            .with_message_counter(Arc::clone(&messages));
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            policy,
            DistributedBucketPolicy::<ListScheduler>::engine_config(),
        );
        res.expect_ok();
        validate_events(&net, &res, &dist_validation()).unwrap();
        assert_eq!(res.metrics.committed, n);
        if n > 0 {
            assert!(messages.get() > 0, "protocol must exchange messages");
            let inserts = trace
                .lock()
                .decisions
                .iter()
                .filter(|d| matches!(d.kind, DecisionKind::DistInsert { .. }))
                .count();
            assert_eq!(inserts, n);
        }
    }

    #[test]
    fn closed_loop_star_runs_clean() {
        let net = topology::star(3, 3);
        let src = ClosedLoopSource::new(net.clone(), WorkloadSpec::batch_uniform(4, 2), 2, 7);
        let policy = DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 3);
        let res = run_policy(
            &net,
            src,
            policy,
            DistributedBucketPolicy::<ListScheduler>::engine_config(),
        );
        res.expect_ok();
        validate_events(&net, &res, &dist_validation()).unwrap();
        assert_eq!(res.metrics.committed, 20);
    }

    #[test]
    fn reports_go_to_covering_layers() {
        // A transaction with a far object must report to a high layer.
        let net = topology::line(32);
        use dtm_graph::NodeId;
        use dtm_model::{Instance, ObjectId, ObjectInfo};
        let inst = Instance::new(
            vec![
                ObjectInfo {
                    id: ObjectId(0),
                    origin: NodeId(0),
                    created_at: 0,
                },
                ObjectInfo {
                    id: ObjectId(1),
                    origin: NodeId(16),
                    created_at: 0,
                },
            ],
            vec![
                Transaction::new(TxnId(0), NodeId(31), [ObjectId(0)], 0), // far: y >= 31
                Transaction::new(TxnId(1), NodeId(17), [ObjectId(1)], 0), // near: y small
            ],
        );
        let trace = dtm_telemetry::decision_trace();
        let policy = DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 4)
            .with_decision_trace(Arc::clone(&trace));
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            policy,
            DistributedBucketPolicy::<ListScheduler>::engine_config(),
        );
        res.expect_ok();
        let layers: std::collections::BTreeSet<u32> = trace
            .lock()
            .decisions
            .iter()
            .filter_map(|d| match d.kind {
                DecisionKind::DistReport { layer, .. } => Some(layer),
                _ => None,
            })
            .collect();
        assert!(layers.len() >= 2, "far and near txns use different layers");
        assert!(*layers.last().unwrap() >= 5); // 2^5 - 1 = 31 covers y=31
    }
}
