//! Message-level implementation of Algorithm 3 — the distributed bucket
//! schedule with **strictly node-local knowledge**.
//!
//! Where [`crate::distributed`] simulates the protocol's *timing* against
//! global state, this module exchanges actual messages:
//!
//! * a new transaction knows only its objects' **origins** (static
//!   creation metadata); it sends a `Find` toward each origin, and the
//!   message **chases** the object along its forwarding trail (the
//!   paper's "we can track objects in transit by reaching the node that
//!   the object departs from"). The policy folds that trail itself from
//!   the departures the engine publishes each step. Messages travel at
//!   full speed, objects at half speed (engine `speed_divisor = 2`), so
//!   every chase converges;
//! * each object carries a registry of the transactions that requested it
//!   (the paper: "the object carries the information of all the
//!   transaction locations that will use it"); a `FindReply` returns the
//!   object's position and that registry, from which the transaction
//!   computes its dependency radius `y`;
//! * the transaction reports to the leader of its lowest covering home
//!   cluster; the leader's bucket probe and batch scheduling use **only**
//!   information carried by reports plus the leader's own past decisions;
//! * leader knowledge is inevitably stale, so assigned execution times
//!   are *targets*: the engine runs with `allow_late_execution` and
//!   transactions commit as soon as their objects assemble at or after
//!   the target (the behaviour of a practical DTM). Experiment E16
//!   measures the price of locality against the idealized Algorithm 3.

use dtm_graph::{ClusterId, Network, NodeId, SparseCover, Weight};
use dtm_model::{ObjectId, Schedule, Time, Transaction, TxnId};
use dtm_offline::{BatchContext, BatchScheduler};
use dtm_sim::{EngineConfig, SchedulingPolicy, SystemView};
use dtm_telemetry::{Decision, DecisionKind, DecisionTraceHandle};
use std::collections::BTreeMap;
use std::sync::Arc;

/// In-flight protocol messages.
#[derive(Clone, Debug)]
enum Msg {
    /// Chasing `object` on behalf of `txn`; currently heading to `target`.
    Find {
        txn: TxnId,
        object: ObjectId,
        reply_to: NodeId,
        target: NodeId,
    },
    /// The object was caught: position and its requester registry.
    FindReply {
        txn: TxnId,
        object: ObjectId,
        position: NodeId,
        users: Vec<(TxnId, NodeId)>,
    },
    /// Transaction reports to its cluster leader.
    Report {
        txn_id: TxnId,
        cluster: ClusterId,
        /// Carried object positions (as discovered).
        carried: CarriedInfo,
    },
}

/// Object positions carried by a report: `(object, position)` pairs.
type CarriedInfo = Vec<(ObjectId, NodeId)>;

/// A transaction mid-discovery at its home node.
#[derive(Clone, Debug)]
struct Discovery {
    txn: Transaction,
    started_at: Time,
    awaiting: usize,
    // dtm-lint: bounded -- one entry per object the txn touches, fixed at arrival
    positions: Vec<(ObjectId, NodeId)>,
    // dtm-lint: bounded -- one entry per discovered conflicting requester, dropped with the Discovery
    conflict_homes: Vec<NodeId>,
}

/// Message-level Algorithm 3.
///
/// **Boundedness (open-system audit).** `inbox`, `discovering`,
/// `reported` and `partials` drain as the protocol advances;
/// `object_users` registries are pruned to live requesters whenever a
/// `Find` catches its object, and `leader_fixed` retains only live
/// transactions (top of `step`). State is O(live set + in-flight
/// messages), plus the forwarding `trail`'s one pointer per (object,
/// node) pair — O(objects × nodes), independent of run length — so it is
/// safe for indefinite streaming runs.
#[derive(Clone)]
pub struct DistributedMsgPolicy<A> {
    scheduler: A,
    cover: SparseCover,
    /// Doubled-weight copy for scheduling math under half-speed objects.
    doubled: Network,
    max_level: Option<u32>,
    // dtm-lint: bounded -- in-flight messages; every entry with key <= now drains each step
    inbox: BTreeMap<Time, Vec<Msg>>,
    // dtm-lint: bounded -- entries leave when the last FindReply lands and the Report is sent
    discovering: BTreeMap<TxnId, Discovery>,
    /// Transactions whose report is in flight, awaiting leader pickup.
    // dtm-lint: bounded -- entries leave when the leader picks the report into a partial bucket
    reported: BTreeMap<TxnId, Transaction>,
    /// Registry carried by each object (requesters seen by `Find`s).
    // dtm-lint: bounded -- registries pruned to live requesters whenever a Find catches its object
    object_users: BTreeMap<ObjectId, Vec<(TxnId, NodeId)>>,
    /// Partial buckets: (level, cluster) -> members with carried info.
    // dtm-lint: bounded -- parked transactions only; each partial bucket drains at activation
    partials: BTreeMap<(u32, ClusterId), Vec<(Transaction, CarriedInfo)>>,
    /// Each leader's own past scheduling decisions (local knowledge).
    // dtm-lint: bounded -- retained entries filtered to live transactions at the top of step()
    leader_fixed: BTreeMap<ClusterId, Vec<(Transaction, Time)>>,
    /// Node-local forwarding pointers: where each node last sent each
    /// object, folded from [`dtm_sim::StepEffects::departed`] at the top
    /// of `step`. Never removed: a request chasing an object must be able
    /// to follow the trail from any node the object ever left.
    // dtm-lint: bounded -- one pointer per (object, node) pair, overwritten in place at the top of step()
    trail: BTreeMap<(ObjectId, NodeId), NodeId>,
    decisions: Option<DecisionTraceHandle>,
    /// Live protocol-message counter (telemetry registry handle).
    msg_counter: Option<Arc<dtm_telemetry::Counter>>,
}

fn double_weights(network: &Network) -> Network {
    let g = network.graph();
    let mut out = dtm_graph::Graph::new(g.n(), format!("{}-halfspeed", g.name()));
    for (u, v, w) in g.edges() {
        out.add_edge(u, v, 2 * w).expect("copying a valid graph"); // dtm-lint: allow(C1) -- copying the edges of an already-validated graph into a fresh one
    }
    Network::new(out, None)
}

impl<A: BatchScheduler> DistributedMsgPolicy<A> {
    /// Build the policy (cover deterministic in `seed`).
    pub fn new(network: &Network, scheduler: A, seed: u64) -> Self {
        DistributedMsgPolicy {
            scheduler,
            cover: SparseCover::build(network, seed),
            doubled: double_weights(network),
            max_level: None,
            inbox: BTreeMap::new(),
            discovering: BTreeMap::new(),
            reported: BTreeMap::new(),
            object_users: BTreeMap::new(),
            partials: BTreeMap::new(),
            leader_fixed: BTreeMap::new(),
            trail: BTreeMap::new(),
            decisions: None,
            msg_counter: None,
        }
    }

    /// Record the protocol's per-transaction decisions
    /// ([`DecisionKind::DistChase`], [`DecisionKind::DistReport`],
    /// [`DecisionKind::DistInsert`], [`DecisionKind::DistActivate`]) into
    /// `trace` (the caller keeps the other `Arc` end).
    pub fn with_decision_trace(mut self, trace: DecisionTraceHandle) -> Self {
        self.decisions = Some(trace);
        self
    }

    /// Count every protocol message on a live telemetry counter (e.g.
    /// `registry.counter("dist_messages_total")`).
    pub fn with_message_counter(mut self, counter: Arc<dtm_telemetry::Counter>) -> Self {
        self.msg_counter = Some(counter);
        self
    }

    /// Engine configuration this protocol requires: half-speed objects
    /// (Section V) and late execution (leader knowledge is stale, so
    /// assigned times are targets, not guarantees).
    pub fn engine_config() -> EngineConfig {
        EngineConfig {
            speed_divisor: 2,
            allow_late_execution: true,
            ..EngineConfig::default()
        }
    }

    /// Number of (object, node) pairs holding a forwarding pointer.
    pub fn trail_len(&self) -> usize {
        self.trail.len()
    }

    fn record(&self, t: Time, txn: TxnId, exec_at: Option<Time>, kind: DecisionKind) {
        if let Some(trace) = &self.decisions {
            trace.lock().push(Decision {
                t,
                txn,
                exec_at,
                kind,
            });
        }
    }

    fn send(&mut self, at: Time, msg: Msg) {
        if let Some(c) = &self.msg_counter {
            c.inc();
        }
        self.inbox.entry(at).or_default().push(msg);
    }

    /// Process one delivered message; may send follow-ups (same step if
    /// distance 0) and returns a schedule fragment when a report triggers
    /// nothing — fragments come from activations only.
    fn deliver(&mut self, view: &SystemView<'_>, msg: Msg) {
        let now = view.now;
        match msg {
            Msg::Find {
                txn,
                object,
                reply_to,
                target,
            } => {
                // Is the object resting at this node right now?
                let resting_here = matches!(
                    view.object(object).map(|st| st.place),
                    Some(dtm_sim::ObjectPlace::At(v)) if v == target
                );
                if resting_here {
                    // Caught: register the requester on the object and
                    // reply with the registry. Requesters that have
                    // retired no longer conflict, so drop them first —
                    // this keeps each registry bounded by the live set
                    // instead of growing with every requester ever seen
                    // (the open-system boundedness requirement).
                    let home = reply_to;
                    let users = self.object_users.entry(object).or_default();
                    users.retain(|&(id, _)| view.live(id).is_some());
                    let registry: Vec<(TxnId, NodeId)> = users.clone();
                    if !users.iter().any(|&(id, _)| id == txn) {
                        users.push((txn, home));
                    }
                    let dist = view.network.distance(target, reply_to);
                    self.send(
                        now + dist,
                        Msg::FindReply {
                            txn,
                            object,
                            position: target,
                            users: registry,
                        },
                    );
                    return;
                }
                // Follow this node's forwarding pointer — strictly local
                // knowledge ("reach the node that the object departs
                // from", §V). Pointers record the *last* departure, so the
                // chase follows a time-monotone subsequence of the
                // object's path and converges.
                self.record(now, txn, None, DecisionKind::DistChase { object });
                if let Some(&next) = self.trail.get(&(object, target)) {
                    let dist = view.network.distance(target, next).max(1);
                    self.send(
                        now + dist,
                        Msg::Find {
                            txn,
                            object,
                            reply_to,
                            target: next,
                        },
                    );
                } else {
                    // No pointer: the object has never departed from this
                    // node — it is inbound (or not yet created). Wait a
                    // step and retry here.
                    self.send(
                        now + 1,
                        Msg::Find {
                            txn,
                            object,
                            reply_to,
                            target,
                        },
                    );
                }
            }
            Msg::FindReply {
                txn,
                object,
                position,
                users,
            } => {
                let Some(d) = self.discovering.get_mut(&txn) else {
                    return; // transaction already reported (duplicate reply)
                };
                d.positions.push((object, position));
                d.conflict_homes.extend(users.iter().map(|&(_, home)| home));
                d.awaiting -= 1;
                if d.awaiting == 0 {
                    if let Some(d) = self.discovering.remove(&txn) {
                        self.finish_discovery(view, d);
                    }
                }
            }
            Msg::Report {
                txn_id,
                cluster,
                carried,
            } => {
                self.insert_partial(view, txn_id, cluster, carried);
            }
        }
    }

    /// Discovery complete: compute the dependency radius, pick the home
    /// cluster, send the report.
    fn finish_discovery(&mut self, view: &SystemView<'_>, d: Discovery) {
        let now = view.now;
        let home = d.txn.home;
        let y: Weight = d
            .positions
            .iter()
            .map(|&(_, pos)| view.network.distance(home, pos))
            .chain(
                d.conflict_homes
                    .iter()
                    .map(|&h| view.network.distance(home, h)),
            )
            .max()
            .unwrap_or(0);
        let layer = self.cover.lowest_covering_layer(y);
        let cluster = self.cover.home_cluster(home, layer);
        let leader = cluster.leader;
        let dist = view.network.distance(home, leader);
        let cluster_id = cluster.id;
        let txn_id = d.txn.id;
        self.record(
            now,
            txn_id,
            None,
            DecisionKind::DistReport {
                layer,
                cluster: cluster_id.0 as u64,
                report_latency: now + dist - d.started_at,
            },
        );
        self.send(
            now + dist,
            Msg::Report {
                txn_id,
                cluster: cluster_id,
                carried: d.positions,
            },
        );
        // The transaction itself rides along with the report.
        self.reported.insert(txn_id, d.txn);
    }

    /// Leader-side partial bucket insertion using only carried knowledge.
    fn insert_partial(
        &mut self,
        view: &SystemView<'_>,
        txn_id: TxnId,
        cluster: ClusterId,
        carried: CarriedInfo,
    ) {
        let max_level = self.max_level.expect("set in step"); // dtm-lint: allow(C1) -- set unconditionally at the top of step() before any insert
        let Some(txn) = self.reported.remove(&txn_id) else {
            return;
        };
        let now = view.now;
        // Leader-local context: carried positions (aged to now) + the
        // leader's own fixed decisions. Nothing global.
        let mut ctx = BatchContext {
            now,
            object_avail: carried.iter().map(|&(o, v)| (o, (v, now))).collect(),
            fixed: self.leader_fixed.get(&cluster).cloned().unwrap_or_default(),
        };
        // Bucket members' carried info also feeds the probe.
        let mut chosen = None;
        for i in 0..=max_level {
            let members = self
                .partials
                .get(&(i, cluster))
                .cloned()
                .unwrap_or_default();
            let mut probe: Vec<Transaction> = members.iter().map(|(t, _)| t.clone()).collect();
            for (_, info) in &members {
                for &(o, v) in info {
                    ctx.object_avail.entry(o).or_insert((v, now));
                }
            }
            probe.push(txn.clone());
            let f = self.scheduler.makespan(&self.doubled, &probe, &ctx);
            if f <= 1u64 << i {
                chosen = Some(i);
                break;
            }
        }
        let level = chosen.unwrap_or(max_level);
        self.record(
            now,
            txn.id,
            None,
            DecisionKind::DistInsert {
                level,
                cluster: cluster.0 as u64,
            },
        );
        self.partials
            .entry((level, cluster))
            .or_default()
            .push((txn, carried));
    }
}

impl<A: BatchScheduler> SchedulingPolicy for DistributedMsgPolicy<A> {
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        let now = view.now;
        let max_level = *self
            .max_level
            .get_or_insert_with(|| view.network.max_bucket_level());
        let _ = max_level;

        // Extend the trail with every departure since the last call; the
        // engine calls `step` once per tick, so this sees each departure.
        for d in &view.step_effects().departed {
            self.trail.insert((d.object, d.from), d.to);
        }

        // Leaders forget decisions whose transactions have retired: the
        // fixed context's contract is "already-scheduled, *uncommitted*"
        // ([`BatchContext::fixed`]), and without this each leader's
        // history grows with every transaction it ever scheduled —
        // unbounded under open-system arrival streams.
        self.leader_fixed.retain(|_, fixed| {
            fixed.retain(|(t, _)| view.live(t.id).is_some());
            !fixed.is_empty()
        });

        let mut fragment = Schedule::new();

        // New arrivals start discovery toward each object's ORIGIN — the
        // only location knowledge a fresh transaction has.
        let mut order: Vec<TxnId> = arrivals.to_vec();
        order.sort_unstable();
        for id in order {
            let txn = view.live(id).expect("arrival is live").txn.clone(); // dtm-lint: allow(C1) -- engine contract: every id in `arrivals` is live this step
            if txn.k() == 0 {
                fragment.set(id, now); // nothing to assemble
                continue;
            }
            let home = txn.home;
            let objects: Vec<ObjectId> = txn.objects().collect();
            self.discovering.insert(
                id,
                Discovery {
                    txn,
                    started_at: now,
                    awaiting: objects.len(),
                    positions: Vec::new(),
                    conflict_homes: Vec::new(),
                },
            );
            for o in objects {
                let origin = view.object(o).map(|st| st.info.origin).unwrap_or(home);
                self.send(
                    now + view.network.distance(home, origin),
                    Msg::Find {
                        txn: id,
                        object: o,
                        reply_to: home,
                        target: origin,
                    },
                );
            }
        }

        // Deliver due messages; same-step cascades (distance-0 legs) drain
        // in the loop. Each cascade strictly advances a protocol phase, so
        // this terminates.
        loop {
            let due: Vec<Time> = self.inbox.range(..=now).map(|(&t, _)| t).collect();
            if due.is_empty() {
                break;
            }
            for t in due {
                for msg in self.inbox.remove(&t).unwrap_or_default() {
                    self.deliver(view, msg);
                }
            }
        }

        // Activations: every partial i-bucket fires when 2^i divides now.
        let keys: Vec<(u32, ClusterId)> = self
            .partials
            .keys()
            .filter(|(i, _)| now.is_multiple_of(1u64 << i))
            .copied()
            .collect();
        for key in keys {
            let members = self.partials.remove(&key).unwrap_or_default();
            if members.is_empty() {
                continue;
            }
            let leader = self.cover.cluster(key.1).leader;
            let notify: Time = members
                .iter()
                .map(|(t, _)| view.network.distance(leader, t.home))
                .max()
                .unwrap_or(0);
            if let Some(c) = &self.msg_counter {
                c.add(members.len() as u64);
            }
            // Leader-local context from carried info + own history.
            let mut ctx = BatchContext {
                now: now + notify,
                object_avail: BTreeMap::new(),
                fixed: self.leader_fixed.get(&key.1).cloned().unwrap_or_default(),
            };
            for (_, info) in &members {
                for &(o, v) in info {
                    ctx.object_avail.entry(o).or_insert((v, now));
                }
            }
            let bucket: Vec<Transaction> = members.iter().map(|(t, _)| t.clone()).collect();
            let s = self.scheduler.schedule(&self.doubled, &bucket, &ctx);
            for t in &bucket {
                self.record(
                    now,
                    t.id,
                    s.get(t.id),
                    DecisionKind::DistActivate {
                        level: key.0,
                        cluster: key.1 .0 as u64,
                        notify,
                    },
                );
            }
            let fixed = self.leader_fixed.entry(key.1).or_default();
            for t in &bucket {
                fixed.push((t.clone(), s.get(t.id).expect("scheduled"))); // dtm-lint: allow(C1) -- BatchScheduler contract: schedule() assigns every pending transaction
            }
            fragment.merge(&s);
        }
        fragment
    }

    fn name(&self) -> String {
        format!("distributed-msg({})", self.scheduler.name())
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

    fn cfg() -> EngineConfig {
        DistributedMsgPolicy::<ListScheduler>::engine_config()
    }

    fn vcfg() -> ValidationConfig {
        ValidationConfig {
            speed_divisor: 2,
            allow_late_execution: true,
            ..ValidationConfig::default()
        }
    }

    #[test]
    fn batch_on_grid_completes_and_validates() {
        let net = topology::grid(&[4, 4]);
        let inst = WorkloadGenerator::new(WorkloadSpec::batch_uniform(8, 2), 3).generate(&net);
        let n = inst.num_txns();
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 5),
            cfg(),
        );
        res.expect_ok();
        validate_events(&net, &res, &vcfg()).unwrap();
        assert_eq!(res.metrics.committed, n);
    }

    #[test]
    fn online_arrivals_on_line_complete() {
        let net = topology::line(16);
        let spec = WorkloadSpec {
            num_objects: 6,
            k: 2,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bernoulli {
                rate: 0.1,
                horizon: 16,
            },
        };
        let inst = WorkloadGenerator::new(spec, 7).generate(&net);
        let n = inst.num_txns();
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 2),
            cfg(),
        );
        res.expect_ok();
        validate_events(&net, &res, &vcfg()).unwrap();
        assert_eq!(res.metrics.committed, n);
    }

    #[test]
    fn closed_loop_star_completes_with_message_accounting() {
        let net = topology::star(3, 3);
        let trace = dtm_telemetry::decision_trace();
        let messages = Arc::new(dtm_telemetry::Counter::default());
        let src = ClosedLoopSource::new(net.clone(), WorkloadSpec::batch_uniform(4, 2), 2, 9);
        let expected = src.total_txns();
        let res = run_policy(
            &net,
            src,
            DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 4)
                .with_decision_trace(Arc::clone(&trace))
                .with_message_counter(Arc::clone(&messages)),
            cfg(),
        );
        res.expect_ok();
        validate_events(&net, &res, &vcfg()).unwrap();
        assert_eq!(res.metrics.committed, expected);
        let trace = trace.lock();
        let count = |tag: &str| {
            trace
                .decisions
                .iter()
                .filter(|d| d.kind.tag() == tag)
                .count()
        };
        assert_eq!(count("dist-insert"), expected);
        assert_eq!(count("dist-report"), expected);
        assert_eq!(count("dist-activate"), expected);
        // Each txn needs >= 2 finds + 2 replies + 1 report = 5 messages.
        assert!(messages.get() >= expected as u64 * 5);
    }

    #[test]
    fn find_message_follows_forwarding_trail() {
        // Unit-level: the Find consults only the current node's
        // forwarding pointer — never the object's global position.
        use dtm_model::ObjectInfo;
        use dtm_sim::{ObjectPlace, ObjectState};
        let net = topology::line(12);
        let trace = dtm_telemetry::decision_trace();
        let mut policy = DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 1)
            .with_decision_trace(Arc::clone(&trace));
        policy.max_level = Some(net.max_bucket_level());

        let object = ObjectState {
            info: ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            },
            // In flight n4 -> n5, arriving at t=12.
            place: ObjectPlace::Hop {
                from: NodeId(4),
                next: NodeId(5),
                arrive: 12,
            },
            last_holder: None,
        };
        let state = crate::state_of([], [object.clone()]);
        // The object's trail so far: 0 -> 4 (a shortcut standing in for
        // the last departures), 4 -> 5.
        policy.trail.insert((ObjectId(0), NodeId(0)), NodeId(4));
        policy.trail.insert((ObjectId(0), NodeId(4)), NodeId(5));
        let view = SystemView::from_state(10, &net, &state);
        policy.deliver(
            &view,
            Msg::Find {
                txn: TxnId(7),
                object: ObjectId(0),
                reply_to: NodeId(0),
                target: NodeId(0), // stale: the origin
            },
        );
        // Followed the pointer at n0 toward n4: arrives t = 10 + 4.
        let chases = |trace: &dtm_telemetry::DecisionTrace| {
            trace
                .decisions
                .iter()
                .filter(|d| {
                    d.kind
                        == DecisionKind::DistChase {
                            object: ObjectId(0),
                        }
                })
                .count()
        };
        assert_eq!(chases(&trace.lock()), 1);
        let queued = policy.inbox.remove(&14).expect("forwarded find queued");
        assert!(matches!(
            queued[0],
            Msg::Find {
                target: NodeId(4),
                ..
            }
        ));
        // At n4 (t=14): object still not resting there; pointer says n5.
        let view = SystemView::from_state(14, &net, &state);
        policy.deliver(&view, queued.into_iter().next().unwrap());
        let queued = policy.inbox.remove(&15).expect("next leg queued");
        assert!(matches!(
            queued[0],
            Msg::Find {
                target: NodeId(5),
                ..
            }
        ));
        // At n5 the object now rests: caught, registered, reply queued for
        // t = 15 + dist(5, 0) = 20.
        let state = crate::state_of(
            [],
            [ObjectState {
                place: ObjectPlace::At(NodeId(5)),
                ..object
            }],
        );
        let view = SystemView::from_state(15, &net, &state);
        policy.deliver(&view, queued.into_iter().next().unwrap());
        assert_eq!(chases(&trace.lock()), 2, "the catch is not a chase");
        assert_eq!(
            policy.object_users[&ObjectId(0)],
            vec![(TxnId(7), NodeId(0))]
        );
        assert!(policy.inbox.contains_key(&20));
    }

    #[test]
    fn find_waits_when_object_inbound() {
        // No pointer at the node and the object not resting there: the
        // message waits a step (the object is on its way in).
        use dtm_model::ObjectInfo;
        use dtm_sim::{ObjectPlace, ObjectState};
        let net = topology::line(6);
        let mut policy = DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 1);
        policy.max_level = Some(net.max_bucket_level());
        let state = crate::state_of(
            [],
            [ObjectState {
                info: ObjectInfo {
                    id: ObjectId(0),
                    origin: NodeId(2),
                    created_at: 0,
                },
                place: ObjectPlace::Hop {
                    from: NodeId(1),
                    next: NodeId(2),
                    arrive: 9,
                },
                last_holder: None,
            }],
        );
        let view = SystemView::from_state(8, &net, &state);
        policy.deliver(
            &view,
            Msg::Find {
                txn: TxnId(1),
                object: ObjectId(0),
                reply_to: NodeId(5),
                target: NodeId(2),
            },
        );
        // Retry queued at t+1 for the same node.
        let queued = policy.inbox.remove(&9).expect("retry queued");
        assert!(matches!(
            queued[0],
            Msg::Find {
                target: NodeId(2),
                ..
            }
        ));
    }

    #[test]
    fn deterministic() {
        let net = topology::grid(&[4, 4]);
        let mk = || {
            let src = ClosedLoopSource::new(net.clone(), WorkloadSpec::batch_uniform(6, 2), 1, 3);
            run_policy(
                &net,
                src,
                DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 11),
                cfg(),
            )
        };
        let (a, b) = (mk(), mk());
        a.expect_ok();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.commits, b.commits);
    }
}
