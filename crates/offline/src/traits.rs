//! The [`BatchScheduler`] abstraction, scheduling context, and the
//! independent feasibility validator for batch schedules.

use dtm_graph::{Network, NodeId, Weight};
use dtm_model::{ObjectId, Schedule, Time, Transaction, TxnId};
use std::collections::BTreeMap;

/// Everything a batch scheduler may assume about the world at `now`:
/// where each object is (or will be) available, and which transactions
/// already have immutable execution times (the paper's `T_t^s`).
#[derive(Clone, Debug, Default)]
pub struct BatchContext {
    /// Current time.
    pub now: Time,
    /// For each object: `(node, ready_time)` — the earliest time and place
    /// from which it can start moving (in-transit objects project to their
    /// next hop at its arrival time, matching `H'_t`).
    pub object_avail: BTreeMap<ObjectId, (NodeId, Time)>,
    /// Already-scheduled, uncommitted transactions with their fixed
    /// execution times. New schedules must not disturb these.
    pub fixed: Vec<(Transaction, Time)>,
}

impl BatchContext {
    /// A fresh context at time 0 with objects at their given positions and
    /// no fixed transactions.
    pub fn fresh(object_positions: impl IntoIterator<Item = (ObjectId, NodeId)>) -> Self {
        BatchContext {
            now: 0,
            object_avail: object_positions
                .into_iter()
                .map(|(o, v)| (o, (v, 0)))
                .collect(),
            fixed: Vec::new(),
        }
    }
}

/// One object's entry in the release frontier: the node it is released
/// at, the time it is ready there, and whether a transaction has used it
/// (a handoff from a used object pays the >= 1 serialization gap even at
/// distance 0, see [`handoff_gap`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Release {
    pub(crate) node: NodeId,
    pub(crate) ready: Time,
    pub(crate) used: bool,
}

impl Release {
    /// Released at `node` from `ready`, with no transactional user yet.
    fn unused(node: NodeId, ready: Time) -> Self {
        Release {
            node,
            ready,
            used: false,
        }
    }
}

/// The release frontier after the fixed transactions of `ctx` execute,
/// as a flat object-sorted vector: fold each object's fixed users in
/// execution order (the paper's first basic modification — new
/// transactions are appended after the already scheduled ones).
pub(crate) fn release_frontier(network: &Network, ctx: &BatchContext) -> Vec<(ObjectId, Release)> {
    let mut frontier: Vec<(ObjectId, Release)> = ctx
        .object_avail
        .iter()
        .map(|(&o, &(node, ready))| (o, Release::unused(node, ready)))
        .collect();
    let mut fixed: Vec<&(Transaction, Time)> = ctx.fixed.iter().collect();
    fixed.sort_by_key(|(t, time)| (*time, t.id));
    for &(ref txn, exec) in fixed {
        for o in txn.objects() {
            let i = match frontier.binary_search_by_key(&o, |&(o, _)| o) {
                Ok(i) => i,
                Err(i) => {
                    frontier.insert(i, (o, Release::unused(txn.home, exec)));
                    i
                }
            };
            let r = &mut frontier[i].1;
            let travel = network.distance(r.node, txn.home);
            // If the fixed schedule is feasible, exec >= ready + travel;
            // take max defensively so release projections never go back in
            // time.
            r.ready = (r.ready + travel).max(exec);
            r.node = txn.home;
            r.used = true;
        }
    }
    frontier
}

/// Project object availability *after* the fixed transactions execute:
/// fold each object's fixed users in execution order (the paper's first
/// basic modification). A map view of the same release frontier the list
/// schedulers fold over.
pub fn object_release(network: &Network, ctx: &BatchContext) -> BTreeMap<ObjectId, (NodeId, Time)> {
    release_frontier(network, ctx)
        .into_iter()
        .map(|(o, r)| (o, (r.node, r.ready)))
        .collect()
}

/// An offline batch scheduling algorithm `𝒜`.
///
/// Contract: the returned schedule must
/// * cover exactly the `pending` transactions,
/// * assign times `>= ctx.now`,
/// * be *feasible* together with `ctx.fixed` under the data-flow model
///   ([`validate_batch_schedule`] is the oracle), and
/// * leave `ctx.fixed` untouched (times are simply not part of the output).
pub trait BatchScheduler {
    /// Compute execution times for `pending`.
    fn schedule(
        &mut self,
        network: &Network,
        pending: &[Transaction],
        ctx: &BatchContext,
    ) -> Schedule;

    /// `F_𝒜(X)`: the time to execute all of `pending` (relative to
    /// `ctx.now`) under this scheduler, given the fixed context. Used by
    /// the bucket algorithm's insertion probe.
    fn makespan(&mut self, network: &Network, pending: &[Transaction], ctx: &BatchContext) -> Time {
        let s = self.schedule(network, pending, ctx);
        s.makespan_end().map_or(0, |end| end - ctx.now)
    }

    /// Scheduler name for reports.
    fn name(&self) -> String;
}

/// The minimum time gap between two consecutive users of an object.
///
/// Distinct homes pay the shortest-path distance; a handoff between two
/// transactions at the *same* node still needs one step of serialization
/// (exclusive access, enforced by the execution engine).
pub fn handoff_gap(network: &Network, from: NodeId, to: NodeId) -> Weight {
    network.distance(from, to).max(1)
}

/// Independently verify that `schedule` (for `pending`) is feasible given
/// `ctx`: every object can physically reach each of its users in time,
/// in ascending execution order, starting from its availability point.
///
/// Returns the per-object order of users on success.
pub fn validate_batch_schedule(
    network: &Network,
    pending: &[Transaction],
    ctx: &BatchContext,
    schedule: &Schedule,
) -> Result<BTreeMap<ObjectId, Vec<TxnId>>, String> {
    // Coverage.
    for t in pending {
        let Some(time) = schedule.get(t.id) else {
            return Err(format!("{} not scheduled", t.id));
        };
        if time < ctx.now {
            return Err(format!("{} scheduled at {time} < now {}", t.id, ctx.now));
        }
        if time < t.generated_at {
            return Err(format!("{} scheduled before generation", t.id));
        }
    }
    if schedule.len() != pending.len() {
        return Err(format!(
            "schedule covers {} txns, expected {}",
            schedule.len(),
            pending.len()
        ));
    }

    // Combined timeline: fixed + pending, per object, by execution time.
    struct User {
        txn: TxnId,
        home: NodeId,
        exec: Time,
    }
    let mut per_object: BTreeMap<ObjectId, Vec<User>> = BTreeMap::new();
    for (txn, exec) in ctx
        .fixed
        .iter()
        .map(|(t, e)| (t, *e))
        // dtm-lint: allow(C1) -- list_schedule assigned every pending transaction just above
        .chain(pending.iter().map(|t| (t, schedule.get(t.id).unwrap())))
    {
        for o in txn.objects() {
            per_object.entry(o).or_default().push(User {
                txn: txn.id,
                home: txn.home,
                exec,
            });
        }
    }

    let mut orders = BTreeMap::new();
    for (o, mut users) in per_object {
        users.sort_by_key(|u| (u.exec, u.txn));
        // Consecutive users at the same time sharing an object: invalid.
        for pair in users.windows(2) {
            if pair[0].exec == pair[1].exec {
                return Err(format!(
                    "{} and {} both execute at {} sharing {o}",
                    pair[0].txn, pair[1].txn, pair[0].exec
                ));
            }
        }
        let (mut node, mut ready) = ctx
            .object_avail
            .get(&o)
            .copied()
            .ok_or_else(|| format!("object {o} has no availability info"))?;
        let mut first = true;
        for u in &users {
            let gap = if first {
                network.distance(node, u.home)
            } else {
                handoff_gap(network, node, u.home)
            };
            if u.exec < ready + gap {
                return Err(format!(
                    "{} at {} cannot receive {o} from {node} (ready {ready}, \
                     distance {gap})",
                    u.txn, u.exec
                ));
            }
            node = u.home;
            ready = u.exec;
            first = false;
        }
        orders.insert(o, users.iter().map(|u| u.txn).collect());
    }
    Ok(orders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;

    fn txn(id: u64, home: u32, objs: &[u32]) -> Transaction {
        Transaction::new(
            TxnId(id),
            NodeId(home),
            objs.iter().map(|&o| ObjectId(o)),
            0,
        )
    }

    #[test]
    fn object_release_folds_fixed() {
        let net = topology::line(6);
        let mut ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        ctx.fixed = vec![(txn(0, 3, &[0]), 3), (txn(1, 5, &[0]), 5)];
        let rel = object_release(&net, &ctx);
        // After T0 at n3 (t=3), the hop to n5 needs 2 steps but T1 is fixed
        // at 5: release is (n5, 5).
        assert_eq!(rel[&ObjectId(0)], (NodeId(5), 5));
    }

    #[test]
    fn object_release_defensive_max() {
        let net = topology::line(6);
        let mut ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        // Infeasible fixed time (1 < distance 3): projection must not go
        // backwards.
        ctx.fixed = vec![(txn(0, 3, &[0]), 1)];
        let rel = object_release(&net, &ctx);
        assert_eq!(rel[&ObjectId(0)], (NodeId(3), 3));
    }

    #[test]
    fn validator_accepts_feasible() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0]), txn(1, 3, &[0])];
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 3)].into_iter().collect();
        let orders = validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        assert_eq!(orders[&ObjectId(0)], vec![TxnId(0), TxnId(1)]);
    }

    #[test]
    fn validator_rejects_too_tight() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0]), txn(1, 3, &[0])];
        // T1 at node 3 cannot get the object one step after T0 at node 2...
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 2)].into_iter().collect();
        assert!(validate_batch_schedule(&net, &pending, &ctx, &sched).is_err());
    }

    #[test]
    fn validator_rejects_same_time_same_object() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(1))]);
        // Same home, same object, same step: exclusivity violated.
        let pending = vec![txn(0, 1, &[0]), txn(1, 1, &[0])];
        let sched: Schedule = [(TxnId(0), 0), (TxnId(1), 0)].into_iter().collect();
        let err = validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap_err();
        assert!(err.contains("sharing"));
    }

    #[test]
    fn validator_enforces_same_home_serialization_gap() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(1))]);
        let pending = vec![txn(0, 1, &[0]), txn(1, 1, &[0])];
        // One step apart at the same home: fine.
        let sched: Schedule = [(TxnId(0), 0), (TxnId(1), 1)].into_iter().collect();
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
    }

    #[test]
    fn validator_rejects_missing_txn() {
        let net = topology::line(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0])];
        let sched = Schedule::new();
        assert!(validate_batch_schedule(&net, &pending, &ctx, &sched).is_err());
    }

    #[test]
    fn validator_respects_fixed_context() {
        let net = topology::line(8);
        let mut ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        // Fixed txn holds the object at node 5 until t=5.
        ctx.fixed = vec![(txn(9, 5, &[0]), 5)];
        let pending = vec![txn(0, 7, &[0])];
        // From n5 at t=5, distance 2: earliest feasible is 7.
        let bad: Schedule = [(TxnId(0), 6)].into_iter().collect();
        assert!(validate_batch_schedule(&net, &pending, &ctx, &bad).is_err());
        let good: Schedule = [(TxnId(0), 7)].into_iter().collect();
        validate_batch_schedule(&net, &pending, &ctx, &good).unwrap();
    }
}
