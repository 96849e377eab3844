//! Generic earliest-feasible list scheduling.
//!
//! The workhorse: given any processing order, each transaction is assigned
//! the earliest time at which all its objects can have reached its home,
//! folding object positions forward. Always feasible on arbitrary graphs;
//! quality depends on the order, which the per-topology schedulers tune.

use crate::traits::{handoff_gap, release_frontier, BatchContext, BatchScheduler, Release};
use dtm_graph::Network;
use dtm_model::{ObjectId, Schedule, Time, Transaction};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Processing order for [`ListScheduler`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListOrder {
    /// By `(generated_at, id)` — FIFO; this makes the list scheduler the
    /// natural online baseline.
    Arrival,
    /// Seeded random permutation.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// By home node id (the line sweep uses this).
    ByHome,
}

/// Earliest-feasible list scheduler over a configurable order.
#[derive(Clone, Debug)]
pub struct ListScheduler {
    /// Processing order.
    pub order: ListOrder,
}

impl ListScheduler {
    /// FIFO list scheduler.
    pub fn fifo() -> Self {
        ListScheduler {
            order: ListOrder::Arrival,
        }
    }

    /// `pending` in this scheduler's processing order.
    fn ordered<'a>(&self, pending: &'a [Transaction]) -> Vec<&'a Transaction> {
        let mut order: Vec<&Transaction> = pending.iter().collect();
        match &self.order {
            ListOrder::Arrival => order.sort_by_key(|t| (t.generated_at, t.id)),
            ListOrder::ByHome => order.sort_by_key(|t| (t.home, t.id)),
            ListOrder::Random { seed } => {
                order.sort_by_key(|t| t.id);
                let mut rng = ChaCha8Rng::seed_from_u64(*seed);
                order.shuffle(&mut rng);
            }
        }
        order
    }
}

/// Fold `order`ed transactions over the release frontier of `ctx`,
/// assigning each its earliest feasible time and calling
/// `emit(txn, exec)` once per transaction, in order.
///
/// # Panics
/// Panics if a transaction requests an object absent from
/// `ctx.object_avail`.
fn fold_in_order<'t>(
    network: &Network,
    order: impl IntoIterator<Item = &'t Transaction>,
    ctx: &BatchContext,
    mut emit: impl FnMut(&Transaction, Time),
) {
    let mut frontier = release_frontier(network, ctx);
    let slot = |frontier: &[(ObjectId, Release)], t: &Transaction, o: ObjectId| {
        frontier
            .binary_search_by_key(&o, |&(o, _)| o)
            .unwrap_or_else(|_| panic!("{} requests unknown object {o}", t.id))
    };
    for t in order {
        let mut exec: Time = ctx.now.max(t.generated_at);
        for o in t.objects() {
            let r = frontier[slot(&frontier, t, o)].1;
            let gap = if r.used {
                handoff_gap(network, r.node, t.home)
            } else {
                network.distance(r.node, t.home)
            };
            exec = exec.max(r.ready + gap);
        }
        for o in t.objects() {
            let i = slot(&frontier, t, o);
            frontier[i].1 = Release {
                node: t.home,
                ready: exec,
                used: true,
            };
        }
        emit(t, exec);
    }
}

/// Schedule `order`ed transactions at their earliest feasible times given
/// `ctx`. The core primitive shared by all list-type schedulers.
///
/// # Panics
/// Panics if a transaction requests an object absent from
/// `ctx.object_avail`.
pub fn list_schedule_in_order(
    network: &Network,
    order: &[&Transaction],
    ctx: &BatchContext,
) -> Schedule {
    let mut schedule = Schedule::new();
    fold_in_order(network, order.iter().copied(), ctx, |t, exec| {
        schedule.set(t.id, exec);
    });
    schedule
}

impl BatchScheduler for ListScheduler {
    fn schedule(
        &mut self,
        network: &Network,
        pending: &[Transaction],
        ctx: &BatchContext,
    ) -> Schedule {
        list_schedule_in_order(network, &self.ordered(pending), ctx)
    }

    /// The same fold as [`BatchScheduler::schedule`], keeping only the
    /// latest execution time: a probe builds no [`Schedule`].
    fn makespan(&mut self, network: &Network, pending: &[Transaction], ctx: &BatchContext) -> Time {
        // Every fold time is >= ctx.now, so an empty batch yields 0.
        let mut end = ctx.now;
        fold_in_order(network, self.ordered(pending), ctx, |_, exec| {
            end = end.max(exec);
        });
        end - ctx.now
    }

    fn name(&self) -> String {
        match &self.order {
            ListOrder::Arrival => "list(fifo)".into(),
            ListOrder::ByHome => "list(by-home)".into(),
            ListOrder::Random { seed } => format!("list(random,seed={seed})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_batch_schedule;
    use dtm_graph::{topology, NodeId};
    use dtm_model::TxnId;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Reference for [`list_schedule_in_order`]: the map-and-set fold it
    /// replaced (clone the release map, track used objects in a set).
    fn reference_in_order(
        network: &Network,
        order: &[&Transaction],
        ctx: &BatchContext,
    ) -> Schedule {
        let mut avail = reference_release(network, ctx);
        let mut used: BTreeSet<ObjectId> =
            ctx.fixed.iter().flat_map(|(t, _)| t.objects()).collect();
        let mut schedule = Schedule::new();
        for t in order {
            let mut exec: Time = ctx.now.max(t.generated_at);
            for o in t.objects() {
                let (node, ready) = avail[&o];
                let gap = if used.contains(&o) {
                    handoff_gap(network, node, t.home)
                } else {
                    network.distance(node, t.home)
                };
                exec = exec.max(ready + gap);
            }
            schedule.set(t.id, exec);
            for o in t.objects() {
                avail.insert(o, (t.home, exec));
                used.insert(o);
            }
        }
        schedule
    }

    /// Reference for [`crate::object_release`]: fold the fixed users of
    /// each object into a cloned availability map.
    fn reference_release(
        network: &Network,
        ctx: &BatchContext,
    ) -> BTreeMap<ObjectId, (NodeId, Time)> {
        let mut avail = ctx.object_avail.clone();
        let mut fixed: Vec<&(Transaction, Time)> = ctx.fixed.iter().collect();
        fixed.sort_by_key(|(t, time)| (*time, t.id));
        for (txn, exec) in fixed {
            for o in txn.objects() {
                let entry = avail.entry(o).or_insert((txn.home, *exec));
                let travel = network.distance(entry.0, txn.home);
                *entry = (txn.home, (entry.1 + travel).max(*exec));
            }
        }
        avail
    }

    fn txn(id: u64, home: u32, objs: &[u32]) -> Transaction {
        Transaction::new(
            TxnId(id),
            NodeId(home),
            objs.iter().map(|&o| ObjectId(o)),
            0,
        )
    }

    #[test]
    fn fifo_schedules_chain() {
        let net = topology::line(6);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0]), txn(1, 5, &[0]), txn(2, 0, &[0])];
        let sched = ListScheduler::fifo().schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        // FIFO: T0 at 2 (distance 2), T1 at 2+3=5, T2 at 5+5=10.
        assert_eq!(sched.get(TxnId(0)), Some(2));
        assert_eq!(sched.get(TxnId(1)), Some(5));
        assert_eq!(sched.get(TxnId(2)), Some(10));
    }

    #[test]
    fn multi_object_waits_for_slowest() {
        let net = topology::line(8);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0)), (ObjectId(1), NodeId(7))]);
        let pending = vec![txn(0, 4, &[0, 1])];
        let sched = ListScheduler::fifo().schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        assert_eq!(sched.get(TxnId(0)), Some(4)); // max(4, 3) from the two
    }

    #[test]
    fn respects_fixed_context() {
        let net = topology::line(8);
        let mut ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        ctx.now = 10;
        ctx.fixed = vec![(txn(99, 4, &[0]), 14)];
        let pending = vec![txn(0, 6, &[0])];
        let sched = ListScheduler::fifo().schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        // Object free at n4 from 14; distance 2 -> 16.
        assert_eq!(sched.get(TxnId(0)), Some(16));
    }

    #[test]
    fn same_home_chain_serializes() {
        let net = topology::clique(4);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(1))]);
        let pending = vec![txn(0, 1, &[0]), txn(1, 1, &[0]), txn(2, 1, &[0])];
        let sched = ListScheduler::fifo().schedule(&net, &pending, &ctx);
        validate_batch_schedule(&net, &pending, &ctx, &sched).unwrap();
        assert_eq!(sched.get(TxnId(0)), Some(0));
        assert_eq!(sched.get(TxnId(1)), Some(1));
        assert_eq!(sched.get(TxnId(2)), Some(2));
    }

    #[test]
    fn makespan_probe_matches_schedule() {
        let net = topology::line(6);
        let ctx = BatchContext::fresh([(ObjectId(0), NodeId(0))]);
        let pending = vec![txn(0, 2, &[0]), txn(1, 5, &[0])];
        let mut s = ListScheduler::fifo();
        let m = s.makespan(&net, &pending, &ctx);
        assert_eq!(m, 5);
    }

    proptest! {
        /// Any order over any random workload yields a feasible schedule.
        #[test]
        fn always_feasible(
            seed in 0u64..200,
            n_txns in 1usize..24,
            n_objs in 1u32..8,
            k in 1usize..4,
            order_seed in 0u64..3,
        ) {
            use rand::Rng;
            let net = topology::grid(&[4, 4]);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let objs: Vec<(ObjectId, NodeId)> = (0..n_objs)
                .map(|i| (ObjectId(i), NodeId(rng.gen_range(0..16))))
                .collect();
            let ctx = BatchContext::fresh(objs.clone());
            let pending: Vec<Transaction> = (0..n_txns)
                .map(|i| {
                    let mut set: Vec<ObjectId> = Vec::new();
                    for _ in 0..k {
                        set.push(ObjectId(rng.gen_range(0..n_objs)));
                    }
                    Transaction::new(
                        TxnId(i as u64),
                        NodeId(rng.gen_range(0..16)),
                        set,
                        0,
                    )
                })
                .collect();
            let mut s = ListScheduler { order: ListOrder::Random { seed: order_seed } };
            let sched = s.schedule(&net, &pending, &ctx);
            prop_assert!(validate_batch_schedule(&net, &pending, &ctx, &sched).is_ok());
        }
    }

    proptest! {
        /// The flat frontier fold equals the map-and-set reference for
        /// every order, on random graphs and contexts with a non-empty
        /// fixed set, and the schedule-free makespan probe equals the
        /// span of the full schedule.
        #[test]
        fn fold_matches_reference(
            seed in 0u64..500,
            topo in 0usize..3,
            n_fixed in 1usize..8,
            n_pending in 0usize..10,
            n_objs in 1u32..7,
            now in 0u64..20,
        ) {
            use rand::Rng;
            let net = match topo {
                0 => topology::line(9),
                1 => topology::grid(&[3, 4]),
                _ => topology::random(12, 3, 3, seed),
            };
            let n = net.n() as u32;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut random_txn = |id: u64, max_obj: u32| {
                let k = rng.gen_range(1..=3usize);
                let objs: Vec<ObjectId> = (0..k).map(|_| ObjectId(rng.gen_range(0..max_obj))).collect();
                let generated_at = rng.gen_range(0..now + 5);
                Transaction::new(TxnId(id), NodeId(rng.gen_range(0..n)), objs, generated_at)
            };
            // Fixed users may also touch objects missing from
            // `object_avail` (ids n_objs + 2 and n_objs + 3): the fold
            // must seed those at their first user.
            let mut fixed: Vec<(Transaction, Time)> =
                (0..n_fixed).map(|i| (random_txn(100 + i as u64, n_objs + 4), 0)).collect();
            let pending: Vec<Transaction> =
                (0..n_pending).map(|i| random_txn(i as u64, n_objs + 2)).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            for entry in &mut fixed {
                entry.1 = now + rng.gen_range(0..12u64);
            }
            let mut ctx = BatchContext {
                now,
                object_avail: (0..n_objs)
                    .map(|o| (ObjectId(o), (NodeId(rng.gen_range(0..n)), now + rng.gen_range(0..4u64))))
                    .collect(),
                fixed,
            };
            // Every object a pending transaction names must be known.
            for o in n_objs..n_objs + 2 {
                ctx.object_avail.entry(ObjectId(o)).or_insert((NodeId(0), now));
            }
            prop_assert_eq!(crate::object_release(&net, &ctx), reference_release(&net, &ctx));
            for order in [
                ListOrder::Arrival,
                ListOrder::ByHome,
                ListOrder::Random { seed },
            ] {
                let mut s = ListScheduler { order };
                let sched = s.schedule(&net, &pending, &ctx);
                let expected = reference_in_order(&net, &s.ordered(&pending), &ctx);
                prop_assert_eq!(&sched, &expected);
                let span = sched.makespan_end().map_or(0, |end| end - ctx.now);
                prop_assert_eq!(s.makespan(&net, &pending, &ctx), span);
            }
        }
    }
}
