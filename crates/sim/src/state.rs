//! Runtime state of objects and live transactions, and the read-only
//! [`SystemView`] handed to scheduling policies each step.

use crate::arena::{ObjectIter, RuntimeState, TxnArena, TxnIter};
use crate::effects::StepEffects;
use dtm_graph::{Network, NodeId, Weight};
use dtm_model::{ObjectId, ObjectInfo, Time, Transaction, TxnId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Where an object is right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectPlace {
    /// Resting at a node (free or waiting for a transaction there).
    At(NodeId),
    /// Traversing the edge `from -> next`; arrives at `next` at `arrive`.
    Hop {
        /// The node the object departed from.
        from: NodeId,
        /// The node being approached.
        next: NodeId,
        /// Arrival time at `next`.
        arrive: Time,
    },
}

/// Full runtime state of one object.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObjectState {
    /// Static info (id, origin, creation time).
    pub info: ObjectInfo,
    /// Current place.
    pub place: ObjectPlace,
    /// The last transaction that acquired the object (`L_t(o_i)` in the
    /// paper once that transaction has executed), or `None` if no
    /// transaction has acquired it yet.
    pub last_holder: Option<TxnId>,
}

impl ObjectState {
    /// The paper's *current position* of the object at time `now`, as used
    /// by the extended dependency graph `H'_t`: a pair `(node, ready_at)`
    /// meaning the object can start moving from `node` at time `ready_at`.
    ///
    /// For a resting object this is its node, ready now. For an in-transit
    /// object the paper places a temporary transaction at an artificial
    /// node connected to the next hop `v` with weight equal to the
    /// remaining travel time — equivalently, the object is available at
    /// `v` at its arrival time.
    pub fn position(&self, now: Time) -> (NodeId, Time) {
        match self.place {
            ObjectPlace::At(v) => (v, now),
            ObjectPlace::Hop { next, arrive, .. } => (next, arrive),
        }
    }

    /// Effective distance from the object's current position to `target`:
    /// residual transit time plus the shortest-path distance onward. This
    /// is the edge weight to the temporary transaction in `H'_t`.
    pub fn effective_distance(&self, network: &Network, target: NodeId, now: Time) -> Weight {
        let (node, ready_at) = self.position(now);
        ready_at.saturating_sub(now) + network.distance(node, target)
    }
}

/// A live (generated, not yet committed) transaction and its schedule
/// status.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LiveTxn {
    /// The transaction.
    pub txn: Transaction,
    /// Its designated execution time, once assigned. The paper's
    /// algorithms never change this after assignment.
    pub scheduled: Option<Time>,
}

/// Read-only snapshot of the system handed to policies each step: the
/// engine's arena-backed [`RuntimeState`] with its requester index.
pub struct SystemView<'a> {
    /// Current time step.
    pub now: Time,
    /// The communication network.
    pub network: &'a Network,
    state: &'a RuntimeState,
}

impl<'a> SystemView<'a> {
    /// Construct a view over the engine's indexed [`RuntimeState`].
    pub fn from_state(now: Time, network: &'a Network, state: &'a RuntimeState) -> Self {
        SystemView {
            now,
            network,
            state,
        }
    }

    /// All live transactions (`T_t` in the paper), in id order.
    pub fn live_txns(&self) -> TxnIter<'a> {
        self.state.txns().iter()
    }

    /// Number of live transactions.
    pub fn live_count(&self) -> usize {
        self.state.txns().len()
    }

    /// The transaction arena behind [`SystemView::live_txns`], for its
    /// memory gauges ([`TxnArena::slot_high_water`],
    /// [`TxnArena::peak_live`]).
    pub fn txn_arena(&self) -> &'a TxnArena {
        self.state.txns()
    }

    /// Look up a live transaction.
    pub fn live(&self, id: TxnId) -> Option<&'a LiveTxn> {
        self.state.txns().get(id)
    }

    /// State of an object (if it exists yet).
    pub fn object(&self, id: ObjectId) -> Option<&'a ObjectState> {
        self.state.objects().get(id)
    }

    /// All objects, in id order.
    pub fn objects(&self) -> ObjectIter<'a> {
        self.state.objects().iter()
    }

    /// Live transactions requesting `o`, in id order, read from the
    /// engine's per-object requester index in O(answer).
    pub fn requesters_of(&self, o: ObjectId) -> Vec<TxnId> {
        self.state.requesters_of(o).collect()
    }

    /// Visit the live transactions requesting `o` in id order without
    /// allocating — the streaming form of [`SystemView::requesters_of`],
    /// used by incremental caches that fold requester sets every arrival.
    pub fn for_each_requester(&self, o: ObjectId, f: impl FnMut(TxnId)) {
        self.state.requesters_of(o).for_each(f);
    }

    /// Live transactions conflicting with `txn` (sharing at least one
    /// object, `txn` itself excluded), in id order — the neighbors of
    /// `txn` among `T_t` in the dependency graph `H'_t`: the union of the
    /// requester sets of `txn`'s objects.
    pub fn conflicting_live(&self, txn: &Transaction) -> Vec<&'a LiveTxn> {
        let mut ids: BTreeSet<TxnId> = BTreeSet::new();
        for o in txn.objects() {
            ids.extend(self.state.requesters_of(o));
        }
        ids.remove(&txn.id);
        ids.iter()
            .map(|&id| self.state.txns().get(id).expect("requester index is live")) // dtm-lint: allow(C1) -- requester-index entries are inserted/removed in lockstep with the txn arena
            .collect()
    }

    /// The [`StepEffects`] accumulated since the previous policy
    /// invocation.
    pub fn step_effects(&self) -> &'a StepEffects {
        self.state.effects()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;
    use proptest::prelude::*;

    fn obj(place: ObjectPlace) -> ObjectState {
        ObjectState {
            info: ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            },
            place,
            last_holder: None,
        }
    }

    #[test]
    fn resting_position() {
        let net = topology::line(8);
        let o = obj(ObjectPlace::At(NodeId(3)));
        assert_eq!(o.position(10), (NodeId(3), 10));
        assert_eq!(o.effective_distance(&net, NodeId(6), 10), 3);
        assert_eq!(o.effective_distance(&net, NodeId(3), 10), 0);
    }

    #[test]
    fn in_transit_position_counts_residual() {
        let net = topology::line(8);
        let o = obj(ObjectPlace::Hop {
            from: NodeId(2),
            next: NodeId(3),
            arrive: 14,
        });
        // At time 10: 4 residual steps to node 3, then 3 more to node 6.
        assert_eq!(o.position(10), (NodeId(3), 14));
        assert_eq!(o.effective_distance(&net, NodeId(6), 10), 4 + 3);
        // Going "backwards" still pays the residual first.
        assert_eq!(o.effective_distance(&net, NodeId(2), 10), 4 + 1);
    }

    #[test]
    fn view_queries() {
        let net = topology::line(4);
        let mut state = RuntimeState::new();
        state.insert_txn(LiveTxn {
            txn: Transaction::new(TxnId(1), NodeId(0), [ObjectId(0)], 0),
            scheduled: Some(5),
        });
        state.insert_txn(LiveTxn {
            txn: Transaction::new(TxnId(2), NodeId(1), [ObjectId(1)], 0),
            scheduled: None,
        });
        state.insert_object(obj(ObjectPlace::At(NodeId(0))));
        let view = SystemView::from_state(3, &net, &state);
        assert_eq!(view.live_count(), 2);
        assert_eq!(view.requesters_of(ObjectId(0)), vec![TxnId(1)]);
        assert!(view.requesters_of(ObjectId(9)).is_empty());
        assert_eq!(view.live(TxnId(1)).unwrap().scheduled, Some(5));
        assert!(view.object(ObjectId(0)).is_some());
        assert!(view.object(ObjectId(1)).is_none());
    }

    proptest! {
        /// Under random insert/remove/create churn, every index-backed
        /// query equals a literal scan of the live arena, and the arenas
        /// hold exactly what was inserted and not yet removed.
        #[test]
        fn indexed_queries_match_scan_under_churn(
            ops in proptest::collection::vec((0u8..4, 0u64..12, 0u32..6, 0u32..6), 1..60),
        ) {
            let net = topology::line(8);
            let mut state = RuntimeState::new();
            let mut live_ids: BTreeSet<TxnId> = BTreeSet::new();
            let mut object_ids: BTreeSet<ObjectId> = BTreeSet::new();
            for (kind, id, o1, o2) in ops {
                let id = TxnId(id);
                match kind {
                    0 | 1 if !live_ids.contains(&id) => {
                        let home = NodeId((id.0 % 8) as u32);
                        let txn = Transaction::new(id, home, [ObjectId(o1), ObjectId(o2)], 0);
                        state.insert_txn(LiveTxn {
                            txn,
                            scheduled: (kind == 1).then_some(id.0),
                        });
                        live_ids.insert(id);
                    }
                    2 => {
                        let removed = state.remove_txn(id).map(|lt| lt.txn.id);
                        prop_assert_eq!(removed, live_ids.take(&id));
                    }
                    3 if object_ids.insert(ObjectId(o1)) => {
                        let mut st = obj(ObjectPlace::At(NodeId(o1)));
                        st.info.id = ObjectId(o1);
                        state.insert_object(st);
                    }
                    _ => {}
                }
                let view = SystemView::from_state(0, &net, &state);
                let live: Vec<TxnId> = view.live_txns().map(|lt| lt.txn.id).collect();
                prop_assert_eq!(&live, &live_ids.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(view.live_count(), live_ids.len());
                let objects: Vec<ObjectId> = view.objects().map(|st| st.info.id).collect();
                prop_assert_eq!(objects, object_ids.iter().copied().collect::<Vec<_>>());
                for o in (0..7).map(ObjectId) {
                    let scan: Vec<TxnId> = state
                        .txns()
                        .iter()
                        .filter(|lt| lt.txn.uses(o))
                        .map(|lt| lt.txn.id)
                        .collect();
                    prop_assert_eq!(&view.requesters_of(o), &scan);
                    let mut streamed = Vec::new();
                    view.for_each_requester(o, |r| streamed.push(r));
                    prop_assert_eq!(&streamed, &scan);
                }
                for lt in state.txns().iter() {
                    let scan: Vec<TxnId> = state
                        .txns()
                        .iter()
                        .filter(|other| other.txn.id != lt.txn.id && lt.txn.shares_objects(&other.txn))
                        .map(|other| other.txn.id)
                        .collect();
                    let indexed: Vec<TxnId> =
                        view.conflicting_live(&lt.txn).iter().map(|l| l.txn.id).collect();
                    prop_assert_eq!(indexed, scan);
                }
            }
        }
    }
}
