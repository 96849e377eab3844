//! Typed step effects: everything one engine tick changed.
//!
//! Each call to [`crate::StepKernel::tick`] produces a [`StepEffects`]
//! value describing what the step's phases did — objects created and
//! delivered, transactions arrived / scheduled / committed / aborted,
//! and object departures with their edge assignments. It is the step
//! kernel's only write channel: every other record of a run is a fold of
//! it. The same type is the policy window behind
//! [`crate::SystemView::step_effects`]: the changes between two
//! consecutive policy invocations, which the incremental caches in
//! `dtm-core` fold instead of rescanning the view.
//!
//! Effects are purely descriptive. Consuming (or ignoring) them never
//! changes engine behavior, and the per-tick value is rebuilt from
//! cleared buffers each step, so it is safe to read, print, or export.
//! A serialised sequence of them is a run record: with the bodies of
//! the transactions it names, [`StepEffects::push_events`] folds it back
//! into the [`Event`] log.

use crate::events::Event;
use dtm_graph::NodeId;
use dtm_model::{ObjectId, Time, TxnId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An object coming into existence this step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Creation {
    /// The new object.
    pub object: ObjectId,
    /// Its origin node.
    pub node: NodeId,
}

/// An object completing an edge traversal this step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Delivery {
    /// The delivered object.
    pub object: ObjectId,
    /// The node it departed from (the traversed edge's other endpoint).
    pub from: NodeId,
    /// The node it arrived at.
    pub node: NodeId,
}

/// An object starting an edge traversal this step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Departure {
    /// The departing object.
    pub object: ObjectId,
    /// The node it left.
    pub from: NodeId,
    /// The next hop it is heading to.
    pub to: NodeId,
    /// When it arrives at `to` (includes the speed divisor).
    pub arrive: Time,
}

/// Everything one engine step changed, in phase order.
///
/// Ids within each list appear in the order the engine processed them
/// (ascending id within a phase), so replaying a sequence of effects is
/// deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepEffects {
    /// The step these effects describe.
    pub t: Time,
    /// Objects created at this step, with their origins (phase 0).
    pub created: Vec<Creation>,
    /// Objects whose edge traversal completed (receive phase).
    pub delivered: Vec<Delivery>,
    /// Transactions generated at this step (generate phase).
    pub arrived: Vec<TxnId>,
    /// Transactions assigned an execution time (schedule phase). A
    /// transaction may appear here *and* in `committed` when it commits
    /// the same step it was scheduled.
    pub scheduled: Vec<(TxnId, Time)>,
    /// Transactions that committed (execute phase).
    pub committed: Vec<TxnId>,
    /// Transactions aborted on a missed execution (execute phase).
    pub aborted: Vec<TxnId>,
    /// Objects that departed on an edge (forward phase).
    pub departed: Vec<Departure>,
    /// Live-set size after the step completed.
    pub live_after: usize,
}

impl StepEffects {
    /// Drop every recorded change, keeping allocations for reuse. The
    /// kernel calls this at the top of each tick (and on the policy
    /// window at each step end, before it takes the tick's tail).
    pub fn clear(&mut self) {
        self.t = 0;
        self.created.clear();
        self.delivered.clear();
        self.arrived.clear();
        self.scheduled.clear();
        self.committed.clear();
        self.aborted.clear();
        self.departed.clear();
        self.live_after = 0;
    }

    /// Append `fx`'s head: the lists its tick fills before the policy
    /// call (created, delivered, arrived).
    pub(crate) fn extend_head(&mut self, fx: &StepEffects) {
        self.created.extend_from_slice(&fx.created);
        self.delivered.extend_from_slice(&fx.delivered);
        self.arrived.extend_from_slice(&fx.arrived);
    }

    /// Become `fx`'s tail: the lists its tick fills after the policy call
    /// (scheduled, committed, aborted, departed).
    pub(crate) fn reset_to_tail(&mut self, fx: &StepEffects) {
        self.clear();
        self.scheduled.extend_from_slice(&fx.scheduled);
        self.committed.extend_from_slice(&fx.committed);
        self.aborted.extend_from_slice(&fx.aborted);
        self.departed.extend_from_slice(&fx.departed);
    }

    /// True if the step changed nothing.
    pub fn is_empty(&self) -> bool {
        self.created.is_empty()
            && self.delivered.is_empty()
            && self.arrived.is_empty()
            && self.scheduled.is_empty()
            && self.committed.is_empty()
            && self.aborted.is_empty()
            && self.departed.is_empty()
    }

    /// Transactions that left the live set (committed, then aborted) —
    /// the removal feed for incremental fixed-context caches.
    pub fn removed(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.committed.iter().chain(self.aborted.iter()).copied()
    }

    /// Objects whose place changed (delivered, then departed).
    pub fn moved(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.delivered
            .iter()
            .map(|d| d.object)
            .chain(self.departed.iter().map(|d| d.object))
    }

    /// Append the [`Event`]s this step stands for to `out`, in phase
    /// order, each list in the order its phase processed it — the order
    /// the phases themselves ran in. Generation and commit events carry
    /// the transaction's home node, which the effects do not: `home`
    /// supplies it, and an id it cannot place yields no event.
    pub fn push_events(&self, home: impl Fn(TxnId) -> Option<NodeId>, out: &mut Vec<Event>) {
        let t = self.t;
        out.extend(self.created.iter().map(|c| Event::ObjectCreated {
            t,
            object: c.object,
            node: c.node,
        }));
        out.extend(self.delivered.iter().map(|d| Event::Arrived {
            t,
            object: d.object,
            node: d.node,
        }));
        out.extend(self.arrived.iter().filter_map(|&txn| {
            let node = home(txn)?;
            Some(Event::Generated { t, txn, node })
        }));
        out.extend(
            self.scheduled
                .iter()
                .map(|&(txn, exec_at)| Event::Scheduled { t, txn, exec_at }),
        );
        out.extend(self.committed.iter().filter_map(|&txn| {
            let node = home(txn)?;
            Some(Event::Committed { t, txn, node })
        }));
        out.extend(self.departed.iter().map(|d| Event::Departed {
            t,
            object: d.object,
            from: d.from,
            to: d.to,
            arrive: d.arrive,
        }));
    }

    /// Net change in in-flight objects per canonical undirected edge:
    /// `+1` for each departure onto the edge, `-1` for each delivery
    /// completing it. Summing these over consecutive steps reproduces
    /// the engine's edge-load table.
    pub fn edge_loads(&self) -> BTreeMap<(NodeId, NodeId), i64> {
        let mut loads: BTreeMap<(NodeId, NodeId), i64> = BTreeMap::new();
        for d in &self.departed {
            *loads.entry(edge_key(d.from, d.to)).or_insert(0) += 1;
        }
        for d in &self.delivered {
            *loads.entry(edge_key(d.from, d.node)).or_insert(0) -= 1;
        }
        loads.retain(|_, v| *v != 0);
        loads
    }
}

/// Canonical undirected edge key (shared with the kernel's load table).
pub(crate) fn edge_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_resets_everything() {
        let mut fx = StepEffects::default();
        assert!(fx.is_empty());
        fx.t = 3;
        fx.created.push(Creation {
            object: ObjectId(0),
            node: NodeId(1),
        });
        fx.scheduled.push((TxnId(0), 5));
        fx.committed.push(TxnId(1));
        fx.aborted.push(TxnId(2));
        fx.arrived.push(TxnId(3));
        fx.live_after = 7;
        assert!(!fx.is_empty());
        fx.clear();
        assert!(fx.is_empty());
        assert_eq!(fx, StepEffects::default());
    }

    #[test]
    fn removed_yields_commits_then_aborts() {
        let mut fx = StepEffects::default();
        fx.committed.push(TxnId(1));
        fx.committed.push(TxnId(4));
        fx.aborted.push(TxnId(2));
        let removed: Vec<TxnId> = fx.removed().collect();
        assert_eq!(removed, vec![TxnId(1), TxnId(4), TxnId(2)]);
    }

    #[test]
    fn moved_covers_deliveries_and_departures() {
        let mut fx = StepEffects::default();
        fx.delivered.push(Delivery {
            object: ObjectId(0),
            from: NodeId(1),
            node: NodeId(2),
        });
        fx.departed.push(Departure {
            object: ObjectId(3),
            from: NodeId(2),
            to: NodeId(1),
            arrive: 9,
        });
        let moved: Vec<ObjectId> = fx.moved().collect();
        assert_eq!(moved, vec![ObjectId(0), ObjectId(3)]);
    }

    #[test]
    fn edge_loads_are_canonical_and_net() {
        let mut fx = StepEffects::default();
        // Departure and delivery on the same undirected edge cancel.
        fx.departed.push(Departure {
            object: ObjectId(0),
            from: NodeId(2),
            to: NodeId(1),
            arrive: 9,
        });
        fx.delivered.push(Delivery {
            object: ObjectId(1),
            from: NodeId(1),
            node: NodeId(2),
        });
        // A second departure elsewhere survives.
        fx.departed.push(Departure {
            object: ObjectId(2),
            from: NodeId(3),
            to: NodeId(4),
            arrive: 10,
        });
        let loads = fx.edge_loads();
        assert_eq!(loads.len(), 1);
        assert_eq!(loads[&(NodeId(3), NodeId(4))], 1);
    }

    #[test]
    fn push_events_follows_phase_order_and_skips_unplaced_txns() {
        let fx = StepEffects {
            t: 4,
            created: vec![Creation {
                object: ObjectId(0),
                node: NodeId(2),
            }],
            arrived: vec![TxnId(1), TxnId(9)],
            scheduled: vec![(TxnId(1), 6)],
            committed: vec![TxnId(9)],
            departed: vec![Departure {
                object: ObjectId(0),
                from: NodeId(2),
                to: NodeId(3),
                arrive: 5,
            }],
            ..StepEffects::default()
        };
        let mut events = Vec::new();
        fx.push_events(|txn| (txn == TxnId(1)).then_some(NodeId(3)), &mut events);
        assert_eq!(
            events,
            vec![
                Event::ObjectCreated {
                    t: 4,
                    object: ObjectId(0),
                    node: NodeId(2)
                },
                Event::Generated {
                    t: 4,
                    txn: TxnId(1),
                    node: NodeId(3)
                },
                Event::Scheduled {
                    t: 4,
                    txn: TxnId(1),
                    exec_at: 6
                },
                Event::Departed {
                    t: 4,
                    object: ObjectId(0),
                    from: NodeId(2),
                    to: NodeId(3),
                    arrive: 5
                },
            ]
        );
    }

    #[test]
    fn serde_roundtrip() {
        let fx = StepEffects {
            t: 7,
            created: vec![Creation {
                object: ObjectId(1),
                node: NodeId(0),
            }],
            delivered: vec![Delivery {
                object: ObjectId(2),
                from: NodeId(1),
                node: NodeId(0),
            }],
            arrived: vec![TxnId(3)],
            scheduled: vec![(TxnId(3), 9)],
            committed: vec![TxnId(4)],
            aborted: vec![TxnId(5)],
            departed: vec![Departure {
                object: ObjectId(1),
                from: NodeId(0),
                to: NodeId(1),
                arrive: 8,
            }],
            live_after: 2,
        };
        let text = serde_json::to_string(&fx).unwrap();
        let back: StepEffects = serde_json::from_str(&text).unwrap();
        assert_eq!(back, fx);
    }
}
