//! The extended dependency graph `H'_t` (Section III-B).
//!
//! Nodes of `H'_t` are the live transactions `T_t` plus, for each object,
//! its *current transaction* `Z_t(o)` — the last holder if the object is
//! resting, or a temporary transaction at the object's in-transit position
//! (an artificial node one residual-hop from the next node on its path).
//! Edges connect conflicting transactions, weighted by the distance
//! between their nodes in `G`; current transactions carry color 0 (they
//! execute "now").
//!
//! This module materializes exactly what the greedy scheduler needs: for a
//! transaction to be colored, the set of [`ColorConstraint`]s induced by
//! `H'_t`, plus the degree statistics `Γ'_t` and `Δ'_t` used by the
//! Theorem 1 / Theorem 2 bounds.
//!
//! One deviation from the paper's notation: a conflict edge between two
//! transactions at the *same* node would have weight 0, but exclusive
//! object access still forces their execution steps apart; such edges are
//! assigned weight 1 (the serialization step enforced by the execution
//! engine).

use crate::coloring::ColorConstraint;
use dtm_model::{Time, Transaction, TxnId};
use dtm_sim::SystemView;
use std::collections::BTreeMap;

/// Degree statistics of a transaction in `H'_t`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtendedDegrees {
    /// `Δ'_t(T)`: number of incident edges.
    pub degree: u64,
    /// `Γ'_t(T)`: sum of incident edge weights.
    pub weighted_degree: u64,
}

impl ExtendedDegrees {
    /// Theorem 1's execution-offset bound `2Γ' - Δ'`.
    pub fn theorem1_bound(&self) -> Time {
        2 * self.weighted_degree - self.degree
    }
}

/// Build the coloring constraints for `txn` at the view's current time.
///
/// Constraint sources:
/// * every **scheduled live** transaction conflicting with `txn`
///   (color = remaining time until its execution, weight = distance
///   between homes, at least 1);
/// * every transaction in `extra_colored` (same-step transactions already
///   colored by the greedy pass, with their relative colors);
/// * for each object of `txn`, its **current transaction** `Z_t(o)`:
///   color 0, weight = the object's effective distance (residual transit
///   time plus distance from its next node to `txn.home`). A weight-0 case
///   (object resting at `txn.home`) imposes no constraint.
pub fn constraints_for(
    view: &SystemView<'_>,
    txn: &Transaction,
    extra_colored: &BTreeMap<TxnId, Time>,
) -> Vec<ColorConstraint> {
    let now = view.now;
    let mut constraints = Vec::new();
    // `conflicting_live` answers from the per-object requester index when
    // the view is arena-backed (no full live-set rescan) and from a linear
    // scan otherwise; both return the same transactions in id order.
    for other in view.conflicting_live(txn) {
        let color = match (other.scheduled, extra_colored.get(&other.txn.id)) {
            (Some(t), _) => t.saturating_sub(now),
            (None, Some(&c)) => c,
            (None, None) => continue, // uncolored: constrained later, not now
        };
        let weight = view.network.distance(txn.home, other.txn.home).max(1);
        constraints.push(ColorConstraint::new(color, weight));
    }
    for o in txn.objects() {
        if let Some(state) = view.object(o) {
            let weight = state.effective_distance(view.network, txn.home, now);
            if weight > 0 {
                constraints.push(ColorConstraint::new(0, weight));
            }
        }
    }
    constraints
}

/// Degree statistics of `txn` in the full `H'_t` (edges to *all*
/// conflicting live transactions — colored or not — plus its objects'
/// current transactions). Used to check the Theorem 1 / 2 bounds.
pub fn extended_degrees(view: &SystemView<'_>, txn: &Transaction) -> ExtendedDegrees {
    let mut deg = ExtendedDegrees::default();
    for other in view.conflicting_live(txn) {
        deg.degree += 1;
        deg.weighted_degree += view.network.distance(txn.home, other.txn.home).max(1);
    }
    for o in txn.objects() {
        if let Some(state) = view.object(o) {
            let w = state.effective_distance(view.network, txn.home, view.now);
            if w > 0 {
                deg.degree += 1;
                deg.weighted_degree += w;
            }
        }
    }
    deg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_of;
    use dtm_graph::{topology, NodeId};
    use dtm_model::{ObjectId, ObjectInfo};
    use dtm_sim::{LiveTxn, ObjectPlace, ObjectState};

    fn obj_at(id: u32, node: u32) -> ObjectState {
        ObjectState {
            info: ObjectInfo {
                id: ObjectId(id),
                origin: NodeId(node),
                created_at: 0,
            },
            place: ObjectPlace::At(NodeId(node)),
            last_holder: None,
        }
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
    fn object_distance_becomes_holder_constraint() {
        let net = topology::line(8);
        let state = state_of([], [obj_at(0, 1)]);
        let view = SystemView::from_state(5, &net, &state);
        let t = txn(0, 4, &[0]);
        let cs = constraints_for(&view, &t, &BTreeMap::new());
        assert_eq!(cs, vec![ColorConstraint::new(0, 3)]);
        let d = extended_degrees(&view, &t);
        assert_eq!(d.degree, 1);
        assert_eq!(d.weighted_degree, 3);
        assert_eq!(d.theorem1_bound(), 5);
    }

    #[test]
    fn local_object_imposes_nothing() {
        let net = topology::line(8);
        let state = state_of([], [obj_at(0, 4)]);
        let view = SystemView::from_state(0, &net, &state);
        let t = txn(0, 4, &[0]);
        assert!(constraints_for(&view, &t, &BTreeMap::new()).is_empty());
    }

    #[test]
    fn scheduled_conflict_uses_remaining_time() {
        let net = topology::line(8);
        let other = txn(1, 6, &[0]);
        let live = LiveTxn {
            txn: other,
            scheduled: Some(9),
        };
        let state = state_of([live], [obj_at(0, 6)]);
        let view = SystemView::from_state(4, &net, &state);
        let t = txn(0, 2, &[0]);
        let cs = constraints_for(&view, &t, &BTreeMap::new());
        // Conflict with T1: color 9-4=5, weight d(2,6)=4.
        // Holder: object at n6, weight d(6,2)=4, color 0.
        assert!(cs.contains(&ColorConstraint::new(5, 4)));
        assert!(cs.contains(&ColorConstraint::new(0, 4)));
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn same_home_conflict_gets_weight_one() {
        let net = topology::line(8);
        let other = txn(1, 2, &[0]);
        let live = LiveTxn {
            txn: other,
            scheduled: Some(0),
        };
        let state = state_of([live], [obj_at(0, 2)]);
        let view = SystemView::from_state(0, &net, &state);
        let t = txn(0, 2, &[0]);
        let cs = constraints_for(&view, &t, &BTreeMap::new());
        assert_eq!(cs, vec![ColorConstraint::new(0, 1)]);
    }

    #[test]
    fn in_transit_object_pays_residual() {
        let net = topology::line(8);
        let object = ObjectState {
            info: ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            },
            place: ObjectPlace::Hop {
                from: NodeId(2),
                next: NodeId(3),
                arrive: 12,
            },
            last_holder: None,
        };
        let state = state_of([], [object]);
        let view = SystemView::from_state(10, &net, &state);
        let t = txn(0, 6, &[0]);
        let cs = constraints_for(&view, &t, &BTreeMap::new());
        // Residual 2 + distance(3, 6) = 3 -> weight 5.
        assert_eq!(cs, vec![ColorConstraint::new(0, 5)]);
    }

    #[test]
    fn extra_colored_same_step_counts() {
        let net = topology::line(8);
        let other = txn(1, 5, &[0]);
        let live = LiveTxn {
            txn: other,
            scheduled: None,
        };
        let state = state_of([live], [obj_at(0, 5)]);
        let view = SystemView::from_state(0, &net, &state);
        let t = txn(0, 2, &[0]);
        // Without the extra coloring T1 imposes nothing...
        assert_eq!(constraints_for(&view, &t, &BTreeMap::new()).len(), 1);
        // ...with it, it does.
        let extra: BTreeMap<TxnId, Time> = [(TxnId(1), 7)].into();
        let cs = constraints_for(&view, &t, &extra);
        assert!(cs.contains(&ColorConstraint::new(7, 3)));
    }

    #[test]
    fn non_conflicting_txns_ignored() {
        let net = topology::line(8);
        let other = txn(1, 5, &[1]);
        let live = LiveTxn {
            txn: other,
            scheduled: Some(3),
        };
        let state = state_of([live], [obj_at(0, 2), obj_at(1, 5)]);
        let view = SystemView::from_state(0, &net, &state);
        let t = txn(0, 2, &[0]);
        assert!(constraints_for(&view, &t, &BTreeMap::new()).is_empty());
        assert_eq!(extended_degrees(&view, &t).degree, 0);
    }
}

#[cfg(test)]
mod read_mode_tests {

    use dtm_graph::topology;
    use dtm_graph::NodeId;
    use dtm_model::TxnId;
    use dtm_model::{AccessMode, Instance, ObjectId, ObjectInfo, TraceSource, Transaction};
    use dtm_sim::{run_policy, validate_events, EngineConfig, ValidationConfig};

    /// Two *readers* of the same single-copy object must still serialize:
    /// the object physically visits one node at a time. This guards the
    /// scheduler against using the read/write-aware conflict notion where
    /// the paper's object-intersection notion is required.
    #[test]
    fn two_readers_still_serialize() {
        let net = topology::line(6);
        let reader = |id: u64, home: u32| {
            Transaction::with_modes(
                TxnId(id),
                NodeId(home),
                [(ObjectId(0), AccessMode::Read)],
                0,
            )
        };
        let inst = Instance::new(
            vec![ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            }],
            vec![reader(0, 2), reader(1, 4)],
        );
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            crate::greedy::GreedyPolicy::new(),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(res.metrics.committed, 2);
        // Distinct commit times: physical serialization happened.
        let times: Vec<_> = res.commits.values().collect();
        assert_ne!(times[0], times[1]);
    }
}
