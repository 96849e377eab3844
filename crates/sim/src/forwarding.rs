//! Node-local forwarding pointers as a dense, lazily-rowed table.
//!
//! The kernel records, per `(object, node)` pair, where that node last
//! sent the object (the forwarding *trail* of the paper's Section V
//! distributed algorithm: requests chase an object by following these
//! pointers hop by hop). PR 5 kept the trail in a
//! `BTreeMap<(ObjectId, NodeId), NodeId>`, which put one `O(log n)`
//! ordered-map insert on every object departure — one of the largest
//! constant factors left in the per-step hot path.
//!
//! [`ForwardingTable`] replaces it with a dense per-object row of `u32`
//! slots (index = node, value = next-hop node or a sentinel for "never
//! forwarded"), allocated lazily the first time an object departs from
//! anywhere. Lookups and inserts are two array indexings. For graphs
//! beyond [`ForwardingTable::DENSE_NODE_LIMIT`] nodes a dense row would
//! waste memory, so the table falls back to the ordered map — same
//! semantics, different constant.
//!
//! **Pointer lifetime.** Entries are *overwritten*, never removed: a
//! pointer stays valid-as-a-trail until the same node forwards the same
//! object somewhere else, exactly the semantics
//! [`crate::SystemView::forwarded_to`] and the distributed message layer
//! rely on (a stale pointer may lawfully point at where the object used
//! to go; chasing it still terminates because the trail always ends at
//! the object's current position). Memory is therefore bounded by
//! `O(objects × nodes)` — the dense representation makes that bound
//! explicit rather than emergent.

use dtm_graph::NodeId;
use dtm_model::ObjectId;
use std::collections::BTreeMap;

/// "No pointer" sentinel inside dense rows. `u32::MAX` is never a valid
/// node id (the dense representation is only used for graphs far below
/// that many nodes).
const EMPTY: u32 = u32::MAX;

#[derive(Clone, Debug)]
enum Repr {
    /// One lazily-allocated row per object; `rows[object][node]` is the
    /// node the object was last forwarded to from `node`, or [`EMPTY`].
    Dense { rows: Vec<Option<Box<[u32]>>> },
    /// Fallback for very large graphs: the PR 5 ordered map.
    Sparse(BTreeMap<(ObjectId, NodeId), NodeId>),
}

/// Per-`(object, node)` forwarding pointers; see the module docs.
#[derive(Clone, Debug)]
pub struct ForwardingTable {
    nodes: usize,
    repr: Repr,
    /// Distinct `(object, node)` pairs holding a pointer.
    len: usize,
}

impl ForwardingTable {
    /// Largest node count for which per-object dense rows are used.
    /// The same cut as the routing layer's exact lazy-tree tier: graphs
    /// up to 4096 nodes get arrays, larger ones get ordered maps.
    pub const DENSE_NODE_LIMIT: usize = 4096;

    /// An empty table for a graph of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        let repr = if nodes <= Self::DENSE_NODE_LIMIT {
            Repr::Dense { rows: Vec::new() }
        } else {
            Repr::Sparse(BTreeMap::new())
        };
        ForwardingTable {
            nodes,
            repr,
            len: 0,
        }
    }

    /// Record that `at` forwarded `object` toward `next`, overwriting
    /// any previous pointer for the pair.
    pub fn insert(&mut self, object: ObjectId, at: NodeId, next: NodeId) {
        debug_assert!(at.index() < self.nodes && next.index() < self.nodes);
        match &mut self.repr {
            Repr::Dense { rows } => {
                let o = object.index();
                if o >= rows.len() {
                    rows.resize(o + 1, None);
                }
                let row = rows[o].get_or_insert_with(|| vec![EMPTY; self.nodes].into_boxed_slice());
                if row[at.index()] == EMPTY {
                    self.len += 1;
                }
                row[at.index()] = next.0;
            }
            Repr::Sparse(map) => {
                if map.insert((object, at), next).is_none() {
                    self.len += 1;
                }
            }
        }
    }

    /// Where `at` last forwarded `object`, if it ever did.
    pub fn get(&self, object: ObjectId, at: NodeId) -> Option<NodeId> {
        match &self.repr {
            Repr::Dense { rows } => match rows.get(object.index()).and_then(|r| r.as_deref()) {
                Some(row) => match row[at.index()] {
                    EMPTY => None,
                    next => Some(NodeId(next)),
                },
                None => None,
            },
            Repr::Sparse(map) => map.get(&(object, at)).copied(),
        }
    }

    /// Number of distinct `(object, node)` pairs holding a pointer.
    /// Bounded by `objects × nodes` for the life of the run (pointers
    /// are overwritten in place, never accumulated).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pointer has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite_dense() {
        let mut t = ForwardingTable::new(8);
        assert!(t.is_empty());
        assert_eq!(t.get(ObjectId(3), NodeId(1)), None);
        t.insert(ObjectId(3), NodeId(1), NodeId(2));
        assert_eq!(t.get(ObjectId(3), NodeId(1)), Some(NodeId(2)));
        assert_eq!(t.len(), 1);
        // Overwrite does not grow the pair count.
        t.insert(ObjectId(3), NodeId(1), NodeId(5));
        assert_eq!(t.get(ObjectId(3), NodeId(1)), Some(NodeId(5)));
        assert_eq!(t.len(), 1);
        // A different node's pointer for the same object is distinct.
        t.insert(ObjectId(3), NodeId(4), NodeId(0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(ObjectId(3), NodeId(4)), Some(NodeId(0)));
        // Objects without a row answer None without allocating.
        assert_eq!(t.get(ObjectId(7), NodeId(0)), None);
    }

    #[test]
    fn sparse_fallback_matches_dense_semantics() {
        let nodes = ForwardingTable::DENSE_NODE_LIMIT + 1;
        let mut t = ForwardingTable::new(nodes);
        assert!(matches!(t.repr, Repr::Sparse(_)));
        t.insert(ObjectId(0), NodeId(4096), NodeId(17));
        t.insert(ObjectId(0), NodeId(4096), NodeId(18));
        assert_eq!(t.get(ObjectId(0), NodeId(4096)), Some(NodeId(18)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(ObjectId(1), NodeId(4096)), None);
    }

    #[test]
    fn clone_is_deep() {
        let mut t = ForwardingTable::new(4);
        t.insert(ObjectId(0), NodeId(0), NodeId(1));
        let snap = t.clone();
        t.insert(ObjectId(0), NodeId(0), NodeId(3));
        assert_eq!(snap.get(ObjectId(0), NodeId(0)), Some(NodeId(1)));
        assert_eq!(t.get(ObjectId(0), NodeId(0)), Some(NodeId(3)));
    }
}
