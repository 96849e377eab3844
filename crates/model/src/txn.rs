//! Transactions of the data-flow model.

use crate::ids::{ObjectId, Time, TxnId};
use dtm_graph::NodeId;
use serde::{Deserialize, Serialize};

/// A transaction `T`: an atomic block residing at node `home` that needs
/// the objects `O(T)` and executes instantly once all of them have arrived
/// (Section II — "all delays in our model are due to communication").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Globally unique id.
    pub id: TxnId,
    /// The node where the transaction resides and executes.
    pub home: NodeId,
    /// The object set `O(T)`, sorted by object id, no duplicates. A
    /// deserialized list is checked by [`crate::Instance::validate`].
    objects: Vec<ObjectId>,
    /// The time step the transaction was generated.
    pub generated_at: Time,
}

impl Transaction {
    /// Build a transaction. Objects are sorted and deduplicated.
    pub fn new(
        id: TxnId,
        home: NodeId,
        objects: impl IntoIterator<Item = ObjectId>,
        generated_at: Time,
    ) -> Self {
        let mut objects: Vec<ObjectId> = objects.into_iter().collect();
        objects.sort_unstable();
        objects.dedup();
        Transaction {
            id,
            home,
            objects,
            generated_at,
        }
    }

    /// The object set `O(T)`, sorted.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.iter().copied()
    }

    /// Number of requested objects (`k` for this transaction).
    #[inline]
    pub fn k(&self) -> usize {
        self.objects.len()
    }

    /// Does this transaction request `object`?
    pub fn uses(&self, object: ObjectId) -> bool {
        self.objects.binary_search(&object).is_ok()
    }

    /// The paper's conflict test, `O(T1) ∩ O(T2) ≠ ∅`: objects are
    /// single-copy and mobile, so any two requests of one object
    /// serialize.
    pub fn shares_objects(&self, other: &Transaction) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.objects.len() && j < other.objects.len() {
            match self.objects[i].cmp(&other.objects[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, objs: &[u32]) -> Transaction {
        Transaction::new(TxnId(id), NodeId(0), objs.iter().map(|&o| ObjectId(o)), 0)
    }

    #[test]
    fn new_sorts_and_dedups() {
        let tx = t(1, &[3, 1, 3, 2]);
        let objs: Vec<u32> = tx.objects().map(|o| o.0).collect();
        assert_eq!(objs, vec![1, 2, 3]);
        assert_eq!(tx.k(), 3);
    }

    #[test]
    fn conflict_on_shared_object() {
        let a = t(1, &[1, 2]);
        let b = t(2, &[2, 3]);
        let c = t(3, &[4]);
        assert!(a.shares_objects(&b));
        assert!(b.shares_objects(&a));
        assert!(!a.shares_objects(&c));
        assert!(!c.shares_objects(&a));
    }

    #[test]
    fn uses_lookup() {
        let tx = t(1, &[5, 9]);
        assert!(tx.uses(ObjectId(5)));
        assert!(!tx.uses(ObjectId(6)));
    }

    #[test]
    fn empty_object_set_never_conflicts() {
        let a = t(1, &[]);
        let b = t(2, &[1, 2, 3]);
        assert!(!a.shares_objects(&b));
        assert!(!b.shares_objects(&a));
        assert_eq!(a.k(), 0);
    }
}
