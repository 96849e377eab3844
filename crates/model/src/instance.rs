//! Workload instances: object placements plus transactions.

use crate::ids::{ObjectId, Time, TxnId};
use crate::txn::Transaction;
use dtm_graph::{Network, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A shared object: where and when it was created (Section II: "an object
/// is created at some time step at some node").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectInfo {
    /// The object id.
    pub id: ObjectId,
    /// Node at which the object initially resides.
    pub origin: NodeId,
    /// Creation time (0 for all paper workloads).
    pub created_at: Time,
}

/// Validation failures for an [`Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// A transaction home or object origin is outside the graph.
    NodeOutOfRange(NodeId),
    /// A transaction references an unknown object.
    UnknownObject(TxnId, ObjectId),
    /// Duplicate transaction id.
    DuplicateTxn(TxnId),
    /// Duplicate object id.
    DuplicateObject(ObjectId),
    /// A transaction requests an object created after its generation time.
    ObjectNotYetCreated(TxnId, ObjectId),
    /// A transaction's object list is not strictly ascending (unsorted or
    /// with a duplicate); only a deserialized instance can hold one.
    UnsortedObjects(TxnId),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::NodeOutOfRange(v) => write!(f, "node {v} out of range"),
            InstanceError::UnknownObject(t, o) => write!(f, "{t} requests unknown object {o}"),
            InstanceError::DuplicateTxn(t) => write!(f, "duplicate transaction id {t}"),
            InstanceError::DuplicateObject(o) => write!(f, "duplicate object id {o}"),
            InstanceError::ObjectNotYetCreated(t, o) => {
                write!(f, "{t} requests {o} before it is created")
            }
            InstanceError::UnsortedObjects(t) => {
                write!(f, "{t} lists its objects out of order or twice")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A workload instance: the objects, their initial placements, and the
/// transactions with their generation times.
///
/// A *batch* instance (the SPAA'17 offline setting, Section IV-D: `w`
/// objects, at most one transaction per node, up to `k` objects per
/// transaction) has all generation times zero; the online setting allows
/// arbitrary generation times. [`Instance::is_batch`] distinguishes them.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Instance {
    /// The shared objects.
    pub objects: Vec<ObjectInfo>,
    /// The transactions, in generation order (ties by id).
    pub txns: Vec<Transaction>,
}

impl Instance {
    /// Build and normalize an instance: transactions are sorted by
    /// `(generated_at, id)` and objects by id.
    pub fn new(objects: Vec<ObjectInfo>, mut txns: Vec<Transaction>) -> Self {
        let mut objects = objects;
        objects.sort_unstable_by_key(|o| o.id);
        txns.sort_unstable_by_key(|t| (t.generated_at, t.id));
        Instance { objects, txns }
    }

    /// Number of objects (`w` in the paper).
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Number of transactions.
    pub fn num_txns(&self) -> usize {
        self.txns.len()
    }

    /// Maximum object-set size over all transactions (`k`).
    pub fn k_max(&self) -> usize {
        self.txns.iter().map(|t| t.k()).max().unwrap_or(0)
    }

    /// True if every transaction is generated at time 0 (offline batch).
    pub fn is_batch(&self) -> bool {
        self.txns.iter().all(|t| t.generated_at == 0)
    }

    /// Look up a transaction by id (linear in the worst case, but ids are
    /// normally dense and sorted; uses binary search on generation order
    /// falling back to scan).
    pub fn txn(&self, id: TxnId) -> Option<&Transaction> {
        self.txns.iter().find(|t| t.id == id)
    }

    /// Look up an object's info.
    pub fn object(&self, id: ObjectId) -> Option<&ObjectInfo> {
        self.objects
            .binary_search_by_key(&id, |o| o.id)
            .ok()
            .map(|i| &self.objects[i])
    }

    /// Per-object list of requesting transactions (in `(generated_at, id)`
    /// order). Key set = objects actually requested.
    pub fn requesters(&self) -> BTreeMap<ObjectId, Vec<TxnId>> {
        let mut map: BTreeMap<ObjectId, Vec<TxnId>> = BTreeMap::new();
        for t in &self.txns {
            for o in t.objects() {
                map.entry(o).or_default().push(t.id);
            }
        }
        map
    }

    /// `l_max`: the maximum number of transactions requesting any single
    /// object — a fundamental lower-bound ingredient (Theorem 3's analysis).
    pub fn l_max(&self) -> usize {
        let mut counts: BTreeMap<ObjectId, usize> = BTreeMap::new();
        for t in &self.txns {
            for o in t.objects() {
                *counts.entry(o).or_insert(0) += 1;
            }
        }
        counts.values().copied().max().unwrap_or(0)
    }

    /// Validate against a network: nodes in range, object references known,
    /// ids unique, object lists strictly ascending, creation times
    /// consistent.
    pub fn validate(&self, network: &Network) -> Result<(), InstanceError> {
        let n = network.n();
        let mut obj_ids = BTreeSet::new();
        for o in &self.objects {
            if o.origin.index() >= n {
                return Err(InstanceError::NodeOutOfRange(o.origin));
            }
            if !obj_ids.insert(o.id) {
                return Err(InstanceError::DuplicateObject(o.id));
            }
        }
        let mut txn_ids = BTreeSet::new();
        for t in &self.txns {
            if t.home.index() >= n {
                return Err(InstanceError::NodeOutOfRange(t.home));
            }
            if !txn_ids.insert(t.id) {
                return Err(InstanceError::DuplicateTxn(t.id));
            }
            let mut prev = None;
            for o in t.objects() {
                if prev >= Some(o) {
                    return Err(InstanceError::UnsortedObjects(t.id));
                }
                prev = Some(o);
                match self.object(o) {
                    None => return Err(InstanceError::UnknownObject(t.id, o)),
                    Some(info) if info.created_at > t.generated_at => {
                        return Err(InstanceError::ObjectNotYetCreated(t.id, o))
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }

    /// Restrict to the transactions generated at exactly time `t`
    /// (`T_t^g` in the paper's notation).
    pub fn generated_at(&self, t: Time) -> impl Iterator<Item = &Transaction> {
        self.txns.iter().filter(move |x| x.generated_at == t)
    }

    /// Latest generation time in the instance.
    pub fn horizon(&self) -> Time {
        self.txns.iter().map(|t| t.generated_at).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;

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

    fn sample() -> Instance {
        Instance::new(
            vec![obj(0, 0), obj(1, 1), obj(2, 2)],
            vec![
                txn(0, 0, &[0, 1], 0),
                txn(1, 1, &[1], 0),
                txn(2, 2, &[2, 0], 3),
            ],
        )
    }

    #[test]
    fn stats() {
        let inst = sample();
        assert_eq!(inst.num_objects(), 3);
        assert_eq!(inst.num_txns(), 3);
        assert_eq!(inst.k_max(), 2);
        assert_eq!(inst.l_max(), 2); // objects 0 and 1 each requested twice
        assert!(!inst.is_batch());
        assert_eq!(inst.horizon(), 3);
    }

    #[test]
    fn sorted_by_generation() {
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(5, 0, &[0], 7), txn(1, 1, &[0], 2), txn(9, 2, &[0], 2)],
        );
        let ids: Vec<u64> = inst.txns.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![1, 9, 5]);
    }

    #[test]
    fn validates_against_network() {
        let net = topology::line(4);
        sample().validate(&net).unwrap();
    }

    #[test]
    fn rejects_unknown_object() {
        let net = topology::line(4);
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 0, &[0, 7], 0)]);
        assert_eq!(
            inst.validate(&net),
            Err(InstanceError::UnknownObject(TxnId(0), ObjectId(7)))
        );
    }

    #[test]
    fn rejects_out_of_range_home() {
        let net = topology::line(2);
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 9, &[0], 0)]);
        assert_eq!(
            inst.validate(&net),
            Err(InstanceError::NodeOutOfRange(NodeId(9)))
        );
    }

    #[test]
    fn rejects_duplicate_ids() {
        let net = topology::line(4);
        let inst = Instance::new(vec![obj(0, 0), obj(0, 1)], vec![]);
        assert_eq!(
            inst.validate(&net),
            Err(InstanceError::DuplicateObject(ObjectId(0)))
        );
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(3, 0, &[0], 0), txn(3, 1, &[0], 0)],
        );
        assert_eq!(
            inst.validate(&net),
            Err(InstanceError::DuplicateTxn(TxnId(3)))
        );
    }

    #[test]
    fn rejects_premature_request() {
        let net = topology::line(4);
        let late_obj = ObjectInfo {
            id: ObjectId(0),
            origin: NodeId(0),
            created_at: 10,
        };
        let inst = Instance::new(vec![late_obj], vec![txn(0, 0, &[0], 5)]);
        assert_eq!(
            inst.validate(&net),
            Err(InstanceError::ObjectNotYetCreated(TxnId(0), ObjectId(0)))
        );
    }

    #[test]
    fn rejects_unsorted_object_list() {
        let net = topology::line(4);
        for objects in ["[[1],[0]]", "[[0],[0]]", "[[0],[1],[1]]"] {
            let json = format!(r#"{{"id":[5],"home":[0],"objects":{objects},"generated_at":0}}"#);
            let t: Transaction = serde_json::from_str(&json).unwrap();
            let inst = Instance::new(vec![obj(0, 0), obj(1, 1)], vec![t]);
            assert_eq!(
                inst.validate(&net),
                Err(InstanceError::UnsortedObjects(TxnId(5))),
                "{objects}"
            );
        }
    }

    #[test]
    fn requesters_in_generation_order() {
        let inst = sample();
        let req = inst.requesters();
        assert_eq!(req[&ObjectId(0)], vec![TxnId(0), TxnId(2)]);
        assert_eq!(req[&ObjectId(1)], vec![TxnId(0), TxnId(1)]);
    }

    #[test]
    fn batch_detection() {
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(0, 0, &[0], 0), txn(1, 1, &[0], 0)],
        );
        assert!(inst.is_batch());
    }

    #[test]
    fn serde_roundtrip() {
        let inst = sample();
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_txns(), inst.num_txns());
        assert_eq!(back.txns, inst.txns);
    }
}
