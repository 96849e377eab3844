//! Id-sorted columns: the per-transaction records of a sealed
//! [`crate::RunResult`].
//!
//! A full-retention run keeps append-only logs (retired bodies, commits);
//! sealing sorts each log in place by transaction id rather than
//! building an ordered map from it. [`IdColumn`] is the sealed form: one
//! `Vec` sorted by id, each id once, read through the part of the
//! `BTreeMap` API that result consumers use — `get`, `[&id]`, `len`,
//! `is_empty` and `iter`/`keys`/`values` in id order — with lookups by
//! binary search.

use dtm_model::{Transaction, TxnId};
use std::ops::Index;

/// One record of an [`IdColumn`]: a value keyed by the transaction id the
/// record carries.
pub trait IdEntry {
    /// What a lookup returns.
    type Value;
    /// The record's transaction id.
    fn id(&self) -> &TxnId;
    /// The record's value.
    fn value(&self) -> &Self::Value;
}

/// A transaction body is keyed by its own id.
impl IdEntry for Transaction {
    type Value = Transaction;
    fn id(&self) -> &TxnId {
        &self.id
    }
    fn value(&self) -> &Transaction {
        self
    }
}

/// An `(id, value)` pair, e.g. a commit `(txn, time)`.
impl<V> IdEntry for (TxnId, V) {
    type Value = V;
    fn id(&self) -> &TxnId {
        &self.0
    }
    fn value(&self) -> &V {
        &self.1
    }
}

/// Records sorted by transaction id, each id at most once.
///
/// Built by [`FromIterator`] from records in any order (of equal ids the
/// last one wins, as when collecting into a map), or by the run seal from
/// a log it has already sorted in place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdColumn<E> {
    entries: Vec<E>,
}

impl<E> Default for IdColumn<E> {
    fn default() -> Self {
        IdColumn {
            entries: Vec::new(),
        }
    }
}

/// Iterator over an [`IdColumn`]'s `(id, value)` pairs in id order.
pub type Iter<'a, E> =
    std::iter::Map<std::slice::Iter<'a, E>, fn(&'a E) -> (&'a TxnId, &'a <E as IdEntry>::Value)>;

impl<E: IdEntry> IdColumn<E> {
    /// Column of `entries` sorted by id, equal ids in record order: of
    /// each run of equal ids the last record is kept.
    pub(crate) fn from_sorted(mut entries: Vec<E>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].id() <= w[1].id()));
        // `dedup_by` drops the later of two equal neighbours; swapping
        // first makes the later record the one that stays.
        entries.dedup_by(|later, kept| {
            let same = later.id() == kept.id();
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        IdColumn { entries }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value recorded for `id`.
    pub fn get(&self, id: &TxnId) -> Option<&E::Value> {
        self.entries
            .binary_search_by(|e| e.id().cmp(id))
            .ok()
            .map(|i| self.entries[i].value())
    }

    /// `(id, value)` pairs in id order.
    pub fn iter(&self) -> Iter<'_, E> {
        let pair: fn(&E) -> (&TxnId, &E::Value) = |e| (e.id(), e.value());
        self.entries.iter().map(pair)
    }

    /// Ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &TxnId> + '_ {
        self.entries.iter().map(E::id)
    }

    /// Values in id order.
    pub fn values(&self) -> impl Iterator<Item = &E::Value> + '_ {
        self.entries.iter().map(E::value)
    }

    /// The records themselves, in id order.
    pub(crate) fn as_slice(&self) -> &[E] {
        &self.entries
    }
}

impl<E: IdEntry> FromIterator<E> for IdColumn<E> {
    fn from_iter<I: IntoIterator<Item = E>>(iter: I) -> Self {
        let mut entries: Vec<E> = iter.into_iter().collect();
        // Stable, so equal ids stay in input order for `from_sorted`.
        entries.sort_by_key(|e| *e.id());
        IdColumn::from_sorted(entries)
    }
}

impl<'a, E: IdEntry> IntoIterator for &'a IdColumn<E> {
    type Item = (&'a TxnId, &'a E::Value);
    type IntoIter = Iter<'a, E>;
    fn into_iter(self) -> Iter<'a, E> {
        self.iter()
    }
}

impl<E: IdEntry> Index<&TxnId> for IdColumn<E> {
    type Output = E::Value;

    /// # Panics
    /// Panics if `id` has no record, like indexing a `BTreeMap`.
    fn index(&self, id: &TxnId) -> &E::Value {
        match self.get(id) {
            Some(v) => v,
            None => panic!("no record for {id} in the column"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::NodeId;
    use dtm_model::{ObjectId, Time};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn body(id: u64, generated_at: Time) -> Transaction {
        Transaction::new(TxnId(id), NodeId(0), [ObjectId(0)], generated_at)
    }

    #[test]
    fn unsorted_input_comes_out_in_id_order() {
        let col: IdColumn<Transaction> = [body(5, 0), body(1, 2), body(3, 1)].into_iter().collect();
        assert_eq!(
            col.keys().copied().collect::<Vec<_>>(),
            [TxnId(1), TxnId(3), TxnId(5)]
        );
        let gens: Vec<Time> = col.values().map(|tx| tx.generated_at).collect();
        assert_eq!(gens, [2, 1, 0]);
        assert_eq!(col.len(), 3);
        assert!(!col.is_empty());
        assert_eq!(col[&TxnId(3)].generated_at, 1);
    }

    #[test]
    fn absent_id_gets_none() {
        let col: IdColumn<(TxnId, Time)> = [(TxnId(2), 7), (TxnId(4), 9)].into_iter().collect();
        assert_eq!(col.get(&TxnId(4)), Some(&9));
        for absent in [0, 3, 5] {
            assert_eq!(col.get(&TxnId(absent)), None);
        }
        let empty = IdColumn::<(TxnId, Time)>::default();
        assert!(empty.is_empty());
        assert_eq!(empty.get(&TxnId(0)), None);
    }

    #[test]
    #[should_panic(expected = "no record for T3")]
    fn indexing_an_absent_id_panics() {
        let col: IdColumn<(TxnId, Time)> = [(TxnId(2), 7)].into_iter().collect();
        let _ = col[&TxnId(3)];
    }

    #[test]
    fn duplicate_ids_keep_the_last_record() {
        let col: IdColumn<(TxnId, Time)> = [(TxnId(1), 5), (TxnId(0), 1), (TxnId(1), 3)]
            .into_iter()
            .collect();
        assert_eq!(col.as_slice(), [(TxnId(0), 1), (TxnId(1), 3)]);
        let bodies: IdColumn<Transaction> = [body(4, 9), body(4, 2)].into_iter().collect();
        assert_eq!(bodies.len(), 1);
        assert_eq!(bodies[&TxnId(4)].generated_at, 2);
    }

    proptest! {
        /// Any record sequence seals to the map `collect()` builds from
        /// it: same pairs in the same order, same lookups.
        #[test]
        fn column_matches_collected_map(
            records in proptest::collection::vec((0u64..40, 0u64..1000), 0..80),
        ) {
            let records: Vec<(TxnId, Time)> =
                records.into_iter().map(|(id, t)| (TxnId(id), t)).collect();
            let map: BTreeMap<TxnId, Time> = records.iter().copied().collect();
            let col: IdColumn<(TxnId, Time)> = records.into_iter().collect();
            prop_assert_eq!(col.len(), map.len());
            prop_assert!(col.iter().eq(map.iter()));
            prop_assert!(col.keys().eq(map.keys()));
            prop_assert!(col.values().eq(map.values()));
            for id in 0..41 {
                prop_assert_eq!(col.get(&TxnId(id)), map.get(&TxnId(id)));
            }
        }
    }
}
