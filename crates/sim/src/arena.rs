//! Dense, generational arenas for the engine's runtime state.
//!
//! The engine previously kept live transactions and objects in
//! `BTreeMap`s keyed by their id newtypes, and then in slot-per-id
//! arenas. Slot-per-id is dense for closed batches but grows without
//! bound under open-system streams (transaction ids increase forever
//! while the live set stays small), so [`TxnArena`] now recycles
//! committed slots through a **free list**: a live-id → slot index map
//! preserves the id-ordered iteration the paper's algorithms (and the
//! golden traces) depend on, per-slot generation counters catch
//! stale-id/slot reuse (ABA) in debug builds, and the slot table never
//! holds more entries than the peak concurrent live set — the
//! bounded-memory invariant `slot_high_water() <= peak_live()` pinned by
//! the arena churn tests.
//!
//! [`RuntimeState`] bundles the two arenas with the per-object requester
//! index (every live transaction requesting each object) and the policy
//! window (the [`StepEffects`] between consecutive policy invocations) —
//! the raw material for incremental `H'_t` maintenance in `dtm-core`.

use crate::effects::StepEffects;
use crate::state::{LiveTxn, ObjectState};
use dtm_model::{ObjectId, TxnId};
use std::collections::VecDeque;

/// Map from [`TxnId`] to `T`, stored as a dense sliding id window.
///
/// Transaction ids are handed out monotonically and the live set is a
/// bounded window of that sequence, so a live-id map does not need an
/// ordered tree: values live in a `VecDeque` indexed by `id - base`
/// (`None` marking dead ids), giving O(1) get/insert/remove on the
/// engine's hot path. Dead entries at the front are trimmed on removal,
/// so memory stays O(live id window) no matter how many transactions
/// stream through. Iteration walks the window front-to-back: ascending
/// id, exactly the order of the `BTreeMap`s this replaces (pinned by the
/// golden traces). The one id-window type of the workspace: the
/// [`TxnArena`] slot index and `dtm-core`'s conflict cache both use it.
#[derive(Clone, Debug)]
pub struct IdWindow<T> {
    /// TxnId of `slots[0]`; meaningful only while `slots` is non-empty.
    base: u64,
    slots: VecDeque<Option<T>>,
    len: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }
}

impl<T> IdWindow<T> {
    /// Number of live ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no id is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value stored for `id`.
    #[inline]
    pub fn get(&self, id: TxnId) -> Option<&T> {
        let idx = id.0.checked_sub(self.base)? as usize;
        self.slots.get(idx)?.as_ref()
    }

    /// Mutable value stored for `id`.
    #[inline]
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut T> {
        let idx = id.0.checked_sub(self.base)? as usize;
        self.slots.get_mut(idx)?.as_mut()
    }

    /// Store `value` for `id`, returning the value it replaces.
    pub fn insert(&mut self, id: TxnId, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id.0;
        } else if id.0 < self.base {
            // Out-of-order low id (hand-built harness states): grow the
            // window's front.
            for _ in id.0..self.base {
                self.slots.push_front(None);
            }
            self.base = id.0;
        }
        let idx = (id.0 - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Remove `id`, returning its value.
    pub fn remove(&mut self, id: TxnId) -> Option<T> {
        let idx = id.0.checked_sub(self.base)? as usize;
        let value = self.slots.get_mut(idx)?.take()?;
        self.len -= 1;
        // Trim the dead front so `base` tracks the live window.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(value)
    }

    /// Remove every id.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.base = 0;
        self.len = 0;
    }

    /// `(id, value)` pairs in ascending id order.
    pub fn iter(&self) -> IdWindowIter<'_, T> {
        IdWindowIter {
            base: self.base,
            inner: self.slots.iter().enumerate(),
        }
    }
}

/// Window placement (`base`, dead-slot padding) is an implementation
/// detail: two windows are equal when they hold the same entries.
impl<T: PartialEq> PartialEq for IdWindow<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for IdWindow<T> {}

/// Ascending-id iterator over an [`IdWindow`].
pub struct IdWindowIter<'a, T> {
    base: u64,
    inner: std::iter::Enumerate<std::collections::vec_deque::Iter<'a, Option<T>>>,
}

impl<'a, T> Iterator for IdWindowIter<'a, T> {
    type Item = (TxnId, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        for (i, slot) in self.inner.by_ref() {
            if let Some(v) = slot {
                return Some((TxnId(self.base + i as u64), v));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.inner.size_hint().1)
    }
}

/// Arena of live transactions with free-list slot recycling.
///
/// A transaction occupies one slot while live; on removal the slot joins
/// the free list (LIFO) and is reused by a later insertion. New slots
/// are allocated only when the free list is empty — which happens
/// exactly when every slot is occupied — so the slot table's length
/// never exceeds the peak concurrent live-set size, no matter how many
/// transactions stream through. A slot's generation counter increments
/// on every (re)insertion so debug assertions can detect stale
/// references; iteration follows the live-id index, i.e. ascending
/// transaction id.
#[derive(Clone, Debug, Default)]
pub struct TxnArena {
    slots: Vec<Option<LiveTxn>>,
    /// Per-slot insertion counter (ABA detection across slot reuse).
    generations: Vec<u32>,
    /// Recycled slot indices, reused LIFO.
    free: Vec<u32>,
    /// Live id → occupied slot, in ascending id order.
    index: IdWindow<u32>,
    /// Largest concurrent live-set size ever observed.
    peak_live: usize,
    /// Largest slot-table length ever observed (monotone; survives
    /// [`TxnArena::compact`]).
    high_water: usize,
}

impl TxnArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live transactions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no transaction is live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Look up a live transaction.
    #[inline]
    pub fn get(&self, id: TxnId) -> Option<&LiveTxn> {
        let &slot = self.index.get(id)?;
        self.slots[slot as usize].as_ref()
    }

    /// Mutable lookup. Callers must not alter the transaction's object
    /// set (the requester index in [`RuntimeState`] is keyed by it).
    #[inline]
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut LiveTxn> {
        let &slot = self.index.get(id)?;
        self.slots[slot as usize].as_mut()
    }

    /// Insert a live transaction, reusing a recycled slot when one is
    /// free.
    ///
    /// # Panics
    /// Panics if a transaction with the same id is already live.
    pub fn insert(&mut self, lt: LiveTxn) {
        let id = lt.txn.id;
        assert!(self.index.get(id).is_none(), "txn {} already live", id);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                // Free list empty ⇒ all slots occupied ⇒ growth is
                // driven by the live set alone (the bounded-memory
                // invariant).
                self.slots.push(None);
                self.generations.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        let i = slot as usize;
        debug_assert!(self.slots[i].is_none(), "free-listed slot occupied");
        self.generations[i] = self.generations[i].wrapping_add(1);
        self.index.insert(id, slot);
        self.slots[i] = Some(lt);
        self.peak_live = self.peak_live.max(self.index.len());
        self.high_water = self.high_water.max(self.slots.len());
    }

    /// Remove a live transaction, returning it; its slot joins the free
    /// list for reuse.
    pub fn remove(&mut self, id: TxnId) -> Option<LiveTxn> {
        let slot = self.index.remove(id)?;
        let lt = self.slots[slot as usize].take();
        debug_assert!(lt.is_some(), "index pointed at an empty slot");
        self.free.push(slot);
        lt
    }

    /// Generation of the slot currently backing `id` (bumped on every
    /// insertion into that slot), or 0 if `id` is not live. Two live
    /// sightings of the same id with different generations mean the id
    /// was removed and reinserted in between — the stale-reference (ABA)
    /// signal the engine's debug assertions key on.
    pub fn generation(&self, id: TxnId) -> u32 {
        self.index
            .get(id)
            .map(|&s| self.generations[s as usize])
            .unwrap_or(0)
    }

    /// Largest concurrent live-set size ever observed.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Largest slot-table length ever observed: the arena's memory
    /// high-water mark in slots. Invariant: `slot_high_water() <=
    /// peak_live()` — slot recycling means capacity tracks the peak
    /// backlog, never the total number of transactions streamed through.
    pub fn slot_high_water(&self) -> usize {
        self.high_water
    }

    /// Current slot-table length (shrinks only via
    /// [`TxnArena::compact`]).
    pub fn slot_len(&self) -> usize {
        self.slots.len()
    }

    /// Release trailing unoccupied slots and excess capacity back to the
    /// allocator (the slot table is truncated past the highest live
    /// slot). Intended for quiescent points — e.g. after a burst drains —
    /// since truncated slots forget their generation counters; the
    /// monotone [`TxnArena::slot_high_water`] record is unaffected.
    pub fn compact(&mut self) {
        let keep = self
            .index
            .iter()
            .map(|(_, &s)| s as usize + 1)
            .max()
            .unwrap_or(0);
        self.slots.truncate(keep);
        self.generations.truncate(keep);
        self.free.retain(|&s| (s as usize) < keep);
        self.slots.shrink_to_fit();
        self.generations.shrink_to_fit();
        self.free.shrink_to_fit();
    }

    /// Live transaction ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.index.iter().map(|(id, _)| id)
    }

    /// Live transactions in ascending id order.
    pub fn iter(&self) -> TxnIter<'_> {
        TxnIter {
            index: self.index.iter(),
            slots: &self.slots,
        }
    }
}

/// Id-ordered iterator over a [`TxnArena`].
pub struct TxnIter<'a> {
    index: IdWindowIter<'a, u32>,
    slots: &'a [Option<LiveTxn>],
}

impl<'a> Iterator for TxnIter<'a> {
    type Item = &'a LiveTxn;

    fn next(&mut self) -> Option<Self::Item> {
        let (_, &slot) = self.index.next()?;
        self.slots[slot as usize].as_ref()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.index.size_hint()
    }
}

/// Dense arena of object states, indexed by [`ObjectId`]. Objects are
/// created once and never removed, so slot order *is* id order.
#[derive(Clone, Debug, Default)]
pub struct ObjectArena {
    slots: Vec<Option<ObjectState>>,
    count: usize,
}

impl ObjectArena {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of existing objects.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no object exists yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Look up an object.
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<&ObjectState> {
        self.slots.get(id.index())?.as_ref()
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, id: ObjectId) -> Option<&mut ObjectState> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    /// Insert an object at its id slot.
    ///
    /// # Panics
    /// Panics if the object already exists.
    pub fn insert(&mut self, st: ObjectState) {
        let i = st.info.id.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        assert!(
            self.slots[i].is_none(),
            "object {} already exists",
            st.info.id
        );
        self.slots[i] = Some(st);
        self.count += 1;
    }

    /// Existing object ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.iter().map(|st| st.info.id)
    }

    /// Objects in ascending id order.
    pub fn iter(&self) -> ObjectIter<'_> {
        ObjectIter {
            slots: self.slots.iter(),
        }
    }
}

/// Id-ordered iterator over an [`ObjectArena`].
pub struct ObjectIter<'a> {
    slots: std::slice::Iter<'a, Option<ObjectState>>,
}

impl<'a> Iterator for ObjectIter<'a> {
    type Item = &'a ObjectState;

    fn next(&mut self) -> Option<Self::Item> {
        for slot in self.slots.by_ref() {
            if let Some(st) = slot.as_ref() {
                return Some(st);
            }
        }
        None
    }
}

/// The engine's complete mutable runtime state: transaction and object
/// arenas, the per-object requester index, and the [`StepEffects`]
/// accumulated since the last policy invocation.
///
/// The requester index maps each object to *all* live transactions
/// requesting it (scheduled or not), in id order — the indexed backing
/// for [`crate::SystemView::requesters_of`] and the conflict queries of
/// `dtm-core`, replacing an O(live · k) rescan per query.
#[derive(Clone, Debug, Default)]
pub struct RuntimeState {
    txns: TxnArena,
    objects: ObjectArena,
    /// Per object id: live requesters, kept sorted by id and maintained
    /// on insert/remove. Sorted `Vec`s beat ordered trees here: the
    /// lists are small (the object's live contention), reads are
    /// id-ordered iteration, and writes are one binary search plus a
    /// short shift.
    requesters: Vec<Vec<TxnId>>,
    effects: StepEffects,
}

impl RuntimeState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The live-transaction arena.
    pub fn txns(&self) -> &TxnArena {
        &self.txns
    }

    /// The object arena.
    pub fn objects(&self) -> &ObjectArena {
        &self.objects
    }

    /// Insert a newly generated live transaction, indexing it as a
    /// requester of each of its objects.
    pub fn insert_txn(&mut self, lt: LiveTxn) {
        let id = lt.txn.id;
        for o in lt.txn.objects() {
            let i = o.index();
            if i >= self.requesters.len() {
                self.requesters.resize_with(i + 1, Vec::new);
            }
            let list = &mut self.requesters[i];
            if let Err(pos) = list.binary_search(&id) {
                list.insert(pos, id);
            }
        }
        self.txns.insert(lt);
    }

    /// Remove a live transaction (commit or abort), unindexing it.
    pub fn remove_txn(&mut self, id: TxnId) -> Option<LiveTxn> {
        let lt = self.txns.remove(id)?;
        for o in lt.txn.objects() {
            if let Some(list) = self.requesters.get_mut(o.index()) {
                if let Ok(pos) = list.binary_search(&id) {
                    list.remove(pos);
                }
            }
        }
        Some(lt)
    }

    /// Mutable access to a live transaction. Callers must not alter the
    /// transaction's object set (it keys the requester index).
    pub fn txn_mut(&mut self, id: TxnId) -> Option<&mut LiveTxn> {
        self.txns.get_mut(id)
    }

    /// Create an object.
    pub fn insert_object(&mut self, st: ObjectState) {
        self.objects.insert(st);
    }

    /// Mutable access to an object.
    pub fn object_mut(&mut self, id: ObjectId) -> Option<&mut ObjectState> {
        self.objects.get_mut(id)
    }

    /// All live transactions requesting `o` (scheduled or not), in id
    /// order.
    pub fn requesters_of(&self, o: ObjectId) -> impl Iterator<Item = TxnId> + '_ {
        self.requesters
            .get(o.index())
            .into_iter()
            .flat_map(|list| list.iter().copied())
    }

    /// The policy window: the effects since the last policy invocation.
    pub fn effects(&self) -> &StepEffects {
        &self.effects
    }

    /// Mutable policy window (engine-internal bookkeeping; exposed
    /// so harnesses and benchmarks can drive the state like the engine
    /// does).
    pub fn effects_mut(&mut self) -> &mut StepEffects {
        &mut self.effects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ObjectPlace;
    use dtm_graph::NodeId;
    use dtm_model::{ObjectInfo, Transaction};

    fn lt(id: u64, objs: &[u32]) -> LiveTxn {
        LiveTxn {
            txn: Transaction::new(TxnId(id), NodeId(0), objs.iter().map(|&o| ObjectId(o)), 0),
            scheduled: None,
        }
    }

    fn obj(id: u32) -> ObjectState {
        ObjectState {
            info: ObjectInfo {
                id: ObjectId(id),
                origin: NodeId(0),
                created_at: 0,
            },
            place: ObjectPlace::At(NodeId(0)),
            last_holder: None,
        }
    }

    #[test]
    fn id_window_trims_front_and_compares_by_content() {
        let mut w = IdWindow::default();
        for id in [10u64, 12, 7] {
            assert_eq!(w.insert(TxnId(id), id * 2), None);
        }
        assert_eq!(w.insert(TxnId(12), 0), Some(24));
        assert_eq!(w.len(), 3);
        assert_eq!(w.remove(TxnId(7)), Some(14));
        assert_eq!(w.remove(TxnId(7)), None);
        *w.get_mut(TxnId(10)).unwrap() += 1;
        let pairs: Vec<(u64, u64)> = w.iter().map(|(id, &v)| (id.0, v)).collect();
        assert_eq!(pairs, vec![(10, 21), (12, 0)]);
        // Same entries, different window placement: still equal.
        let mut fresh = IdWindow::default();
        fresh.insert(TxnId(12), 0);
        fresh.insert(TxnId(10), 21);
        assert_eq!(w, fresh);
        fresh.remove(TxnId(12));
        assert_ne!(w, fresh);
        w.clear();
        assert!(w.is_empty() && w.get(TxnId(10)).is_none());
    }

    #[test]
    fn txn_arena_iterates_in_id_order() {
        let mut a = TxnArena::new();
        for id in [5u64, 1, 9, 3] {
            a.insert(lt(id, &[0]));
        }
        let order: Vec<u64> = a.iter().map(|l| l.txn.id.0).collect();
        assert_eq!(order, vec![1, 3, 5, 9]);
        assert_eq!(a.len(), 4);
        a.remove(TxnId(5)).unwrap();
        assert_eq!(a.ids().map(|i| i.0).collect::<Vec<_>>(), vec![1, 3, 9]);
        assert!(a.get(TxnId(5)).is_none());
        assert!(a.remove(TxnId(5)).is_none());
    }

    #[test]
    fn txn_arena_generations_bump_on_reuse() {
        let mut a = TxnArena::new();
        a.insert(lt(2, &[0]));
        assert_eq!(a.generation(TxnId(2)), 1);
        a.remove(TxnId(2));
        a.insert(lt(2, &[0]));
        assert_eq!(a.generation(TxnId(2)), 2);
        assert_eq!(a.generation(TxnId(77)), 0);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn txn_arena_rejects_duplicate() {
        let mut a = TxnArena::new();
        a.insert(lt(1, &[0]));
        a.insert(lt(1, &[0]));
    }

    /// The bounded-memory invariant: slots track the peak *concurrent*
    /// live set, not the total ids streamed through.
    #[test]
    fn txn_arena_recycles_slots_under_churn() {
        let mut a = TxnArena::new();
        // Stream 1000 transactions with at most 3 concurrently live.
        for id in 0u64..1000 {
            a.insert(lt(id, &[0]));
            if id >= 2 {
                a.remove(TxnId(id - 2)).unwrap();
            }
        }
        assert_eq!(a.len(), 2);
        assert_eq!(a.peak_live(), 3);
        assert_eq!(a.slot_high_water(), 3);
        assert!(a.slot_len() <= a.peak_live());
        // Recycled ids stay addressable, id order intact.
        let order: Vec<u64> = a.iter().map(|l| l.txn.id.0).collect();
        assert_eq!(order, vec![998, 999]);
    }

    #[test]
    fn txn_arena_generation_distinguishes_slot_reuse_across_ids() {
        let mut a = TxnArena::new();
        a.insert(lt(1, &[0]));
        let g1 = a.generation(TxnId(1));
        a.remove(TxnId(1)).unwrap();
        // A *different* id reuses the recycled slot: its generation must
        // differ from the dead tenant's, so a stale (id 1, gen g1)
        // reference can never be confused with the new occupant.
        a.insert(lt(2, &[0]));
        assert_eq!(a.generation(TxnId(2)), g1 + 1);
        assert_eq!(a.generation(TxnId(1)), 0, "dead id reads as gen 0");
    }

    #[test]
    fn txn_arena_compact_releases_trailing_slots() {
        let mut a = TxnArena::new();
        for id in 0u64..8 {
            a.insert(lt(id, &[0]));
        }
        for id in 2u64..8 {
            a.remove(TxnId(id)).unwrap();
        }
        assert_eq!(a.slot_len(), 8);
        a.compact();
        // Ids 0 and 1 occupy slots 0 and 1; everything past is released.
        assert_eq!(a.slot_len(), 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.slot_high_water(), 8, "high-water record is monotone");
        assert!(a.get(TxnId(0)).is_some() && a.get(TxnId(1)).is_some());
        // The arena keeps working after compaction.
        a.insert(lt(9, &[0]));
        assert_eq!(a.len(), 3);
        // Fully drained + compacted: zero slots.
        for id in [0u64, 1, 9] {
            a.remove(TxnId(id)).unwrap();
        }
        a.compact();
        assert_eq!(a.slot_len(), 0);
        assert!(a.is_empty());
    }

    #[test]
    fn object_arena_slot_order_is_id_order() {
        let mut a = ObjectArena::new();
        a.insert(obj(4));
        a.insert(obj(0));
        a.insert(obj(2));
        let order: Vec<u32> = a.iter().map(|st| st.info.id.0).collect();
        assert_eq!(order, vec![0, 2, 4]);
        assert_eq!(a.len(), 3);
        assert!(a.get(ObjectId(1)).is_none());
        assert!(a.get(ObjectId(2)).is_some());
    }

    #[test]
    fn requester_index_tracks_inserts_and_removes() {
        let mut s = RuntimeState::new();
        s.insert_object(obj(0));
        s.insert_object(obj(1));
        s.insert_txn(lt(3, &[0, 1]));
        s.insert_txn(lt(1, &[1]));
        let reqs = |s: &RuntimeState, o: u32| -> Vec<u64> {
            s.requesters_of(ObjectId(o)).map(|t| t.0).collect()
        };
        assert_eq!(reqs(&s, 0), vec![3]);
        assert_eq!(reqs(&s, 1), vec![1, 3]);
        s.remove_txn(TxnId(3));
        assert_eq!(reqs(&s, 0), Vec::<u64>::new());
        assert_eq!(reqs(&s, 1), vec![1]);
        // Unknown object: empty, no panic.
        assert_eq!(reqs(&s, 9), Vec::<u64>::new());
    }
}
