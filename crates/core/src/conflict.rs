//! Incrementally-maintained conflict structure of the extended
//! dependency graph `H'_t` (Section III-B), driven by the kernel's
//! [`dtm_sim::StepEffects`] deltas.
//!
//! [`crate::constraints_for`] / [`crate::extended_degrees`] recompute a
//! transaction's conflict neighborhood — a requester-set union plus one
//! `network.distance` query per conflicting pair — from scratch on every
//! call. `H'_t` evolves by small deltas per step (arrivals add a
//! vertex and its edges, commits/aborts delete them, deliveries only
//! move objects), so [`ConflictCache`] maintains the pairwise structure
//! across steps instead, under the same refresh-fold discipline as
//! [`crate::FixedCache`]:
//!
//! * `fx.arrived` — each arrival gets a cache entry; its conflict edges
//!   are found through the per-object requester index
//!   ([`SystemView::for_each_requester`]) and the home-to-home distance
//!   of each pair is computed **once** and memoized on both endpoints.
//!   Two same-window arrivals are linked when the later one is folded
//!   (the earlier one is already in the cache by then), so fold order —
//!   `fx.arrived` order — does not leave dangling half-edges.
//! * `fx.removed()` — the entry is deleted and the transaction is
//!   unlinked from every neighbor's edge list.
//! * deliveries/departures — no cache impact: object positions enter
//!   constraints only through the per-query holder pass, which reads
//!   the view fresh (the "current transaction" `Z_t(o)` constraints are
//!   O(k) per query, not worth caching).
//!
//! Scheduled times are likewise read fresh at query time, so
//! `fx.scheduled` needs no folding here: the cached state is exactly
//! the conflict *topology* plus distances, both immutable for a live
//! transaction's lifetime.
//!
//! **Determinism.** Edge lists are kept sorted by transaction id, so
//! [`ConflictCache::constraints_into`] emits constraints in the same
//! id order as [`crate::constraints_for`]'s `conflicting_live` scan —
//! byte-identical schedules, pinned by the golden traces and the
//! equivalence tests below.
//!
//! **Boundedness (open-system audit).** Entries leave via
//! `fx.removed()` as transactions commit or abort; edges are removed
//! with either endpoint. The cache is O(live set + live conflict
//! edges) no matter how many transactions stream through.

use crate::coloring::ColorConstraint;
use crate::dependency::{constraints_for, extended_degrees, ExtendedDegrees};
use dtm_graph::{NodeId, Weight};
use dtm_model::{Time, Transaction, TxnId};
use dtm_sim::{IdWindow, SystemView};
use std::collections::BTreeMap;

/// Debug-build divergence checks (incremental state versus a full
/// rescan) run on every `DIVERGENCE_SAMPLE_PERIOD`-th refresh rather
/// than every step: the full rescan is O(live²) and made debug-mode
/// streaming tests pay it per tick. Shared with [`crate::FixedCache`].
#[cfg_attr(not(debug_assertions), allow(dead_code))] // referenced only by the debug-build divergence checks
pub(crate) const DIVERGENCE_SAMPLE_PERIOD: u64 = 64;

/// One live transaction's cached neighborhood in `H'_t`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CacheEntry {
    /// The transaction's home node (memoized for rebuild comparisons).
    home: NodeId,
    /// Conflicting live transactions, sorted by id, with the memoized
    /// **raw** home-to-home distance (the `.max(1)` same-home floor is
    /// applied at query time; the distributed protocol's conflict
    /// radius wants the raw value).
    // dtm-lint: bounded -- one edge per live conflicting txn; remove() erases both directions
    edges: Vec<(TxnId, Weight)>,
}

/// Incrementally-maintained conflict pairs + memoized distances for all
/// live transactions. See the module docs for the delta discipline.
#[derive(Clone, Debug, Default)]
pub struct ConflictCache {
    /// Cache entries over the live id window (ascending id iteration).
    entries: IdWindow<CacheEntry>,
    init: bool,
    /// Refresh counter driving the sampled debug divergence check.
    refreshes: u64,
    /// Scratch pair buffer reused across arrival folds.
    // dtm-lint: bounded -- cleared every arrival fold; capacity plateaus at the largest neighborhood
    scratch: Vec<(TxnId, Weight)>,
    /// Edge-list allocations recycled from removed entries into new
    /// arrivals, so a warmed cache folds deltas without allocating.
    // dtm-lint: bounded -- recycled edge lists, at most one per removed live entry
    pool: Vec<Vec<(TxnId, Weight)>>,
}

impl ConflictCache {
    /// Bring the cache up to date with `view`. Must be called once per
    /// policy step, *before* any early-return the policy takes
    /// (otherwise a step's effects are silently dropped). The first call
    /// builds the cache from the live set; later calls fold the
    /// [`dtm_sim::StepEffects`] deltas.
    // dtm-lint: hot-path
    pub fn refresh(&mut self, view: &SystemView<'_>) {
        if self.init {
            let fx = view.step_effects();
            // Removals first: a removed transaction has already left the
            // requester index, so the arrivals below never see it.
            for id in fx.removed() {
                self.remove(id);
            }
            for &id in &fx.arrived {
                self.add_arrival(view, id);
            }
        } else {
            self.rebuild(view);
        }
        self.refreshes = self.refreshes.wrapping_add(1);
        #[cfg(debug_assertions)]
        if self.refreshes.is_multiple_of(DIVERGENCE_SAMPLE_PERIOD) {
            self.assert_matches_rescan(view);
        }
    }

    /// Constraints and `H'_t` degree statistics for `txn` in one pass
    /// over its cached edges — the fused, allocation-free equivalent of
    /// [`crate::constraints_for`] followed by
    /// [`crate::extended_degrees`]. Constraints land in `out` (cleared
    /// first) in the exact order of the uncached path: conflict
    /// constraints in neighbor-id order, then holder constraints in
    /// object order.
    // dtm-lint: hot-path
    pub fn constraints_into(
        &self,
        view: &SystemView<'_>,
        txn: &Transaction,
        extra_colored: &BTreeMap<TxnId, Time>,
        out: &mut Vec<ColorConstraint>,
    ) -> ExtendedDegrees {
        out.clear();
        let now = view.now;
        let mut deg = ExtendedDegrees::default();
        let Some(entry) = self.entries.get(txn.id) else {
            // A query for a transaction the refresh never saw: fall back
            // to the scan path (correct, just slower).
            debug_assert!(false, "constraints_into for uncached {}", txn.id);
            out.extend(constraints_for(view, txn, extra_colored));
            return extended_degrees(view, txn);
        };
        for &(nb, d) in &entry.edges {
            let Some(other) = view.live(nb) else {
                debug_assert!(false, "cached edge {} -> dead {}", txn.id, nb);
                continue;
            };
            let weight = d.max(1);
            deg.degree += 1;
            deg.weighted_degree += weight;
            let color = match (other.scheduled, extra_colored.get(&nb)) {
                (Some(t), _) => t.saturating_sub(now),
                (None, Some(&c)) => c,
                (None, None) => continue, // uncolored: constrains degrees only
            };
            out.push(ColorConstraint::new(color, weight));
        }
        for o in txn.objects() {
            if let Some(state) = view.object(o) {
                let w = state.effective_distance(view.network, txn.home, now);
                if w > 0 {
                    out.push(ColorConstraint::new(0, w));
                    deg.degree += 1;
                    deg.weighted_degree += w;
                }
            }
        }
        deg
    }

    /// Conflict-set summary for the distributed protocol's discovery
    /// phase: `(number of conflicting live transactions, furthest raw
    /// home-to-home distance)`. `None` if `id` is not cached.
    pub fn conflict_stats(&self, id: TxnId) -> Option<(usize, Weight)> {
        self.entries.get(id).map(|e| {
            let radius = e.edges.iter().map(|&(_, d)| d).max().unwrap_or(0);
            (e.edges.len(), radius)
        })
    }

    /// Number of cached live transactions (for boundedness assertions).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no transaction is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    // dtm-lint: hot-path
    fn remove(&mut self, id: TxnId) {
        let Some(mut entry) = self.entries.remove(id) else {
            return;
        };
        for &(nb, _) in &entry.edges {
            if let Some(e) = self.entries.get_mut(nb) {
                if let Ok(i) = e.edges.binary_search_by_key(&id, |&(t, _)| t) {
                    e.edges.remove(i);
                }
            }
        }
        entry.edges.clear();
        self.pool.push(entry.edges);
    }

    // dtm-lint: hot-path
    fn add_arrival(&mut self, view: &SystemView<'_>, id: TxnId) {
        let Some(lt) = view.live(id) else {
            // Arrived and removed inside one window cannot happen under
            // engine phase order (generate precedes execute); tolerate
            // it for hand-driven harnesses.
            return;
        };
        let home = lt.txn.home;
        let mut pairs = std::mem::take(&mut self.scratch);
        pairs.clear();
        for o in lt.txn.objects() {
            view.for_each_requester(o, |r| {
                if r != id {
                    pairs.push((r, 0));
                }
            });
        }
        pairs.sort_unstable_by_key(|&(r, _)| r);
        pairs.dedup_by_key(|p| p.0);
        // Keep only neighbors already cached (a same-window co-arrival
        // ordered after `id` links the pair when its own fold runs),
        // memoizing the raw pair distance while the entry is at hand.
        pairs.retain_mut(|p| match self.entries.get(p.0) {
            Some(e) => {
                p.1 = view.network.distance(home, e.home);
                true
            }
            None => false,
        });
        for &(r, d) in &pairs {
            let e = self.entries.get_mut(r).expect("retained to cached"); // dtm-lint: allow(C1) -- pairs was filtered to cached ids just above
            if let Err(i) = e.edges.binary_search_by_key(&id, |&(t, _)| t) {
                e.edges.insert(i, (id, d));
            }
        }
        let mut edges = self.pool.pop().unwrap_or_default();
        edges.extend_from_slice(&pairs);
        pairs.clear();
        self.scratch = pairs;
        self.entries.insert(id, CacheEntry { home, edges });
    }

    fn rebuild(&mut self, view: &SystemView<'_>) {
        self.entries.clear();
        for lt in view.live_txns() {
            let edges = view
                .conflicting_live(&lt.txn)
                .iter()
                .map(|other| {
                    (
                        other.txn.id,
                        view.network.distance(lt.txn.home, other.txn.home),
                    )
                })
                .collect();
            self.entries.insert(
                lt.txn.id,
                CacheEntry {
                    home: lt.txn.home,
                    edges,
                },
            );
        }
        self.init = true;
    }

    /// Debug-only: the incremental state must equal a from-scratch scan.
    #[cfg(debug_assertions)]
    fn assert_matches_rescan(&self, view: &SystemView<'_>) {
        let mut fresh = ConflictCache::default();
        fresh.rebuild(view);
        debug_assert_eq!(
            self.entries, fresh.entries,
            "incremental conflict cache diverged"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;
    use dtm_model::{ObjectId, ObjectInfo};
    use dtm_sim::{LiveTxn, ObjectPlace, ObjectState, RuntimeState};

    fn mk(id: u64, home: u32, objs: &[u32]) -> Transaction {
        Transaction::new(
            TxnId(id),
            NodeId(home),
            objs.iter().map(|&o| ObjectId(o)),
            0,
        )
    }

    fn insert_object(state: &mut RuntimeState, id: u32, node: u32) {
        state.insert_object(ObjectState {
            info: ObjectInfo {
                id: ObjectId(id),
                origin: NodeId(node),
                created_at: 0,
            },
            place: ObjectPlace::At(NodeId(node)),
            last_holder: None,
        });
    }

    /// Arrive `txn` the way the engine does: into the arena + effects.
    fn arrive(state: &mut RuntimeState, txn: Transaction) {
        let id = txn.id;
        state.insert_txn(LiveTxn {
            txn,
            scheduled: None,
        });
        state.effects_mut().arrived.push(id);
    }

    /// The cached constraints/degrees must equal the scan path for every
    /// live transaction, for any `extra_colored`.
    fn assert_equiv(cache: &ConflictCache, view: &SystemView<'_>, extra: &BTreeMap<TxnId, Time>) {
        let mut out = Vec::new();
        for lt in view.live_txns() {
            let deg = cache.constraints_into(view, &lt.txn, extra, &mut out);
            assert_eq!(
                out,
                constraints_for(view, &lt.txn, extra),
                "constraints diverge for {}",
                lt.txn.id
            );
            assert_eq!(
                deg,
                extended_degrees(view, &lt.txn),
                "degrees diverge for {}",
                lt.txn.id
            );
        }
    }

    /// Delta-vs-rescan over a window mixing schedule, commit, abort and
    /// delivery — the [`crate::FixedCache`] `fixed_cache_follows_deltas`
    /// suite, for conflict structure.
    #[test]
    fn conflict_cache_follows_deltas() {
        let net = topology::line(8);
        let mut state = RuntimeState::new();
        for (o, node) in [(0u32, 0u32), (1, 4), (2, 7)] {
            insert_object(&mut state, o, node);
        }
        let mut cache = ConflictCache::default();

        // Window 1: four arrivals, pairwise overlaps through objects.
        state.effects_mut().clear();
        arrive(&mut state, mk(0, 1, &[0, 1]));
        arrive(&mut state, mk(1, 6, &[1]));
        arrive(&mut state, mk(2, 3, &[0, 2]));
        arrive(&mut state, mk(3, 7, &[2]));
        let view = SystemView::from_state(1, &net, &state);
        cache.refresh(&view);
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.conflict_stats(TxnId(0)), Some((2, 5))); // 1 (d=5), 2 (d=2)
        assert_eq!(cache.conflict_stats(TxnId(3)), Some((1, 4))); // 2 (d=4)
        assert_equiv(&cache, &view, &BTreeMap::new());
        // Same-step partial coloring (the greedy pass mid-flight).
        let extra: BTreeMap<TxnId, Time> = [(TxnId(1), 9)].into();
        assert_equiv(&cache, &view, &extra);

        // Window 2: schedule 0 and 1; commit 1; abort 3; move object 0
        // (deliveries must not disturb the pair structure).
        state.effects_mut().clear();
        state.txn_mut(TxnId(0)).unwrap().scheduled = Some(6);
        state.effects_mut().scheduled.push((TxnId(0), 6));
        state.txn_mut(TxnId(1)).unwrap().scheduled = Some(4);
        state.effects_mut().scheduled.push((TxnId(1), 4));
        state.remove_txn(TxnId(1));
        state.effects_mut().committed.push(TxnId(1));
        state.remove_txn(TxnId(3));
        state.effects_mut().aborted.push(TxnId(3));
        state.object_mut(ObjectId(0)).unwrap().place = ObjectPlace::Hop {
            from: NodeId(0),
            next: NodeId(1),
            arrive: 3,
        };
        state.effects_mut().departed.push(dtm_sim::Departure {
            object: ObjectId(0),
            from: NodeId(0),
            to: NodeId(1),
            arrive: 3,
        });
        let view = SystemView::from_state(2, &net, &state);
        cache.refresh(&view);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.conflict_stats(TxnId(0)), Some((1, 2)));
        assert_eq!(cache.conflict_stats(TxnId(1)), None);
        assert_equiv(&cache, &view, &BTreeMap::new());

        // Window 3: a new arrival conflicting with both survivors.
        state.effects_mut().clear();
        arrive(&mut state, mk(4, 5, &[0, 2]));
        let view = SystemView::from_state(3, &net, &state);
        cache.refresh(&view);
        assert_eq!(cache.conflict_stats(TxnId(4)), Some((2, 4)));
        assert_equiv(&cache, &view, &BTreeMap::new());
    }

    /// Scheduled-then-removed within one window: the removal wins and
    /// the neighbors' edge lists are clean.
    #[test]
    fn scheduled_then_removed_in_one_window() {
        let net = topology::line(8);
        let mut state = RuntimeState::new();
        insert_object(&mut state, 0, 0);
        let mut cache = ConflictCache::default();
        state.effects_mut().clear();
        arrive(&mut state, mk(0, 2, &[0]));
        arrive(&mut state, mk(1, 5, &[0]));
        let view = SystemView::from_state(1, &net, &state);
        cache.refresh(&view);
        assert_eq!(cache.conflict_stats(TxnId(0)), Some((1, 3)));

        state.effects_mut().clear();
        state.txn_mut(TxnId(1)).unwrap().scheduled = Some(2);
        state.effects_mut().scheduled.push((TxnId(1), 2));
        state.remove_txn(TxnId(1));
        state.effects_mut().committed.push(TxnId(1));
        let view = SystemView::from_state(2, &net, &state);
        cache.refresh(&view);
        assert_eq!(cache.conflict_stats(TxnId(0)), Some((0, 0)));
        assert_eq!(cache.conflict_stats(TxnId(1)), None);
        assert_equiv(&cache, &view, &BTreeMap::new());
    }

    /// The first refresh on an already-populated arena view builds the
    /// cache from the live set (no arrivals were recorded), and later
    /// refreshes fold deltas on top of it.
    #[test]
    fn first_refresh_on_populated_view_rebuilds() {
        let net = topology::line(8);
        let mut state = RuntimeState::new();
        for (o, node) in [(0u32, 0u32), (1, 4)] {
            insert_object(&mut state, o, node);
        }
        for t in [mk(0, 1, &[0]), mk(1, 6, &[0]), mk(2, 3, &[1])] {
            state.insert_txn(LiveTxn {
                txn: t,
                scheduled: None,
            });
        }
        assert!(state.effects().arrived.is_empty());
        let view = SystemView::from_state(0, &net, &state);
        let mut cache = ConflictCache::default();
        cache.refresh(&view);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.conflict_stats(TxnId(0)), Some((1, 5)));
        assert_equiv(&cache, &view, &BTreeMap::new());
        // A commit recorded as an effect is folded, not rebuilt.
        state.effects_mut().clear();
        state.remove_txn(TxnId(1));
        state.effects_mut().committed.push(TxnId(1));
        let view = SystemView::from_state(1, &net, &state);
        cache.refresh(&view);
        assert_eq!(cache.conflict_stats(TxnId(0)), Some((0, 0)));
        assert_equiv(&cache, &view, &BTreeMap::new());
    }

    /// Same-window co-arrivals are linked exactly once, whichever fold
    /// order the effects batch puts them in.
    #[test]
    fn co_arrivals_link_once() {
        let net = topology::line(8);
        let mut state = RuntimeState::new();
        insert_object(&mut state, 0, 0);
        let mut cache = ConflictCache::default();
        state.effects_mut().clear();
        // Three conflicting co-arrivals in one batch.
        arrive(&mut state, mk(0, 1, &[0]));
        arrive(&mut state, mk(1, 3, &[0]));
        arrive(&mut state, mk(2, 6, &[0]));
        let view = SystemView::from_state(1, &net, &state);
        cache.refresh(&view);
        for id in 0..3 {
            assert_eq!(
                cache.conflict_stats(TxnId(id)).map(|(n, _)| n),
                Some(2),
                "txn {id} links both co-arrivals exactly once"
            );
        }
        assert_equiv(&cache, &view, &BTreeMap::new());
    }
}
