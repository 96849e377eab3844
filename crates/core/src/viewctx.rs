//! Bridge from the simulator's [`SystemView`] to the offline schedulers'
//! [`BatchContext`]: current object positions become availability points,
//! and scheduled live transactions become the fixed context (the paper's
//! `T_t^s`, which new schedules must work around — basic modification 1 of
//! Section IV-A).

use dtm_model::{Time, Transaction, TxnId};
use dtm_offline::BatchContext;
use dtm_sim::SystemView;
use std::collections::BTreeMap;

/// Snapshot the view into a batch-scheduling context at `view.now`.
pub fn batch_context_from_view(view: &SystemView<'_>) -> BatchContext {
    BatchContext {
        now: view.now,
        object_avail: object_avail(view),
        fixed: scheduled_live(view).collect(),
    }
}

/// Current object positions projected to availability points.
fn object_avail(view: &SystemView<'_>) -> BTreeMap<dtm_model::ObjectId, (dtm_graph::NodeId, Time)> {
    view.objects()
        .map(|st| {
            let (node, ready) = st.position(view.now);
            (st.info.id, (node, ready))
        })
        .collect()
}

/// Incrementally-maintained batch context: the scheduled live
/// transactions `T_t^s` with their execution times, which new schedules
/// must work around (basic modification 1 of Section IV-A), plus the
/// object positions of the current step.
///
/// The cache owns one [`BatchContext`] for the whole run. The first
/// [`FixedCache::refresh`] scans the live set; every later one folds the
/// [`dtm_sim::StepEffects`] accumulated since the previous policy call
/// into the id-sorted fixed set instead of rescanning.
/// [`FixedCache::context`] lends the context out for one step with the
/// object positions re-projected in place. `Clone` captures the cache
/// for [`dtm_sim::SchedulingPolicy::fork`] checkpoints.
///
/// **Boundedness (open-system audit).** Entries leave via
/// `fx.removed()` as their transactions commit or abort, and entries a
/// policy appends to a lent context are truncated when the loan ends, so
/// the context holds only *live* scheduled transactions — O(live set) no
/// matter how many transactions stream through.
#[derive(Clone, Debug, Default)]
pub struct FixedCache {
    ctx: BatchContext,
    init: bool,
    /// Refresh counter driving the sampled debug divergence check.
    refreshes: u64,
}

/// Scheduled live transactions of `view` in id order.
fn scheduled_live<'a>(view: &SystemView<'a>) -> impl Iterator<Item = (Transaction, Time)> + 'a {
    view.live_txns()
        .filter_map(|lt| lt.scheduled.map(|t| (lt.txn.clone(), t)))
}

impl FixedCache {
    /// Bring the cached fixed set up to date with `view`. Must be called
    /// once per policy step, *before* the early-returns a policy may take
    /// (otherwise a step's effects are silently dropped).
    // dtm-lint: hot-path
    pub fn refresh(&mut self, view: &SystemView<'_>) {
        let fixed = &mut self.ctx.fixed;
        let slot = |fixed: &[(Transaction, Time)], id: TxnId| {
            fixed.binary_search_by_key(&id, |(t, _)| t.id)
        };
        if self.init {
            let fx = view.step_effects();
            for &(id, t) in &fx.scheduled {
                // Scheduled and committed within the same inter-policy
                // window: no longer live, never enters the fixed set.
                if let Some(lt) = view.live(id) {
                    let entry = (lt.txn.clone(), t); // dtm-lint: allow(H1) -- one clone per newly *scheduled* txn (delta-driven), not per step
                    match slot(fixed, id) {
                        Ok(i) => fixed[i] = entry,
                        Err(i) => fixed.insert(i, entry),
                    }
                }
            }
            for id in fx.removed() {
                if let Ok(i) = slot(fixed, id) {
                    fixed.remove(i);
                }
            }
        } else {
            *fixed = scheduled_live(view).collect(); // dtm-lint: allow(H1) -- cold path: first call only
            self.init = true;
        }
        self.refreshes = self.refreshes.wrapping_add(1);
        // Sampled rather than every-step: the full rescan is O(live) with
        // a clone per scheduled transaction, which made debug-mode
        // streaming runs pay more for the check than for the work.
        #[cfg(debug_assertions)]
        if self
            .refreshes
            .is_multiple_of(crate::conflict::DIVERGENCE_SAMPLE_PERIOD)
        {
            let full: Vec<(Transaction, Time)> = scheduled_live(view).collect(); // dtm-lint: allow(H1) -- debug-only sampled divergence check, compiled out in release
            debug_assert_eq!(self.ctx.fixed, full, "incremental fixed context diverged");
        }
    }

    /// Lend out this step's [`BatchContext`]: `now` and the object
    /// positions are re-projected in place, and the fixed set is the
    /// cache's (id order, identical to a full scan). A policy may append
    /// the transactions it schedules during the step to `fixed`, so later
    /// batches of the same step see them; those entries are truncated
    /// when the returned [`StepContext`] drops, and come back through the
    /// next [`FixedCache::refresh`].
    // dtm-lint: hot-path
    pub fn context(&mut self, view: &SystemView<'_>) -> StepContext<'_> {
        let ctx = &mut self.ctx;
        ctx.now = view.now;
        // Positions are re-projected in place while the object set is
        // unchanged (the common case); a created object forces a rebuild.
        let mut slots = ctx.object_avail.iter_mut();
        let same = view.objects().all(|st| match slots.next() {
            Some((&id, slot)) if id == st.info.id => {
                *slot = st.position(view.now);
                true
            }
            _ => false,
        });
        if !same || slots.next().is_some() {
            ctx.object_avail = object_avail(view);
        }
        let keep = ctx.fixed.len();
        StepContext { ctx, keep }
    }
}

/// A [`BatchContext`] lent out by [`FixedCache::context`] for one step.
/// Dereferences to the context; on drop, fixed entries appended during
/// the loan are truncated.
#[derive(Debug)]
pub struct StepContext<'a> {
    ctx: &'a mut BatchContext,
    keep: usize,
}

impl std::ops::Deref for StepContext<'_> {
    type Target = BatchContext;
    fn deref(&self) -> &BatchContext {
        self.ctx
    }
}

impl std::ops::DerefMut for StepContext<'_> {
    fn deref_mut(&mut self) -> &mut BatchContext {
        self.ctx
    }
}

impl Drop for StepContext<'_> {
    fn drop(&mut self) {
        self.ctx.fixed.truncate(self.keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::{topology, NodeId};
    use dtm_model::{ObjectId, ObjectInfo, Transaction, TxnId};
    use dtm_sim::{LiveTxn, ObjectPlace, ObjectState};

    #[test]
    fn snapshot_carries_positions_and_fixed() {
        let net = topology::line(8);
        let live = [
            LiveTxn {
                txn: Transaction::new(TxnId(0), NodeId(3), [ObjectId(0)], 0),
                scheduled: Some(9),
            },
            LiveTxn {
                txn: Transaction::new(TxnId(1), NodeId(4), [ObjectId(0)], 2),
                scheduled: None,
            },
        ];
        let object = ObjectState {
            info: ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            },
            place: ObjectPlace::Hop {
                from: NodeId(1),
                next: NodeId(2),
                arrive: 7,
            },
            last_holder: None,
        };
        let state = crate::state_of(live, [object]);
        let view = SystemView::from_state(5, &net, &state);
        let ctx = batch_context_from_view(&view);
        assert_eq!(ctx.now, 5);
        assert_eq!(ctx.object_avail[&ObjectId(0)], (NodeId(2), 7));
        assert_eq!(ctx.fixed.len(), 1);
        assert_eq!(ctx.fixed[0].1, 9);
    }

    /// The borrowed context equals a from-scratch snapshot.
    fn assert_matches_view(cache: &mut FixedCache, view: &SystemView<'_>) {
        let full = batch_context_from_view(view);
        let ctx = cache.context(view);
        assert_eq!(ctx.now, full.now);
        assert_eq!(ctx.object_avail, full.object_avail);
        assert_eq!(ctx.fixed, full.fixed);
    }

    /// The incremental cache tracks schedule/commit deltas on an
    /// arena-backed view, and the context it lends out matches a
    /// from-scratch snapshot at every step — object positions included,
    /// and without the entries a policy appended during an earlier step.
    #[test]
    fn fixed_cache_follows_deltas() {
        let net = topology::line(8);
        let mut state = dtm_sim::RuntimeState::new();
        let object = |id: u32, place: ObjectPlace| ObjectState {
            info: ObjectInfo {
                id: ObjectId(id),
                origin: NodeId(0),
                created_at: 0,
            },
            place,
            last_holder: None,
        };
        state.insert_object(object(0, ObjectPlace::At(NodeId(0))));
        let mk = |id: u64, home: u32| Transaction::new(TxnId(id), NodeId(home), [ObjectId(0)], 0);
        for id in 0..4 {
            state.insert_txn(LiveTxn {
                txn: mk(id, id as u32),
                scheduled: None,
            });
        }
        let mut cache = FixedCache::default();
        // Step 0: nothing scheduled yet.
        let view = SystemView::from_state(0, &net, &state);
        cache.refresh(&view);
        assert!(cache.context(&view).fixed.is_empty());
        assert_matches_view(&mut cache, &view);

        // Schedule 1 and 3 (as the engine would: mutate + record effects);
        // the object starts moving.
        state.effects_mut().clear();
        for (id, t) in [(TxnId(1), 5), (TxnId(3), 9)] {
            state.txn_mut(id).unwrap().scheduled = Some(t);
            state.effects_mut().scheduled.push((id, t));
        }
        state.object_mut(ObjectId(0)).unwrap().place = ObjectPlace::Hop {
            from: NodeId(0),
            next: NodeId(1),
            arrive: 2,
        };
        let view = SystemView::from_state(1, &net, &state);
        cache.refresh(&view);
        assert_eq!(
            cache
                .context(&view)
                .fixed
                .iter()
                .map(|(t, at)| (t.id, *at))
                .collect::<Vec<_>>(),
            vec![(TxnId(1), 5), (TxnId(3), 9)]
        );
        assert_matches_view(&mut cache, &view);
        // A policy appends what it schedules during activation; the
        // entries live only as long as the borrow.
        {
            let mut ctx = cache.context(&view);
            ctx.fixed.push((mk(2, 2), 11));
            ctx.fixed.push((mk(0, 0), 13));
            assert_eq!(ctx.fixed.len(), 4);
        }
        assert_matches_view(&mut cache, &view);

        // Commit 1; schedule 0; a second object appears.
        state.effects_mut().clear();
        state.remove_txn(TxnId(1));
        state.effects_mut().committed.push(TxnId(1));
        state.txn_mut(TxnId(0)).unwrap().scheduled = Some(7);
        state.effects_mut().scheduled.push((TxnId(0), 7));
        state.object_mut(ObjectId(0)).unwrap().place = ObjectPlace::At(NodeId(1));
        state.insert_object(object(1, ObjectPlace::At(NodeId(4))));
        let view = SystemView::from_state(2, &net, &state);
        cache.refresh(&view);
        assert_eq!(
            cache
                .context(&view)
                .fixed
                .iter()
                .map(|(t, at)| (t.id, *at))
                .collect::<Vec<_>>(),
            vec![(TxnId(0), 7), (TxnId(3), 9)]
        );
        assert_matches_view(&mut cache, &view);

        // Scheduled-then-committed inside one window never enters.
        state.effects_mut().clear();
        state.txn_mut(TxnId(2)).unwrap().scheduled = Some(3);
        state.effects_mut().scheduled.push((TxnId(2), 3));
        state.remove_txn(TxnId(2));
        state.effects_mut().committed.push(TxnId(2));
        let view = SystemView::from_state(3, &net, &state);
        cache.refresh(&view);
        assert!(!cache
            .context(&view)
            .fixed
            .iter()
            .any(|(t, _)| t.id == TxnId(2)));
        assert_matches_view(&mut cache, &view);
    }
}
