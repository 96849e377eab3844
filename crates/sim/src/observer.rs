//! Step observers: per-phase counters and timings for the engine.
//!
//! The step kernel has five phases (receive, generate, schedule,
//! execute, forward). A [`StepObserver`] attached via
//! [`crate::Engine::with_observer`] (or
//! [`crate::StepKernel::with_observer`]) is called once per phase per
//! step with the number of items the phase touched and its wall-clock
//! duration, and once per step end with that tick's full
//! [`StepEffects`] and a read-only [`SystemView`] of the kernel.
//! Observation never changes engine behavior — runs with and without an
//! observer produce identical results.

use crate::effects::StepEffects;
use crate::state::SystemView;
use dtm_model::Time;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// One phase of the engine's step loop, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Objects completing edge traversals arrive at their next node.
    Receive,
    /// The workload source's arrivals join the live set.
    Generate,
    /// The policy is consulted and its fragment merged.
    Schedule,
    /// Due transactions with assembled objects commit.
    Execute,
    /// Resting objects depart one hop toward their next requester.
    Forward,
}

impl Phase {
    /// All phases in step order.
    pub const ALL: [Phase; 5] = [
        Phase::Receive,
        Phase::Generate,
        Phase::Schedule,
        Phase::Execute,
        Phase::Forward,
    ];

    /// Dense index (position in [`Phase::ALL`]).
    pub fn index(self) -> usize {
        match self {
            Phase::Receive => 0,
            Phase::Generate => 1,
            Phase::Schedule => 2,
            Phase::Execute => 3,
            Phase::Forward => 4,
        }
    }

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Receive => "receive",
            Phase::Generate => "generate",
            Phase::Schedule => "schedule",
            Phase::Execute => "execute",
            Phase::Forward => "forward",
        }
    }
}

/// Hook into the kernel's step loop. Purely observational.
pub trait StepObserver {
    /// Called after each phase with the number of items it processed
    /// (arrived objects, generated transactions, scheduled entries,
    /// commits, departures) and its wall-clock duration. The default
    /// ignores it, for observers that decline every phase
    /// ([`StepObserver::wants_phases`]).
    fn on_phase(&mut self, t: Time, phase: Phase, items: usize, elapsed: Duration) {
        let _ = (t, phase, items, elapsed);
    }

    /// Called at the end of each step with everything the tick changed
    /// (step `effects.t`, live-set size `effects.live_after`, plus the
    /// full per-phase item lists).
    fn on_step_end(&mut self, effects: &StepEffects) {
        let _ = effects;
    }

    /// The kernel's step-end call: `effects` plus a read-only `view` of
    /// the kernel after the tick (the live set `T_t` with each
    /// `generated_at`, the objects, the transaction arena), so an
    /// observer asking "who is still waiting, and since when?" keeps no
    /// copy of the live set. The default forwards to
    /// [`StepObserver::on_step_end`]. A wrapper observer must forward
    /// this method too: one that forwards only `on_step_end` hides the
    /// view from the observer it wraps.
    fn on_step_end_in(&mut self, view: &SystemView<'_>, effects: &StepEffects) {
        let _ = view;
        self.on_step_end(effects);
    }

    /// Whether this observer wants wall-clock phase timing at step `t`.
    ///
    /// When every attached observer declines, the kernel skips its
    /// `Instant::now` calls for the step and passes
    /// [`Duration::ZERO`] to [`StepObserver::on_phase`]. Sampling
    /// observers (e.g. a telemetry sink timing every 64th step) override
    /// this to keep observation overhead off the hot path; the default
    /// keeps the historical full-timing behavior.
    fn wants_timing(&self, t: Time) -> bool {
        let _ = t;
        true
    }

    /// Whether this observer wants [`StepObserver::on_phase`] callbacks
    /// at step `t`.
    ///
    /// Observers that work purely from the step end (health watchdogs,
    /// ring recorders on unsampled steps) return `false` to
    /// skip five no-op calls per step — for shared `Arc<Mutex<_>>`
    /// handles that is five lock round-trips. The kernel asks once per
    /// tick; a declined step also forfeits that step's timing
    /// callbacks, so keep this consistent with
    /// [`StepObserver::wants_timing`].
    fn wants_phases(&self, t: Time) -> bool {
        let _ = t;
        true
    }
}

/// Shared-handle forwarding: lets the caller keep one end of an
/// `Arc<Mutex<_>>` while the engine owns the other.
impl<T: StepObserver> StepObserver for Arc<Mutex<T>> {
    fn on_phase(&mut self, t: Time, phase: Phase, items: usize, elapsed: Duration) {
        self.lock().on_phase(t, phase, items, elapsed);
    }

    fn on_step_end(&mut self, effects: &StepEffects) {
        self.lock().on_step_end(effects);
    }

    fn on_step_end_in(&mut self, view: &SystemView<'_>, effects: &StepEffects) {
        self.lock().on_step_end_in(view, effects);
    }

    fn wants_timing(&self, t: Time) -> bool {
        self.lock().wants_timing(t)
    }

    fn wants_phases(&self, t: Time) -> bool {
        self.lock().wants_phases(t)
    }
}

/// Test observer tallying every callback it receives: per-phase calls
/// and items, and the step ends seen through the view hook.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Phase callbacks, indexed by [`Phase::index`].
    pub calls: [u64; 5],
    /// Items reported per phase, indexed by [`Phase::index`].
    pub items: [u64; 5],
    /// [`StepObserver::on_step_end_in`] calls.
    pub steps: u64,
    /// Largest live count a step-end view showed.
    pub peak_live: usize,
}

#[cfg(test)]
impl StepObserver for Tally {
    fn on_phase(&mut self, _t: Time, phase: Phase, items: usize, _elapsed: Duration) {
        self.calls[phase.index()] += 1;
        self.items[phase.index()] += items as u64;
    }

    fn on_step_end_in(&mut self, view: &SystemView<'_>, _effects: &StepEffects) {
        self.steps += 1;
        self.peak_live = self.peak_live.max(view.live_count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::RuntimeState;
    use crate::state::LiveTxn;
    use dtm_graph::{topology, NodeId};
    use dtm_model::{ObjectId, Transaction, TxnId};

    /// The shared handle forwards phases and the view hook; dropping the
    /// view forward would reach only the inner `on_step_end`, which
    /// [`Tally`] does not count.
    #[test]
    fn shared_handle_forwards() {
        let net = topology::line(2);
        let mut state = RuntimeState::new();
        state.insert_txn(LiveTxn {
            txn: Transaction::new(TxnId(0), NodeId(0), [ObjectId(0)], 3),
            scheduled: None,
        });
        let view = SystemView::from_state(3, &net, &state);
        let shared = Arc::new(Mutex::new(Tally::default()));
        let mut handle = Arc::clone(&shared);
        handle.on_phase(3, Phase::Forward, 9, Duration::from_nanos(1));
        handle.on_step_end_in(&view, &StepEffects::default());
        let tally = shared.lock();
        assert_eq!(tally.items[Phase::Forward.index()], 9);
        assert_eq!(tally.steps, 1);
        assert_eq!(tally.peak_live, 1);
    }

    #[test]
    fn phase_indices_are_dense_and_ordered() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
