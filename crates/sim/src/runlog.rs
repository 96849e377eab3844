//! Full-retention history, folded once per tick from the kernel's
//! [`StepEffects`] and sealed into the [`RunResult`] at the end of the run.
//!
//! Kernel state rather than a [`crate::StepObserver`]: checkpoints carry
//! it (resumed runs reproduce the event log and schedule), and a kernel
//! driven without an engine still seals a full result.

use crate::arena::RuntimeState;
use crate::effects::StepEffects;
use crate::events::Event;
use crate::metrics::{LatencySummary, RunResult};
use dtm_model::{Time, Transaction, TxnId};

/// The append-only logs a [`crate::Retention::Full`] run keeps.
#[derive(Clone, Debug, Default)]
pub(crate) struct RunLog {
    /// Retired (committed or aborted) transactions, in retirement order.
    retired: Vec<Transaction>,
    /// `(txn, exec_at)` in scheduling order.
    scheduled: Vec<(TxnId, Time)>,
    /// `(txn, commit time)` in commit order.
    committed: Vec<(TxnId, Time)>,
    /// The event log; `Some` iff the run records events.
    events: Option<Vec<Event>>,
}

impl RunLog {
    pub(crate) fn new(record_events: bool) -> Self {
        RunLog {
            events: record_events.then(Vec::new),
            ..RunLog::default()
        }
    }

    /// Fold one tick: its record `fx`, the state at step end, and the
    /// bodies of the transactions it `retired` (moved into the log).
    /// Events come out in phase order, each list in the order its phase
    /// processed it — the order the phases themselves ran in.
    pub(crate) fn fold(
        &mut self,
        fx: &StepEffects,
        state: &RuntimeState,
        retired: &mut Vec<Transaction>,
    ) {
        let t = fx.t;
        if let Some(events) = &mut self.events {
            // A transaction generated and retired in this same tick is no
            // longer live; its body is in the tick's retired buffer.
            let home = |txn: TxnId| match state.txns().get(txn) {
                Some(lt) => Some(lt.txn.home),
                None => retired.iter().find(|tx| tx.id == txn).map(|tx| tx.home),
            };
            events.extend(fx.created.iter().filter_map(|&object| {
                let node = state.objects().get(object)?.info.origin;
                Some(Event::ObjectCreated { t, object, node })
            }));
            events.extend(fx.delivered.iter().map(|d| Event::Arrived {
                t,
                object: d.object,
                node: d.node,
            }));
            events.extend(fx.arrived.iter().filter_map(|&txn| {
                let node = home(txn)?;
                Some(Event::Generated { t, txn, node })
            }));
            events.extend(fx.scheduled.iter().map(|&(txn, exec_at)| Event::Scheduled {
                t,
                txn,
                exec_at,
            }));
            events.extend(fx.committed.iter().filter_map(|&txn| {
                let node = home(txn)?;
                Some(Event::Committed { t, txn, node })
            }));
            events.extend(fx.departed.iter().map(|d| Event::Departed {
                t,
                object: d.object,
                from: d.from,
                to: d.to,
                arrive: d.arrive,
            }));
        }
        self.scheduled.extend_from_slice(&fx.scheduled);
        self.committed
            .extend(fx.committed.iter().map(|&txn| (txn, t)));
        self.retired.append(retired);
    }

    /// Seal the run into `result`: the schedule, commit and transaction
    /// maps (the transactions still `live` at a step-limit stop included,
    /// so `txns` covers every generated one), the exact latency summary
    /// and the event log.
    pub(crate) fn seal(self, live: &RuntimeState, result: &mut RunResult) {
        let still_live = live.txns().iter().map(|lt| lt.txn.clone());
        let txns = self.retired.into_iter().chain(still_live);
        result.txns = txns.map(|tx| (tx.id, tx)).collect();
        result.commits = self.committed.into_iter().collect();
        let latencies = result.latencies().into_iter().map(|(_, l)| l).collect();
        result.metrics.latency = LatencySummary::from_samples(latencies);
        for (txn, exec_at) in self.scheduled {
            result.schedule.set(txn, exec_at);
        }
        result.events = self.events.unwrap_or_default();
    }
}
