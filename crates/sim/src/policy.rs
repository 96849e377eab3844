//! The scheduling-policy interface between the simulator and the online
//! schedulers of `dtm-core`.

use crate::state::SystemView;
use dtm_model::{Schedule, TxnId};

/// An online scheduling policy.
///
/// The engine calls [`SchedulingPolicy::step`] exactly once per time step,
/// after arrivals have been added to the live set and object deliveries
/// processed, and before executions at this step. The policy returns a
/// [`Schedule`] fragment containing execution times for transactions it
/// decides *now*; fragments are merged into the run's schedule and must
/// never re-time an already-scheduled transaction (the engine treats that
/// as a violation — the paper's algorithms share this property: "the
/// execution times for the new transactions are not affecting the
/// previously scheduled transactions").
///
/// A policy need not schedule a transaction the step it arrives (the bucket
/// algorithm holds transactions in buckets until activation), but every
/// transaction must eventually be scheduled for the run to complete.
pub trait SchedulingPolicy {
    /// Decide execution times. `arrivals` lists the ids of transactions
    /// generated at this step (already visible through `view`).
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule;

    /// Human-readable policy name for reports.
    fn name(&self) -> String;

    /// Capture the policy's complete decision state for a
    /// [`crate::RunCheckpoint`]: the fork must behave identically to
    /// `self` on every future step.
    ///
    /// The default is a plain clone, which is correct for every policy
    /// whose state is fully owned (including seeded RNGs — cloning
    /// preserves the stream position). Policies holding shared handles
    /// (decision traces, message counters) clone the handle, so a fork
    /// keeps feeding the *same* sink; override if a checkpoint should
    /// detach them.
    fn fork(&self) -> Self
    where
        Self: Sized + Clone,
    {
        self.clone()
    }
}

/// Replays a precomputed schedule: each arriving transaction is assigned
/// its predetermined execution time. This is how an *offline* batch
/// schedule (computed by a `BatchScheduler` ahead of time) is executed on
/// the engine — the offline end of the paper's offline-to-online
/// comparison.
#[derive(Clone, Debug, Default)]
pub struct FixedSchedulePolicy {
    schedule: Schedule,
}

impl FixedSchedulePolicy {
    /// Replay `schedule`. Transactions missing from it are left
    /// unscheduled (which the engine will flag at run end).
    pub fn new(schedule: Schedule) -> Self {
        FixedSchedulePolicy { schedule }
    }
}

impl SchedulingPolicy for FixedSchedulePolicy {
    fn step(&mut self, _view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        arrivals
            .iter()
            .filter_map(|&id| self.schedule.get(id).map(|t| (id, t)))
            .collect()
    }

    fn name(&self) -> String {
        "fixed-schedule".into()
    }
}

impl<P: SchedulingPolicy + ?Sized> SchedulingPolicy for Box<P> {
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        (**self).step(view, arrivals)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Immediate;
    impl SchedulingPolicy for Immediate {
        fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
            // Schedule everything "now" — only valid when objects are local.
            arrivals.iter().map(|&id| (id, view.now)).collect()
        }
        fn name(&self) -> String {
            "immediate".into()
        }
    }

    #[test]
    fn boxed_policy_delegates() {
        let mut p: Box<dyn SchedulingPolicy> = Box::new(Immediate);
        assert_eq!(p.name(), "immediate");
        let _ = &mut p; // step() exercised by the engine tests
    }
}
