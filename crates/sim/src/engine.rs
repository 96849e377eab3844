//! The synchronous execution engine: a thin builder/driver over the
//! tickable [`StepKernel`].
//!
//! Per time step `t` the kernel performs, in order:
//!
//! 1. **receive** — objects whose edge traversal completes at `t` arrive at
//!    their next node;
//! 2. **generate** — the workload source's arrivals for `t` join the live
//!    set;
//! 3. **schedule** — the policy is consulted once; returned execution times
//!    are merged (never re-timing an existing entry);
//! 4. **execute** — every transaction whose scheduled time is `t` and whose
//!    objects are all at its home node commits; its objects are released;
//! 5. **forward** — every resting object moves one hop along a shortest
//!    path toward the home of its *earliest-scheduled* pending requester.
//!
//! Step 5 implements the paper's rule that an object visits the
//! transactions that request it in ascending scheduled-execution order,
//! and — because routing decisions are re-taken at every hop — also the
//! in-transit redirection implicit in the extended dependency graph
//! (`H'_t` places an in-transit object at its next hop with the residual
//! travel time as the edge weight, which is exactly where this engine can
//! first re-route it).
//!
//! [`Engine`] holds the configuration (network, policy, observers);
//! [`Engine::run`] converts it into a [`StepKernel`] and drives every
//! tick to completion. Callers needing finer control — single-stepping,
//! pause/inspect/resume, mid-run predicates — use
//! [`Engine::into_kernel`] and the kernel's drivers directly. Each tick
//! publishes a typed [`crate::StepEffects`] value to attached
//! [`StepObserver`]s and (between consecutive policy calls) to policies
//! via [`crate::SystemView::step_effects`].

use crate::kernel::StepKernel;
use crate::metrics::RunResult;
use crate::observer::StepObserver;
use crate::policy::SchedulingPolicy;
use dtm_graph::Network;
use dtm_model::{Time, WorkloadSource};

/// What a run retains for its final [`RunResult`] — the closed-batch /
/// open-system switch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Retention {
    /// Keep full per-transaction history: every transaction (with its
    /// generation time), its schedule entry and its commit time, plus
    /// the event log when [`EngineConfig::record_events`] is set — all
    /// folded from each tick's [`crate::StepEffects`]. Memory grows with
    /// the total number of transactions — correct for closed batches,
    /// where that total is the instance size. The result's latency
    /// summary is exact. The default; all pre-existing behavior (golden
    /// traces included) lives here.
    Full,
    /// Open-system streaming: memory stays O(live set + objects) no
    /// matter how many transactions stream through. The per-transaction
    /// result maps stay empty; commit counts, makespan and sojourn
    /// latency are folded into scalars and a fixed-size
    /// [`crate::Log2Histogram`] as transactions retire (the histogram is
    /// filled under [`Retention::Full`] too, with no warmup). Commits of
    /// transactions generated before `warmup` are excluded from the
    /// latency histogram (but still counted), so steady-state
    /// percentiles are not polluted by the cold start.
    Streaming {
        /// Steps to exclude from the sojourn-latency histogram.
        warmup: Time,
    },
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Multiplier on every edge traversal time. 1 = the paper's base model;
    /// 2 = the half-speed rule of the distributed algorithm (Section V).
    pub speed_divisor: u64,
    /// Optional bound on concurrent objects per (undirected) edge — the
    /// congestion extension from the paper's conclusion. `None` = unbounded
    /// (the paper's model).
    pub link_capacity: Option<u32>,
    /// If true, a transaction whose scheduled step passes without all
    /// objects present executes as soon as they arrive (used only with
    /// `link_capacity`, where schedules are knowingly optimistic);
    /// otherwise a missed execution is a violation.
    pub allow_late_execution: bool,
    /// Hard step limit, **inclusive**: steps `t = 0..=max_steps` may be
    /// simulated, and [`crate::Violation::MaxStepsExceeded`] fires only if
    /// live transactions remain after step `max_steps` has completed. A
    /// transaction committing exactly at `t = max_steps` is in bounds.
    pub max_steps: Time,
    /// Record the full event log (disable for large parameter sweeps).
    /// Suppressed entirely under [`Retention::Streaming`], where an
    /// unbounded event log would defeat the bounded-memory guarantee.
    pub record_events: bool,
    /// Closed-batch ([`Retention::Full`], the default) versus
    /// open-system ([`Retention::Streaming`]) result retention.
    pub retention: Retention,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            speed_divisor: 1,
            link_capacity: None,
            allow_late_execution: false,
            max_steps: 500_000,
            record_events: true,
            retention: Retention::Full,
        }
    }
}

/// The simulator. Drives a [`SchedulingPolicy`] against a
/// [`dtm_model::WorkloadSource`] on a [`Network`].
pub struct Engine<P> {
    network: Network,
    policy: P,
    config: EngineConfig,
    observers: Vec<Box<dyn StepObserver>>,
}

impl<P: SchedulingPolicy> Engine<P> {
    /// Create an engine.
    pub fn new(network: Network, policy: P, config: EngineConfig) -> Self {
        assert!(config.speed_divisor >= 1, "speed divisor must be >= 1");
        Engine {
            network,
            policy,
            config,
            observers: Vec::new(),
        }
    }

    /// Attach a [`StepObserver`] (per-phase counters/timings). May be
    /// called repeatedly; every attached observer sees every callback.
    /// Purely observational: runs with and without observers are
    /// identical.
    pub fn with_observer(mut self, observer: impl StepObserver + 'static) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Convert the engine into a [`StepKernel`] over `source`, ready to
    /// be driven tick by tick.
    pub fn into_kernel<S: WorkloadSource>(self, source: S) -> StepKernel<P, S> {
        StepKernel::new(
            self.network,
            self.policy,
            self.config,
            self.observers,
            source,
        )
    }

    /// Run to completion (source exhausted and all live transactions
    /// committed), or until the step limit: the thin driver
    /// `into_kernel(source).finish()`.
    pub fn run<S: WorkloadSource>(self, source: S) -> RunResult {
        self.into_kernel(source).finish()
    }
}

/// Convenience: build an engine and run `source` under `policy`.
pub fn run_policy<S: WorkloadSource, P: SchedulingPolicy>(
    network: &Network,
    source: S,
    policy: P,
    config: EngineConfig,
) -> RunResult {
    Engine::new(network.clone(), policy, config).run(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Violation;
    use crate::state::SystemView;
    use dtm_graph::{topology, NodeId};
    use dtm_model::{Instance, ObjectId, ObjectInfo, Schedule, TraceSource, Transaction, TxnId};
    use std::collections::BTreeMap;

    /// A hand-written fixed schedule as a policy: schedules each arriving
    /// transaction at a preset absolute time.
    struct FixedPolicy(BTreeMap<TxnId, Time>);

    impl SchedulingPolicy for FixedPolicy {
        fn step(&mut self, _view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
            arrivals
                .iter()
                .filter_map(|id| self.0.get(id).map(|&t| (*id, t)))
                .collect()
        }
        fn name(&self) -> String {
            "fixed".into()
        }
    }

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

    /// Line of 4; object at node 0; two transactions need it: T0 at node 2
    /// (exec at 2: distance 2), then T1 at node 3 (exec at 3: one more hop).
    #[test]
    fn object_moves_in_schedule_order() {
        let net = topology::line(4);
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(0, 2, &[0], 0), txn(1, 3, &[0], 0)],
        );
        let sched: BTreeMap<TxnId, Time> = [(TxnId(0), 2), (TxnId(1), 3)].into();
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            FixedPolicy(sched),
            EngineConfig::default(),
        );
        res.expect_ok();
        assert_eq!(res.commits[&TxnId(0)], 2);
        assert_eq!(res.commits[&TxnId(1)], 3);
        assert_eq!(res.metrics.makespan, 3);
        assert_eq!(res.metrics.comm_cost, 3); // 2 hops to n2, 1 hop to n3
        assert_eq!(res.metrics.committed, 2);
    }

    /// Too-tight schedule: T0 at distance 2 scheduled at time 1 must be a
    /// missed execution.
    #[test]
    fn infeasible_schedule_detected() {
        let net = topology::line(4);
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 2, &[0], 0)]);
        let sched: BTreeMap<TxnId, Time> = [(TxnId(0), 1)].into();
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            FixedPolicy(sched),
            EngineConfig::default(),
        );
        assert!(!res.ok());
        assert!(matches!(
            res.violations[0],
            Violation::MissedExecution {
                txn: TxnId(0),
                scheduled: 1
            }
        ));
    }

    /// A transaction whose objects are local can execute the step it
    /// arrives.
    #[test]
    fn local_objects_execute_instantly() {
        let net = topology::line(4);
        let inst = Instance::new(vec![obj(0, 1), obj(1, 1)], vec![txn(0, 1, &[0, 1], 0)]);
        let sched: BTreeMap<TxnId, Time> = [(TxnId(0), 0)].into();
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            FixedPolicy(sched),
            EngineConfig::default(),
        );
        res.expect_ok();
        assert_eq!(res.commits[&TxnId(0)], 0);
        assert_eq!(res.metrics.comm_cost, 0);
    }

    /// Speed divisor 2 doubles travel time: distance 2 requires exec >= 4.
    #[test]
    fn speed_divisor_halves_object_speed() {
        let net = topology::line(4);
        let make = || TraceSource::new(Instance::new(vec![obj(0, 0)], vec![txn(0, 2, &[0], 0)]));
        let cfg = EngineConfig {
            speed_divisor: 2,
            ..EngineConfig::default()
        };
        // exec at 3 is now too early...
        let res = run_policy(
            &net,
            make(),
            FixedPolicy([(TxnId(0), 3)].into()),
            cfg.clone(),
        );
        assert!(!res.ok());
        // ...but exec at 4 works.
        let res = run_policy(&net, make(), FixedPolicy([(TxnId(0), 4)].into()), cfg);
        res.expect_ok();
        assert_eq!(res.commits[&TxnId(0)], 4);
    }

    /// Weighted edges delay arrival by their weight.
    #[test]
    fn weighted_edge_travel_time() {
        let net = topology::cluster(2, 2, 5);
        // Object at bridge 0 (node 0); txn at bridge 1 (node 2): distance 5.
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 2, &[0], 0)]);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            FixedPolicy([(TxnId(0), 5)].into()),
            EngineConfig::default(),
        );
        res.expect_ok();
        assert_eq!(res.metrics.comm_cost, 5);
        assert_eq!(res.metrics.hops, 1);
    }

    /// Rescheduling and past-scheduling attempts are flagged.
    struct NaughtyPolicy {
        step: u32,
    }
    impl SchedulingPolicy for NaughtyPolicy {
        fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
            self.step += 1;
            match self.step {
                1 => arrivals.iter().map(|&id| (id, view.now + 10)).collect(),
                2 => [(TxnId(0), view.now + 20)].into_iter().collect(), // re-time
                3 => [(TxnId(999), view.now)].into_iter().collect(),    // unknown
                _ => Schedule::new(),
            }
        }
        fn name(&self) -> String {
            "naughty".into()
        }
    }

    #[test]
    fn policy_misbehavior_flagged() {
        let net = topology::line(2);
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 0, &[0], 0)]);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            NaughtyPolicy { step: 0 },
            EngineConfig::default(),
        );
        assert!(res
            .violations
            .contains(&Violation::Rescheduled { txn: TxnId(0) }));
        assert!(res
            .violations
            .contains(&Violation::UnknownTxn { txn: TxnId(999) }));
        // The original scheduling still succeeded.
        assert_eq!(res.commits[&TxnId(0)], 10);
    }

    /// A policy that never schedules exhausts the step limit.
    struct SilentPolicy;
    impl SchedulingPolicy for SilentPolicy {
        fn step(&mut self, _: &SystemView<'_>, _: &[TxnId]) -> Schedule {
            Schedule::new()
        }
        fn name(&self) -> String {
            "silent".into()
        }
    }

    #[test]
    fn unscheduled_txns_hit_step_limit() {
        let net = topology::line(2);
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 1, &[0], 0)]);
        let cfg = EngineConfig {
            max_steps: 50,
            ..EngineConfig::default()
        };
        let res = run_policy(&net, TraceSource::new(inst), SilentPolicy, cfg);
        match &res.violations[0] {
            Violation::MaxStepsExceeded { live, sample } => {
                assert_eq!(*live, 1);
                assert_eq!(sample, &vec![TxnId(0)]);
            }
            other => panic!("expected MaxStepsExceeded, got {other:?}"),
        }
        assert!(res.violations[0].to_string().contains("e.g. T0"));
    }

    /// The live-id sample in `MaxStepsExceeded` is capped: many stuck
    /// transactions report only the lowest ids plus an accurate count.
    #[test]
    fn step_limit_sample_is_bounded() {
        let net = topology::line(2);
        let txns: Vec<Transaction> = (0..20).map(|i| txn(i, 1, &[0], 0)).collect();
        let inst = Instance::new(vec![obj(0, 0)], txns);
        let cfg = EngineConfig {
            max_steps: 5,
            ..EngineConfig::default()
        };
        let res = run_policy(&net, TraceSource::new(inst), SilentPolicy, cfg);
        match &res.violations[0] {
            Violation::MaxStepsExceeded { live, sample } => {
                assert_eq!(*live, 20);
                assert_eq!(sample.len(), Violation::MAX_REPORTED_LIVE);
                let expected: Vec<TxnId> = (0..Violation::MAX_REPORTED_LIVE as u64)
                    .map(TxnId)
                    .collect();
                assert_eq!(sample, &expected);
            }
            other => panic!("expected MaxStepsExceeded, got {other:?}"),
        }
        assert!(res.violations[0].to_string().contains("and 12 more"));
    }

    /// The step limit is inclusive: a commit exactly at `t = max_steps`
    /// is in bounds, and the same workload with `max_steps - 1` violates.
    /// Pins the `now > max_steps` boundary in the run loop.
    #[test]
    fn step_limit_boundary_is_inclusive() {
        let net = topology::line(4);
        // Distance 2 from the object's origin: earliest commit is t=2.
        let make = || TraceSource::new(Instance::new(vec![obj(0, 0)], vec![txn(0, 2, &[0], 0)]));
        let policy = || FixedPolicy([(TxnId(0), 2)].into());
        let at_limit = run_policy(
            &net,
            make(),
            policy(),
            EngineConfig {
                max_steps: 2,
                ..EngineConfig::default()
            },
        );
        at_limit.expect_ok();
        assert_eq!(at_limit.commits[&TxnId(0)], 2);
        assert_eq!(at_limit.metrics.steps, 3); // steps 0, 1, 2 ran

        let below_limit = run_policy(
            &net,
            make(),
            policy(),
            EngineConfig {
                max_steps: 1,
                ..EngineConfig::default()
            },
        );
        assert!(matches!(
            below_limit.violations[..],
            [Violation::MaxStepsExceeded { live: 1, .. }]
        ));
    }

    /// Link capacity 1 with two objects crossing the same edge: with late
    /// execution allowed, the second is delayed but the run completes.
    #[test]
    fn link_capacity_delays_but_completes() {
        let net = topology::line(2);
        let inst = Instance::new(
            vec![obj(0, 0), obj(1, 0)],
            vec![txn(0, 1, &[0], 0), txn(1, 1, &[1], 0)],
        );
        let cfg = EngineConfig {
            link_capacity: Some(1),
            allow_late_execution: true,
            ..EngineConfig::default()
        };
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            FixedPolicy([(TxnId(0), 1), (TxnId(1), 1)].into()),
            cfg,
        );
        res.expect_ok();
        assert_eq!(res.commits[&TxnId(0)], 1);
        assert_eq!(res.commits[&TxnId(1)], 2); // waited one step for the edge
    }

    /// Two transactions at the same home sharing an object serialize by
    /// schedule order without any movement.
    #[test]
    fn same_home_serialization() {
        let net = topology::line(3);
        let inst = Instance::new(
            vec![obj(0, 1)],
            vec![txn(0, 1, &[0], 0), txn(1, 1, &[0], 0)],
        );
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            FixedPolicy([(TxnId(0), 0), (TxnId(1), 1)].into()),
            EngineConfig::default(),
        );
        res.expect_ok();
        assert_eq!(res.metrics.comm_cost, 0);
        assert_eq!(res.metrics.makespan, 1);
    }

    /// Object redirection: object heads toward a later transaction, then an
    /// earlier one is scheduled; the object must serve the earlier first.
    struct TwoPhase {
        fired: bool,
    }
    impl SchedulingPolicy for TwoPhase {
        fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
            let mut s = Schedule::new();
            for &id in arrivals {
                if id == TxnId(0) {
                    s.set(id, 20); // far future: object starts moving to n3
                }
            }
            if view.now == 2 && !self.fired {
                self.fired = true;
                // T1 at node 1 wants the object sooner. The object left n0
                // at t=0 toward n3; at t=2 it is at/near n2... schedule T1
                // late enough to be reachable: it is at distance <= 3 from
                // anywhere on the line, so now+6 is safe.
                s.set(TxnId(1), 8);
            }
            s
        }
        fn name(&self) -> String {
            "two-phase".into()
        }
    }

    #[test]
    fn object_redirects_to_earlier_requester() {
        let net = topology::line(4);
        let mut txn1 = txn(1, 1, &[0], 0);
        txn1.generated_at = 0;
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 3, &[0], 0), txn1]);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            TwoPhase { fired: false },
            EngineConfig::default(),
        );
        res.expect_ok();
        // T1 (exec 8) must commit before T0 (exec 20).
        assert_eq!(res.commits[&TxnId(1)], 8);
        assert_eq!(res.commits[&TxnId(0)], 20);
    }

    /// Metrics: peak_live and steps populated.
    #[test]
    fn metrics_populated() {
        let net = topology::line(3);
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(0, 1, &[0], 0), txn(1, 2, &[0], 0)],
        );
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            FixedPolicy([(TxnId(0), 1), (TxnId(1), 3)].into()),
            EngineConfig::default(),
        );
        res.expect_ok();
        assert_eq!(res.metrics.peak_live, 2);
        assert!(res.metrics.steps >= 4);
        assert_eq!(res.metrics.latency.count, 2);
        assert_eq!(res.txns.len(), 2);
    }
}

#[cfg(test)]
mod creation_tests {
    use super::*;
    use crate::policy::FixedSchedulePolicy;
    use dtm_graph::{topology, NodeId};
    use dtm_model::{Instance, ObjectId, ObjectInfo, Schedule, TraceSource, Transaction, TxnId};

    /// Objects created after time 0 appear at their creation step and only
    /// then become routable.
    #[test]
    fn late_created_objects() {
        let net = topology::line(4);
        let late = ObjectInfo {
            id: ObjectId(0),
            origin: NodeId(0),
            created_at: 5,
        };
        let txn = Transaction::new(TxnId(0), NodeId(2), [ObjectId(0)], 6);
        let inst = Instance::new(vec![late], vec![txn]);
        // The object exists from t=5 but only starts moving once its
        // requester is scheduled (t=6); travel 2 -> earliest exec 8.
        let sched: Schedule = [(TxnId(0), 8)].into_iter().collect();
        let res = run_policy(
            &net,
            TraceSource::new(inst.clone()),
            FixedSchedulePolicy::new(sched),
            EngineConfig::default(),
        );
        res.expect_ok();
        assert_eq!(res.commits[&TxnId(0)], 8);
        // One step earlier is impossible.
        let sched: Schedule = [(TxnId(0), 7)].into_iter().collect();
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            FixedSchedulePolicy::new(sched),
            EngineConfig::default(),
        );
        assert!(!res.ok());
    }

    /// Disabling event recording must not change commits or metrics.
    #[test]
    fn event_recording_toggle_is_observationally_equivalent() {
        let net = topology::line(5);
        let inst = Instance::new(
            vec![ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            }],
            vec![
                Transaction::new(TxnId(0), NodeId(2), [ObjectId(0)], 0),
                Transaction::new(TxnId(1), NodeId(4), [ObjectId(0)], 0),
            ],
        );
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 4)].into_iter().collect();
        let with_events = run_policy(
            &net,
            TraceSource::new(inst.clone()),
            FixedSchedulePolicy::new(sched.clone()),
            EngineConfig::default(),
        );
        let without = run_policy(
            &net,
            TraceSource::new(inst),
            FixedSchedulePolicy::new(sched),
            EngineConfig {
                record_events: false,
                ..EngineConfig::default()
            },
        );
        with_events.expect_ok();
        without.expect_ok();
        assert_eq!(with_events.commits, without.commits);
        assert_eq!(with_events.metrics.comm_cost, without.metrics.comm_cost);
        assert!(without.events.is_empty());
        assert!(!with_events.events.is_empty());
    }
}

#[cfg(test)]
mod observer_tests {
    use super::*;
    use crate::observer::{Phase, Tally};
    use dtm_graph::{topology, NodeId};
    use dtm_model::{Instance, ObjectId, ObjectInfo, Schedule, TraceSource, Transaction, TxnId};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// An attached observer sees consistent per-phase counters, and the
    /// run's outcome is identical to an unobserved run.
    #[test]
    fn observer_counts_match_metrics_and_never_perturbs() {
        let net = topology::line(5);
        let inst = Instance::new(
            vec![ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(0),
                created_at: 0,
            }],
            vec![
                Transaction::new(TxnId(0), NodeId(2), [ObjectId(0)], 0),
                Transaction::new(TxnId(1), NodeId(4), [ObjectId(0)], 0),
            ],
        );
        let sched: Schedule = [(TxnId(0), 2), (TxnId(1), 4)].into_iter().collect();
        let tally = Arc::new(Mutex::new(Tally::default()));
        let observed = Engine::new(
            net.clone(),
            crate::policy::FixedSchedulePolicy::new(sched.clone()),
            EngineConfig::default(),
        )
        .with_observer(Arc::clone(&tally))
        .run(TraceSource::new(inst.clone()));
        let plain = run_policy(
            &net,
            TraceSource::new(inst),
            crate::policy::FixedSchedulePolicy::new(sched),
            EngineConfig::default(),
        );
        observed.expect_ok();
        plain.expect_ok();
        assert_eq!(observed.commits, plain.commits);
        assert_eq!(observed.events, plain.events);

        let p = tally.lock();
        let items = |ph: Phase| p.items[ph.index()];
        assert_eq!(p.steps, observed.metrics.steps);
        assert_eq!(items(Phase::Generate), observed.txns.len() as u64);
        assert_eq!(items(Phase::Execute), observed.metrics.committed as u64);
        assert_eq!(items(Phase::Forward), observed.metrics.hops);
        assert_eq!(items(Phase::Schedule), observed.schedule.len() as u64);
        assert_eq!(p.peak_live, observed.metrics.peak_live);
        // Every phase ran once per step.
        for ph in Phase::ALL {
            assert_eq!(p.calls[ph.index()], p.steps, "{} calls", ph.name());
        }
    }
}
