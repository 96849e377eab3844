//! Seal equivalence: a full-retention run's id-sorted result columns
//! (`txns`, `commits`), its schedule and its latency figures must equal
//! `BTreeMap`s folded independently from the same run's event log — for
//! all six policies on the golden-trace workload, both drained and
//! stopped at a step limit with transactions still live.

use dtm_core::{
    BucketPolicy, DistributedBucketPolicy, DistributedMsgPolicy, FifoPolicy, GreedyPolicy,
    TspPolicy,
};
use dtm_graph::{topology, Network};
use dtm_model::{
    FiniteArrivals, Instance, ObjectChoice, Time, TraceSource, Transaction, TxnId,
    WorkloadGenerator, WorkloadSpec,
};
use dtm_offline::ListScheduler;
use dtm_sim::{
    run_policy, EngineConfig, Event, LatencySummary, RunResult, SchedulingPolicy, Violation,
};
use std::collections::BTreeMap;

/// The golden-trace scenario: 4x4 grid, 8 objects, k=2, Bernoulli
/// arrivals over 40 steps, generator seed 2024.
fn scenario() -> (Network, Instance) {
    let net = topology::grid(&[4, 4]);
    let spec = WorkloadSpec {
        num_objects: 8,
        k: 2,
        object_choice: ObjectChoice::Uniform,
        arrival: FiniteArrivals::Bernoulli {
            rate: 0.25,
            horizon: 40,
        },
    };
    let inst = WorkloadGenerator::new(spec, 2024).generate(&net);
    (net, inst)
}

/// The six policies with their engine configurations.
fn policies(net: &Network) -> Vec<(Box<dyn SchedulingPolicy>, EngineConfig)> {
    let plain = EngineConfig::default;
    vec![
        (Box::new(GreedyPolicy::new()), plain()),
        (Box::new(BucketPolicy::new(ListScheduler::fifo())), plain()),
        (
            Box::new(DistributedBucketPolicy::new(net, ListScheduler::fifo(), 7)),
            DistributedBucketPolicy::<ListScheduler>::engine_config(),
        ),
        (
            Box::new(DistributedMsgPolicy::new(net, ListScheduler::fifo(), 7)),
            DistributedMsgPolicy::<ListScheduler>::engine_config(),
        ),
        (Box::new(FifoPolicy::new()), plain()),
        (Box::new(TspPolicy::new()), plain()),
    ]
}

/// What the result's columns must hold, folded from the event log the
/// way the pre-column seal built its maps: each `Generated` event picks
/// its body from the instance, each `Scheduled`/`Committed` event inserts
/// into an id-keyed map (a later record for the same id replacing the
/// earlier one).
struct Reference {
    txns: BTreeMap<TxnId, Transaction>,
    commits: BTreeMap<TxnId, Time>,
    schedule: BTreeMap<TxnId, Time>,
}

impl Reference {
    fn fold(inst: &Instance, events: &[Event]) -> Self {
        let bodies: BTreeMap<TxnId, &Transaction> =
            inst.txns.iter().map(|tx| (tx.id, tx)).collect();
        let mut reference = Reference {
            txns: BTreeMap::new(),
            commits: BTreeMap::new(),
            schedule: BTreeMap::new(),
        };
        for e in events {
            match *e {
                Event::Generated { t, txn, node } => {
                    let body = bodies[&txn];
                    assert_eq!((body.generated_at, body.home), (t, node));
                    reference.txns.insert(txn, body.clone());
                }
                Event::Scheduled { txn, exec_at, .. } => {
                    reference.schedule.insert(txn, exec_at);
                }
                Event::Committed { t, txn, .. } => {
                    reference.commits.insert(txn, t);
                }
                _ => {}
            }
        }
        reference
    }

    fn latencies(&self) -> Vec<(TxnId, Time)> {
        self.commits
            .iter()
            .map(|(&id, &c)| (id, c - self.txns.get(&id).map_or(0, |tx| tx.generated_at)))
            .collect()
    }
}

fn check_seal(label: &str, inst: &Instance, res: &RunResult) {
    let reference = Reference::fold(inst, &res.events);
    assert!(
        res.txns.iter().eq(reference.txns.iter()),
        "{label}: txns differ from the event-log fold"
    );
    assert!(
        res.commits.iter().eq(reference.commits.iter()),
        "{label}: commits differ from the event-log fold"
    );
    let latencies = reference.latencies();
    let schedule: Vec<(TxnId, Time)> = reference.schedule.into_iter().collect();
    assert_eq!(
        res.schedule.iter().collect::<Vec<_>>(),
        schedule,
        "{label}: schedule differs from the event-log fold"
    );
    assert_eq!(res.latencies(), latencies, "{label}: latencies differ");
    let summary = LatencySummary::from_samples(latencies.iter().map(|&(_, l)| l).collect());
    assert_eq!(
        res.metrics.latency, summary,
        "{label}: latency summary differs"
    );
}

#[test]
fn drained_runs_seal_like_the_event_log_fold() {
    let (net, inst) = scenario();
    for (policy, config) in policies(&net) {
        let label = policy.name();
        let res = run_policy(&net, TraceSource::new(inst.clone()), policy, config);
        res.expect_ok();
        assert_eq!(res.txns.len(), inst.num_txns(), "{label}: lost bodies");
        check_seal(&label, &inst, &res);
    }
}

/// Stopped at step 25 of a 40-step arrival window: bodies still live at
/// the stop are sealed with the retired ones, interleaved in id order.
#[test]
fn step_limit_stop_seals_live_bodies_in_id_order() {
    let (net, inst) = scenario();
    for (policy, config) in policies(&net) {
        let label = policy.name();
        let config = EngineConfig {
            max_steps: 25,
            ..config
        };
        let res = run_policy(&net, TraceSource::new(inst.clone()), policy, config);
        let live = match res.violations.last() {
            Some(&Violation::MaxStepsExceeded { live, .. }) => live,
            other => panic!("{label}: expected a step-limit stop, got {other:?}"),
        };
        assert!(live > 0, "{label}: nothing live at the stop");
        let ids: Vec<TxnId> = res.txns.keys().copied().collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "{label}: sealed bodies out of id order"
        );
        let uncommitted: Vec<TxnId> = res
            .txns
            .keys()
            .filter(|&id| res.commits.get(id).is_none())
            .copied()
            .collect();
        assert!(
            uncommitted.len() >= live,
            "{label}: live bodies missing from txns"
        );
        // A live body below a committed id: sorted in, not appended.
        assert!(
            res.commits
                .keys()
                .last()
                .is_some_and(|&last| uncommitted[0] < last),
            "{label}: no live body sorted in among the committed ones"
        );
        check_seal(&label, &inst, &res);
    }
}
