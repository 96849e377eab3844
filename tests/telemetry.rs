//! Observability must never perturb a run: attaching the full telemetry
//! stack (metrics/trace sink + flight recorder + health monitor +
//! per-policy decision trace) to the
//! golden-trace scenario must leave the schedule, commits, metrics and
//! the entire event log byte-identical to the bare run, for every
//! online policy.
//!
//! Also checks the run record end to end: the events derived from a
//! recorder's steps equal the kernel's own log (drained and stopped at
//! `max_steps`), the JSONL round trip, and the Chrome `trace_event`
//! document against the schema validator.

use dtm_core::{
    BucketPolicy, DistributedBucketPolicy, DistributedMsgPolicy, FifoPolicy, GreedyPolicy,
    TspPolicy,
};
use dtm_graph::{topology, Network};
use dtm_model::{FiniteArrivals, ObjectChoice, TraceSource, WorkloadGenerator, WorkloadSpec};
use dtm_offline::ListScheduler;
use dtm_sim::{run_policy, Engine, EngineConfig, RunResult, SchedulingPolicy};
use dtm_telemetry::{
    decision_trace, health_monitor, validate_chrome_trace, DecisionKind, DecisionTrace,
    FlightRecorder, HealthConfig, MetricsRegistry, RunTrace, TelemetrySink,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// The golden-trace scenario: 4x4 grid, 8 objects, k=2, Bernoulli
/// arrivals over 40 steps, generator seed 2024.
fn scenario() -> (Network, dtm_model::Instance) {
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

/// Run `policy` with the full observer stack attached — metrics/trace
/// sink, a flight recorder keeping every step (timing each), and health
/// watchdogs; returns the run plus the full run record.
fn observed_run(
    net: &Network,
    inst: dtm_model::Instance,
    policy: Box<dyn SchedulingPolicy>,
    config: EngineConfig,
) -> (RunResult, RunTrace) {
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(Mutex::new(
        TelemetrySink::new(Arc::clone(&registry)).with_full_timing(),
    ));
    let recorder = Arc::new(Mutex::new(
        FlightRecorder::new(usize::MAX).with_timing_sample(1),
    ));
    let monitor = health_monitor(HealthConfig::default());
    let res = Engine::new(net.clone(), policy, config)
        .with_observer(Arc::clone(&sink))
        .with_observer(Arc::clone(&recorder))
        .with_observer(Arc::clone(&monitor))
        .run(TraceSource::new(inst));
    // The recorder saw every step; the benign golden scenario must not
    // trip any watchdog.
    let trace = recorder.lock().trace().with_run(&res);
    assert_eq!(
        trace.steps_seen, res.metrics.steps,
        "recorder observed the run"
    );
    assert!(
        monitor.lock().is_healthy(),
        "golden scenario fired a watchdog: {:?}",
        monitor.lock().events()
    );
    (res, trace)
}

/// The events a full record's steps stand for are the kernel's own log,
/// in memory and after a JSONL round trip.
fn assert_derived_events(name: &str, res: &RunResult, trace: &RunTrace) {
    assert!(!res.events.is_empty(), "{name}: the run recorded events");
    assert_eq!(trace.events(), res.events, "{name}: derived events");
    let back = RunTrace::from_jsonl(&trace.to_jsonl()).expect("record reads back");
    assert_eq!(&back, trace, "{name}: JSONL round trip");
    assert_eq!(
        back.events(),
        res.events,
        "{name}: derived events after reading"
    );
}

/// The two runs must agree on everything observable.
fn assert_identical(name: &str, bare: &RunResult, observed: &RunResult) {
    assert_eq!(bare.schedule, observed.schedule, "{name}: schedule");
    assert_eq!(bare.commits, observed.commits, "{name}: commits");
    assert_eq!(bare.txns, observed.txns, "{name}: transactions");
    assert_eq!(bare.events, observed.events, "{name}: event log");
    assert_eq!(
        format!("{:?}", bare.metrics),
        format!("{:?}", observed.metrics),
        "{name}: metrics"
    );
    assert_eq!(
        format!("{:?}", bare.violations),
        format!("{:?}", observed.violations),
        "{name}: violations"
    );
}

fn check_no_perturbation(
    name: &str,
    mk_bare: impl Fn() -> Box<dyn SchedulingPolicy>,
    mk_traced: impl Fn(dtm_telemetry::DecisionTraceHandle) -> Box<dyn SchedulingPolicy>,
    config: EngineConfig,
) -> (RunTrace, DecisionTrace) {
    let (net, inst) = scenario();
    let bare = run_policy(
        &net,
        TraceSource::new(inst.clone()),
        mk_bare(),
        config.clone(),
    );
    bare.expect_ok();
    let decisions = decision_trace();
    let (observed, mut trace) = observed_run(&net, inst, mk_traced(Arc::clone(&decisions)), config);
    observed.expect_ok();
    assert_identical(name, &bare, &observed);
    assert_derived_events(name, &observed, &trace);
    let decisions = {
        let guard = decisions.lock();
        guard.clone()
    };
    trace.decisions = decisions.decisions.clone();
    // Every scheduled transaction explains itself at least once.
    for (txn, _) in observed.schedule.iter() {
        assert!(
            !decisions.for_txn(txn).is_empty(),
            "{name}: no decision recorded for {txn}"
        );
    }
    (trace, decisions)
}

#[test]
fn greedy_unperturbed_by_telemetry() {
    check_no_perturbation(
        "greedy",
        || Box::new(GreedyPolicy::new()),
        |d| Box::new(GreedyPolicy::new().with_decision_trace(d)),
        EngineConfig::default(),
    );
}

#[test]
fn bucket_unperturbed_by_telemetry() {
    check_no_perturbation(
        "bucket",
        || Box::new(BucketPolicy::new(ListScheduler::fifo())),
        |d| Box::new(BucketPolicy::new(ListScheduler::fifo()).with_decision_trace(d)),
        EngineConfig::default(),
    );
}

#[test]
fn distributed_bucket_unperturbed_by_telemetry() {
    let (net, _) = scenario();
    let mk_net = net.clone();
    check_no_perturbation(
        "distributed_bucket",
        move || Box::new(DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 7)),
        move |d| {
            Box::new(
                DistributedBucketPolicy::new(&mk_net, ListScheduler::fifo(), 7)
                    .with_decision_trace(d),
            )
        },
        DistributedBucketPolicy::<ListScheduler>::engine_config(),
    );
}

#[test]
fn distributed_msg_unperturbed_by_telemetry() {
    let (net, _) = scenario();
    let mk_net = net.clone();
    let (_, decisions) = check_no_perturbation(
        "distributed_msg",
        move || Box::new(DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 7)),
        move |d| {
            Box::new(
                DistributedMsgPolicy::new(&mk_net, ListScheduler::fifo(), 7).with_decision_trace(d),
            )
        },
        DistributedMsgPolicy::<ListScheduler>::engine_config(),
    );
    let chases = decisions
        .decisions
        .iter()
        .filter(|d| matches!(d.kind, DecisionKind::DistChase { .. }))
        .count();
    assert!(chases > 0, "origin-bound finds chase moving objects");
}

#[test]
fn fifo_unperturbed_by_telemetry() {
    check_no_perturbation(
        "fifo",
        || Box::new(FifoPolicy::new()),
        |d| Box::new(FifoPolicy::new().with_decision_trace(d)),
        EngineConfig::default(),
    );
}

#[test]
fn tsp_unperturbed_by_telemetry() {
    check_no_perturbation(
        "tsp",
        || Box::new(TspPolicy::new()),
        |d| Box::new(TspPolicy::new().with_decision_trace(d)),
        EngineConfig::default(),
    );
}

/// The full export path on a real run: JSONL round trip preserves the
/// trace, and the Chrome document passes the schema validator even after
/// a serialize/parse cycle.
#[test]
fn structured_exports_validate_on_real_run() {
    let (trace, decisions) = check_no_perturbation(
        "greedy-export",
        || Box::new(GreedyPolicy::new()),
        |d| Box::new(GreedyPolicy::new().with_decision_trace(d)),
        EngineConfig::default(),
    );
    assert!(!decisions.is_empty());
    assert!(!trace.phases.is_empty(), "full timing captured spans");

    let jsonl = trace.to_jsonl();
    let back = RunTrace::from_jsonl(&jsonl).expect("jsonl round trips");
    assert_eq!(back, trace);

    let chrome = trace.chrome_trace();
    let n = validate_chrome_trace(&chrome).expect("chrome trace is schema-valid");
    // At minimum: one instant per commit and per decision, plus metadata.
    let committed = trace.metrics.as_ref().expect("full trace").committed;
    assert!(
        n > committed + trace.decisions.len(),
        "expected commit + decision instants plus track metadata, got {n}"
    );
    // Survives a serialize/parse cycle (what Perfetto actually ingests).
    let text = serde_json::to_string(&chrome).expect("serializes");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("parses");
    let m = validate_chrome_trace(&parsed).expect("parsed chrome trace validates");
    assert_eq!(n, m);
}

/// The kernel's once-per-tick timing decision must never leak into
/// behavior: a sink timing every step, a sink sampling every 64th step,
/// and a sink that never times (plus a bare run) must all produce the
/// same schedule, commits and event log. Pins the hoisted
/// `wants_timing` guard in `StepKernel::tick`.
#[test]
fn timing_sampling_never_perturbs_schedules() {
    let (net, inst) = scenario();
    let bare = run_policy(
        &net,
        TraceSource::new(inst.clone()),
        GreedyPolicy::new(),
        EngineConfig::default(),
    );
    for sample_every in [0u64, 1, 64] {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(Mutex::new(
            TelemetrySink::new(Arc::clone(&registry)).with_timing_sample(sample_every),
        ));
        let observed = Engine::new(net.clone(), GreedyPolicy::new(), EngineConfig::default())
            .with_observer(sink)
            .run(TraceSource::new(inst.clone()));
        assert_identical(&format!("timing sample={sample_every}"), &bare, &observed);
    }
}

/// Stopped at `max_steps` with transactions still live, a full record's
/// derived events still equal the kernel's log, for every policy: the
/// live transactions' bodies come with the run's.
#[test]
fn derived_events_equal_the_kernels_when_stopped_early() {
    let (net, inst) = scenario();
    let policies: Vec<(&str, Box<dyn SchedulingPolicy>, EngineConfig)> = vec![
        (
            "greedy",
            Box::new(GreedyPolicy::new()),
            EngineConfig::default(),
        ),
        (
            "bucket",
            Box::new(BucketPolicy::new(ListScheduler::fifo())),
            EngineConfig::default(),
        ),
        (
            "distributed_bucket",
            Box::new(DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 7)),
            DistributedBucketPolicy::<ListScheduler>::engine_config(),
        ),
        (
            "distributed_msg",
            Box::new(DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 7)),
            DistributedMsgPolicy::<ListScheduler>::engine_config(),
        ),
        ("fifo", Box::new(FifoPolicy::new()), EngineConfig::default()),
        ("tsp", Box::new(TspPolicy::new()), EngineConfig::default()),
    ];
    for (name, policy, config) in policies {
        let config = EngineConfig {
            max_steps: 20,
            ..config
        };
        let (res, trace) = observed_run(&net, inst.clone(), policy, config);
        assert!(
            res.commits.len() < res.txns.len(),
            "{name}: the run stopped with transactions live"
        );
        assert_derived_events(name, &res, &trace);
    }
}
