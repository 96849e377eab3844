//! Observability must never perturb a run: attaching the full telemetry
//! stack (metrics/trace sink + flight recorder + health monitor +
//! per-policy decision trace) to the
//! golden-trace scenario must leave the schedule, commits, metrics and
//! the entire event log byte-identical to the bare run, for every
//! online policy.
//!
//! Also checks the structured exports end to end: the JSONL round trip
//! and the Chrome `trace_event` document against the schema validator.

use dtm_core::{
    BucketPolicy, DistributedBucketPolicy, DistributedMsgPolicy, FifoPolicy, GreedyPolicy,
    TspPolicy,
};
use dtm_graph::{topology, Network};
use dtm_model::{FiniteArrivals, ObjectChoice, TraceSource, WorkloadGenerator, WorkloadSpec};
use dtm_offline::ListScheduler;
use dtm_sim::{run_policy, Engine, EngineConfig, RunResult, SchedulingPolicy};
use dtm_telemetry::{
    decision_trace, flight_recorder, health_monitor, validate_chrome_trace, DecisionKind,
    DecisionTrace, HealthConfig, MetricsRegistry, RunTrace, TelemetrySink,
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
/// sink, flight recorder, and health watchdogs; returns the run plus
/// the captured side channels.
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
    let recorder = flight_recorder(32);
    let monitor = health_monitor(HealthConfig::default());
    let res = Engine::new(net.clone(), policy, config)
        .with_observer(Arc::clone(&sink))
        .with_observer(Arc::clone(&recorder))
        .with_observer(Arc::clone(&monitor))
        .run(TraceSource::new(inst));
    // The recorder saw every step and its dump is schema-valid; the
    // benign golden scenario must not trip any watchdog.
    {
        let rec = recorder.lock();
        assert!(rec.steps_seen() > 0, "recorder observed the run");
        dtm_telemetry::validate_flight_dump(&rec.dump()).expect("flight dump schema-valid");
        assert!(
            monitor.lock().is_healthy(),
            "golden scenario fired a watchdog: {:?}",
            monitor.lock().events()
        );
    }
    let spans = sink.lock().take_spans();
    let trace = RunTrace::from_run(&res, spans, None);
    (res, trace)
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
    assert_eq!(back.events.len(), trace.events.len());
    assert_eq!(back.decisions.len(), trace.decisions.len());
    assert_eq!(back.phases.len(), trace.phases.len());
    assert_eq!(back.policy, trace.policy);

    let chrome = trace.chrome_trace();
    let n = validate_chrome_trace(&chrome).expect("chrome trace is schema-valid");
    // At minimum: one instant per commit and per decision, plus metadata.
    assert!(
        n > trace.metrics.committed + trace.decisions.len(),
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
