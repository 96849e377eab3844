//! Checkpoint/resume byte-identity: pausing a run mid-flight with
//! [`StepKernel::checkpoint`] and resuming the snapshot must reproduce
//! the uninterrupted run exactly — the same [`dtm_sim::RunResult`]
//! rendering (schedule, commits, metrics, full event-log hash), the
//! same telemetry metrics snapshot, and the same golden-trace text —
//! for all six policies on 2 networks x 2 seeds.
//!
//! The telemetry check shares one sink handle between the pre-checkpoint
//! segment and the resumed kernel, so the registry accumulates exactly
//! the callbacks of one full run; wall-clock timing is disabled
//! (`with_timing_sample(0)`) so every recorded metric is deterministic.

use dtm_core::{
    BucketPolicy, DistributedBucketPolicy, DistributedMsgPolicy, FifoPolicy, GreedyPolicy,
    TspPolicy,
};
use dtm_graph::{topology, Network};
use dtm_integration::render;
use dtm_model::{
    FiniteArrivals, Instance, ObjectChoice, TraceSource, WorkloadGenerator, WorkloadSpec,
};
use dtm_offline::ListScheduler;
use dtm_sim::{Engine, EngineConfig, SchedulingPolicy};
use dtm_telemetry::{MetricsRegistry, TelemetrySink};
use parking_lot::Mutex;
use std::sync::Arc;

/// Checkpoint step: far enough in that objects are in flight and
/// schedules are partially executed, well before the runs finish.
const CHECKPOINT_AT: u64 = 7;

fn networks() -> Vec<Network> {
    vec![topology::grid(&[3, 3]), topology::clique(8)]
}

fn instance(net: &Network, seed: u64) -> Instance {
    let spec = WorkloadSpec {
        num_objects: 6,
        k: 2,
        object_choice: ObjectChoice::Uniform,
        arrival: FiniteArrivals::Bernoulli {
            rate: 0.3,
            horizon: 30,
        },
    };
    let inst = WorkloadGenerator::new(spec, seed).generate(net);
    inst.validate(net).expect("instance is valid");
    inst
}

/// Run `policy` twice on the same workload: once uninterrupted, once
/// checkpointed at step [`CHECKPOINT_AT`] and resumed from the snapshot
/// (the pre-checkpoint kernel is abandoned, as a crashed run would be).
/// Both the rendered result and the telemetry snapshot must match.
fn check_resume<P>(label: &str, net: &Network, inst: Instance, policy: P, config: EngineConfig)
where
    P: SchedulingPolicy + Clone + 'static,
{
    // Uninterrupted reference run, with a timing-free sink attached.
    let ref_registry = Arc::new(MetricsRegistry::new());
    let ref_sink = Arc::new(Mutex::new(
        TelemetrySink::new(Arc::clone(&ref_registry)).with_timing_sample(0),
    ));
    let uninterrupted = Engine::new(net.clone(), policy.clone(), config.clone())
        .with_observer(ref_sink)
        .run(TraceSource::new(inst.clone()));

    // Interrupted run: same sink handle observes the segment before the
    // checkpoint and the resumed kernel, accumulating one full run.
    let registry = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(Mutex::new(
        TelemetrySink::new(Arc::clone(&registry)).with_timing_sample(0),
    ));
    let mut kernel = Engine::new(net.clone(), policy, config)
        .with_observer(Arc::clone(&sink))
        .into_kernel(TraceSource::new(inst));
    let ran = kernel.run_steps(CHECKPOINT_AT);
    assert_eq!(ran, CHECKPOINT_AT, "{label}: run ended before checkpoint");
    let checkpoint = kernel.checkpoint();
    assert_eq!(checkpoint.now(), CHECKPOINT_AT);
    drop(kernel); // abandon the original: only the snapshot survives
    let resumed = checkpoint.resume().with_observer(sink).finish();

    assert_eq!(
        render(&uninterrupted),
        render(&resumed),
        "{label}: resumed run diverged from the uninterrupted run"
    );
    assert_eq!(
        uninterrupted.events, resumed.events,
        "{label}: event logs differ"
    );
    let ref_snap = serde_json::to_string(&ref_registry.snapshot()).expect("snapshot serializes");
    let snap = serde_json::to_string(&registry.snapshot()).expect("snapshot serializes");
    assert_eq!(ref_snap, snap, "{label}: telemetry snapshots differ");
}

fn for_each_scenario(mut f: impl FnMut(&str, &Network, Instance)) {
    for net in networks() {
        for seed in [7u64, 2024] {
            let label = format!("{} seed={seed}", net.name());
            f(&label, &net, instance(&net, seed));
        }
    }
}

#[test]
fn resume_greedy() {
    for_each_scenario(|label, net, inst| {
        check_resume(
            &format!("greedy {label}"),
            net,
            inst,
            GreedyPolicy::new(),
            EngineConfig::default(),
        );
    });
}

#[test]
fn resume_bucket() {
    for_each_scenario(|label, net, inst| {
        check_resume(
            &format!("bucket {label}"),
            net,
            inst,
            BucketPolicy::new(ListScheduler::fifo()),
            EngineConfig::default(),
        );
    });
}

#[test]
fn resume_distributed_bucket() {
    for_each_scenario(|label, net, inst| {
        check_resume(
            &format!("distributed {label}"),
            net,
            inst,
            DistributedBucketPolicy::new(net, ListScheduler::fifo(), 7),
            DistributedBucketPolicy::<ListScheduler>::engine_config(),
        );
    });
}

/// The message-level policy owns its forwarding trail, so the fork is
/// the only thing carrying it across the checkpoint.
#[test]
fn resume_distributed_msg() {
    for_each_scenario(|label, net, inst| {
        check_resume(
            &format!("distributed-msg {label}"),
            net,
            inst,
            DistributedMsgPolicy::new(net, ListScheduler::fifo(), 7),
            DistributedMsgPolicy::<ListScheduler>::engine_config(),
        );
    });
}

#[test]
fn resume_fifo() {
    for_each_scenario(|label, net, inst| {
        check_resume(
            &format!("fifo {label}"),
            net,
            inst,
            FifoPolicy::new(),
            EngineConfig::default(),
        );
    });
}

#[test]
fn resume_tsp() {
    for_each_scenario(|label, net, inst| {
        check_resume(
            &format!("tsp {label}"),
            net,
            inst,
            TspPolicy::new(),
            EngineConfig::default(),
        );
    });
}

/// A checkpoint is a true snapshot: driving the *original* kernel
/// onward after taking it must not disturb the snapshot's outcome.
#[test]
fn checkpoint_is_isolated_from_the_original() {
    let net = topology::grid(&[3, 3]);
    let inst = instance(&net, 7);
    let reference = Engine::new(net.clone(), GreedyPolicy::new(), EngineConfig::default())
        .run(TraceSource::new(inst.clone()));

    let mut kernel = Engine::new(net, GreedyPolicy::new(), EngineConfig::default())
        .into_kernel(TraceSource::new(inst));
    kernel.run_steps(CHECKPOINT_AT);
    let checkpoint = kernel.checkpoint();
    // Drive the original well past the checkpoint before resuming.
    kernel.run_steps(10);
    let original = kernel.finish();
    let resumed = checkpoint.resume().finish();
    assert_eq!(render(&reference), render(&original));
    assert_eq!(render(&reference), render(&resumed));
}
