//! Integration tests of the distributed bucket protocol (Algorithm 3) and
//! its sparse-cover substrate.

use dtm_core::{BucketPolicy, DistributedBucketPolicy};
use dtm_graph::{topology, Network, SparseCover};
use dtm_model::{ClosedLoopSource, WorkloadSpec};
use dtm_offline::ListScheduler;
use dtm_sim::{run_policy, validate_events, EngineConfig, ValidationConfig};
use dtm_telemetry::{decision_trace, Counter, DecisionKind};
use std::sync::Arc;

fn dist_cfg() -> EngineConfig {
    DistributedBucketPolicy::<ListScheduler>::engine_config()
}

fn dist_validation() -> ValidationConfig {
    ValidationConfig {
        speed_divisor: 2,
        ..ValidationConfig::default()
    }
}

/// Covers verify on every paper topology.
#[test]
fn sparse_cover_properties_on_paper_topologies() {
    let nets: Vec<Network> = vec![
        topology::clique(10),
        topology::line(24),
        topology::grid(&[5, 4]),
        topology::hypercube(4),
        topology::butterfly(2),
        topology::star(3, 4),
        topology::cluster(3, 3, 4),
    ];
    for net in &nets {
        let cover = SparseCover::build(net, 99);
        cover
            .verify(net)
            .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        // The hierarchy must reach the diameter.
        let top = cover.num_layers() - 1;
        assert!(cover.layer_radius(top) >= net.diameter());
    }
}

/// The protocol completes and validates on every paper topology.
#[test]
fn distributed_bucket_on_paper_topologies() {
    let nets: Vec<Network> = vec![
        topology::clique(8),
        topology::line(16),
        topology::grid(&[4, 4]),
        topology::star(3, 4),
        topology::cluster(3, 3, 4),
    ];
    for net in &nets {
        let spec = WorkloadSpec::batch_uniform((net.n() as u32 / 2).max(2), 2);
        let src = ClosedLoopSource::new(net.clone(), spec, 2, 31);
        let expected = src.total_txns();
        let res = run_policy(
            net,
            src,
            DistributedBucketPolicy::new(net, ListScheduler::fifo(), 8),
            dist_cfg(),
        );
        res.expect_ok();
        validate_events(net, &res, &dist_validation())
            .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        assert_eq!(res.metrics.committed, expected, "{}", net.name());
    }
}

/// Protocol accounting: every transaction gets a level, reports target
/// real layers, and messages flow.
#[test]
fn protocol_accounting() {
    let net = topology::grid(&[4, 4]);
    let trace = decision_trace();
    let messages = Arc::new(Counter::default());
    let spec = WorkloadSpec::batch_uniform(8, 2);
    let src = ClosedLoopSource::new(net.clone(), spec, 2, 41);
    let expected = src.total_txns();
    let cover_layers = SparseCover::build(&net, 8).num_layers();
    let res = run_policy(
        &net,
        src,
        DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 8)
            .with_decision_trace(Arc::clone(&trace))
            .with_message_counter(Arc::clone(&messages)),
        dist_cfg(),
    );
    res.expect_ok();
    let trace = trace.lock();
    let (mut inserts, mut reports) = (0, 0);
    for d in &trace.decisions {
        match d.kind {
            DecisionKind::DistInsert { .. } => inserts += 1,
            DecisionKind::DistReport { layer, .. } => {
                reports += 1;
                assert!(layer < cover_layers);
            }
            _ => {}
        }
    }
    assert_eq!(inserts, expected);
    assert!(
        messages.get() >= expected as u64 * 3,
        "discovery+report+notify each"
    );
    assert_eq!(reports, expected);
}

/// Half-speed rule: the same schedule shape, but object traversals take
/// twice the edge weight — validated against the event log.
#[test]
fn half_speed_travel_times_validated() {
    let net = topology::line(12);
    let spec = WorkloadSpec::batch_uniform(4, 1);
    let src = ClosedLoopSource::new(net.clone(), spec, 1, 51);
    let res = run_policy(
        &net,
        src,
        DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 2),
        dist_cfg(),
    );
    res.expect_ok();
    // Correct divisor passes...
    validate_events(&net, &res, &dist_validation()).unwrap();
    // ...wrong divisor is caught.
    assert!(
        validate_events(&net, &res, &ValidationConfig::default()).is_err() || res.metrics.hops == 0
    );
}

/// The distributed schedule costs more than the centralized bucket
/// schedule on the same workload (Theorem 5's overhead is real), but
/// by a bounded factor.
#[test]
fn overhead_is_positive_and_bounded() {
    let net = topology::grid(&[4, 4]);
    let spec = WorkloadSpec::batch_uniform(8, 2);
    let central = {
        let src = ClosedLoopSource::new(net.clone(), spec.clone(), 2, 61);
        run_policy(
            &net,
            src,
            BucketPolicy::new(ListScheduler::fifo()),
            EngineConfig::default(),
        )
    };
    let dist = {
        let src = ClosedLoopSource::new(net.clone(), spec, 2, 61);
        run_policy(
            &net,
            src,
            DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 8),
            dist_cfg(),
        )
    };
    central.expect_ok();
    dist.expect_ok();
    assert!(dist.metrics.makespan >= central.metrics.makespan);
    assert!(
        dist.metrics.makespan <= central.metrics.makespan * 100,
        "overhead exploded: {} vs {}",
        dist.metrics.makespan,
        central.metrics.makespan
    );
}
