//! Integration tests for the library extensions beyond the paper's core
//! algorithms: application-benchmark presets, the baseline policies, the
//! message-level distributed protocol, congestion analysis and timeline
//! rendering — all exercised together through the public API.

use dtm_core::{DistributedMsgPolicy, FifoPolicy, GreedyPolicy, TspPolicy};
use dtm_graph::topology;
use dtm_model::{presets, TraceSource, WorkloadGenerator};
use dtm_offline::ListScheduler;
use dtm_sim::{
    edge_congestion, peak_congestion, render_timeline, run_policy, validate_events, EngineConfig,
    TimelineOptions, ValidationConfig,
};
use std::sync::Arc;

#[test]
fn bank_benchmark_under_all_extension_policies() {
    let net = topology::clique(12);
    let inst = WorkloadGenerator::new(presets::bank(36, 0.2, 20), 1).generate(&net);
    let n = inst.num_txns();
    assert!(n > 0);
    for policy in [
        Box::new(GreedyPolicy::new()) as Box<dyn dtm_sim::SchedulingPolicy>,
        Box::new(FifoPolicy::new()),
        Box::new(TspPolicy::new()),
    ] {
        let res = run_policy(
            &net,
            TraceSource::new(inst.clone()),
            policy,
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(res.metrics.committed, n);
    }
}

#[test]
fn social_graph_congestion_analysis() {
    let net = topology::grid(&[5, 5]);
    let inst = WorkloadGenerator::new(presets::social_graph(50, 2, 0.2, 20), 2).generate(&net);
    let res = run_policy(
        &net,
        TraceSource::new(inst),
        GreedyPolicy::new(),
        EngineConfig::default(),
    );
    res.expect_ok();
    // The hotspot workload funnels the celebrity objects over few edges:
    // there must be measurable congestion somewhere.
    let peak = peak_congestion(&res);
    assert!(peak >= 1);
    let per_edge = edge_congestion(&res);
    assert_eq!(per_edge.values().copied().max().unwrap_or(0), peak);
    // Hops recorded in metrics must equal departures in the log.
    let departures = res
        .events
        .iter()
        .filter(|e| matches!(e, dtm_sim::Event::Departed { .. }))
        .count() as u64;
    assert_eq!(departures, res.metrics.hops);
}

#[test]
fn inventory_benchmark_message_level_protocol() {
    let net = topology::grid(&[4, 4]);
    let inst = WorkloadGenerator::new(presets::inventory(32, 2, 0.15, 16), 3).generate(&net);
    let n = inst.num_txns();
    let messages = Arc::new(dtm_telemetry::Counter::default());
    let res = run_policy(
        &net,
        TraceSource::new(inst),
        DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 9)
            .with_message_counter(Arc::clone(&messages)),
        DistributedMsgPolicy::<ListScheduler>::engine_config(),
    );
    res.expect_ok();
    validate_events(
        &net,
        &res,
        &ValidationConfig {
            speed_divisor: 2,
            allow_late_execution: true,
            ..ValidationConfig::default()
        },
    )
    .unwrap();
    assert_eq!(res.metrics.committed, n);
    assert!(messages.get() > 0 || n == 0);
}

#[test]
fn timeline_renders_for_real_run() {
    let net = topology::line(8);
    let inst = WorkloadGenerator::new(presets::bank(8, 0.2, 10), 4).generate(&net);
    if inst.txns.is_empty() {
        return;
    }
    let res = run_policy(
        &net,
        TraceSource::new(inst),
        GreedyPolicy::new(),
        EngineConfig::default(),
    );
    res.expect_ok();
    let text = render_timeline(&res, &TimelineOptions::default());
    assert!(text.starts_with("timeline"));
    // Every commit appears as a '*' mark (one per committed object use).
    let object_uses: usize = res.txns.values().map(|t| t.k()).sum();
    assert!(text.matches('*').count() <= object_uses);
    assert!(text.matches('*').count() >= res.metrics.committed.min(1));
}

#[test]
fn workload_stats_match_run_contention() {
    // l_max of the instance lower-bounds the hottest object's commit chain.
    let net = topology::clique(10);
    let inst = WorkloadGenerator::new(presets::social_graph(20, 1, 0.3, 12), 5).generate(&net);
    if inst.txns.is_empty() {
        return;
    }
    let stats = inst.stats();
    let res = run_policy(
        &net,
        TraceSource::new(inst),
        GreedyPolicy::new(),
        EngineConfig::default(),
    );
    res.expect_ok();
    // The makespan can never beat the serialization of the hottest object
    // minus its arrival spread (conservative: l_max commits need l_max - 1
    // distinct steps *after the last arrival window*; just check >= a weak
    // floor to tie stats to execution).
    assert!(res.metrics.makespan as usize + 1 >= stats.l_max.saturating_sub(12));
    assert!(stats.popularity_gini > 0.0);
}
