//! Theorem-level assertions at integration scale: every bound the paper
//! proves must hold on every run this suite performs.

use dtm_core::{BucketPolicy, GreedyPolicy};
use dtm_graph::topology;
use dtm_model::{
    ClosedLoopSource, FiniteArrivals, ObjectChoice, TraceSource, WorkloadGenerator, WorkloadSpec,
};
use dtm_offline::{competitive_ratio, LineScheduler, ListScheduler};
use dtm_sim::{run_policy, EngineConfig};
use dtm_telemetry::{decision_trace, DecisionKind};
use std::sync::Arc;

/// Theorem 1: color <= 2Γ' - Δ' on every topology and seed tested.
#[test]
fn theorem1_bound_many_topologies() {
    let nets = vec![
        topology::clique(12),
        topology::line(20),
        topology::grid(&[4, 5]),
        topology::hypercube(4),
        topology::star(3, 5),
        topology::cluster(3, 3, 4),
        topology::random(20, 3, 4, 3),
    ];
    for net in &nets {
        for seed in 0..3u64 {
            let trace = decision_trace();
            let spec = WorkloadSpec {
                num_objects: 8,
                k: 3,
                object_choice: ObjectChoice::Uniform,
                arrival: FiniteArrivals::Bernoulli {
                    rate: 0.25,
                    horizon: 15,
                },
            };
            let inst = WorkloadGenerator::new(spec, seed).generate(net);
            let res = run_policy(
                net,
                TraceSource::new(inst),
                GreedyPolicy::new().with_decision_trace(Arc::clone(&trace)),
                EngineConfig::default(),
            );
            res.expect_ok();
            for d in &trace.lock().decisions {
                let DecisionKind::GreedyColor { color, bound, .. } = d.kind else {
                    panic!("unexpected decision {:?}", d.kind);
                };
                assert!(
                    color <= bound,
                    "{}: {} color {color} > Theorem 1 bound {bound}",
                    net.name(),
                    d.txn
                );
            }
        }
    }
}

/// Theorem 2: uniform-mode colors respect the slot bound and absolute
/// execution times are multiples of beta.
#[test]
fn theorem2_uniform_bound() {
    for (net, beta) in [
        (topology::clique(10), 1u64),
        (topology::hypercube(3), 3),
        (topology::hypercube(4), 4),
    ] {
        let trace = decision_trace();
        let spec = WorkloadSpec {
            num_objects: 6,
            k: 2,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bernoulli {
                rate: 0.3,
                horizon: 12,
            },
        };
        let inst = WorkloadGenerator::new(spec, 5).generate(&net);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            GreedyPolicy::uniform(beta).with_decision_trace(Arc::clone(&trace)),
            EngineConfig::default(),
        );
        res.expect_ok();
        for d in &trace.lock().decisions {
            let DecisionKind::GreedyColor { color, bound, .. } = d.kind else {
                panic!("unexpected decision {:?}", d.kind);
            };
            assert!(color >= 1);
            assert!(color <= bound, "{}: {color} > {bound}", d.txn);
        }
        // Absolute execution times are multiples of beta.
        for (txn, exec) in res.schedule.iter() {
            assert_eq!(exec % beta, 0, "{txn} executes off the beta grid");
        }
    }
}

/// Lemma 3 (levels) and Lemma 4 (deadlines) for the bucket schedule.
#[test]
fn bucket_lemmas_on_line_and_grid() {
    for (net, line) in [(topology::line(32), true), (topology::grid(&[5, 5]), false)] {
        let trace = decision_trace();
        let spec = WorkloadSpec {
            num_objects: 8,
            k: 2,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bernoulli {
                rate: 0.25,
                horizon: 25,
            },
        };
        let inst = WorkloadGenerator::new(spec, 9).generate(&net);
        let res = if line {
            run_policy(
                &net,
                TraceSource::new(inst),
                BucketPolicy::new(LineScheduler).with_decision_trace(Arc::clone(&trace)),
                EngineConfig::default(),
            )
        } else {
            run_policy(
                &net,
                TraceSource::new(inst),
                BucketPolicy::new(ListScheduler::fifo()).with_decision_trace(Arc::clone(&trace)),
                EngineConfig::default(),
            )
        };
        res.expect_ok();
        let lemma3 = net.max_bucket_level();
        let mut inserts = 0;
        for d in &trace.lock().decisions {
            let DecisionKind::BucketInsert {
                level: lvl,
                overflow,
            } = d.kind
            else {
                continue;
            };
            inserts += 1;
            let id = d.txn;
            assert!(!overflow, "{id} overflowed every probe");
            assert!(lvl <= lemma3, "{id} level {lvl} > {lemma3}");
            let deadline = d.t + (lvl as u64 + 1) * (1u64 << (lvl + 2));
            assert!(
                res.commits[&id] <= deadline,
                "{id} missed Lemma 4 deadline on {}",
                net.name()
            );
        }
        assert_eq!(inserts, res.txns.len(), "one insertion per transaction");
    }
}

/// Theorem 3 shape: on cliques the measured ratio grows with k but not
/// with n.
#[test]
fn theorem3_ratio_shape() {
    let ratio_for = |n: u32, k: usize| -> f64 {
        let net = topology::clique(n);
        let src = ClosedLoopSource::new(net.clone(), WorkloadSpec::batch_uniform(n, k), 2, 77);
        let res = run_policy(&net, src, GreedyPolicy::uniform(1), EngineConfig::default());
        res.expect_ok();
        competitive_ratio(&net, &res).max_ratio
    };
    let r_small_k = ratio_for(16, 1);
    let r_big_k = ratio_for(16, 8);
    assert!(
        r_big_k >= r_small_k,
        "ratio should not shrink with k: {r_small_k} vs {r_big_k}"
    );
    // Flat in n (allow generous noise: conservative lower bounds wobble).
    let r_n16 = ratio_for(16, 4);
    let r_n64 = ratio_for(64, 4);
    assert!(
        r_n64 <= r_n16 * 3.0 + 3.0,
        "ratio should not scale with n: {r_n16} -> {r_n64}"
    );
}

/// The conservative ratio estimate is always >= 1 for nontrivial runs
/// (the optimum can never beat the lower bound).
#[test]
fn ratio_at_least_one_under_contention() {
    let net = topology::line(16);
    let src = ClosedLoopSource::new(net.clone(), WorkloadSpec::batch_uniform(4, 2), 2, 13);
    let res = run_policy(&net, src, GreedyPolicy::new(), EngineConfig::default());
    res.expect_ok();
    let r = competitive_ratio(&net, &res);
    assert!(r.max_ratio >= 1.0, "got {}", r.max_ratio);
}
