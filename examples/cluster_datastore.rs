//! Rack-scale datastore scenario: a cluster graph of racks (cliques of β
//! servers, expensive inter-rack bridges of weight γ) serving a skewed
//! (Zipf) transactional workload — the cluster architecture analyzed in
//! Section IV-D.
//!
//! Runs Algorithm 2 (online bucket schedule) around the two-phase cluster
//! batch scheduler and prints bucket-level telemetry alongside the
//! makespan comparison against FIFO.
//!
//! ```text
//! cargo run -p dtm-examples --release --bin cluster_datastore
//! ```

use dtm_core::{BucketPolicy, FifoPolicy};
use dtm_graph::topology;
use dtm_model::{ClosedLoopSource, ObjectChoice, WorkloadSpec};
use dtm_offline::ClusterScheduler;
use dtm_sim::{run_policy, EngineConfig};
use dtm_telemetry::{decision_trace, DecisionKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn main() {
    // 4 racks x 6 servers, inter-rack latency 8x the intra-rack hop.
    let network = topology::cluster(4, 6, 8);
    println!(
        "{}: {} servers, diameter {}\n",
        network.name(),
        network.n(),
        network.diameter()
    );
    let spec = WorkloadSpec {
        num_objects: 24,
        k: 2,
        object_choice: ObjectChoice::Zipf { exponent: 0.9 },
        ..WorkloadSpec::batch_uniform(24, 2)
    };

    // Bucket(cluster) — Algorithm 2 around the SPAA'17-style substrate.
    let trace = decision_trace();
    let src = ClosedLoopSource::new(network.clone(), spec.clone(), 3, 11);
    let bucket = run_policy(
        &network,
        src,
        BucketPolicy::new(ClusterScheduler::default()).with_decision_trace(Arc::clone(&trace)),
        EngineConfig::default(),
    );
    bucket.expect_ok();

    // FIFO baseline on the identical workload.
    let src = ClosedLoopSource::new(network.clone(), spec, 3, 11);
    let fifo = run_policy(&network, src, FifoPolicy::new(), EngineConfig::default());
    fifo.expect_ok();

    println!("policy            makespan  mean-lat  max-lat  comm");
    for res in [&bucket, &fifo] {
        println!(
            "{:<17} {:<9} {:<9.1} {:<8} {}",
            res.policy,
            res.metrics.makespan,
            res.metrics.latency.mean,
            res.metrics.latency.max,
            res.metrics.comm_cost
        );
    }

    println!(
        "\nbucket telemetry (Lemma 3 bound: level <= {}):",
        network.max_bucket_level()
    );
    let mut per_level: BTreeMap<u32, usize> = BTreeMap::new();
    let mut activations: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut overflows = 0;
    for d in &trace.lock().decisions {
        match d.kind {
            DecisionKind::BucketInsert { level, overflow } => {
                *per_level.entry(level).or_insert(0) += 1;
                overflows += usize::from(overflow);
            }
            DecisionKind::BucketActivate { level, epoch, .. } => {
                activations.insert((level, epoch));
            }
            _ => {}
        }
    }
    for (lvl, count) in &per_level {
        let fired = activations.iter().filter(|&&(l, _)| l == *lvl).count();
        println!("  level {lvl}: {count} txns inserted, {fired} non-empty activations");
    }
    println!("  probe overflows: {overflows}");
}
