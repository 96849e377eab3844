//! All four online schedulers head to head on a topology of your choice,
//! including the fully distributed Algorithm 3.
//!
//! ```text
//! cargo run -p dtm-examples --release --bin scheduler_shootout -- [topology]
//! # topology: clique | line | grid | hypercube | star | cluster (default: grid)
//! # any other name exits 2
//! ```

use dtm_core::{BucketPolicy, DistributedBucketPolicy, FifoPolicy, GreedyPolicy, TspPolicy};
use dtm_graph::{topology, Network};
use dtm_model::{ClosedLoopSource, WorkloadSpec};
use dtm_offline::{ClusterScheduler, LineScheduler, ListScheduler, StarScheduler};
use dtm_sim::{run_policy, EngineConfig, RunResult, SchedulingPolicy};

fn bucket_for(net: &Network) -> Box<dyn SchedulingPolicy> {
    use dtm_graph::Structured;
    match net.structured() {
        Some(Structured::Line { .. }) => Box::new(BucketPolicy::new(LineScheduler)),
        Some(Structured::Cluster { .. }) => {
            Box::new(BucketPolicy::new(ClusterScheduler::default()))
        }
        Some(Structured::Star { .. }) => Box::new(BucketPolicy::new(StarScheduler::default())),
        _ => Box::new(BucketPolicy::new(ListScheduler::fifo())),
    }
}

fn run_one(
    net: &Network,
    spec: &WorkloadSpec,
    policy: Box<dyn SchedulingPolicy>,
    cfg: EngineConfig,
) -> RunResult {
    let src = ClosedLoopSource::new(net.clone(), spec.clone(), 2, 99);
    let res = run_policy(net, src, policy, cfg);
    res.expect_ok();
    res
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "grid".into());
    let Some(net) = topology::by_name(&arg) else {
        eprintln!(
            "scheduler_shootout: unknown topology {arg:?}; expected one of: {}",
            topology::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let spec = WorkloadSpec::batch_uniform((net.n() as u32 / 2).max(2), 2);
    println!(
        "{} ({} nodes, diameter {}), closed-loop workload, k=2\n",
        net.name(),
        net.n(),
        net.diameter()
    );
    println!(
        "{:<34} {:>8} {:>9} {:>8} {:>9}",
        "policy", "makespan", "mean-lat", "max-lat", "comm"
    );
    let mut runs: Vec<RunResult> = vec![
        run_one(
            &net,
            &spec,
            Box::new(GreedyPolicy::new()),
            EngineConfig::default(),
        ),
        run_one(&net, &spec, bucket_for(&net), EngineConfig::default()),
        run_one(
            &net,
            &spec,
            Box::new(FifoPolicy::new()),
            EngineConfig::default(),
        ),
        run_one(
            &net,
            &spec,
            Box::new(TspPolicy::new()),
            EngineConfig::default(),
        ),
    ];
    // Algorithm 3: fully distributed (half-speed objects, sparse cover).
    runs.push(run_one(
        &net,
        &spec,
        Box::new(DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 7)),
        DistributedBucketPolicy::<ListScheduler>::engine_config(),
    ));
    for res in &runs {
        println!(
            "{:<34} {:>8} {:>9.1} {:>8} {:>9}",
            res.policy,
            res.metrics.makespan,
            res.metrics.latency.mean,
            res.metrics.latency.max,
            res.metrics.comm_cost
        );
    }
}
