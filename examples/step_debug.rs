//! Single-step a small instance on the tickable step kernel and
//! pretty-print each tick's [`StepEffects`] — living documentation of
//! the engine's phase order:
//!
//! ```text
//! creation -> receive -> generate -> schedule -> execute -> forward
//! ```
//!
//! The same values, serialised, are the `step` lines of a run record
//! (`dtm_telemetry::RunTrace`): `run_trace --emit-trace` writes every
//! tick's, a flight dump the last K, and `trace_report` renders either.
//!
//! ```text
//! cargo run -p dtm-examples --bin step_debug
//! ```

use dtm_core::GreedyPolicy;
use dtm_graph::topology;
use dtm_model::{Instance, ObjectId, ObjectInfo, TraceSource, Transaction, TxnId};
use dtm_sim::{Engine, EngineConfig, StepEffects};
use std::fmt::Write as _;

/// One line per phase that did something, in phase order.
fn pretty(fx: &StepEffects) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "t={:<3} live_after={}", fx.t, fx.live_after);
    for c in &fx.created {
        let _ = writeln!(out, "  created   {} at {}", c.object, c.node);
    }
    if !fx.delivered.is_empty() {
        for d in &fx.delivered {
            let _ = writeln!(
                out,
                "  delivered {} at {} (from {})",
                d.object, d.node, d.from
            );
        }
    }
    if !fx.arrived.is_empty() {
        let _ = writeln!(out, "  arrived   {:?}", fx.arrived);
    }
    for (txn, at) in &fx.scheduled {
        let _ = writeln!(out, "  scheduled {txn} -> exec at {at}");
    }
    if !fx.committed.is_empty() {
        let _ = writeln!(out, "  committed {:?}", fx.committed);
    }
    if !fx.aborted.is_empty() {
        let _ = writeln!(out, "  aborted   {:?}", fx.aborted);
    }
    for d in &fx.departed {
        let _ = writeln!(
            out,
            "  departed  {}: {} -> {} (arrives t={})",
            d.object, d.from, d.to, d.arrive
        );
    }
    if fx.is_empty() {
        let _ = writeln!(out, "  (quiet step: objects in transit)");
    }
    out
}

fn main() {
    // A line of 5 nodes; one object at node 0, contended by three
    // transactions at increasing distance — the object must visit them
    // in scheduled-execution order.
    let network = topology::line(5);
    let objects = vec![ObjectInfo {
        id: ObjectId(0),
        origin: dtm_graph::NodeId(0),
        created_at: 0,
    }];
    let txns = vec![
        Transaction::new(TxnId(0), dtm_graph::NodeId(2), [ObjectId(0)], 0),
        Transaction::new(TxnId(1), dtm_graph::NodeId(4), [ObjectId(0)], 0),
        Transaction::new(TxnId(2), dtm_graph::NodeId(1), [ObjectId(0)], 3),
    ];
    let instance = Instance::new(objects, txns);

    println!("step_debug: line(5), 1 object, 3 transactions, greedy policy");
    println!("phases per tick: creation -> receive -> generate -> schedule -> execute -> forward");
    println!();

    let mut kernel = Engine::new(network, GreedyPolicy::new(), EngineConfig::default())
        .into_kernel(TraceSource::new(instance));

    // Single-step: each tick returns a typed StepEffects value.
    while let Some(fx) = kernel.tick() {
        print!("{}", pretty(fx));
    }

    let result = kernel.finish();
    println!();
    println!(
        "done: {} commits, makespan {}, comm cost {}, {} violations",
        result.metrics.committed,
        result.metrics.makespan,
        result.metrics.comm_cost,
        result.violations.len()
    );
}
