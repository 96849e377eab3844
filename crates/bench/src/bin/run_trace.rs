//! Replay a JSON trace produced by `gen_trace` under a chosen scheduler
//! and report metrics plus the conservative competitive-ratio estimate.
//!
//! ```text
//! cargo run -p dtm-bench --release --bin run_trace -- trace.json [policy] \
//!     [--timeline] [--emit-trace run.jsonl]
//! # policy: greedy | bucket | fifo | tsp | distributed (default: greedy)
//! # --timeline additionally renders the per-object ASCII Gantt chart
//! # --emit-trace writes the full run record (JSONL: every step's
//! #   effects, transaction bodies, decisions, sampled phase timings) for
//! #   trace_report / Perfetto conversion
//! ```
//!
//! Bad input — a missing or unreadable file, malformed JSON, a missing
//! `topology`/`instance` field, an unknown topology or policy, or a trace
//! that does not fit its topology — exits 2 with a diagnostic.

use dtm_bench::{fail, flag_value};
use dtm_core::{BucketPolicy, DistributedBucketPolicy, FifoPolicy, GreedyPolicy, TspPolicy};
use dtm_graph::{topology, Network};
use dtm_model::{Instance, TraceSource};
use dtm_offline::{competitive_ratio, ListScheduler};
use dtm_sim::{
    validate_events, Engine, EngineConfig, RunResult, SchedulingPolicy, ValidationConfig,
};
use dtm_telemetry::{decision_trace, FlightRecorder, FlightRecorderHandle, DEFAULT_TIMING_SAMPLE};
use parking_lot::Mutex;
use std::sync::Arc;

const POLICIES: [&str; 5] = ["greedy", "bucket", "fifo", "tsp", "distributed"];

fn run_with_observers(
    net: &Network,
    instance: Instance,
    policy: Box<dyn SchedulingPolicy>,
    config: EngineConfig,
    recorder: Option<FlightRecorderHandle>,
) -> RunResult {
    let mut engine = Engine::new(net.clone(), policy, config);
    if let Some(recorder) = recorder {
        engine = engine.with_observer(recorder);
    }
    engine.run(TraceSource::new(instance))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        fail("usage: run_trace <trace.json> [policy] [--timeline] [--emit-trace run.jsonl]");
    };
    let policy_name = args
        .get(2)
        .filter(|a| !a.starts_with("--"))
        .map_or("greedy", String::as_str);
    let emit_trace = flag_value(&args, "--emit-trace");
    let raw =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc: serde_json::Value = serde_json::from_str(&raw)
        .unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")));
    let Some(topo) = doc["topology"].as_str() else {
        fail(&format!("{path} has no string \"topology\" field"));
    };
    let instance: Instance = serde_json::from_value(doc["instance"].clone())
        .unwrap_or_else(|e| fail(&format!("{path} has no valid \"instance\" field: {e}")));
    let net = topology::by_name(topo).unwrap_or_else(|| {
        fail(&format!(
            "unknown topology {topo:?}; expected one of: {}",
            topology::NAMES.join(", ")
        ))
    });
    if let Err(e) = instance.validate(&net) {
        fail(&format!("{path} does not fit topology {topo}: {e}"));
    }

    // Observability side channels: only attached when a run record was
    // requested, so the plain replay path stays identical to before. The
    // recorder keeps every step and all decisions, and times phases at
    // the telemetry sink's cadence.
    let decisions = decision_trace();
    let recorder = emit_trace.as_ref().map(|_| {
        Arc::new(Mutex::new(
            FlightRecorder::new(usize::MAX)
                .with_timing_sample(DEFAULT_TIMING_SAMPLE)
                .with_decisions(Arc::clone(&decisions), usize::MAX),
        ))
    });
    let trace_on = emit_trace.is_some();
    let dt = |on: bool| on.then(|| Arc::clone(&decisions));

    let (policy, config, vcfg): (Box<dyn SchedulingPolicy>, EngineConfig, ValidationConfig) =
        match policy_name {
            "bucket" => {
                let mut p = BucketPolicy::new(ListScheduler::fifo());
                if let Some(d) = dt(trace_on) {
                    p = p.with_decision_trace(d);
                }
                (
                    Box::new(p),
                    EngineConfig::default(),
                    ValidationConfig::default(),
                )
            }
            "fifo" => {
                let mut p = FifoPolicy::new();
                if let Some(d) = dt(trace_on) {
                    p = p.with_decision_trace(d);
                }
                (
                    Box::new(p),
                    EngineConfig::default(),
                    ValidationConfig::default(),
                )
            }
            "tsp" => {
                let mut p = TspPolicy::new();
                if let Some(d) = dt(trace_on) {
                    p = p.with_decision_trace(d);
                }
                (
                    Box::new(p),
                    EngineConfig::default(),
                    ValidationConfig::default(),
                )
            }
            "distributed" => {
                let mut p = DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 7);
                if let Some(d) = dt(trace_on) {
                    p = p.with_decision_trace(d);
                }
                (
                    Box::new(p),
                    DistributedBucketPolicy::<ListScheduler>::engine_config(),
                    ValidationConfig {
                        speed_divisor: 2,
                        ..ValidationConfig::default()
                    },
                )
            }
            "greedy" => {
                let mut p = GreedyPolicy::new();
                if let Some(d) = dt(trace_on) {
                    p = p.with_decision_trace(d);
                }
                (
                    Box::new(p),
                    EngineConfig::default(),
                    ValidationConfig::default(),
                )
            }
            other => fail(&format!(
                "unknown policy {other:?}; expected one of: {}",
                POLICIES.join(", ")
            )),
        };

    let res = run_with_observers(&net, instance, policy, config, recorder.clone());
    res.expect_ok();
    validate_events(&net, &res, &vcfg).expect("execution validates");
    let ratio = competitive_ratio(&net, &res);
    println!("policy          : {}", res.policy);
    println!("topology        : {}", net.name());
    println!("committed       : {}", res.metrics.committed);
    println!("makespan        : {}", res.metrics.makespan);
    println!("mean latency    : {:.2}", res.metrics.latency.mean);
    println!("p95 latency     : {}", res.metrics.latency.p95);
    println!("max latency     : {}", res.metrics.latency.max);
    println!("comm cost       : {}", res.metrics.comm_cost);
    println!("ratio (vs LB)   : {:.2}", ratio.max_ratio);
    if let (Some(out), Some(recorder)) = (emit_trace, recorder) {
        let trace = recorder.lock().trace().with_run(&res);
        std::fs::write(&out, trace.to_jsonl())
            .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        println!(
            "trace           : {out} ({} steps, {} decisions, {} phase spans)",
            trace.steps.len(),
            trace.decisions.len(),
            trace.phases.len()
        );
    }
    if args.iter().any(|a| a == "--timeline") {
        println!();
        print!(
            "{}",
            dtm_sim::render_timeline(&res, &dtm_sim::TimelineOptions::default())
        );
    }
}
