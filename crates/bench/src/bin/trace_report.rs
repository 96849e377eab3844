//! Offline report over a structured run trace (`run_trace --emit-trace`).
//!
//! ```text
//! cargo run -p dtm-bench --release --bin trace_report -- run.jsonl \
//!     [--top K] [--chrome out.json]
//! # --top K      how many slowest transactions to list (default 10)
//! # --chrome F   additionally write Chrome trace_event JSON (Perfetto:
//! #              ui.perfetto.dev -> Open trace file)
//! ```
//!
//! Prints the headline metrics, the top-K slowest transactions
//! (generation -> commit), log2 histograms of queue wait / time-to-commit
//! / per-object hops, and the sampled per-phase wall-clock breakdown.

use dtm_bench::{fail, flag_value};
use dtm_telemetry::{
    run_names, slowest_transactions, validate_chrome_trace, HistogramSnapshot, MetricsRegistry,
    RunTrace,
};

/// Render the non-empty buckets of a log2 histogram with a count bar.
fn print_histogram(name: &str, h: &HistogramSnapshot) {
    if h.count == 0 {
        println!("{name}: (empty)");
        return;
    }
    println!(
        "{name}: count={} mean={:.2} min={} max={}",
        h.count,
        h.mean(),
        h.min,
        h.max
    );
    let peak = h.buckets.iter().map(|b| b.count).max().unwrap_or(1).max(1);
    for b in &h.buckets {
        if b.count == 0 {
            continue;
        }
        let bar = "#".repeat(((b.count * 40).div_ceil(peak)) as usize);
        println!("  [{:>6}, {:>6}] {:>8} {bar}", b.lo, b.hi, b.count);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        fail("usage: trace_report <run.jsonl> [--top K] [--chrome out.json]");
    };
    let top_k: usize = match flag_value(&args, "--top") {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("--top takes an integer, got {v:?}"))),
        None => 10,
    };
    let raw =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    if raw.trim().is_empty() {
        fail(&format!("{path} is empty — not a run trace"));
    }
    let trace = RunTrace::from_jsonl(&raw)
        .unwrap_or_else(|e| fail(&format!("{path} is not valid run-trace JSONL: {e}")));

    println!("policy          : {}", trace.policy);
    println!("steps           : {}", trace.metrics.steps);
    println!("committed       : {}", trace.metrics.committed);
    println!("makespan        : {}", trace.metrics.makespan);
    println!("comm cost       : {}", trace.metrics.comm_cost);
    println!("events          : {}", trace.events.len());
    println!("decisions       : {}", trace.decisions.len());
    println!("violations      : {}", trace.violations.len());

    // Slowest transactions by generation -> commit latency.
    let slow = slowest_transactions(&trace, top_k);
    if !slow.is_empty() {
        println!("\nslowest transactions (top {}):", slow.len());
        println!(
            "  {:<8} {:>10} {:>10} {:>10}",
            "txn", "generated", "commit", "latency"
        );
        for (txn, generated, commit) in &slow {
            println!(
                "  {:<8} {:>10} {:>10} {:>10}",
                txn.to_string(),
                generated,
                commit,
                commit - generated
            );
        }
    }

    // Re-derive the registry histograms from the reconstructed run.
    let registry = MetricsRegistry::new();
    dtm_telemetry::record_run(&trace.to_run_result(), &registry);
    let snap = registry.snapshot();
    println!();
    for name in [
        run_names::QUEUE_WAIT,
        run_names::TIME_TO_COMMIT,
        run_names::OBJECT_HOPS,
    ] {
        match snap.histograms.get(name) {
            Some(h) => print_histogram(name, h),
            None => println!("{name}: (missing)"),
        }
    }

    // Sampled per-phase wall-clock breakdown.
    if trace.phases.is_empty() {
        println!("\nphase breakdown : (no sampled spans in trace)");
    } else {
        let mut agg: std::collections::BTreeMap<String, (u64, u64, u64)> = Default::default();
        for span in &trace.phases {
            let e = agg.entry(format!("{:?}", span.phase)).or_default();
            e.0 += 1;
            e.1 += span.items;
            e.2 += span.nanos;
        }
        println!("\nphase breakdown ({} sampled spans):", trace.phases.len());
        println!(
            "  {:<10} {:>8} {:>10} {:>14}",
            "phase", "spans", "items", "nanos"
        );
        for (phase, (spans, items, nanos)) in &agg {
            println!("  {phase:<10} {spans:>8} {items:>10} {nanos:>14}");
        }
    }

    if let Some(out) = flag_value(&args, "--chrome") {
        let chrome = trace.chrome_trace();
        let n = validate_chrome_trace(&chrome)
            .unwrap_or_else(|e| fail(&format!("chrome trace failed validation: {e}")));
        let body = serde_json::to_string(&chrome)
            .unwrap_or_else(|e| fail(&format!("chrome trace failed to serialize: {e}")));
        std::fs::write(&out, body).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        println!("\nchrome trace    : {out} ({n} events) -- load at ui.perfetto.dev");
    }
}
