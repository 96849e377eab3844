//! Offline report over a run record: a full trace (`run_trace
//! --emit-trace`) or a flight dump (`*.flight.jsonl`).
//!
//! ```text
//! cargo run -p dtm-bench --release --bin trace_report -- run.jsonl \
//!     [--top K] [--tail N] [--chrome out.json]
//! # --top K      how many slowest transactions to list (default 10)
//! # --tail N     how many of the newest steps and decisions to list
//! #              (default 16)
//! # --chrome F   additionally write Chrome trace_event JSON (Perfetto:
//! #              ui.perfetto.dev -> Open trace file)
//! ```
//!
//! Reads the record with its one validating reader
//! ([`RunTrace::from_jsonl`]) and prints what it holds: the headline
//! metrics (full traces), the window and its backlog, the top-K slowest
//! transactions (generation -> commit), log2 histograms of queue wait /
//! time-to-commit / per-object hops, the sampled per-phase wall-clock
//! breakdown, the newest N steps, the decision tail and any health
//! events. Bad input exits 2 with the offending line named.

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

fn count_flag(args: &[String], flag: &str, default: usize) -> usize {
    match flag_value(args, flag) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("{flag} takes an integer, got {v:?}"))),
        None => default,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        fail("usage: trace_report <run.jsonl> [--top K] [--tail N] [--chrome out.json]");
    };
    let top_k = count_flag(&args, "--top", 10);
    let tail = count_flag(&args, "--tail", 16);
    let raw =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let trace = RunTrace::from_jsonl(&raw)
        .unwrap_or_else(|e| fail(&format!("{path} is not a valid run record: {e}")));

    let steps = &trace.steps;
    println!("record          : {path}");
    if let Some(m) = &trace.metrics {
        println!("policy          : {}", trace.policy);
        println!("steps           : {}", m.steps);
        println!("committed       : {}", m.committed);
        println!("makespan        : {}", m.makespan);
        println!("comm cost       : {}", m.comm_cost);
        println!("events          : {}", trace.events().len());
    }
    match (steps.first(), steps.last()) {
        (Some(first), Some(last)) => println!(
            "window          : {} of {} steps seen, t = [{}, {}]",
            steps.len(),
            trace.steps_seen,
            first.t,
            last.t
        ),
        _ => println!("window          : no steps"),
    }
    if !steps.is_empty() {
        let live = steps.iter().map(|s| s.live_after);
        let lo = live.clone().min().unwrap_or(0);
        let hi = live.clone().max().unwrap_or(0);
        let mean = live.sum::<usize>() as f64 / steps.len() as f64;
        let arrived: usize = steps.iter().map(|s| s.arrived.len()).sum();
        let committed: usize = steps.iter().map(|s| s.committed.len()).sum();
        println!(
            "window backlog  : min {lo}, mean {mean:.1}, max {hi} (arrived {arrived}, committed {committed})"
        );
    }
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

    // Re-derive the registry histograms from the reconstructed run (the
    // latencies need the transaction bodies a full trace carries).
    if !trace.txns.is_empty() {
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
    }

    // Sampled per-phase wall-clock breakdown.
    if trace.phases.is_empty() {
        println!("\nphase breakdown : (no sampled spans in record)");
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

    let shown = steps.len().min(tail);
    if shown > 0 {
        println!("\nnewest {shown} steps:");
        println!(
            "  {:>10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
            "t", "created", "arrived", "sched", "commit", "abort", "moved", "live"
        );
        for s in &steps[steps.len() - shown..] {
            println!(
                "  {:>10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
                s.t,
                s.created.len(),
                s.arrived.len(),
                s.scheduled.len(),
                s.committed.len(),
                s.aborted.len(),
                s.moved().count(),
                s.live_after,
            );
        }
    }

    let decisions = &trace.decisions[trace.decisions.len().saturating_sub(tail)..];
    if decisions.is_empty() {
        println!("\ndecision tail   : (none recorded)");
    } else {
        println!("\ndecision tail ({} newest):", decisions.len());
        for d in decisions {
            println!(
                "  t={:<8} txn={:<8} {}",
                d.t,
                d.txn.to_string(),
                d.kind.tag()
            );
        }
    }

    if trace.health.is_empty() {
        println!("\nhealth events   : none");
    } else {
        println!("\nhealth events ({}):", trace.health.len());
        for ev in &trace.health {
            println!("  t={:<10} live={:<8} {}", ev.t, ev.live, ev.kind.tag());
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
