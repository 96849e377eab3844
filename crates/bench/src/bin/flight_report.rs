//! Human view over a flight-recorder dump (`*.flight.jsonl`).
//!
//! ```text
//! cargo run -p dtm-bench --release --bin flight_report -- run.flight.jsonl \
//!     [--tail N]
//! # --tail N   how many of the newest step records to list (default 16)
//! ```
//!
//! Validates the dump against the schema first
//! ([`dtm_telemetry::validate_flight_dump`]), then prints the recorder
//! metadata, backlog statistics over the retained window, the newest N
//! step records, the decision tail, and any appended health events —
//! the post-mortem view of a long open-system run's last K steps.

use dtm_bench::{fail, flag_value};
use serde::Value;

/// Typed lines of one kind, in file order.
fn lines_of<'a>(parsed: &'a [Value], kind: &str) -> Vec<&'a Value> {
    parsed
        .iter()
        .filter(|v| v.get("type").and_then(Value::as_str) == Some(kind))
        .filter_map(|v| v.get("data"))
        .collect()
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Id newtypes (e.g. `TxnId`) serialize as single-element arrays;
/// unwrap either shape to the number.
fn id_u64(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::Array(items)) if items.len() == 1 => items[0].as_u64().unwrap_or(0),
        Some(other) => other.as_u64().unwrap_or(0),
        None => 0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
        fail("usage: flight_report <run.flight.jsonl> [--tail N]");
    };
    let tail: usize = match flag_value(&args, "--tail") {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("--tail takes an integer, got {v:?}"))),
        None => 16,
    };
    let raw =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let summary = dtm_telemetry::validate_flight_dump(&raw)
        .unwrap_or_else(|e| fail(&format!("{path} is not a valid flight dump: {e}")));

    let parsed: Vec<Value> = raw
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            serde_json::from_str(l)
                .unwrap_or_else(|e| fail(&format!("{path}: line failed to parse: {e}")))
        })
        .collect();
    let steps = lines_of(&parsed, "flight_step");
    let decisions = lines_of(&parsed, "flight_decision");
    let health = lines_of(&parsed, "health_event");

    println!("flight dump     : {path}");
    println!("ring capacity K : {}", summary.k);
    println!("steps seen      : {}", summary.steps_seen);
    println!(
        "retained window : {} records, t = [{}, {}]",
        summary.records, summary.first_t, summary.last_t
    );

    if !steps.is_empty() {
        let live: Vec<u64> = steps.iter().map(|s| u(s, "live_after")).collect();
        let lo = live.iter().min().copied().unwrap_or(0);
        let hi = live.iter().max().copied().unwrap_or(0);
        let mean = live.iter().sum::<u64>() as f64 / live.len() as f64;
        let committed: u64 = steps.iter().map(|s| u(s, "committed")).sum();
        let arrived: u64 = steps.iter().map(|s| u(s, "arrived")).sum();
        println!(
            "window backlog  : min {lo}, mean {mean:.1}, max {hi} (arrived {arrived}, committed {committed})"
        );
        let timed = steps
            .iter()
            .filter(|s| matches!(s.get("timed"), Some(Value::Bool(true))))
            .count();
        println!("timed steps     : {timed}/{}", steps.len());

        let shown = steps.len().min(tail.max(1));
        println!("\nnewest {shown} step records:");
        println!(
            "  {:>10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
            "t", "created", "arrived", "sched", "commit", "abort", "live"
        );
        for s in &steps[steps.len() - shown..] {
            println!(
                "  {:>10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
                u(s, "t"),
                u(s, "created"),
                u(s, "arrived"),
                u(s, "scheduled"),
                u(s, "committed"),
                u(s, "aborted"),
                u(s, "live_after"),
            );
        }
    }

    if decisions.is_empty() {
        println!("\ndecision tail   : (none attached)");
    } else {
        println!("\ndecision tail ({} newest):", decisions.len());
        for d in &decisions {
            let txn = id_u64(d, "txn");
            let tag = d
                .get("kind")
                .and_then(|k| match k {
                    // Enum-with-fields serializes as {"Variant": {...}}.
                    Value::Object(fields) => fields.first().map(|(name, _)| name.as_str()),
                    Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .unwrap_or("?");
            println!("  t={:<8} txn={txn:<8} {tag}", u(d, "t"));
        }
    }

    if summary.health_events > 0 {
        println!("\nhealth events ({}):", summary.health_events);
        for ev in &health {
            let tag = ev
                .get("kind")
                .and_then(|k| match k {
                    Value::Object(fields) => fields.first().map(|(name, _)| name.as_str()),
                    Value::Str(s) => Some(s.as_str()),
                    _ => None,
                })
                .unwrap_or("?");
            println!("  t={:<10} live={:<8} {tag}", u(ev, "t"), u(ev, "live"));
        }
    } else {
        println!("\nhealth events   : none");
    }
}
