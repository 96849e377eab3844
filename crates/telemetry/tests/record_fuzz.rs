//! The run-record reader never panics: starting from a real record (a
//! recorder's window of an engine run with decisions, transaction bodies,
//! a violation and health lines), every mutation — a cut at any byte,
//! dropped, duplicated or swapped lines, an unknown type, a string for a
//! number, a step going backwards, a phase out of range — makes
//! [`RunTrace::from_jsonl`] return `Ok` or `Err`, and the mutations that
//! break the schema return `Err` naming a line.

use dtm_graph::{topology, NodeId};
use dtm_model::{Instance, ObjectId, ObjectInfo, Schedule, TraceSource, Transaction, TxnId};
use dtm_sim::{Engine, EngineConfig, FixedSchedulePolicy};
use dtm_telemetry::{
    decision_trace, Decision, DecisionKind, FlightRecorder, HealthConfig, HealthMonitor, RunTrace,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

/// Line of 4 with two objects. T0 and T1 are scheduled and commit; T2
/// and T3 never are, so they starve and the run stops at `max_steps`.
fn real_record() -> String {
    let obj = |id, origin| ObjectInfo {
        id: ObjectId(id),
        origin: NodeId(origin),
        created_at: 0,
    };
    let txn = |id, home, o, t| Transaction::new(TxnId(id), NodeId(home), [ObjectId(o)], t);
    let inst = Instance::new(
        vec![obj(0, 0), obj(1, 3)],
        vec![
            txn(0, 2, 0, 0),
            txn(1, 3, 0, 0),
            txn(2, 1, 1, 1),
            txn(3, 0, 1, 2),
        ],
    );
    let schedule: Schedule = [(TxnId(0), 2), (TxnId(1), 3)].into_iter().collect();
    let decisions = decision_trace();
    for (t, txn) in [(0, 0), (0, 1), (1, 2)] {
        decisions.lock().push(Decision {
            t,
            txn: TxnId(txn),
            exec_at: Some(t + 2),
            kind: DecisionKind::FifoQueue { queue_position: 0 },
        });
    }
    let recorder = Arc::new(Mutex::new(
        FlightRecorder::new(16)
            .with_timing_sample(4)
            .with_decisions(decisions, 2),
    ));
    let monitor = Arc::new(Mutex::new(HealthMonitor::new(HealthConfig {
        stall_window: 10,
        starvation_age: 5,
        ..HealthConfig::default()
    })));
    let config = EngineConfig {
        max_steps: 30,
        ..EngineConfig::default()
    };
    let res = Engine::new(
        topology::line(4),
        FixedSchedulePolicy::new(schedule),
        config,
    )
    .with_observer(Arc::clone(&recorder))
    .with_observer(Arc::clone(&monitor))
    .run(TraceSource::new(inst));
    let mut trace = recorder.lock().trace().with_run(&res);
    trace.health = monitor.lock().events().to_vec();
    assert!(!trace.phases.is_empty() && !trace.violations.is_empty());
    assert!(trace.health.len() >= 2, "{:?}", trace.health);
    trace.to_jsonl()
}

fn join(lines: &[String]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

fn type_of(line: &str) -> &str {
    line.split('"').nth(3).unwrap_or("")
}

/// Indices of the lines of one type.
fn lines_of(lines: &[String], kind: &str) -> Vec<usize> {
    (0..lines.len())
        .filter(|&i| type_of(&lines[i]) == kind)
        .collect()
}

#[test]
fn the_real_record_reads_back() {
    let text = real_record();
    let trace = RunTrace::from_jsonl(&text).expect("real record reads");
    assert_eq!(trace.to_jsonl(), text);
    for kind in [
        "meta",
        "txn",
        "step",
        "phase",
        "decision",
        "violation",
        "health",
    ] {
        assert!(
            text.contains(&format!("{{\"type\":\"{kind}\"")),
            "no {kind} line"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_records_never_panic(op in 0u8..8, a in 0usize..100_000, b in 0usize..100_000) {
        let text = real_record();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let n = lines.len();
        let steps = lines_of(&lines, "step");
        // Whether the mutation must be rejected.
        let must_fail;
        let mutated = match op {
            0 => {
                // Cut at a byte (the record is ASCII).
                let cut = a % text.len();
                must_fail = false;
                text[..cut].to_string()
            }
            1 => {
                let i = a % n;
                must_fail = matches!(type_of(&lines[i]), "meta" | "step");
                lines.remove(i);
                join(&lines)
            }
            2 => {
                let i = a % n;
                must_fail = matches!(type_of(&lines[i]), "meta" | "step");
                let dup = lines[i].clone();
                lines.insert(i, dup);
                join(&lines)
            }
            3 => {
                let (i, j) = (a % n, b % n);
                must_fail = type_of(&lines[i]) != type_of(&lines[j])
                    || (type_of(&lines[i]) == "step" && i != j);
                lines.swap(i, j);
                join(&lines)
            }
            4 => {
                let i = a % n;
                let kind = type_of(&lines[i]).to_string();
                lines[i] = lines[i].replacen(&format!("\"{kind}\""), "\"bogus\"", 1);
                must_fail = true;
                join(&lines)
            }
            5 => {
                // Quote the a-th run of digits: every number in the record
                // is typed, so a string in its place never decodes.
                let bytes = text.as_bytes();
                let runs: Vec<usize> = (0..bytes.len())
                    .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
                    .collect();
                let start = runs[a % runs.len()];
                let end = (start..bytes.len()).find(|&i| !bytes[i].is_ascii_digit()).unwrap_or(bytes.len());
                must_fail = true;
                format!("{}\"{}\"{}", &text[..start], &text[start..end], &text[end..])
            }
            6 => {
                // A later step's t at or before the first step's.
                let i = steps[1 + a % (steps.len() - 1)];
                let t = lines[i].split("\"t\":").nth(1).and_then(|r| r.split(',').next()).unwrap().to_string();
                lines[i] = lines[i].replacen(&format!("\"t\":{t},"), "\"t\":0,", 1);
                must_fail = true;
                join(&lines)
            }
            _ => {
                let phases = lines_of(&lines, "phase");
                let i = phases[a % phases.len()];
                let name = ["Receive", "Generate", "Schedule", "Execute", "Forward"]
                    .into_iter()
                    .find(|p| lines[i].contains(&format!("\"{p}\"")))
                    .unwrap();
                let bad = if b % 2 == 0 { "7".to_string() } else { "\"Sixth\"".to_string() };
                lines[i] = lines[i].replacen(&format!("\"{name}\""), &bad, 1);
                must_fail = true;
                join(&lines)
            }
        };
        match RunTrace::from_jsonl(&mutated) {
            Ok(_) => prop_assert!(!must_fail, "op {op} accepted: {mutated}"),
            Err(e) => prop_assert!(e.to_string().starts_with(&format!("line {}:", e.line))),
        }
    }
}
