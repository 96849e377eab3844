//! Structured trace export: JSONL run traces and Chrome `trace_event`
//! JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! A [`RunTrace`] bundles everything observability captured about one
//! run — the engine's event log, the policy's decision trace, sampled
//! per-phase spans, and the headline metrics — in one serializable
//! value. Export formats:
//!
//! * **JSONL** ([`RunTrace::to_jsonl`] / [`RunTrace::from_jsonl`]): one
//!   typed JSON object per line (`meta`, `txn`, `event`, `phase`,
//!   `decision`, `violation`), stream-appendable and greppable;
//! * **Chrome `trace_event`** ([`RunTrace::chrome_trace`]): one track
//!   per object (hop spans), one track per engine phase (sampled spans),
//!   and instant events for commits, violations and decisions. One
//!   simulated step maps to one microsecond of trace time.
//!
//! The export needs the engine's event log: run with
//! `EngineConfig::record_events = true` (the default).

use crate::decision::{Decision, DecisionTrace};
use crate::sink::PhaseSpan;
use dtm_model::{Time, Transaction, TxnId};
use dtm_sim::{Event, Metrics, Phase, RunResult, Violation};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Everything observability captured about one run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunTrace {
    /// Name of the policy that produced the run.
    pub policy: String,
    /// Headline metrics.
    pub metrics: Metrics,
    /// Every transaction seen during the run.
    pub txns: Vec<Transaction>,
    /// The engine's event log.
    pub events: Vec<Event>,
    /// Sampled per-phase spans (empty without a live sink).
    pub phases: Vec<PhaseSpan>,
    /// The policy's decision trace (empty without a handle attached).
    pub decisions: Vec<Decision>,
    /// Run violations.
    pub violations: Vec<Violation>,
}

impl RunTrace {
    /// Assemble a trace from a finished run plus whatever side channels
    /// were attached.
    pub fn from_run(
        result: &RunResult,
        phases: Vec<PhaseSpan>,
        decisions: Option<&DecisionTrace>,
    ) -> Self {
        RunTrace {
            policy: result.policy.clone(),
            metrics: result.metrics.clone(),
            txns: result.txns.values().cloned().collect(),
            events: result.events.clone(),
            phases,
            decisions: decisions.map(|d| d.decisions.clone()).unwrap_or_default(),
            violations: result.violations.clone(),
        }
    }

    /// Rebuild a [`RunResult`] (schedule and commits recovered from the
    /// event log, transactions with their generation times from the
    /// trace) — enough for
    /// [`dtm_sim::render_timeline`] and offline re-validation.
    pub fn to_run_result(&self) -> RunResult {
        let mut schedule = dtm_model::Schedule::new();
        let mut commits = BTreeMap::new();
        for e in &self.events {
            match *e {
                Event::Scheduled { txn, exec_at, .. } => {
                    schedule.set(txn, exec_at);
                }
                Event::Committed { t, txn, .. } => {
                    commits.insert(txn, t);
                }
                _ => {}
            }
        }
        RunResult {
            schedule,
            commits,
            txns: self.txns.iter().map(|t| (t.id, t.clone())).collect(),
            metrics: self.metrics.clone(),
            events: self.events.clone(),
            violations: self.violations.clone(),
            policy: self.policy.clone(),
        }
    }

    /// Serialize as JSONL: a `meta` line followed by one typed line per
    /// transaction, event, phase span, decision and violation.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let line = |out: &mut String, kind: &str, data: Value| {
            let obj = Value::Object(vec![
                ("type".to_string(), Value::Str(kind.to_string())),
                ("data".to_string(), data),
            ]);
            out.push_str(&serde_json::to_string(&obj).expect("trace line serializes"));
            out.push('\n');
        };
        let meta = Value::Object(vec![
            ("policy".to_string(), self.policy.to_value()),
            ("metrics".to_string(), self.metrics.to_value()),
        ]);
        line(&mut out, "meta", meta);
        for t in &self.txns {
            line(&mut out, "txn", t.to_value());
        }
        for e in &self.events {
            line(&mut out, "event", e.to_value());
        }
        for p in &self.phases {
            line(&mut out, "phase", p.to_value());
        }
        for d in &self.decisions {
            line(&mut out, "decision", d.to_value());
        }
        for v in &self.violations {
            line(&mut out, "violation", v.to_value());
        }
        out
    }

    /// Parse a JSONL trace produced by [`RunTrace::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Self, serde_json::Error> {
        let mut trace = RunTrace::default();
        for (i, raw) in text.lines().enumerate() {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(raw)?;
            let kind = v
                .get("type")
                .and_then(Value::as_str)
                .ok_or_else(|| serde_json::Error::msg(format!("line {}: no type", i + 1)))?;
            let data = v
                .get("data")
                .ok_or_else(|| serde_json::Error::msg(format!("line {}: no data", i + 1)))?;
            match kind {
                "meta" => {
                    trace.policy = data
                        .get("policy")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string();
                    if let Some(m) = data.get("metrics") {
                        trace.metrics = serde_json::from_value(m.clone())?;
                    }
                }
                "txn" => trace.txns.push(serde_json::from_value(data.clone())?),
                "event" => trace.events.push(serde_json::from_value(data.clone())?),
                "phase" => trace.phases.push(serde_json::from_value(data.clone())?),
                "decision" => trace.decisions.push(serde_json::from_value(data.clone())?),
                "violation" => trace.violations.push(serde_json::from_value(data.clone())?),
                other => {
                    return Err(serde_json::Error::msg(format!(
                        "line {}: unknown trace line type {other:?}",
                        i + 1
                    )))
                }
            }
        }
        Ok(trace)
    }

    /// Export as Chrome `trace_event` JSON. See the module docs for the
    /// track layout.
    pub fn chrome_trace(&self) -> Value {
        let mut events: Vec<Value> = Vec::new();

        // Process / track metadata.
        for (pid, name) in [
            (PID_OBJECTS, "objects"),
            (PID_PHASES, "engine phases"),
            (PID_RUN, "run"),
        ] {
            events.push(metadata(pid, None, "process_name", name));
        }
        for phase in Phase::ALL {
            events.push(metadata(
                PID_PHASES,
                Some(phase.index() as u64),
                "thread_name",
                phase.name(),
            ));
        }
        for (tid, name) in [
            (TID_COMMITS, "commits"),
            (TID_VIOLATIONS, "violations"),
            (TID_DECISIONS, "decisions"),
        ] {
            events.push(metadata(PID_RUN, Some(tid), "thread_name", name));
        }
        let mut seen_objects = std::collections::BTreeSet::new();

        // Object tracks: creation instants and hop spans.
        for e in &self.events {
            match *e {
                Event::ObjectCreated { t, object, node } => {
                    if seen_objects.insert(object.0) {
                        events.push(metadata(
                            PID_OBJECTS,
                            Some(object.0 as u64),
                            "thread_name",
                            &format!("{object}"),
                        ));
                    }
                    events.push(obj(vec![
                        ("name", Value::Str(format!("created@n{}", node.0))),
                        ("ph", str_v("i")),
                        ("s", str_v("t")),
                        ("ts", (t).to_value()),
                        ("pid", PID_OBJECTS.to_value()),
                        ("tid", (object.0 as u64).to_value()),
                    ]));
                }
                Event::Departed {
                    t,
                    object,
                    from,
                    to,
                    arrive,
                } => {
                    if seen_objects.insert(object.0) {
                        events.push(metadata(
                            PID_OBJECTS,
                            Some(object.0 as u64),
                            "thread_name",
                            &format!("{object}"),
                        ));
                    }
                    events.push(obj(vec![
                        ("name", Value::Str(format!("n{}->n{}", from.0, to.0))),
                        ("ph", str_v("X")),
                        ("ts", t.to_value()),
                        ("dur", (arrive.saturating_sub(t).max(1)).to_value()),
                        ("pid", PID_OBJECTS.to_value()),
                        ("tid", (object.0 as u64).to_value()),
                    ]));
                }
                Event::Committed { t, txn, node } => {
                    events.push(obj(vec![
                        ("name", Value::Str(format!("commit {txn}@n{}", node.0))),
                        ("ph", str_v("i")),
                        ("s", str_v("g")),
                        ("ts", t.to_value()),
                        ("pid", PID_RUN.to_value()),
                        ("tid", TID_COMMITS.to_value()),
                    ]));
                }
                _ => {}
            }
        }

        // One track per phase (sampled spans; one step = one microsecond).
        for p in &self.phases {
            events.push(obj(vec![
                ("name", str_v(p.phase.name())),
                ("ph", str_v("X")),
                ("ts", p.t.to_value()),
                ("dur", 1u64.to_value()),
                ("pid", PID_PHASES.to_value()),
                ("tid", (p.phase.index() as u64).to_value()),
                (
                    "args",
                    obj(vec![
                        ("items", p.items.to_value()),
                        ("nanos", p.nanos.to_value()),
                    ]),
                ),
            ]));
        }

        // Decision instants.
        for d in &self.decisions {
            events.push(obj(vec![
                ("name", Value::Str(format!("{} {}", d.kind.tag(), d.txn))),
                ("ph", str_v("i")),
                ("s", str_v("t")),
                ("ts", d.t.to_value()),
                ("pid", PID_RUN.to_value()),
                ("tid", TID_DECISIONS.to_value()),
                ("args", d.kind.to_value()),
            ]));
        }

        // Violation instants (at the end of the run timeline: violations
        // carry no uniform timestamp, so they are pinned to the makespan).
        for v in &self.violations {
            events.push(obj(vec![
                ("name", Value::Str(format!("{v}"))),
                ("ph", str_v("i")),
                ("s", str_v("g")),
                ("ts", self.metrics.steps.to_value()),
                ("pid", PID_RUN.to_value()),
                ("tid", TID_VIOLATIONS.to_value()),
            ]));
        }

        obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", str_v("ms")),
            (
                "otherData",
                obj(vec![
                    ("policy", self.policy.to_value()),
                    ("makespan", self.metrics.makespan.to_value()),
                ]),
            ),
        ])
    }
}

/// Chrome-trace process id for object tracks.
pub const PID_OBJECTS: u64 = 1;
/// Chrome-trace process id for engine-phase tracks.
pub const PID_PHASES: u64 = 2;
/// Chrome-trace process id for run-level instants.
pub const PID_RUN: u64 = 3;
const TID_COMMITS: u64 = 0;
const TID_VIOLATIONS: u64 = 1;
const TID_DECISIONS: u64 = 2;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn str_v(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn metadata(pid: u64, tid: Option<u64>, kind: &str, name: &str) -> Value {
    obj(vec![
        ("name", str_v(kind)),
        ("ph", str_v("M")),
        ("ts", 0u64.to_value()),
        ("pid", pid.to_value()),
        ("tid", tid.unwrap_or(0).to_value()),
        ("args", obj(vec![("name", str_v(name))])),
    ])
}

/// Check that `value` is structurally valid Chrome `trace_event` JSON
/// (the "JSON object format"): a top-level object with a `traceEvents`
/// array whose members all carry `name`/`ph`/`ts`/`pid`/`tid`, with a
/// non-negative `dur` on every complete (`"X"`) event. Returns the
/// number of trace events on success.
pub fn validate_chrome_trace(value: &Value) -> Result<usize, String> {
    let events = value
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    const PHASES: [&str; 9] = ["B", "E", "X", "i", "I", "C", "M", "b", "e"];
    for (i, e) in events.iter().enumerate() {
        let ctx = |field: &str| format!("traceEvents[{i}]: bad or missing {field}");
        e.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("name"))?;
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("ph"))?;
        if !PHASES.contains(&ph) {
            return Err(format!("traceEvents[{i}]: unknown ph {ph:?}"));
        }
        for field in ["ts", "pid", "tid"] {
            e.get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| ctx(field))?;
        }
        if ph == "X" {
            let dur = e
                .get("dur")
                .and_then(Value::as_f64)
                .ok_or_else(|| ctx("dur"))?;
            if dur < 0.0 {
                return Err(format!("traceEvents[{i}]: negative dur"));
            }
        }
    }
    Ok(events.len())
}

/// Per-transaction latency rows for reports: `(txn, generated, commit)`
/// sorted by descending commit latency, truncated to `k`.
pub fn slowest_transactions(trace: &RunTrace, k: usize) -> Vec<(TxnId, Time, Time)> {
    let mut generated: BTreeMap<TxnId, Time> = BTreeMap::new();
    let mut rows: Vec<(TxnId, Time, Time)> = Vec::new();
    for e in &trace.events {
        match *e {
            Event::Generated { t, txn, .. } => {
                generated.insert(txn, t);
            }
            Event::Committed { t, txn, .. } => {
                let g = generated.get(&txn).copied().unwrap_or(0);
                rows.push((txn, g, t));
            }
            _ => {}
        }
    }
    rows.sort_by_key(|&(txn, g, c)| (std::cmp::Reverse(c.saturating_sub(g)), txn));
    rows.truncate(k);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::NodeId;
    use dtm_model::ObjectId;

    fn tiny_trace() -> RunTrace {
        let txn = Transaction::new(TxnId(0), NodeId(1), [ObjectId(0)], 0);
        let events = vec![
            Event::ObjectCreated {
                t: 0,
                object: ObjectId(0),
                node: NodeId(0),
            },
            Event::Generated {
                t: 0,
                txn: TxnId(0),
                node: NodeId(1),
            },
            Event::Scheduled {
                t: 0,
                txn: TxnId(0),
                exec_at: 1,
            },
            Event::Departed {
                t: 0,
                object: ObjectId(0),
                from: NodeId(0),
                to: NodeId(1),
                arrive: 1,
            },
            Event::Arrived {
                t: 1,
                object: ObjectId(0),
                node: NodeId(1),
            },
            Event::Committed {
                t: 1,
                txn: TxnId(0),
                node: NodeId(1),
            },
        ];
        let metrics = Metrics {
            makespan: 1,
            committed: 1,
            steps: 2,
            ..Default::default()
        };
        RunTrace {
            policy: "test".into(),
            metrics,
            txns: vec![txn],
            events,
            phases: vec![PhaseSpan {
                t: 0,
                phase: Phase::Execute,
                items: 1,
                nanos: 42,
            }],
            decisions: vec![Decision {
                t: 0,
                txn: TxnId(0),
                exec_at: Some(1),
                kind: crate::decision::DecisionKind::FifoQueue { queue_position: 0 },
            }],
            violations: vec![],
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let trace = tiny_trace();
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 1 + 1 + 6 + 1 + 1);
        let back = RunTrace::from_jsonl(&text).unwrap();
        assert_eq!(back.policy, trace.policy);
        assert_eq!(back.txns, trace.txns);
        assert_eq!(back.events, trace.events);
        assert_eq!(back.phases, trace.phases);
        assert_eq!(back.decisions, trace.decisions);
        assert_eq!(back.metrics.makespan, 1);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(RunTrace::from_jsonl("{\"type\":\"wat\",\"data\":{}}").is_err());
        assert!(RunTrace::from_jsonl("not json").is_err());
    }

    #[test]
    fn chrome_trace_is_schema_valid() {
        let trace = tiny_trace();
        let chrome = trace.chrome_trace();
        let n = validate_chrome_trace(&chrome).expect("valid trace_event JSON");
        // Metadata (3 processes + 5 phases + 3 run tracks + 1 object)
        // + 1 created + 1 hop + 1 commit + 1 phase span + 1 decision.
        assert_eq!(n, 12 + 5);
        // Round-trip through text to ensure it is real JSON.
        let text = serde_json::to_string(&chrome).unwrap();
        let reparsed: Value = serde_json::from_str(&text).unwrap();
        validate_chrome_trace(&reparsed).unwrap();
    }

    #[test]
    fn validator_rejects_malformed() {
        let bad: Value = serde_json::from_str("{\"traceEvents\":[{\"name\":\"x\"}]}").unwrap();
        assert!(validate_chrome_trace(&bad).is_err());
        let not_array: Value = serde_json::from_str("{\"traceEvents\":3}").unwrap();
        assert!(validate_chrome_trace(&not_array).is_err());
    }

    #[test]
    fn run_result_reconstruction() {
        let trace = tiny_trace();
        let res = trace.to_run_result();
        assert_eq!(res.commits[&TxnId(0)], 1);
        assert_eq!(res.txns[&TxnId(0)].generated_at, 0);
        assert_eq!(res.schedule.get(TxnId(0)), Some(1));
        assert_eq!(res.txns.len(), 1);
        assert_eq!(res.policy, "test");
    }

    #[test]
    fn slowest_transactions_orders_by_latency() {
        let mut trace = tiny_trace();
        trace.events.push(Event::Generated {
            t: 0,
            txn: TxnId(1),
            node: NodeId(0),
        });
        trace.events.push(Event::Committed {
            t: 9,
            txn: TxnId(1),
            node: NodeId(0),
        });
        let rows = slowest_transactions(&trace, 5);
        assert_eq!(rows[0], (TxnId(1), 0, 9));
        assert_eq!(rows[1], (TxnId(0), 0, 1));
        assert_eq!(slowest_transactions(&trace, 1).len(), 1);
    }
}
