//! The run record: one JSONL vocabulary for a whole run and for the
//! last K steps of one.
//!
//! A [`RunTrace`] is a window of a run's [`StepEffects`], cut by a
//! [`crate::FlightRecorder`], plus whatever else observability captured
//! about the run. A full trace is a window that kept every step
//! ([`crate::FlightRecorder::new`] with `usize::MAX`, completed with
//! [`RunTrace::with_run`]); a flight dump is the last K steps. Both
//! serialize through [`RunTrace::to_jsonl`], one typed
//! `{"type":…,"data":…}` object per line, in this section order:
//!
//! | type | data |
//! |---|---|
//! | `meta` | `version`, window `k`, `steps_seen`, step-line count `steps`, `policy`, headline `metrics` (`null` in a flight dump) |
//! | `txn` | a transaction body (full traces only: the recorder sees no bodies) |
//! | `step` | one tick's serialised [`StepEffects`] |
//! | `phase` | a sampled [`PhaseSpan`] of a retained step |
//! | `decision` | a policy [`Decision`] (the tail of the decision trace) |
//! | `violation` | a run [`Violation`] |
//! | `health` | a [`HealthEvent`] from a [`crate::HealthMonitor`] |
//!
//! [`RunTrace::from_jsonl`] is the one reader, and it validates as it
//! reads. Everything else is derived from the steps: the [`Event`] log
//! ([`RunTrace::events`], via [`StepEffects::push_events`] with homes
//! from the `txn` bodies), the [`RunResult`] ([`RunTrace::to_run_result`]),
//! the Chrome `trace_event` export ([`RunTrace::chrome_trace`], loadable
//! in Perfetto / `chrome://tracing`: one track per object, one per engine
//! phase, and instants for commits, violations and decisions, one
//! simulated step per microsecond) and [`slowest_transactions`].

use crate::decision::Decision;
use crate::health::HealthEvent;
use dtm_graph::NodeId;
use dtm_model::{ObjectId, Time, Transaction, TxnId};
use dtm_sim::{Event, Metrics, Phase, RunResult, StepEffects, Violation};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Schema version written in the `meta` line. Version 1 was the retired
/// pair of formats (event-log traces and count-only flight dumps).
pub const RECORD_VERSION: u64 = 2;

/// Line types in section order.
const SECTIONS: [&str; 7] = [
    "meta",
    "txn",
    "step",
    "phase",
    "decision",
    "violation",
    "health",
];

/// Line types of the version-1 formats.
const OLD_TYPES: [&str; 5] = [
    "event",
    "flight_meta",
    "flight_step",
    "flight_decision",
    "health_event",
];

/// One engine phase at one sampled step.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// Step.
    pub t: Time,
    /// Phase.
    pub phase: Phase,
    /// Items the phase processed.
    pub items: u64,
    /// Wall-clock nanoseconds.
    pub nanos: u64,
}

/// A window of one run's steps plus what observability captured beside
/// them. See the module docs for the line vocabulary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTrace {
    /// Name of the policy that produced the run (empty in a flight dump).
    pub policy: String,
    /// Headline metrics of the finished run (`None` in a flight dump).
    pub metrics: Option<Metrics>,
    /// Window capacity K the steps were cut to.
    pub k: u64,
    /// Steps the recorder observed; the record keeps the last
    /// `min(k, steps_seen)` of them.
    pub steps_seen: u64,
    /// Bodies of the run's transactions (full traces only).
    pub txns: Vec<Transaction>,
    /// The retained steps, oldest first.
    pub steps: Vec<StepEffects>,
    /// Sampled per-phase spans of the retained steps.
    pub phases: Vec<PhaseSpan>,
    /// The tail of the policy's decision trace.
    pub decisions: Vec<Decision>,
    /// Run violations (full traces only).
    pub violations: Vec<Violation>,
    /// Health events appended by a monitor.
    pub health: Vec<HealthEvent>,
}

/// Why [`RunTrace::from_jsonl`] rejected a record, and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What is wrong with it.
    pub kind: RecordErrorKind,
}

/// The kinds of [`RecordError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordErrorKind {
    /// Not JSON, or not an object with a string `type` and a `data`.
    Malformed(String),
    /// A line type of the version-1 formats.
    OldSchema(String),
    /// A line type outside the vocabulary.
    UnknownType(String),
    /// The first line is not `meta` (or there are no lines).
    MissingMeta,
    /// A second `meta` line.
    DuplicateMeta,
    /// A `meta` version other than [`RECORD_VERSION`] (`None`: absent).
    Version(Option<u64>),
    /// A line after a later section.
    OutOfOrder {
        /// The line's type.
        kind: String,
        /// The section it follows.
        after: String,
    },
    /// A step whose `t` does not exceed its predecessor's.
    StepOrder {
        /// The step's time.
        t: Time,
        /// The previous step's time.
        prev: Time,
    },
    /// A phase span outside the retained steps.
    PhaseOutsideWindow(Time),
    /// The step count disagrees with `meta`.
    StepCount {
        /// Steps `meta` promises.
        meta: u64,
        /// Steps the record holds (or `min(k, steps_seen)`).
        found: u64,
    },
    /// The line's `data` does not decode as its type.
    Data(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            RecordErrorKind::Malformed(e) => write!(f, "malformed line: {e}"),
            RecordErrorKind::OldSchema(kind) => write!(
                f,
                "{kind:?} is a version-1 line type; this reader takes version {RECORD_VERSION} records only"
            ),
            RecordErrorKind::UnknownType(kind) => write!(f, "unknown line type {kind:?}"),
            RecordErrorKind::MissingMeta => write!(f, "a record starts with its meta line"),
            RecordErrorKind::DuplicateMeta => write!(f, "duplicate meta line"),
            RecordErrorKind::Version(v) => write!(
                f,
                "meta version {v:?}, expected Some({RECORD_VERSION})"
            ),
            RecordErrorKind::OutOfOrder { kind, after } => {
                write!(f, "{kind} line after the {after} section")
            }
            RecordErrorKind::StepOrder { t, prev } => write!(f, "step t {t} not after {prev}"),
            RecordErrorKind::PhaseOutsideWindow(t) => {
                write!(f, "phase span at t {t} outside the retained steps")
            }
            RecordErrorKind::StepCount { meta, found } => {
                write!(f, "meta promises {meta} steps, found {found}")
            }
            RecordErrorKind::Data(e) => write!(f, "bad data: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

/// Append one typed JSONL line.
fn push_line(out: &mut String, kind: &str, data: Value) {
    let obj = Value::Object(vec![
        ("type".into(), Value::Str(kind.to_string())),
        ("data".into(), data),
    ]);
    out.push_str(&serde_json::to_string(&obj).expect("record line serializes"));
    out.push('\n');
}

impl RunTrace {
    /// Complete a window with the finished run's facts: policy name,
    /// metrics, transaction bodies and violations.
    pub fn with_run(mut self, result: &RunResult) -> Self {
        self.policy = result.policy.clone();
        self.metrics = Some(result.metrics.clone());
        self.txns = result.txns.values().cloned().collect();
        self.violations = result.violations.clone();
        self
    }

    /// The transaction bodies by id.
    fn bodies(&self) -> BTreeMap<TxnId, &Transaction> {
        self.txns.iter().map(|tx| (tx.id, tx)).collect()
    }

    /// The event log the steps stand for. Over a full trace this is the
    /// kernel's own log; in a flight dump, which holds no transaction
    /// bodies, generation and commit events are absent.
    pub fn events(&self) -> Vec<Event> {
        let bodies = self.bodies();
        let home = |txn: TxnId| -> Option<NodeId> { bodies.get(&txn).map(|tx| tx.home) };
        let mut events = Vec::new();
        for fx in &self.steps {
            fx.push_events(home, &mut events);
        }
        events
    }

    /// Rebuild a [`RunResult`] (schedule and commits from the steps,
    /// events derived, transactions from the bodies) — enough for
    /// [`dtm_sim::render_timeline`] and offline re-validation.
    pub fn to_run_result(&self) -> RunResult {
        RunResult {
            schedule: self
                .steps
                .iter()
                .flat_map(|fx| fx.scheduled.iter().copied())
                .collect(),
            commits: self
                .steps
                .iter()
                .flat_map(|fx| fx.committed.iter().map(move |&txn| (txn, fx.t)))
                .collect(),
            txns: self.txns.iter().cloned().collect(),
            metrics: self.metrics.clone().unwrap_or_default(),
            events: self.events(),
            violations: self.violations.clone(),
            policy: self.policy.clone(),
        }
    }

    /// Serialize as JSONL, one typed line per item in section order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let meta = Value::Object(vec![
            ("version".into(), RECORD_VERSION.to_value()),
            ("k".into(), self.k.to_value()),
            ("steps_seen".into(), self.steps_seen.to_value()),
            ("steps".into(), (self.steps.len() as u64).to_value()),
            ("policy".into(), self.policy.to_value()),
            ("metrics".into(), self.metrics.to_value()),
        ]);
        push_line(&mut out, "meta", meta);
        for t in &self.txns {
            push_line(&mut out, "txn", t.to_value());
        }
        for fx in &self.steps {
            push_line(&mut out, "step", fx.to_value());
        }
        for p in &self.phases {
            push_line(&mut out, "phase", p.to_value());
        }
        for d in &self.decisions {
            push_line(&mut out, "decision", d.to_value());
        }
        for v in &self.violations {
            push_line(&mut out, "violation", v.to_value());
        }
        for h in &self.health {
            push_line(&mut out, "health", h.to_value());
        }
        out
    }

    /// Parse and validate a record written by [`RunTrace::to_jsonl`]:
    /// exactly one `meta` line, first, at [`RECORD_VERSION`]; sections in
    /// order; strictly increasing step `t`; phase spans inside the
    /// retained steps; and as many steps as `meta` promises, which is
    /// `min(k, steps_seen)`. Blank lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<Self, RecordError> {
        let mut trace = RunTrace::default();
        let mut meta: Option<(usize, u64)> = None;
        let mut section = 0;
        let mut last_line = 0;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let err = |kind| RecordError { line, kind };
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            last_line = line;
            let v: Value = serde_json::from_str(raw)
                .map_err(|e| err(RecordErrorKind::Malformed(e.to_string())))?;
            let (Some(kind), Some(data)) = (v.get("type").and_then(Value::as_str), v.get("data"))
            else {
                return Err(err(RecordErrorKind::Malformed(
                    "not a {\"type\":…,\"data\":…} object".into(),
                )));
            };
            let Some(rank) = SECTIONS.iter().position(|&s| s == kind) else {
                let kind = kind.to_string();
                return Err(err(if OLD_TYPES.contains(&kind.as_str()) {
                    RecordErrorKind::OldSchema(kind)
                } else {
                    RecordErrorKind::UnknownType(kind)
                }));
            };
            match (rank, &meta) {
                (0, Some(_)) => return Err(err(RecordErrorKind::DuplicateMeta)),
                (0, None) => {}
                (_, None) => return Err(err(RecordErrorKind::MissingMeta)),
                _ if rank < section => {
                    return Err(err(RecordErrorKind::OutOfOrder {
                        kind: kind.to_string(),
                        after: SECTIONS[section].to_string(),
                    }))
                }
                _ => {}
            }
            section = rank;
            let data_err = |e: serde::Error| err(RecordErrorKind::Data(e.0));
            match kind {
                "meta" => {
                    let version = data.get("version").and_then(Value::as_u64);
                    if version != Some(RECORD_VERSION) {
                        return Err(err(RecordErrorKind::Version(version)));
                    }
                    let field = |key: &str| data.get(key).unwrap_or(&Value::Null);
                    trace.k = u64::from_value(field("k")).map_err(data_err)?;
                    trace.steps_seen = u64::from_value(field("steps_seen")).map_err(data_err)?;
                    trace.policy = String::from_value(field("policy")).map_err(data_err)?;
                    trace.metrics = Option::from_value(field("metrics")).map_err(data_err)?;
                    let steps = u64::from_value(field("steps")).map_err(data_err)?;
                    let window = trace.k.min(trace.steps_seen);
                    if steps != window {
                        return Err(err(RecordErrorKind::StepCount {
                            meta: steps,
                            found: window,
                        }));
                    }
                    meta = Some((line, steps));
                }
                "txn" => trace
                    .txns
                    .push(Deserialize::from_value(data).map_err(data_err)?),
                "step" => {
                    let fx = StepEffects::from_value(data).map_err(data_err)?;
                    if let Some(prev) = trace.steps.last().map(|p| p.t) {
                        if fx.t <= prev {
                            return Err(err(RecordErrorKind::StepOrder { t: fx.t, prev }));
                        }
                    }
                    trace.steps.push(fx);
                }
                "phase" => {
                    let span = PhaseSpan::from_value(data).map_err(data_err)?;
                    let retained = match (trace.steps.first(), trace.steps.last()) {
                        (Some(first), Some(last)) => (first.t..=last.t).contains(&span.t),
                        _ => false,
                    };
                    if !retained {
                        return Err(err(RecordErrorKind::PhaseOutsideWindow(span.t)));
                    }
                    trace.phases.push(span);
                }
                "decision" => trace
                    .decisions
                    .push(Deserialize::from_value(data).map_err(data_err)?),
                "violation" => trace
                    .violations
                    .push(Deserialize::from_value(data).map_err(data_err)?),
                _ => trace
                    .health
                    .push(Deserialize::from_value(data).map_err(data_err)?),
            }
        }
        let Some((meta_line, steps)) = meta else {
            return Err(RecordError {
                line: last_line + 1,
                kind: RecordErrorKind::MissingMeta,
            });
        };
        if trace.steps.len() as u64 != steps {
            return Err(RecordError {
                line: meta_line,
                kind: RecordErrorKind::StepCount {
                    meta: steps,
                    found: trace.steps.len() as u64,
                },
            });
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
        // Object tracks (named on first sight): creation instants and hop
        // spans.
        let mut seen_objects = std::collections::BTreeSet::new();
        let mut track = |events: &mut Vec<Value>, object: ObjectId| {
            if seen_objects.insert(object) {
                let name = format!("{object}");
                events.push(metadata(
                    PID_OBJECTS,
                    Some(object.0 as u64),
                    "thread_name",
                    &name,
                ));
            }
        };
        for e in self.events() {
            match e {
                Event::ObjectCreated { t, object, node } => {
                    track(&mut events, object);
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
                    track(&mut events, object);
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
        let metrics = self.metrics.clone().unwrap_or_default();
        for v in &self.violations {
            events.push(obj(vec![
                ("name", Value::Str(format!("{v}"))),
                ("ph", str_v("i")),
                ("s", str_v("g")),
                ("ts", metrics.steps.to_value()),
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
                    ("makespan", metrics.makespan.to_value()),
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
/// for every commit in the steps whose body the record holds, sorted by
/// descending commit latency, truncated to `k`.
pub fn slowest_transactions(trace: &RunTrace, k: usize) -> Vec<(TxnId, Time, Time)> {
    let bodies = trace.bodies();
    let mut rows: Vec<(TxnId, Time, Time)> = trace
        .steps
        .iter()
        .flat_map(|fx| fx.committed.iter().map(move |&txn| (txn, fx.t)))
        .filter_map(|(txn, c)| Some((txn, bodies.get(&txn)?.generated_at, c)))
        .collect();
    rows.sort_by_key(|&(txn, g, c)| (std::cmp::Reverse(c.saturating_sub(g)), txn));
    rows.truncate(k);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_sim::{Creation, Delivery, Departure};

    fn tiny_trace() -> RunTrace {
        let txn = Transaction::new(TxnId(0), NodeId(1), [ObjectId(0)], 0);
        let steps = vec![
            StepEffects {
                t: 0,
                created: vec![Creation {
                    object: ObjectId(0),
                    node: NodeId(0),
                }],
                arrived: vec![TxnId(0)],
                scheduled: vec![(TxnId(0), 1)],
                departed: vec![Departure {
                    object: ObjectId(0),
                    from: NodeId(0),
                    to: NodeId(1),
                    arrive: 1,
                }],
                live_after: 1,
                ..StepEffects::default()
            },
            StepEffects {
                t: 1,
                delivered: vec![Delivery {
                    object: ObjectId(0),
                    from: NodeId(0),
                    node: NodeId(1),
                }],
                committed: vec![TxnId(0)],
                ..StepEffects::default()
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
            metrics: Some(metrics),
            k: u64::MAX,
            steps_seen: 2,
            txns: vec![txn],
            steps,
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
            health: vec![],
        }
    }

    #[test]
    fn jsonl_roundtrip() {
        let trace = tiny_trace();
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 1 + 1 + 2 + 1 + 1);
        let back = RunTrace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn events_are_derived_from_steps_in_phase_order() {
        let events = tiny_trace().events();
        let kinds: Vec<(Time, &str)> = events
            .iter()
            .map(|e| {
                let tag = match e {
                    Event::ObjectCreated { .. } => "created",
                    Event::Generated { .. } => "generated",
                    Event::Scheduled { .. } => "scheduled",
                    Event::Departed { .. } => "departed",
                    Event::Arrived { .. } => "arrived",
                    Event::Committed { .. } => "committed",
                };
                (e.time(), tag)
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                (0, "created"),
                (0, "generated"),
                (0, "scheduled"),
                (0, "departed"),
                (1, "arrived"),
                (1, "committed"),
            ]
        );
        assert!(events.contains(&Event::Committed {
            t: 1,
            txn: TxnId(0),
            node: NodeId(1),
        }));
    }

    fn err_at(text: &str) -> (usize, RecordErrorKind) {
        let e = RunTrace::from_jsonl(text).expect_err("record must be rejected");
        assert!(
            e.to_string().starts_with(&format!("line {}:", e.line)),
            "{e}"
        );
        (e.line, e.kind)
    }

    #[test]
    fn reader_requires_one_leading_meta() {
        let good = tiny_trace().to_jsonl();
        let lines: Vec<&str> = good.lines().collect();
        let join = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
        assert_eq!(err_at(""), (1, RecordErrorKind::MissingMeta));
        assert_eq!(err_at("\n \n"), (1, RecordErrorKind::MissingMeta));
        // Only txn lines: no meta at all.
        assert_eq!(
            err_at(&join(&lines[1..2])),
            (1, RecordErrorKind::MissingMeta)
        );
        // Meta not first.
        assert_eq!(
            err_at(&join(&[lines[1], lines[0]])),
            (1, RecordErrorKind::MissingMeta)
        );
        // Duplicate meta.
        assert_eq!(
            err_at(&join(&[lines[0], lines[0]])),
            (2, RecordErrorKind::DuplicateMeta)
        );
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        let good = tiny_trace().to_jsonl();
        let lines: Vec<&str> = good.lines().collect();
        let join = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
        assert!(matches!(
            err_at("not json").1,
            RecordErrorKind::Malformed(_)
        ));
        assert!(matches!(
            err_at("{\"type\":\"wat\",\"data\":{}}").1,
            RecordErrorKind::UnknownType(_)
        ));
        // Steps out of order.
        let (line, kind) = err_at(&join(&[lines[0], lines[1], lines[3], lines[2]]));
        assert_eq!(line, 4);
        assert_eq!(kind, RecordErrorKind::StepOrder { t: 0, prev: 1 });
        // Two steps at one t, with a count that agrees with meta.
        let mut twice = tiny_trace();
        twice.steps[1].t = 0;
        let (line, kind) = err_at(&twice.to_jsonl());
        assert_eq!(
            (line, kind),
            (4, RecordErrorKind::StepOrder { t: 0, prev: 0 })
        );
        // A section after a later one.
        let (line, kind) = err_at(&join(&[lines[0], lines[2], lines[1]]));
        assert_eq!(line, 3);
        assert!(matches!(kind, RecordErrorKind::OutOfOrder { .. }));
        // A dropped step disagrees with meta.
        let (line, kind) = err_at(&join(&[lines[0], lines[1], lines[2]]));
        assert_eq!(
            (line, kind),
            (1, RecordErrorKind::StepCount { meta: 2, found: 1 })
        );
        // Cut mid-line.
        assert!(matches!(
            err_at(&good[..good.len() - 10]).1,
            RecordErrorKind::Malformed(_)
        ));
    }

    #[test]
    fn reader_rejects_the_version_one_schema() {
        let old_dump = "{\"type\":\"flight_meta\",\"data\":{\"version\":1}}\n";
        assert_eq!(
            err_at(old_dump),
            (1, RecordErrorKind::OldSchema("flight_meta".into()))
        );
        let old_trace = "{\"type\":\"meta\",\"data\":{\"policy\":\"greedy\"}}\n";
        assert_eq!(err_at(old_trace), (1, RecordErrorKind::Version(None)));
        let good = tiny_trace().to_jsonl();
        let step = "{\"type\":\"flight_step\",\"data\":{\"t\":9}}";
        let with_old = format!("{}\n{step}\n", good.lines().next().unwrap());
        assert_eq!(
            err_at(&with_old),
            (2, RecordErrorKind::OldSchema("flight_step".into()))
        );
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
        assert_eq!(res.events, trace.events());
        assert_eq!(res.policy, "test");
    }

    #[test]
    fn slowest_transactions_orders_by_latency() {
        let mut trace = tiny_trace();
        trace
            .txns
            .push(Transaction::new(TxnId(1), NodeId(0), [ObjectId(0)], 0));
        trace.steps.push(StepEffects {
            t: 9,
            committed: vec![TxnId(1), TxnId(7)],
            ..StepEffects::default()
        });
        let rows = slowest_transactions(&trace, 5);
        // TxnId(7) has no body: no row, not a guessed generation time.
        assert_eq!(rows, vec![(TxnId(1), 0, 9), (TxnId(0), 0, 1)]);
        assert_eq!(slowest_transactions(&trace, 1).len(), 1);
    }
}
