//! Flight recorder: a bounded black box for long open-system runs.
//!
//! [`FlightRecorder`] is a [`StepObserver`] that retains the most recent
//! K steps of compact per-step records — condensed [`StepEffects`]
//! counts, the live-set gauge, and sampled per-phase wall-clock timings —
//! in a preallocated ring buffer. Memory is O(K) however long the run
//! streams, and a warmed-up step writes into existing ring slots without
//! touching the allocator (pinned, together with the kernel's own
//! zero-alloc idle ticks, by `tests/alloc_steady_state.rs`).
//!
//! When a 10⁶-step run dies at step 742k, [`FlightRecorder::dump`]
//! serializes the window leading up to the failure as deterministic
//! JSONL — a `flight_meta` header, one `flight_step` line per retained
//! step, the tail of the policy's decision trace (`flight_decision`
//! lines, when a [`DecisionTraceHandle`] is attached), and optionally
//! the `health_event` lines a [`crate::HealthMonitor`] appends when it
//! auto-dumps on its first alarm. [`validate_flight_dump`] checks the
//! schema; the `flight_report` binary in `dtm-bench` renders it.

use crate::decision::DecisionTraceHandle;
use dtm_model::Time;
use dtm_sim::{Phase, StepEffects, StepObserver, SystemView};
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::sync::Arc;
use std::time::Duration;

/// Default ring capacity (steps retained) when a caller does not choose.
pub const DEFAULT_FLIGHT_K: usize = 1024;

/// Default number of trailing decision-trace entries included in a dump.
pub const DEFAULT_DECISION_TAIL: usize = 32;

/// Default wall-clock timing cadence for the recorder: one timed step
/// per default ring length. Deliberately much sparser than the
/// [`crate::TelemetrySink`]'s [`crate::DEFAULT_TIMING_SAMPLE`]: the
/// recorder rides 10⁶-step runs where clock reads are the dominant
/// observation cost (on hosts without a cheap vDSO clock, one
/// `Instant::now` pair per phase costs more than the whole step), and a
/// long run still times thousands of steps at this cadence.
pub const DEFAULT_FLIGHT_TIMING_SAMPLE: u64 = 1024;

/// One step's condensed record: everything the tick changed, as counts,
/// plus per-phase item totals and (sampled) wall-clock nanoseconds.
/// Fixed-size and `Copy`, so ring writes never touch the heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightRecord {
    /// The step this record describes.
    pub t: Time,
    /// Objects created this step.
    pub created: u32,
    /// Objects completing an edge traversal this step.
    pub delivered: u32,
    /// Transactions generated this step.
    pub arrived: u32,
    /// Transactions assigned an execution time this step.
    pub scheduled: u32,
    /// Transactions committed this step.
    pub committed: u32,
    /// Transactions aborted this step.
    pub aborted: u32,
    /// Objects departing on an edge this step.
    pub departed: u32,
    /// Live-set size after the step.
    pub live_after: u64,
    /// Whether wall-clock phase timing was sampled on this step.
    pub timed: bool,
    /// Per-phase item counts, indexed by [`Phase::index`], derived from
    /// the step's effects (delivered / arrived / scheduled / committed /
    /// departed) — the recorder skips the per-phase callbacks entirely
    /// on unsampled steps.
    pub phase_items: [u32; 5],
    /// Per-phase wall-clock nanoseconds (zero on unsampled steps).
    pub phase_nanos: [u64; 5],
}

/// A [`StepObserver`] retaining the last K steps in O(K) memory. See the
/// module docs.
pub struct FlightRecorder {
    k: usize,
    ring: Vec<FlightRecord>,
    /// Next ring slot to write (oldest record once the ring is full).
    next: usize,
    steps_seen: u64,
    /// Accumulator for the step currently in flight (phases arrive
    /// before the end-of-step effects).
    pending: FlightRecord,
    /// Sample wall-clock timing every this many steps (0 = never).
    timing_sample: u64,
    decisions: Option<DecisionTraceHandle>,
    decision_tail: usize,
}

impl FlightRecorder {
    /// Recorder retaining the last `k` steps (`k` is clamped to ≥ 1).
    /// The ring is preallocated here; recording never grows it.
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        FlightRecorder {
            k,
            ring: Vec::with_capacity(k),
            next: 0,
            steps_seen: 0,
            pending: FlightRecord::default(),
            timing_sample: DEFAULT_FLIGHT_TIMING_SAMPLE,
            decisions: None,
            decision_tail: DEFAULT_DECISION_TAIL,
        }
    }

    /// Sample wall-clock phase timing every `every` steps (0 disables
    /// timing entirely; default [`DEFAULT_FLIGHT_TIMING_SAMPLE`]).
    pub fn with_timing_sample(mut self, every: u64) -> Self {
        self.timing_sample = every;
        self
    }

    /// Include the last `tail` entries of `handle` as `flight_decision`
    /// lines in every dump. Pair this with a bounded trace
    /// ([`crate::DecisionTrace::bounded`]) on long runs so the handle
    /// itself stays O(tail).
    pub fn with_decisions(mut self, handle: DecisionTraceHandle, tail: usize) -> Self {
        self.decisions = Some(handle);
        self.decision_tail = tail;
        self
    }

    /// Ring capacity K.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// The configured timing-sample cadence (0 = never).
    pub fn timing_sample(&self) -> u64 {
        self.timing_sample
    }

    /// Records currently retained (≤ K).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True before the first completed step.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total steps observed over the recorder's lifetime.
    pub fn steps_seen(&self) -> u64 {
        self.steps_seen
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &FlightRecord> {
        let split = if self.ring.len() < self.k {
            0
        } else {
            self.next
        };
        self.ring[split..].iter().chain(self.ring[..split].iter())
    }

    fn record_to_value(r: &FlightRecord) -> Value {
        Value::Object(vec![
            ("t".into(), r.t.to_value()),
            ("created".into(), r.created.to_value()),
            ("delivered".into(), r.delivered.to_value()),
            ("arrived".into(), r.arrived.to_value()),
            ("scheduled".into(), r.scheduled.to_value()),
            ("committed".into(), r.committed.to_value()),
            ("aborted".into(), r.aborted.to_value()),
            ("departed".into(), r.departed.to_value()),
            ("live_after".into(), r.live_after.to_value()),
            ("timed".into(), Value::Bool(r.timed)),
            ("items".into(), r.phase_items.to_value()),
            ("nanos".into(), r.phase_nanos.to_value()),
        ])
    }

    /// Serialize the retained window as deterministic JSONL: one
    /// `flight_meta` header, one `flight_step` line per record (oldest
    /// first), then up to `decision_tail` trailing `flight_decision`
    /// lines. The output for a given recorder state is byte-identical
    /// across runs and platforms.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let first_t = self.records().next().map(|r| r.t).unwrap_or(0);
        let last_t = self.records().last().map(|r| r.t).unwrap_or(0);
        let meta = Value::Object(vec![
            ("version".into(), 1u64.to_value()),
            ("k".into(), (self.k as u64).to_value()),
            ("steps_seen".into(), self.steps_seen.to_value()),
            ("records".into(), (self.ring.len() as u64).to_value()),
            ("first_t".into(), first_t.to_value()),
            ("last_t".into(), last_t.to_value()),
            ("timing_sample".into(), self.timing_sample.to_value()),
            (
                "decision_tail".into(),
                (self.decision_tail as u64).to_value(),
            ),
        ]);
        push_line(&mut out, "flight_meta", meta);
        for r in self.records() {
            push_line(&mut out, "flight_step", Self::record_to_value(r));
        }
        if let Some(handle) = &self.decisions {
            let trace = handle.lock();
            let skip = trace.decisions.len().saturating_sub(self.decision_tail);
            for d in &trace.decisions[skip..] {
                push_line(&mut out, "flight_decision", d.to_value());
            }
        }
        out
    }
}

/// Append one typed JSONL line (the same `{"type":...,"data":...}` shape
/// as [`crate::RunTrace::to_jsonl`]).
pub(crate) fn push_line(out: &mut String, kind: &str, data: Value) {
    let obj = Value::Object(vec![
        ("type".into(), Value::Str(kind.to_string())),
        ("data".into(), data),
    ]);
    out.push_str(&serde_json::to_string(&obj).expect("flight line serializes"));
    out.push('\n');
}

impl StepObserver for FlightRecorder {
    fn on_phase(&mut self, _t: Time, phase: Phase, _items: usize, elapsed: Duration) {
        // Only the wall-clock nanos come from the phase callbacks; the
        // item counts are reconstructed from the effects at step end, so
        // the recorder declines phases entirely on unsampled steps.
        let i = phase.index();
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.pending.phase_nanos[i] = self.pending.phase_nanos[i].saturating_add(nanos);
        if nanos > 0 {
            self.pending.timed = true;
        }
    }

    fn wants_timing(&self, t: Time) -> bool {
        self.timing_sample != 0 && t.is_multiple_of(self.timing_sample)
    }

    fn wants_phases(&self, t: Time) -> bool {
        // Phases matter only for their timings, sampled like wants_timing.
        self.timing_sample != 0 && t.is_multiple_of(self.timing_sample)
    }

    fn on_step_end(&mut self, effects: &StepEffects) {
        let mut rec = self.pending;
        self.pending = FlightRecord::default();
        rec.t = effects.t;
        rec.created = effects.created.len() as u32;
        rec.delivered = effects.delivered.len() as u32;
        rec.arrived = effects.arrived.len() as u32;
        rec.scheduled = effects.scheduled.len() as u32;
        rec.committed = effects.committed.len() as u32;
        rec.aborted = effects.aborted.len() as u32;
        rec.departed = effects.departed.len() as u32;
        rec.live_after = effects.live_after as u64;
        rec.phase_items = [
            rec.delivered,
            rec.arrived,
            rec.scheduled,
            rec.committed,
            rec.departed,
        ];
        if self.ring.len() < self.k {
            self.ring.push(rec);
        } else {
            self.ring[self.next] = rec;
        }
        self.next = (self.next + 1) % self.k;
        self.steps_seen += 1;
    }
}

/// Shared handle: the engine owns one end as an observer, the harness
/// keeps the other to `dump()` after (or during) the run.
pub type FlightRecorderHandle = Arc<Mutex<FlightRecorder>>;

/// Fresh shared recorder retaining the last `k` steps.
pub fn flight_recorder(k: usize) -> FlightRecorderHandle {
    Arc::new(Mutex::new(FlightRecorder::new(k)))
}

/// Recorder + health monitor fused into one observer.
///
/// Attaching the two handles separately works, but costs each of them a
/// mutex round-trip for every `wants_timing` / `wants_phases` probe and
/// `on_step_end` call — six lock operations per step. The stack answers
/// the per-tick probes from a cached copy of the recorder's
/// timing-sample cadence without locking anything, and takes one lock
/// per component only where a callback actually lands. The harness
/// keeps both handles for dumping/reading as usual.
pub struct ObservabilityStack {
    recorder: FlightRecorderHandle,
    monitor: crate::health::HealthMonitorHandle,
    /// Cached [`FlightRecorder::timing_sample`]; answers the kernel's
    /// per-tick probes lock-free. The cadence is fixed at construction
    /// (the builder consumes the recorder), so the cache cannot go
    /// stale.
    timing_sample: u64,
}

impl ObservabilityStack {
    /// Fuse `recorder` and `monitor` into one observer.
    pub fn new(
        recorder: FlightRecorderHandle,
        monitor: crate::health::HealthMonitorHandle,
    ) -> Self {
        let timing_sample = recorder.lock().timing_sample();
        ObservabilityStack {
            recorder,
            monitor,
            timing_sample,
        }
    }
}

impl StepObserver for ObservabilityStack {
    fn on_phase(&mut self, t: Time, phase: Phase, items: usize, elapsed: Duration) {
        // Only the recorder consumes phases (sampled steps only).
        self.recorder.lock().on_phase(t, phase, items, elapsed);
    }

    fn wants_timing(&self, t: Time) -> bool {
        self.timing_sample != 0 && t.is_multiple_of(self.timing_sample)
    }

    fn wants_phases(&self, t: Time) -> bool {
        self.timing_sample != 0 && t.is_multiple_of(self.timing_sample)
    }

    fn on_step_end(&mut self, effects: &StepEffects) {
        self.recorder.lock().on_step_end(effects);
        self.monitor.lock().on_step_end(effects);
    }

    fn on_step_end_in(&mut self, view: &SystemView<'_>, effects: &StepEffects) {
        self.recorder.lock().on_step_end(effects);
        self.monitor.lock().on_step_end_in(view, effects);
    }
}

/// What a validated flight dump contains.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightDumpSummary {
    /// Ring capacity the recorder ran with.
    pub k: u64,
    /// Total steps the recorder observed.
    pub steps_seen: u64,
    /// `flight_step` lines in the dump.
    pub records: usize,
    /// First retained step.
    pub first_t: Time,
    /// Last retained step.
    pub last_t: Time,
    /// Trailing `flight_decision` lines.
    pub decisions: usize,
    /// Appended `health_event` lines (present in auto-dumps).
    pub health_events: usize,
}

fn req_u64(data: &Value, key: &str, line: usize) -> Result<u64, String> {
    data.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("line {line}: missing or non-integer field {key:?}"))
}

/// Validate a JSONL flight dump produced by [`FlightRecorder::dump`]
/// (possibly with `health_event` lines appended by a
/// [`crate::HealthMonitor`] auto-dump). Checks the header, the
/// step-record schema (strictly increasing `t`, 5-element phase arrays),
/// section ordering, and record-count consistency. Returns a summary on
/// success; any structural problem is an `Err` with the offending line.
pub fn validate_flight_dump(text: &str) -> Result<FlightDumpSummary, String> {
    let mut summary = FlightDumpSummary::default();
    // Sections must appear in dump order: meta, steps, decisions, events.
    let mut section = 0usize;
    let mut last_t: Option<Time> = None;
    let mut saw_meta = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(raw).map_err(|e| format!("line {line}: {e}"))?;
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {line}: no \"type\" field"))?;
        let data = v
            .get("data")
            .ok_or_else(|| format!("line {line}: no \"data\" field"))?;
        let rank = match kind {
            "flight_meta" => 0,
            "flight_step" => 1,
            "flight_decision" => 2,
            "health_event" => 3,
            other => return Err(format!("line {line}: unknown line type {other:?}")),
        };
        if rank < section {
            return Err(format!("line {line}: {kind} line out of section order"));
        }
        section = rank;
        match kind {
            "flight_meta" => {
                if saw_meta {
                    return Err(format!("line {line}: duplicate flight_meta"));
                }
                saw_meta = true;
                summary.k = req_u64(data, "k", line)?;
                summary.steps_seen = req_u64(data, "steps_seen", line)?;
                summary.first_t = req_u64(data, "first_t", line)?;
                summary.last_t = req_u64(data, "last_t", line)?;
                let records = req_u64(data, "records", line)?;
                if records > summary.k {
                    return Err(format!("line {line}: records {records} > k {}", summary.k));
                }
                if records > summary.steps_seen {
                    return Err(format!(
                        "line {line}: records {records} > steps_seen {}",
                        summary.steps_seen
                    ));
                }
            }
            "flight_step" => {
                if !saw_meta {
                    return Err(format!("line {line}: flight_step before flight_meta"));
                }
                let t = req_u64(data, "t", line)?;
                if let Some(prev) = last_t {
                    if t <= prev {
                        return Err(format!("line {line}: step t {t} not after {prev}"));
                    }
                }
                last_t = Some(t);
                for key in [
                    "created",
                    "delivered",
                    "arrived",
                    "scheduled",
                    "committed",
                    "aborted",
                    "departed",
                    "live_after",
                ] {
                    req_u64(data, key, line)?;
                }
                if !matches!(data.get("timed"), Some(Value::Bool(_))) {
                    return Err(format!("line {line}: missing boolean field \"timed\""));
                }
                for key in ["items", "nanos"] {
                    let arr = data
                        .get(key)
                        .and_then(Value::as_array)
                        .ok_or_else(|| format!("line {line}: missing array field {key:?}"))?;
                    if arr.len() != Phase::ALL.len() {
                        return Err(format!(
                            "line {line}: {key:?} has {} entries, expected {}",
                            arr.len(),
                            Phase::ALL.len()
                        ));
                    }
                    if arr.iter().any(|e| e.as_u64().is_none()) {
                        return Err(format!("line {line}: non-integer entry in {key:?}"));
                    }
                }
                summary.records += 1;
            }
            "flight_decision" => {
                req_u64(data, "t", line)?;
                if data.get("txn").is_none() || data.get("kind").is_none() {
                    return Err(format!("line {line}: decision missing txn/kind"));
                }
                summary.decisions += 1;
            }
            "health_event" => {
                req_u64(data, "t", line)?;
                if data.get("kind").is_none() {
                    return Err(format!("line {line}: health event missing kind"));
                }
                summary.health_events += 1;
            }
            _ => unreachable!("kind matched above"),
        }
    }
    if !saw_meta {
        return Err("dump has no flight_meta line (empty or truncated input)".to_string());
    }
    let expected = summary.k.min(summary.steps_seen) as usize;
    if summary.records != expected {
        return Err(format!(
            "dump holds {} flight_step lines, meta promises {expected}",
            summary.records
        ));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_model::TxnId;

    fn fx(t: Time, arrived: usize, committed: usize, live: usize) -> StepEffects {
        let mut e = StepEffects {
            t,
            live_after: live,
            ..StepEffects::default()
        };
        for i in 0..arrived {
            e.arrived.push(TxnId(i as u64));
        }
        for i in 0..committed {
            e.committed.push(TxnId(i as u64));
        }
        e
    }

    #[test]
    fn ring_retains_last_k_steps_in_order() {
        let mut rec = FlightRecorder::new(4).with_timing_sample(0);
        for t in 0..10u64 {
            rec.on_step_end(&fx(t, 1, 0, t as usize));
        }
        assert_eq!(rec.capacity(), 4);
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.steps_seen(), 10);
        let ts: Vec<Time> = rec.records().map(|r| r.t).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
        let last = rec.records().last().expect("nonempty");
        assert_eq!(last.arrived, 1);
        assert_eq!(last.live_after, 9);
        // Items are derived from the effects: one generate-phase item.
        assert_eq!(last.phase_items[Phase::Generate.index()], 1);
        assert_eq!(last.phase_items[Phase::Schedule.index()], 0);
        assert!(!last.timed);
    }

    #[test]
    fn pending_phase_nanos_reset_each_step() {
        let mut rec = FlightRecorder::new(8);
        rec.on_phase(0, Phase::Receive, 5, Duration::from_nanos(7));
        rec.on_step_end(&fx(0, 0, 0, 0));
        rec.on_phase(1, Phase::Receive, 2, Duration::ZERO);
        rec.on_step_end(&fx(1, 0, 0, 0));
        let records: Vec<&FlightRecord> = rec.records().collect();
        assert_eq!(records[0].phase_nanos[0], 7);
        assert!(records[0].timed);
        assert_eq!(records[1].phase_nanos[0], 0);
        assert!(!records[1].timed);
    }

    #[test]
    fn timing_sample_controls_wants_timing_and_phases() {
        let rec = FlightRecorder::new(2).with_timing_sample(64);
        assert!(rec.wants_timing(0));
        assert!(!rec.wants_timing(1));
        assert!(rec.wants_timing(64));
        assert!(rec.wants_phases(0));
        assert!(!rec.wants_phases(1));
        let never = FlightRecorder::new(2).with_timing_sample(0);
        assert!(!never.wants_timing(0));
        assert!(!never.wants_phases(0));
    }

    #[test]
    fn dump_roundtrips_through_validator() {
        let handle = crate::decision_trace();
        for i in 0..5u64 {
            handle.lock().push(crate::Decision {
                t: i,
                txn: TxnId(i),
                exec_at: Some(i + 1),
                kind: crate::DecisionKind::FifoQueue { queue_position: 0 },
            });
        }
        let mut rec = FlightRecorder::new(3).with_decisions(Arc::clone(&handle), 2);
        for t in 0..7u64 {
            rec.on_step_end(&fx(t, 1, 1, 2));
        }
        let dump = rec.dump();
        let s = validate_flight_dump(&dump).expect("dump validates");
        assert_eq!(s.k, 3);
        assert_eq!(s.steps_seen, 7);
        assert_eq!(s.records, 3);
        assert_eq!(s.first_t, 4);
        assert_eq!(s.last_t, 6);
        assert_eq!(s.decisions, 2, "only the tail is dumped");
        assert_eq!(s.health_events, 0);
        // Deterministic: two dumps of the same state are byte-identical.
        assert_eq!(dump, rec.dump());
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let mut rec = FlightRecorder::new(2);
        rec.on_step_end(&fx(0, 0, 0, 0));
        rec.on_step_end(&fx(1, 0, 0, 0));
        let good = rec.dump();
        assert!(validate_flight_dump(&good).is_ok());

        // Empty input.
        assert!(validate_flight_dump("").is_err());
        // Truncated mid-line.
        let cut = &good[..good.len() - 10];
        assert!(validate_flight_dump(cut).is_err());
        // Missing meta (drop the first line).
        let body: String = good.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(validate_flight_dump(&body).is_err());
        // Non-JSON garbage.
        assert!(validate_flight_dump("not json\n").is_err());
        // Out-of-order steps.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.swap(1, 2);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(validate_flight_dump(&swapped).is_err());
    }

    #[test]
    fn ring_never_allocates_once_full() {
        let mut rec = FlightRecorder::new(16);
        for t in 0..16u64 {
            rec.on_step_end(&fx(t, 0, 0, 0));
        }
        let cap_before = rec.ring.capacity();
        for t in 16..10_000u64 {
            rec.on_step_end(&fx(t, 2, 2, 3));
        }
        assert_eq!(rec.ring.capacity(), cap_before);
        assert_eq!(rec.len(), 16);
        assert_eq!(rec.steps_seen(), 10_000);
    }

    /// The stack hands the step-end view through to the monitor: a
    /// transaction past the starvation age is reported, which needs the
    /// view (through `on_step_end` alone the monitor cannot see it).
    #[test]
    fn stack_forwards_the_view_to_the_monitor() {
        use dtm_graph::{topology, NodeId};
        use dtm_model::{ObjectId, Transaction};
        use dtm_sim::{LiveTxn, RuntimeState};
        let net = topology::line(2);
        let mut state = RuntimeState::new();
        state.insert_txn(LiveTxn {
            txn: Transaction::new(TxnId(3), NodeId(0), [ObjectId(0)], 0),
            scheduled: None,
        });
        let recorder = flight_recorder(4);
        let monitor = crate::health_monitor(crate::HealthConfig {
            starvation_age: 5,
            ..crate::HealthConfig::default()
        });
        let mut stack = ObservabilityStack::new(Arc::clone(&recorder), Arc::clone(&monitor));
        let view = SystemView::from_state(9, &net, &state);
        stack.on_step_end_in(&view, &fx(9, 0, 0, 1));
        assert_eq!(recorder.lock().steps_seen(), 1);
        let m = monitor.lock();
        assert_eq!(m.events().len(), 1, "{:?}", m.events());
        assert_eq!(m.events()[0].kind.tag(), "starvation");
        assert_eq!(m.events()[0].oldest, vec![TxnId(3)]);
    }
}
