//! Flight recorder: a bounded black box for long open-system runs.
//!
//! [`FlightRecorder`] is a [`StepObserver`] that retains the most recent
//! K steps whole — every list of each step's [`StepEffects`], so a dump
//! says which transaction waited on which object — plus sampled
//! per-phase wall-clock timings of those steps. The lists of all retained
//! steps share one flat deque of entries that is reused: the oldest step
//! is evicted whole once K are held, so storage grows to its high-water
//! mark, O(K × peak items per step), and then stops allocating (pinned,
//! together with the kernel's own zero-alloc idle ticks, by
//! `tests/alloc_steady_state.rs`). A step is recorded from
//! [`StepObserver::on_step_end`] alone.
//!
//! [`FlightRecorder::trace`] cuts the window into a [`RunTrace`], and
//! [`FlightRecorder::dump`] writes it in the one run-record vocabulary
//! (see [`crate::trace`]): a `meta` line, one `step` line per retained
//! step, `phase` lines for its sampled timings, and the tail of the
//! policy's decision trace when a [`DecisionTraceHandle`] is attached. A
//! [`crate::HealthMonitor`] auto-dump adds `health` lines through the
//! same writer. A recorder built with `usize::MAX` keeps every step:
//! completed by [`RunTrace::with_run`], that is a full trace. The
//! `trace_report` binary in `dtm-bench` renders either.

use crate::decision::DecisionTraceHandle;
use crate::trace::{PhaseSpan, RunTrace};
use dtm_graph::NodeId;
use dtm_model::{ObjectId, Time, TxnId};
use dtm_sim::{Creation, Delivery, Departure, Phase, StepEffects, StepObserver, SystemView};
use parking_lot::Mutex;
use std::collections::VecDeque;
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

/// One entry of the recorder's flat storage, 24 bytes. A retained step
/// is the run of entries that ends with its `End`; its phase spans take
/// their `t` from that `End`.
#[derive(Clone, Copy, Debug)]
enum Item {
    Created(Creation),
    Delivered(Delivery),
    Arrived(TxnId),
    Scheduled(TxnId, Time),
    Committed(TxnId),
    Aborted(TxnId),
    Departed {
        object: ObjectId,
        from: NodeId,
        to: NodeId,
        arrive: Time,
    },
    Phase {
        phase: Phase,
        items: u64,
        nanos: u64,
    },
    End {
        t: Time,
        live_after: usize,
    },
}

/// A [`StepObserver`] retaining the last K steps whole. See the module
/// docs.
pub struct FlightRecorder {
    k: usize,
    /// The retained steps' entries, oldest first.
    items: VecDeque<Item>,
    /// Entry count of each retained step, oldest first (at most `k`).
    steps: VecDeque<usize>,
    /// Entries of the retained steps; any beyond belong to the step in
    /// flight (its phase spans).
    closed: usize,
    steps_seen: u64,
    /// Sample wall-clock timing every this many steps (0 = never).
    timing_sample: u64,
    decisions: Option<DecisionTraceHandle>,
    decision_tail: usize,
}

impl FlightRecorder {
    /// Recorder retaining the last `k` steps (`k` is clamped to ≥ 1;
    /// `usize::MAX` keeps every step). Storage grows with the window up
    /// to its high-water mark and is reused from then on.
    pub fn new(k: usize) -> Self {
        FlightRecorder {
            k: k.max(1),
            items: VecDeque::new(),
            steps: VecDeque::new(),
            closed: 0,
            steps_seen: 0,
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

    /// Include the last `tail` entries of `handle` as `decision` lines in
    /// every dump. Pair this with a bounded trace
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

    /// Steps currently retained (≤ K).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True before the first completed step.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total steps observed over the recorder's lifetime.
    pub fn steps_seen(&self) -> u64 {
        self.steps_seen
    }

    /// The retained window as a record: its steps oldest first, their
    /// sampled phase spans, and the decision tail.
    pub fn trace(&self) -> RunTrace {
        let mut trace = RunTrace {
            k: self.k as u64,
            steps_seen: self.steps_seen,
            ..RunTrace::default()
        };
        let mut fx = StepEffects::default();
        // Spans of the step being rebuilt start here in `trace.phases`.
        let mut spans = 0;
        for item in &self.items {
            match *item {
                Item::Created(c) => fx.created.push(c),
                Item::Delivered(d) => fx.delivered.push(d),
                Item::Arrived(txn) => fx.arrived.push(txn),
                Item::Scheduled(txn, at) => fx.scheduled.push((txn, at)),
                Item::Committed(txn) => fx.committed.push(txn),
                Item::Aborted(txn) => fx.aborted.push(txn),
                Item::Departed {
                    object,
                    from,
                    to,
                    arrive,
                } => fx.departed.push(Departure {
                    object,
                    from,
                    to,
                    arrive,
                }),
                Item::Phase {
                    phase,
                    items,
                    nanos,
                } => trace.phases.push(PhaseSpan {
                    t: 0,
                    phase,
                    items,
                    nanos,
                }),
                Item::End { t, live_after } => {
                    fx.t = t;
                    fx.live_after = live_after;
                    trace.steps.push(std::mem::take(&mut fx));
                    trace.phases[spans..].iter_mut().for_each(|p| p.t = t);
                    spans = trace.phases.len();
                }
            }
        }
        // Spans of a step still in flight belong to no retained step.
        trace.phases.truncate(spans);
        if let Some(handle) = &self.decisions {
            let decisions = &handle.lock().decisions;
            let skip = decisions.len().saturating_sub(self.decision_tail);
            trace.decisions = decisions[skip..].to_vec();
        }
        trace
    }

    /// The retained window as deterministic JSONL ([`RunTrace::to_jsonl`]
    /// of [`FlightRecorder::trace`]). Apart from the sampled wall-clock
    /// `nanos` of its `phase` lines, the output for a given recorder
    /// state is byte-identical across runs and platforms.
    pub fn dump(&self) -> String {
        self.trace().to_jsonl()
    }

    fn sampled(&self, t: Time) -> bool {
        self.timing_sample != 0 && t.is_multiple_of(self.timing_sample)
    }
}

impl StepObserver for FlightRecorder {
    fn on_phase(&mut self, t: Time, phase: Phase, items: usize, elapsed: Duration) {
        // Phases arrive before their step ends, so the span lands just
        // ahead of the step's own entries.
        if self.sampled(t) {
            self.items.push_back(Item::Phase {
                phase,
                items: items as u64,
                nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }

    fn wants_timing(&self, t: Time) -> bool {
        self.sampled(t)
    }

    fn wants_phases(&self, t: Time) -> bool {
        // Phases matter only for their timings, sampled like wants_timing.
        self.sampled(t)
    }

    fn on_step_end(&mut self, fx: &StepEffects) {
        if self.steps.len() == self.k {
            // Evict the oldest step whole.
            let n = self.steps.pop_front().expect("k ≥ 1 steps held");
            self.items.drain(..n);
            self.closed -= n;
        }
        // Per-item pushes: most lists hold zero to two items, where a
        // loop beats `extend`'s per-call reserve.
        let items = &mut self.items;
        for &c in &fx.created {
            items.push_back(Item::Created(c));
        }
        for &d in &fx.delivered {
            items.push_back(Item::Delivered(d));
        }
        for &txn in &fx.arrived {
            items.push_back(Item::Arrived(txn));
        }
        for &(txn, at) in &fx.scheduled {
            items.push_back(Item::Scheduled(txn, at));
        }
        for &txn in &fx.committed {
            items.push_back(Item::Committed(txn));
        }
        for &txn in &fx.aborted {
            items.push_back(Item::Aborted(txn));
        }
        for d in &fx.departed {
            items.push_back(Item::Departed {
                object: d.object,
                from: d.from,
                to: d.to,
                arrive: d.arrive,
            });
        }
        items.push_back(Item::End {
            t: fx.t,
            live_after: fx.live_after,
        });
        self.steps.push_back(items.len() - self.closed);
        self.closed = items.len();
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

#[cfg(test)]
mod tests {
    use super::*;

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
            let mut e = fx(t, 1, 0, t as usize);
            e.departed.push(Departure {
                object: ObjectId(t as u32),
                from: NodeId(0),
                to: NodeId(1),
                arrive: t + 1,
            });
            rec.on_step_end(&e);
        }
        assert_eq!(rec.capacity(), 4);
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.steps_seen(), 10);
        let trace = rec.trace();
        let ts: Vec<Time> = trace.steps.iter().map(|s| s.t).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
        // Steps come back whole: every list, not just its length.
        let last = trace.steps.last().expect("nonempty");
        assert_eq!(last.arrived, vec![TxnId(0)]);
        assert_eq!(last.departed[0].object, ObjectId(9));
        assert_eq!(last.live_after, 9);
        assert!(trace.phases.is_empty());
        assert_eq!((trace.k, trace.steps_seen), (4, 10));
    }

    #[test]
    fn pending_phase_nanos_reset_each_step() {
        let mut rec = FlightRecorder::new(8).with_timing_sample(2);
        for t in 0..4u64 {
            if rec.wants_phases(t) {
                rec.on_phase(t, Phase::Receive, 5, Duration::from_nanos(7 + t));
            }
            rec.on_step_end(&fx(t, 0, 0, 0));
        }
        // An unsampled call leaves no span either.
        rec.on_phase(5, Phase::Receive, 1, Duration::from_nanos(3));
        rec.on_step_end(&fx(5, 0, 0, 0));
        let spans = rec.trace().phases;
        let got: Vec<(Time, u64, u64)> = spans.iter().map(|p| (p.t, p.items, p.nanos)).collect();
        assert_eq!(got, vec![(0, 5, 7), (2, 5, 9)]);
    }

    /// Sampled spans are kept for retained steps only: evicting a step
    /// evicts its spans with it.
    #[test]
    fn phase_spans_leave_with_their_step() {
        let mut rec = FlightRecorder::new(2).with_timing_sample(3);
        for t in 0..5u64 {
            if rec.wants_phases(t) {
                for phase in Phase::ALL {
                    rec.on_phase(t, phase, 1, Duration::from_nanos(1));
                }
            }
            rec.on_step_end(&fx(t, 0, 0, 0));
        }
        // A dump taken mid-step (another observer's step end runs first)
        // leaves out the spans of the step in flight.
        rec.on_phase(6, Phase::Receive, 1, Duration::from_nanos(1));
        let trace = rec.trace();
        assert_eq!(
            trace.steps.iter().map(|s| s.t).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert_eq!(trace.phases.len(), 5);
        assert!(trace.phases.iter().all(|p| p.t == 3));
        assert_eq!(RunTrace::from_jsonl(&trace.to_jsonl()), Ok(trace));
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
        let back = RunTrace::from_jsonl(&dump).expect("dump validates");
        assert_eq!(back, rec.trace());
        assert_eq!((back.k, back.steps_seen), (3, 7));
        assert_eq!(back.steps.len(), 3);
        assert_eq!(back.steps[0].t, 4);
        assert_eq!(back.steps[2].t, 6);
        assert_eq!(back.decisions.len(), 2, "only the tail is dumped");
        assert_eq!(back.decisions[0].t, 3);
        assert!(back.health.is_empty() && back.metrics.is_none());
        // Deterministic: two dumps of the same state are byte-identical.
        assert_eq!(dump, rec.dump());
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let mut rec = FlightRecorder::new(2);
        rec.on_step_end(&fx(0, 0, 0, 0));
        rec.on_step_end(&fx(1, 0, 0, 0));
        let good = rec.dump();
        assert!(RunTrace::from_jsonl(&good).is_ok());

        // Empty input.
        assert!(RunTrace::from_jsonl("").is_err());
        // Truncated mid-line.
        let cut = &good[..good.len() - 10];
        assert!(RunTrace::from_jsonl(cut).is_err());
        // Missing meta (drop the first line).
        let body: String = good.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(RunTrace::from_jsonl(&body).is_err());
        // Non-JSON garbage.
        assert!(RunTrace::from_jsonl("not json\n").is_err());
        // Out-of-order steps.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.swap(1, 2);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert!(RunTrace::from_jsonl(&swapped).is_err());
    }

    #[test]
    fn entries_stay_small() {
        assert_eq!(std::mem::size_of::<Item>(), 24);
    }

    #[test]
    fn ring_never_allocates_once_full() {
        let mut rec = FlightRecorder::new(16);
        for t in 0..16u64 {
            rec.on_step_end(&fx(t, 2, 2, 3));
        }
        let caps = (rec.items.capacity(), rec.steps.capacity());
        for t in 16..10_000u64 {
            rec.on_step_end(&fx(t, 2, 2, 3));
        }
        assert_eq!((rec.items.capacity(), rec.steps.capacity()), caps);
        assert_eq!(rec.len(), 16);
        assert_eq!(rec.items.len(), 16 * 5, "K steps of 4 items and an end");
        assert_eq!(rec.steps_seen(), 10_000);
    }

    /// The stack hands the step-end view through to the monitor: a
    /// transaction past the starvation age is reported, which needs the
    /// view (through `on_step_end` alone the monitor cannot see it).
    #[test]
    fn stack_forwards_the_view_to_the_monitor() {
        use dtm_graph::topology;
        use dtm_model::Transaction;
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
