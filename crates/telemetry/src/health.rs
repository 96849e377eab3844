//! Health watchdogs: typed alarms derived from the step stream.
//!
//! [`HealthMonitor`] is a [`StepObserver`] that evaluates four detectors
//! as pure functions of the effects stream (plus one externally fed
//! arena probe), emitting typed [`HealthEvent`]s:
//!
//! * **overload** — the backlog grows faster than a tolerance between
//!   the two halves of a sliding window, the same half-window slope
//!   signature the E17 stability sweep uses offline (slope =
//!   `(late_mean − early_mean) / half_window`), evaluated online in O(1)
//!   per step with hysteresis so a sustained overload fires once, not
//!   every step;
//! * **commit stall** — no commit for `stall_window` steps while the
//!   live set is nonempty;
//! * **starvation** — a live transaction's age exceeded
//!   `starvation_age` steps (at most one event per step, each
//!   transaction reported once);
//! * **arena drift** — the transaction arena's slot high-water mark
//!   exceeded the peak live-set size, which the kernel's free-list
//!   recycling forbids ([`HealthMonitor::probe_arena`], fed by the
//!   harness from [`dtm_sim::StepKernel`] accessors — observers cannot
//!   see the arena).
//!
//! Every event carries the step index, the backlog, and a bounded
//! context sample (the oldest live transactions). The stored event list
//! is capped ([`HealthConfig::max_events`], overflow counted), detector
//! state is bounded by the backlog, and idle steps allocate nothing —
//! the monitor can ride a 10⁶-step run. When a [`FlightRecorderHandle`]
//! is attached, the monitor **auto-dumps** the recorder on its first
//! event, appending the event as a `health_event` JSONL line — the black
//! box is written at failure onset, not at process exit.
//!
//! Determinism: all detectors are pure functions of the deterministic
//! step stream, so the event sequence for a seeded run is byte-identical
//! across runs and `--jobs` levels.

use crate::flight::{push_line, FlightRecorderHandle};
use dtm_model::{Time, TxnId};
use dtm_sim::{StepEffects, StepObserver};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// Detector thresholds. The defaults suit the open-system experiment
/// scale (thousands to millions of steps at per-step arrival rates ≲ 2).
#[derive(Clone, Debug, PartialEq)]
pub struct HealthConfig {
    /// Half-window length for the backlog-slope detector; the full
    /// sliding window is twice this. Clamped to ≥ 1.
    pub slope_half_window: u64,
    /// Backlog growth (live transactions per step between the two
    /// half-window means) above which overload fires. Matches the E17
    /// sweep's `SLOPE_TOL` by default.
    pub slope_tol: f64,
    /// Steps without a commit (while transactions are live) before a
    /// commit-stall event. Clamped to ≥ 1.
    pub stall_window: u64,
    /// Live age (steps since generation) past which a transaction
    /// counts as starved.
    pub starvation_age: u64,
    /// Maximum events retained; further emissions only bump
    /// [`HealthMonitor::suppressed`].
    pub max_events: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            slope_half_window: 256,
            slope_tol: 0.02,
            stall_window: 256,
            starvation_age: 1024,
            max_events: 64,
        }
    }
}

/// Why a health event fired.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum HealthEventKind {
    /// Backlog slope between the sliding window's halves exceeded the
    /// tolerance: the system is not keeping up with arrivals.
    Overload {
        /// Mean backlog over the early half-window.
        early_mean: f64,
        /// Mean backlog over the late half-window.
        late_mean: f64,
        /// Growth per step: `(late_mean - early_mean) / half_window`.
        slope: f64,
    },
    /// No commit for `window` steps while the live set was nonempty.
    CommitStall {
        /// Last step that committed (or saw an empty live set).
        idle_since: Time,
        /// The configured stall window.
        window: Time,
    },
    /// A live transaction's age exceeded the starvation threshold.
    Starvation {
        /// The starved transaction.
        txn: TxnId,
        /// When it was generated.
        arrived: Time,
        /// Its age at detection.
        age: Time,
    },
    /// The transaction arena's slot high-water mark exceeded the peak
    /// live-set size — the bounded-memory invariant broke.
    ArenaDrift {
        /// Arena slot high-water mark reported by the probe.
        slot_high_water: u64,
        /// Peak live-set size reported by the probe.
        peak_live: u64,
    },
}

impl HealthEventKind {
    /// Stable lowercase tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            HealthEventKind::Overload { .. } => "overload",
            HealthEventKind::CommitStall { .. } => "commit-stall",
            HealthEventKind::Starvation { .. } => "starvation",
            HealthEventKind::ArenaDrift { .. } => "arena-drift",
        }
    }
}

/// One typed alarm: when, how loaded the system was, a bounded sample
/// of the oldest live transactions, and the detector-specific detail.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthEvent {
    /// Step at which the detector fired.
    pub t: Time,
    /// Live-set size at that step.
    pub live: u64,
    /// Up to [`CONTEXT_SAMPLE`] oldest live transactions, oldest first.
    pub oldest: Vec<TxnId>,
    /// What fired.
    pub kind: HealthEventKind,
}

/// Half-window backlog slope: the early and late means, each half given
/// as `(sum, samples)` (mean 0 when empty), and `(late − early) / h`.
/// Shared by the overload detector and the E17/E18 stability sweep.
pub fn half_window_slope(early: (u128, u64), late: (u128, u64), h: u64) -> (f64, f64, f64) {
    let mean = |(sum, n): (u128, u64)| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
    let (early, late) = (mean(early), mean(late));
    (early, late, (late - early) / h as f64)
}

/// Oldest-live-transaction sample size carried by each event.
pub const CONTEXT_SAMPLE: usize = 4;

/// A [`StepObserver`] running the health detectors. See the module docs.
pub struct HealthMonitor {
    cfg: HealthConfig,
    /// Sliding backlog window, preallocated to `2 * slope_half_window`.
    window: Vec<u64>,
    /// Next ring slot to write (wraps at `2 * slope_half_window`).
    idx: usize,
    /// Slot of the value aging out of the late half into the early half
    /// (always `idx - half_window` mod capacity, maintained incrementally
    /// so the hot path never divides).
    mid: usize,
    /// Half-window sums. `u64` suffices: the window holds at most 2^20
    /// backlog values, each far below 2^40.
    early_sum: u64,
    late_sum: u64,
    /// `slope_tol * half_window^2`: overload fires when
    /// `late_sum - early_sum` exceeds this, which is the same predicate
    /// as `slope > slope_tol` without per-step divisions.
    fire_thresh: f64,
    /// Hysteresis: overload fires only while armed; re-arms when the
    /// slope falls back to half the tolerance.
    overload_armed: bool,
    /// Last step that committed or had an empty live set.
    last_activity: Time,
    /// Live transactions sorted by id. Transaction ids are monotone, so
    /// in practice an arrival is a push at the end and id order equals
    /// age order; liveness is a binary search.
    live: Vec<(TxnId, Time)>,
    /// Arrival-ordered transactions for context samples. Retired entries
    /// are tombstoned lazily (liveness = membership in `live`) and
    /// swept from the front each step, so the queue tracks the backlog
    /// plus at most one oldest-transaction sojourn of retirees — never
    /// the total arrival count.
    age_queue: VecDeque<(Time, TxnId)>,
    /// Arrival-ordered transactions not yet reported as starved; lazily
    /// tombstoned like `age_queue`.
    starve_queue: VecDeque<(Time, TxnId)>,
    events: Vec<HealthEvent>,
    suppressed: u64,
    auto_dump: Option<(FlightRecorderHandle, PathBuf)>,
    dump_result: Option<Result<PathBuf, String>>,
    arena_alarmed: bool,
}

impl HealthMonitor {
    /// Monitor with the given thresholds. All detector state is
    /// preallocated or bounded by the backlog.
    pub fn new(cfg: HealthConfig) -> Self {
        let mut cfg = cfg;
        cfg.slope_half_window = cfg.slope_half_window.max(1);
        cfg.stall_window = cfg.stall_window.max(1);
        let cap = 2 * cfg.slope_half_window as usize;
        let max_events = cfg.max_events;
        let h = cfg.slope_half_window as f64;
        let fire_thresh = cfg.slope_tol * h * h;
        HealthMonitor {
            cfg,
            window: Vec::with_capacity(cap),
            idx: 0,
            mid: cap / 2,
            early_sum: 0,
            late_sum: 0,
            fire_thresh,
            overload_armed: true,
            last_activity: 0,
            live: Vec::new(),
            age_queue: VecDeque::new(),
            starve_queue: VecDeque::new(),
            events: Vec::with_capacity(max_events),
            suppressed: 0,
            auto_dump: None,
            dump_result: None,
            arena_alarmed: false,
        }
    }

    /// Auto-dump `recorder` to `path` when the first event fires. The
    /// dump is the recorder's JSONL plus one `health_event` line per
    /// event retained so far (at first fire: exactly the triggering
    /// event) — see [`crate::validate_flight_dump`].
    pub fn with_auto_dump(mut self, recorder: FlightRecorderHandle, path: PathBuf) -> Self {
        self.auto_dump = Some((recorder, path));
        self
    }

    /// Events retained, in emission order.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    /// Emissions dropped after [`HealthConfig::max_events`] was reached.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// True when no detector has fired.
    pub fn is_healthy(&self) -> bool {
        self.events.is_empty() && self.suppressed == 0
    }

    /// Outcome of the auto-dump, if one was attempted: the path written,
    /// or the I/O error (the monitor never panics inside the engine).
    pub fn dump_result(&self) -> Option<&Result<PathBuf, String>> {
        self.dump_result.as_ref()
    }

    /// Serialize the retained events as `health_event` JSONL lines (the
    /// same shape the auto-dump appends to the flight dump).
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            push_line(&mut out, "health_event", ev.to_value());
        }
        out
    }

    /// Feed the arena-invariant probe. Observers cannot see the kernel,
    /// so the driving harness reads
    /// [`dtm_sim::StepKernel::arena_high_water`] /
    /// [`dtm_sim::StepKernel::peak_live`] (or
    /// [`dtm_sim::StepKernel::vitals`]) and forwards them here at
    /// whatever cadence it likes; the invariant `slot_high_water <=
    /// peak_live` must hold at every step, so any cadence catches a
    /// regression. Fires at most once.
    pub fn probe_arena(&mut self, t: Time, slot_high_water: usize, peak_live: usize) {
        if !self.arena_alarmed && slot_high_water > peak_live {
            self.arena_alarmed = true;
            let live = self.live.len() as u64;
            self.emit(
                t,
                live,
                HealthEventKind::ArenaDrift {
                    slot_high_water: slot_high_water as u64,
                    peak_live: peak_live as u64,
                },
            );
        }
    }

    fn emit(&mut self, t: Time, live: u64, kind: HealthEventKind) {
        let first = self.events.is_empty() && self.suppressed == 0;
        let mut oldest: Vec<TxnId> = Vec::with_capacity(CONTEXT_SAMPLE);
        for &(_, id) in self.age_queue.iter() {
            if oldest.len() == CONTEXT_SAMPLE {
                break;
            }
            if self.is_live(id) {
                oldest.push(id);
            }
        }
        let ev = HealthEvent {
            t,
            live,
            oldest,
            kind,
        };
        if self.events.len() < self.cfg.max_events {
            self.events.push(ev);
        } else {
            self.suppressed += 1;
        }
        if first {
            self.auto_dump_now();
        }
    }

    fn auto_dump_now(&mut self) {
        let Some((recorder, path)) = &self.auto_dump else {
            return;
        };
        let mut text = recorder.lock().dump();
        for ev in &self.events {
            push_line(&mut text, "health_event", ev.to_value());
        }
        self.dump_result = Some(
            std::fs::write(path, text)
                .map(|_| path.clone())
                .map_err(|e| format!("flight auto-dump to {} failed: {e}", path.display())),
        );
    }

    /// O(1) sliding-window slope update; evaluates once the window is
    /// full. Returns the slope when the overload detector fires. The hot
    /// path is division-free: `slope > tol` is tested as the integer
    /// sum difference against the precomputed `fire_thresh`, and the
    /// means are only materialized for the event payload.
    fn push_backlog(&mut self, v: u64) -> Option<(f64, f64, f64)> {
        let h = self.cfg.slope_half_window as usize;
        let cap = 2 * h;
        if self.window.len() == cap {
            // The value from `cap` steps ago leaves the early half.
            self.early_sum -= self.window[self.idx];
        }
        if self.window.len() >= h {
            // The value from `h` steps ago ages out of the late half
            // into the early half.
            let moved = self.window[self.mid];
            self.late_sum -= moved;
            self.early_sum += moved;
        }
        if self.window.len() < cap {
            self.window.push(v);
        } else {
            self.window[self.idx] = v;
        }
        self.late_sum += v;
        self.idx += 1;
        if self.idx == cap {
            self.idx = 0;
        }
        self.mid += 1;
        if self.mid == cap {
            self.mid = 0;
        }
        if self.window.len() < cap {
            return None;
        }
        // diff / h^2 is the slope; compare against tol * h^2 instead.
        let diff = self.late_sum as f64 - self.early_sum as f64;
        if self.overload_armed && diff > self.fire_thresh {
            self.overload_armed = false;
            let (early, late, h) = (self.early_sum.into(), self.late_sum.into(), h as u64);
            return Some(half_window_slope((early, h), (late, h), h));
        }
        if !self.overload_armed && diff <= self.fire_thresh * 0.5 {
            self.overload_armed = true;
        }
        None
    }

    fn is_live(&self, id: TxnId) -> bool {
        self.live.binary_search_by_key(&id, |&(i, _)| i).is_ok()
    }

    /// Smallest live transaction id, the O(1) liveness witness for the
    /// queue fronts: a queue front is `<=` every live id (ids are
    /// monotone), so a front equal to the minimum is live without a
    /// binary search.
    fn min_live(&self) -> Option<TxnId> {
        self.live.first().map(|&(id, _)| id)
    }

    fn arrive(&mut self, id: TxnId, t: Time) {
        match self.live.last() {
            // Monotone ids: an arrival is an O(1) append.
            Some(&(last, _)) if id > last => self.live.push((id, t)),
            None => self.live.push((id, t)),
            _ => match self.live.binary_search_by_key(&id, |&(i, _)| i) {
                Ok(_) => return, // duplicate arrival: sources never produce these
                Err(pos) => self.live.insert(pos, (id, t)),
            },
        }
        self.age_queue.push_back((t, id));
        self.starve_queue.push_back((t, id));
    }

    fn retire(&mut self, id: TxnId) {
        if let Ok(pos) = self.live.binary_search_by_key(&id, |&(i, _)| i) {
            self.live.remove(pos);
        }
    }
}

impl StepObserver for HealthMonitor {
    fn on_phase(
        &mut self,
        _t: Time,
        _phase: dtm_sim::Phase,
        _items: usize,
        _elapsed: std::time::Duration,
    ) {
        // Never called: wants_phases declines every step.
    }

    fn wants_timing(&self, _t: Time) -> bool {
        false // never ask the engine to pay for Instant::now
    }

    fn wants_phases(&self, _t: Time) -> bool {
        false // step-granular detectors: everything is in the effects
    }

    fn on_step_end(&mut self, effects: &StepEffects) {
        let t = effects.t;
        let live = effects.live_after as u64;
        for &id in &effects.arrived {
            self.arrive(id, t);
        }
        for &id in &effects.committed {
            self.retire(id);
        }
        for &id in &effects.aborted {
            self.retire(id);
        }
        // Sweep tombstones off the queue fronts (amortized O(1)). The
        // common case — a live front — is the O(1) min-live comparison;
        // the binary search only confirms death before a pop (and keeps
        // the sweep correct even for out-of-order arrivals).
        let min_live = self.min_live();
        while let Some(&(_, id)) = self.age_queue.front() {
            if Some(id) == min_live || self.is_live(id) {
                break;
            }
            self.age_queue.pop_front();
        }
        while let Some(&(_, id)) = self.starve_queue.front() {
            if Some(id) == min_live || self.is_live(id) {
                break;
            }
            self.starve_queue.pop_front();
        }
        if !effects.committed.is_empty() || effects.live_after == 0 {
            self.last_activity = t;
        }

        // Overload: half-window backlog slope with hysteresis.
        if let Some((early_mean, late_mean, slope)) = self.push_backlog(live) {
            self.emit(
                t,
                live,
                HealthEventKind::Overload {
                    early_mean,
                    late_mean,
                    slope,
                },
            );
        }

        // Commit stall: live work but no commits for a full window.
        if effects.live_after > 0 && t.saturating_sub(self.last_activity) >= self.cfg.stall_window {
            let idle_since = self.last_activity;
            self.emit(
                t,
                live,
                HealthEventKind::CommitStall {
                    idle_since,
                    window: self.cfg.stall_window,
                },
            );
            // Re-arm: the next stall event needs another full window.
            self.last_activity = t;
        }

        // Starvation: oldest unreported live transaction past the age
        // threshold (at most one event per step; each txn fires once —
        // the front is live after the tombstone sweep above).
        if let Some(&(arrived, txn)) = self.starve_queue.front() {
            let age = t.saturating_sub(arrived);
            if age > self.cfg.starvation_age {
                self.starve_queue.pop_front();
                self.emit(t, live, HealthEventKind::Starvation { txn, arrived, age });
            }
        }
    }
}

/// Shared handle: the engine owns one end as an observer, the harness
/// keeps the other to read events and feed [`HealthMonitor::probe_arena`].
pub type HealthMonitorHandle = Arc<Mutex<HealthMonitor>>;

/// Fresh shared monitor.
pub fn health_monitor(cfg: HealthConfig) -> HealthMonitorHandle {
    Arc::new(Mutex::new(HealthMonitor::new(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(t: Time, live: usize) -> StepEffects {
        StepEffects {
            t,
            live_after: live,
            ..StepEffects::default()
        }
    }

    /// Means per half, 0 for an empty half, and their difference over
    /// the half-window length (not over the sample count).
    #[test]
    fn half_window_slope_divides_mean_gap_by_h() {
        assert_eq!(half_window_slope((10, 4), (30, 4), 4), (2.5, 7.5, 1.25));
        assert_eq!(half_window_slope((0, 0), (12, 3), 2), (0.0, 4.0, 2.0));
        assert_eq!(half_window_slope((0, 0), (0, 0), 1), (0.0, 0.0, 0.0));
    }

    fn cfg_small() -> HealthConfig {
        HealthConfig {
            slope_half_window: 4,
            slope_tol: 0.02,
            stall_window: 10,
            starvation_age: 20,
            max_events: 8,
        }
    }

    #[test]
    fn overload_fires_once_on_sustained_growth() {
        let mut m = HealthMonitor::new(cfg_small());
        // Backlog grows by 1 per step: slope = 1 > tol once the 8-step
        // window fills; hysteresis keeps it to a single event.
        for t in 0..40u64 {
            m.on_step_end(&fx(t, t as usize));
        }
        let overloads: Vec<&HealthEvent> = m
            .events()
            .iter()
            .filter(|e| matches!(e.kind, HealthEventKind::Overload { .. }))
            .collect();
        assert_eq!(overloads.len(), 1, "hysteresis failed: {:?}", m.events());
        let HealthEventKind::Overload {
            early_mean,
            late_mean,
            slope,
        } = overloads[0].kind
        else {
            unreachable!()
        };
        assert!(late_mean > early_mean);
        // Backlog +1/step ⇒ half-window means differ by exactly h.
        assert!((slope - 1.0).abs() < 1e-9, "slope {slope}");
        assert_eq!(overloads[0].t, 7, "fires as soon as the window fills");
    }

    #[test]
    fn overload_rearms_after_recovery() {
        let mut m = HealthMonitor::new(cfg_small());
        for t in 0..20u64 {
            m.on_step_end(&fx(t, t as usize)); // growth: fires once
        }
        for t in 20..60u64 {
            m.on_step_end(&fx(t, 5)); // flat: slope 0, re-arms
        }
        for t in 60..90u64 {
            m.on_step_end(&fx(t, 5 + (t - 60) as usize * 2)); // growth again
        }
        let overloads = m
            .events()
            .iter()
            .filter(|e| matches!(e.kind, HealthEventKind::Overload { .. }))
            .count();
        assert_eq!(overloads, 2);
    }

    #[test]
    fn stable_backlog_stays_healthy() {
        let mut m = HealthMonitor::new(cfg_small());
        let mut e = fx(0, 3);
        e.arrived.push(TxnId(0));
        e.committed.push(TxnId(0));
        m.on_step_end(&e);
        for t in 1..200u64 {
            let mut e = fx(t, 3);
            // A commit every few steps keeps the stall detector quiet.
            if t % 3 == 0 {
                e.arrived.push(TxnId(t));
                e.committed.push(TxnId(t));
            }
            m.on_step_end(&e);
        }
        assert!(m.is_healthy(), "events: {:?}", m.events());
    }

    #[test]
    fn commit_stall_fires_and_rearms() {
        let mut m = HealthMonitor::new(cfg_small());
        let mut e = fx(0, 1);
        e.arrived.push(TxnId(7));
        m.on_step_end(&e);
        for t in 1..25u64 {
            m.on_step_end(&fx(t, 1));
        }
        let stalls: Vec<&HealthEvent> = m
            .events()
            .iter()
            .filter(|e| matches!(e.kind, HealthEventKind::CommitStall { .. }))
            .collect();
        // Window 10: fires at t=10 (idle since 0) and t=20 (re-armed).
        assert_eq!(stalls.len(), 2, "events: {:?}", m.events());
        assert_eq!(stalls[0].t, 10);
        assert_eq!(stalls[1].t, 20);
        assert_eq!(stalls[0].oldest, vec![TxnId(7)], "context sample");
        assert_eq!(stalls[0].live, 1);
    }

    #[test]
    fn starvation_reports_each_txn_once_oldest_first() {
        let mut m = HealthMonitor::new(cfg_small());
        let mut e = fx(0, 2);
        e.arrived.push(TxnId(1));
        e.arrived.push(TxnId(2));
        m.on_step_end(&e);
        for t in 1..40u64 {
            let mut e = fx(t, 2);
            if t % 9 == 0 {
                // Periodic commits of *other* txns keep the stall
                // detector quiet while 1 and 2 starve.
                e.arrived.push(TxnId(100 + t));
                e.committed.push(TxnId(100 + t));
            }
            m.on_step_end(&e);
        }
        let starved: Vec<TxnId> = m
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                HealthEventKind::Starvation { txn, .. } => Some(txn),
                _ => None,
            })
            .collect();
        assert_eq!(starved, vec![TxnId(1), TxnId(2)]);
        // Retiring a starved txn cleans its tracking state.
        let mut e = fx(40, 0);
        e.committed.push(TxnId(1));
        e.committed.push(TxnId(2));
        m.on_step_end(&e);
        assert!(m.live.is_empty());
        assert!(m.age_queue.is_empty());
        assert!(m.starve_queue.is_empty());
    }

    #[test]
    fn arena_probe_fires_once_on_drift() {
        let mut m = HealthMonitor::new(cfg_small());
        m.probe_arena(5, 10, 10); // invariant holds
        assert!(m.is_healthy());
        m.probe_arena(6, 11, 10); // drift
        m.probe_arena(7, 12, 10); // still drifting: no second event
        assert_eq!(m.events().len(), 1);
        assert_eq!(m.events()[0].kind.tag(), "arena-drift");
    }

    #[test]
    fn event_cap_suppresses_overflow() {
        let mut cfg = cfg_small();
        cfg.max_events = 2;
        cfg.starvation_age = 1;
        let mut m = HealthMonitor::new(cfg);
        let mut e = fx(0, 5);
        for i in 0..5u64 {
            e.arrived.push(TxnId(i));
        }
        m.on_step_end(&e);
        for t in 1..20u64 {
            m.on_step_end(&fx(t, 5));
        }
        assert_eq!(m.events().len(), 2);
        assert!(m.suppressed() > 0);
        assert!(!m.is_healthy());
    }

    #[test]
    fn first_event_auto_dumps_recorder() {
        let recorder = crate::flight_recorder(8);
        let dir = std::env::temp_dir().join(format!("dtm-health-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("auto.flight.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut m =
            HealthMonitor::new(cfg_small()).with_auto_dump(Arc::clone(&recorder), path.clone());
        for t in 0..20u64 {
            let e = fx(t, t as usize);
            recorder.lock().on_step_end(&e);
            m.on_step_end(&e);
        }
        assert!(!m.is_healthy(), "growth must trip the overload detector");
        let written = m
            .dump_result()
            .expect("auto-dump attempted")
            .as_ref()
            .expect("auto-dump wrote");
        assert_eq!(written, &path);
        let text = std::fs::read_to_string(&path).expect("dump readable");
        let summary = crate::validate_flight_dump(&text).expect("auto-dump validates");
        assert_eq!(summary.health_events, 1, "dumped at first event");
        assert!(summary.records > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn events_roundtrip_through_json() {
        let ev = HealthEvent {
            t: 42,
            live: 7,
            oldest: vec![TxnId(1), TxnId(2)],
            kind: HealthEventKind::Overload {
                early_mean: 1.0,
                late_mean: 9.0,
                slope: 2.0,
            },
        };
        let s = serde_json::to_string(&ev).expect("serializes");
        let back: HealthEvent = serde_json::from_str(&s).expect("parses");
        assert_eq!(back, ev);
        assert_eq!(ev.kind.tag(), "overload");
    }
}
