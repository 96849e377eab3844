//! Health watchdogs: typed alarms derived from the step stream.
//!
//! [`HealthMonitor`] is a [`StepObserver`] that evaluates four detectors
//! at each step end, emitting typed [`HealthEvent`]s. Two read only the
//! tick's [`StepEffects`]:
//!
//! * **overload** — the backlog grows faster than a tolerance between
//!   the two halves of a sliding window, the same half-window slope
//!   signature the E17 stability sweep uses offline (slope =
//!   `(late_mean − early_mean) / half_window`), evaluated online in O(1)
//!   per step with hysteresis so a sustained overload fires once, not
//!   every step;
//! * **commit stall** — no commit for `stall_window` steps while the
//!   live set is nonempty.
//!
//! Two read the kernel's [`SystemView`] through
//! [`StepObserver::on_step_end_in`] — the live set `T_t` itself, with
//! each transaction's `generated_at`, rather than a copy of it:
//!
//! * **starvation** — a live transaction's age exceeded
//!   `starvation_age` steps (at most one event per step, each
//!   transaction reported once, oldest first in `(generated_at, id)`
//!   order);
//! * **arena drift** — the transaction arena's slot high-water mark
//!   exceeded its peak live-set size, which the kernel's free-list
//!   recycling forbids (checked every step).
//!
//! Every event carries the step index, the backlog, and a bounded
//! context sample (the oldest live transactions, read from the view).
//! The stored event list is capped ([`HealthConfig::max_events`],
//! overflow counted), detector state is O(1) beyond the preallocated
//! slope window, and idle steps allocate nothing — the monitor can ride
//! a 10⁶-step run. When a [`FlightRecorderHandle`] is attached, the
//! monitor **auto-dumps** the recorder on its first event, appending the
//! event as a `health_event` JSONL line — the black box is written at
//! failure onset, not at process exit.
//!
//! Determinism: all detectors are pure functions of the deterministic
//! step stream and kernel state, so the event sequence for a seeded run
//! is byte-identical across runs and `--jobs` levels.

use crate::flight::{push_line, FlightRecorderHandle};
use dtm_model::{Time, TxnId};
use dtm_sim::{StepEffects, StepObserver, SystemView};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
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
        /// The arena's slot high-water mark.
        slot_high_water: u64,
        /// The arena's peak live-set size.
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
    /// Up to [`CONTEXT_SAMPLE`] oldest live transactions, oldest first
    /// by `(generated_at, id)`; empty when the event fired without a
    /// view (through [`StepObserver::on_step_end`] alone).
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
    /// `(generated_at, id)` of the last transaction reported as starved;
    /// the next report is the oldest live transaction after it.
    starve_cursor: Option<(Time, TxnId)>,
    /// No starvation report is possible before this step, so the scan
    /// for the oldest unreported transaction is skipped until then (see
    /// [`HealthMonitor::check_starvation`]).
    starve_next_check: Time,
    events: Vec<HealthEvent>,
    suppressed: u64,
    auto_dump: Option<(FlightRecorderHandle, PathBuf)>,
    dump_result: Option<Result<PathBuf, String>>,
    arena_alarmed: bool,
}

impl HealthMonitor {
    /// Monitor with the given thresholds. All detector state is
    /// preallocated or O(1).
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
            starve_cursor: None,
            starve_next_check: 0,
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

    /// Arena drift: the slot high-water mark may never exceed the peak
    /// live set. Fires at most once.
    fn check_arena(
        &mut self,
        view: Option<&SystemView<'_>>,
        t: Time,
        live: u64,
        slot_high_water: usize,
        peak_live: usize,
    ) {
        if !self.arena_alarmed && slot_high_water > peak_live {
            self.arena_alarmed = true;
            let kind = HealthEventKind::ArenaDrift {
                slot_high_water: slot_high_water as u64,
                peak_live: peak_live as u64,
            };
            self.emit(view, t, live, kind);
        }
    }

    /// Starvation: the oldest live transaction after the cursor, in
    /// `(generated_at, id)` order, once its age passes the threshold.
    ///
    /// The oldest unreported `generated_at` never falls: arrivals are
    /// the newest transactions, retirements only raise the minimum, and
    /// a report moves the cursor past it. So a step at which that
    /// transaction is still young fixes the first step any report is
    /// possible, and the O(live) scan waits until then.
    fn check_starvation(&mut self, view: &SystemView<'_>, t: Time, live: u64) {
        if t < self.starve_next_check {
            return;
        }
        let cursor = self.starve_cursor;
        let next = view
            .live_txns()
            .map(|lt| (lt.txn.generated_at, lt.txn.id))
            .filter(|&key| Some(key) > cursor)
            .min();
        let age_limit = self.cfg.starvation_age;
        let Some((arrived, txn)) = next else {
            // Every live transaction is reported; the next candidate
            // arrives at step t + 1 at the earliest.
            self.starve_next_check = t.saturating_add(age_limit).saturating_add(2);
            return;
        };
        let age = t.saturating_sub(arrived);
        if age > age_limit {
            self.starve_cursor = Some((arrived, txn));
            self.starve_next_check = t + 1;
            self.emit(
                Some(view),
                t,
                live,
                HealthEventKind::Starvation { txn, arrived, age },
            );
        } else {
            self.starve_next_check = arrived.saturating_add(age_limit).saturating_add(1);
        }
    }

    /// The effects-only detectors: overload and commit stall. `view`
    /// only supplies the events' context sample.
    fn check_effects(&mut self, view: Option<&SystemView<'_>>, effects: &StepEffects) {
        let t = effects.t;
        let live = effects.live_after as u64;
        if !effects.committed.is_empty() || effects.live_after == 0 {
            self.last_activity = t;
        }

        // Overload: half-window backlog slope with hysteresis.
        if let Some((early_mean, late_mean, slope)) = self.push_backlog(live) {
            let kind = HealthEventKind::Overload {
                early_mean,
                late_mean,
                slope,
            };
            self.emit(view, t, live, kind);
        }

        // Commit stall: live work but no commits for a full window.
        if effects.live_after > 0 && t.saturating_sub(self.last_activity) >= self.cfg.stall_window {
            let kind = HealthEventKind::CommitStall {
                idle_since: self.last_activity,
                window: self.cfg.stall_window,
            };
            self.emit(view, t, live, kind);
            // Re-arm: the next stall event needs another full window.
            self.last_activity = t;
        }
    }

    /// Retain (or count as suppressed) one event; its context sample is
    /// read from `view` only when the event is retained.
    fn emit(&mut self, view: Option<&SystemView<'_>>, t: Time, live: u64, kind: HealthEventKind) {
        let first = self.is_healthy();
        if self.events.len() < self.cfg.max_events {
            let oldest = view.map_or_else(Vec::new, oldest_live);
            self.events.push(HealthEvent {
                t,
                live,
                oldest,
                kind,
            });
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
}

/// The first [`CONTEXT_SAMPLE`] live transactions in `(generated_at, id)`
/// order.
fn oldest_live(view: &SystemView<'_>) -> Vec<TxnId> {
    let mut oldest: Vec<(Time, TxnId)> = Vec::with_capacity(CONTEXT_SAMPLE + 1);
    for lt in view.live_txns() {
        let key = (lt.txn.generated_at, lt.txn.id);
        if oldest.len() == CONTEXT_SAMPLE && key > oldest[CONTEXT_SAMPLE - 1] {
            continue;
        }
        let pos = oldest.partition_point(|&k| k < key);
        oldest.insert(pos, key);
        oldest.truncate(CONTEXT_SAMPLE);
    }
    oldest.into_iter().map(|(_, id)| id).collect()
}

impl StepObserver for HealthMonitor {
    fn wants_timing(&self, _t: Time) -> bool {
        false // never ask the engine to pay for Instant::now
    }

    fn wants_phases(&self, _t: Time) -> bool {
        false // step-granular detectors: effects and the step-end view
    }

    /// Without a view only overload and commit stall run, and their
    /// events carry no context sample.
    fn on_step_end(&mut self, effects: &StepEffects) {
        self.check_effects(None, effects);
    }

    fn on_step_end_in(&mut self, view: &SystemView<'_>, effects: &StepEffects) {
        let (t, live) = (effects.t, effects.live_after as u64);
        self.check_effects(Some(view), effects);
        self.check_starvation(view, t, live);
        let arena = view.txn_arena();
        self.check_arena(
            Some(view),
            t,
            live,
            arena.slot_high_water(),
            arena.peak_live(),
        );
    }
}

/// Shared handle: the engine owns one end as an observer, the harness
/// keeps the other to read events.
pub type HealthMonitorHandle = Arc<Mutex<HealthMonitor>>;

/// Fresh shared monitor.
pub fn health_monitor(cfg: HealthConfig) -> HealthMonitorHandle {
    Arc::new(Mutex::new(HealthMonitor::new(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::{topology, Network, NodeId};
    use dtm_model::{ObjectId, Transaction};
    use dtm_sim::{LiveTxn, RuntimeState};

    fn fx(t: Time, live: usize) -> StepEffects {
        StepEffects {
            t,
            live_after: live,
            ..StepEffects::default()
        }
    }

    /// A live set outside any kernel, so a test can hand the monitor a
    /// real [`SystemView`]: each step applies its arrivals and commits
    /// the way the kernel would, then runs the monitor's step end.
    struct LiveSet {
        net: Network,
        state: RuntimeState,
    }

    impl LiveSet {
        fn new() -> Self {
            LiveSet {
                net: topology::line(2),
                state: RuntimeState::new(),
            }
        }

        fn step(&mut self, m: &mut HealthMonitor, t: Time, arrive: &[u64], commit: &[u64]) {
            let mut e = fx(t, 0);
            for &id in arrive {
                let txn = Transaction::new(TxnId(id), NodeId(0), [ObjectId(0)], t);
                self.state.insert_txn(LiveTxn {
                    txn,
                    scheduled: None,
                });
                e.arrived.push(TxnId(id));
            }
            for &id in commit {
                self.state.remove_txn(TxnId(id));
                e.committed.push(TxnId(id));
            }
            e.live_after = self.state.txns().len();
            m.on_step_end_in(&SystemView::from_state(t, &self.net, &self.state), &e);
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
        let mut live = LiveSet::new();
        live.step(&mut m, 0, &[7], &[]);
        for t in 1..25u64 {
            live.step(&mut m, t, &[], &[]);
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

    fn starved(m: &HealthMonitor) -> Vec<(Time, TxnId)> {
        m.events()
            .iter()
            .filter_map(|e| match e.kind {
                HealthEventKind::Starvation { txn, .. } => Some((e.t, txn)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn starvation_reports_each_txn_once_oldest_first() {
        let mut m = HealthMonitor::new(cfg_small());
        let mut live = LiveSet::new();
        live.step(&mut m, 0, &[1, 2], &[]);
        for t in 1..60u64 {
            // Periodic commits of *other* txns keep the stall detector
            // quiet while 1 and 2 starve.
            let other = [100 + t];
            let churn: &[u64] = if t % 9 == 0 { &other } else { &[] };
            live.step(&mut m, t, churn, churn);
        }
        // Age 20 is passed at t=21; one report per step, never repeated.
        assert_eq!(starved(&m), vec![(21, TxnId(1)), (22, TxnId(2))]);
        // Once 1 and 2 retire, a later arrival is next in line.
        live.step(&mut m, 60, &[300], &[1, 2]);
        for t in 61..90u64 {
            live.step(&mut m, t, &[], &[]);
        }
        assert_eq!(starved(&m).last(), Some(&(81, TxnId(300))));
        assert_eq!(
            m.events().last().map(|e| e.oldest.clone()),
            Some(vec![TxnId(300)])
        );
    }

    #[test]
    fn arena_probe_fires_once_on_drift() {
        let mut m = HealthMonitor::new(cfg_small());
        m.check_arena(None, 5, 0, 10, 10); // invariant holds
        assert!(m.is_healthy());
        m.check_arena(None, 6, 0, 11, 10); // drift
        m.check_arena(None, 7, 0, 12, 10); // still drifting: no second event
        assert_eq!(m.events().len(), 1);
        assert_eq!(m.events()[0].kind.tag(), "arena-drift");
    }

    #[test]
    fn event_cap_suppresses_overflow() {
        let mut cfg = cfg_small();
        cfg.max_events = 2;
        cfg.starvation_age = 1;
        let mut m = HealthMonitor::new(cfg);
        let mut live = LiveSet::new();
        live.step(&mut m, 0, &[0, 1, 2, 3, 4], &[]);
        for t in 1..20u64 {
            live.step(&mut m, t, &[], &[]);
        }
        assert_eq!(m.events().len(), 2);
        assert!(m.suppressed() > 0);
        assert!(!m.is_healthy());
    }

    /// Kernel-driven: a trace whose ids run against generation order
    /// (t=0 arrives 9 then 4, t=1 arrives 2) is reported, and sampled,
    /// by `(generated_at, id)` — not by id, and not by arrival order.
    #[test]
    fn starvation_orders_a_trace_by_generation_then_id() {
        use dtm_model::{Instance, ObjectInfo, Schedule, TraceSource};
        use dtm_sim::{Engine, EngineConfig, FixedSchedulePolicy};
        let txn = |id: u64, t: Time| Transaction::new(TxnId(id), NodeId(0), [ObjectId(0)], t);
        let instance = Instance {
            objects: vec![ObjectInfo {
                id: ObjectId(0),
                origin: NodeId(1),
                created_at: 0,
            }],
            txns: vec![txn(9, 0), txn(4, 0), txn(2, 1)],
        };
        let monitor = health_monitor(HealthConfig {
            slope_tol: 10.0,
            stall_window: 1_000,
            starvation_age: 5,
            ..HealthConfig::default()
        });
        // Nothing is ever scheduled, so all three starve.
        let mut kernel = Engine::new(
            topology::line(2),
            FixedSchedulePolicy::new(Schedule::new()),
            EngineConfig::default(),
        )
        .with_observer(Arc::clone(&monitor))
        .into_kernel(TraceSource::new(instance));
        assert_eq!(
            kernel.tick().map(|fx| fx.arrived.clone()),
            Some(vec![TxnId(9), TxnId(4)])
        );
        kernel.run_for(11);
        let m = monitor.lock();
        assert_eq!(
            starved(&m),
            vec![(6, TxnId(4)), (7, TxnId(9)), (8, TxnId(2))]
        );
        for e in m.events() {
            assert_eq!(e.oldest, vec![TxnId(4), TxnId(9), TxnId(2)], "{e:?}");
        }
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
