//! Live telemetry sink: a [`StepObserver`] that feeds the metrics
//! registry and records per-phase spans for trace export.
//!
//! Attach with the shared-handle pattern:
//!
//! ```
//! use dtm_sim::Engine;
//! # use dtm_sim::EngineConfig;
//! # use dtm_telemetry::TelemetrySink;
//! # use dtm_telemetry::MetricsRegistry;
//! # use parking_lot::Mutex;
//! # use std::sync::Arc;
//! let registry = Arc::new(MetricsRegistry::new());
//! let sink = Arc::new(Mutex::new(TelemetrySink::new(Arc::clone(&registry))));
//! # let network = dtm_graph::topology::line(2);
//! # let policy = dtm_sim::FixedSchedulePolicy::new(dtm_model::Schedule::new());
//! let engine = Engine::new(network, policy, EngineConfig::default())
//!     .with_observer(Arc::clone(&sink));
//! ```
//!
//! **Overhead contract.** Observation never changes engine behavior, and
//! the sink is built to cost close to nothing: every update is an atomic
//! add on a pre-registered handle, and wall-clock phase timing is
//! *sampled* — [`TelemetrySink::wants_timing`] opts in only every
//! `sample_every`-th step, so the engine skips its `Instant::now` calls
//! on the others. `sample_every = 0` disables wall-clock sampling
//! entirely; [`TelemetrySink::with_full_timing`] times every step.

use crate::registry::{Counter, Gauge, Histogram, MetricsRegistry};
use dtm_model::Time;
use dtm_sim::{Phase, RunResult, StepEffects, StepObserver};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// One observed engine phase at one step (sampled).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSpan {
    /// Step.
    pub t: Time,
    /// Phase.
    pub phase: Phase,
    /// Items the phase processed.
    pub items: u64,
    /// Wall-clock nanoseconds (0 when the step was not timed).
    pub nanos: u64,
}

/// Default timing-sample period: wall-clock phase timing every 64th step.
pub const DEFAULT_TIMING_SAMPLE: u64 = 64;

/// Default cap on retained [`PhaseSpan`]s (see
/// [`TelemetrySink::dropped_spans`]).
pub const DEFAULT_MAX_SPANS: usize = 100_000;

/// Metric names the sink registers (documented for sidecar consumers).
pub mod names {
    /// Completed engine steps.
    pub const STEPS: &str = "engine_steps_total";
    /// Live-set size sampled at every step end.
    pub const LIVE_SET: &str = "live_set_size";
    /// Current live-set size.
    pub const LIVE_NOW: &str = "live_set_current";
    /// Largest live-set size seen.
    pub const LIVE_PEAK: &str = "live_set_peak";
    /// Per-phase processed items: `phase_<name>_items_total`.
    pub fn phase_items(phase: dtm_sim::Phase) -> String {
        format!("phase_{}_items_total", phase.name())
    }
    /// Per-phase sampled wall-clock nanoseconds histogram:
    /// `phase_<name>_step_nanos`.
    pub fn phase_nanos(phase: dtm_sim::Phase) -> String {
        format!("phase_{}_step_nanos", phase.name())
    }
}

/// The live sink. See the module docs for the overhead contract.
pub struct TelemetrySink {
    steps: Arc<Counter>,
    live_hist: Arc<Histogram>,
    live_now: Arc<Gauge>,
    live_peak: Arc<Gauge>,
    phase_items: [Arc<Counter>; 5],
    phase_nanos: [Arc<Histogram>; 5],
    sample_every: u64,
    max_spans: usize,
    spans: Vec<PhaseSpan>,
    dropped_spans: u64,
}

impl TelemetrySink {
    /// Sink feeding `registry`, with sampled timing
    /// ([`DEFAULT_TIMING_SAMPLE`]) and span retention
    /// ([`DEFAULT_MAX_SPANS`]).
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        TelemetrySink {
            steps: registry.counter(names::STEPS),
            live_hist: registry.histogram(names::LIVE_SET),
            live_now: registry.gauge(names::LIVE_NOW),
            live_peak: registry.gauge(names::LIVE_PEAK),
            phase_items: std::array::from_fn(|i| {
                registry.counter(&names::phase_items(Phase::ALL[i]))
            }),
            phase_nanos: std::array::from_fn(|i| {
                registry.histogram(&names::phase_nanos(Phase::ALL[i]))
            }),
            sample_every: DEFAULT_TIMING_SAMPLE,
            max_spans: DEFAULT_MAX_SPANS,
            spans: Vec::new(),
            dropped_spans: 0,
        }
    }

    /// Request wall-clock timing every `every`-th step (0 = never).
    pub fn with_timing_sample(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }

    /// Time every step (the highest-fidelity, highest-overhead mode).
    pub fn with_full_timing(self) -> Self {
        self.with_timing_sample(1)
    }

    /// Retain at most `max` phase spans (0 disables span recording).
    pub fn with_max_spans(mut self, max: usize) -> Self {
        self.max_spans = max;
        self
    }

    /// Phase spans recorded so far (timed steps only).
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.spans
    }

    /// Take ownership of the recorded spans.
    pub fn take_spans(&mut self) -> Vec<PhaseSpan> {
        std::mem::take(&mut self.spans)
    }

    /// Spans discarded after [`Self::with_max_spans`] was hit — nonzero
    /// means the span record is truncated, not complete.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    fn timed(&self, t: Time) -> bool {
        self.sample_every != 0 && t.is_multiple_of(self.sample_every)
    }
}

impl StepObserver for TelemetrySink {
    fn on_phase(&mut self, t: Time, phase: Phase, items: usize, elapsed: Duration) {
        let i = phase.index();
        self.phase_items[i].add(items as u64);
        if self.timed(t) {
            let nanos = elapsed.as_nanos() as u64;
            self.phase_nanos[i].record(nanos);
            if self.spans.len() < self.max_spans {
                self.spans.push(PhaseSpan {
                    t,
                    phase,
                    items: items as u64,
                    nanos,
                });
            } else {
                self.dropped_spans += 1;
            }
        }
    }

    fn on_step_end(&mut self, effects: &StepEffects) {
        let live = effects.live_after;
        self.steps.inc();
        self.live_hist.record(live as u64);
        self.live_now.set(live as i64);
        self.live_peak.record_max(live as i64);
    }

    fn wants_timing(&self, t: Time) -> bool {
        self.timed(t)
    }
}

/// Metric names of an open-system run's steady state, written by the
/// streaming harness (`dtm_bench::run_stream`) from kernel state.
pub mod steady_names {
    /// Live-set (backlog) size after each step, as a histogram.
    pub const BACKLOG: &str = "steady_backlog_size";
    /// Current backlog, as a gauge.
    pub const BACKLOG_NOW: &str = "steady_backlog_current";
    /// Peak step-end backlog, as a gauge.
    pub const BACKLOG_PEAK: &str = "steady_backlog_peak";
    /// Sojourn latency of post-warmup transactions
    /// ([`dtm_sim::StepKernel::sojourn_latency`]).
    pub const SOJOURN: &str = "steady_sojourn_steps";
    /// Commits of post-warmup transactions (the sojourn sample count).
    pub const COMMITS: &str = "steady_commits_total";
    /// Aborts (missed executions) at post-warmup steps.
    pub const ABORTS: &str = "steady_aborts_total";
}

/// Metric names used by [`record_run`].
pub mod run_names {
    /// Committed transactions.
    pub const COMMITTED: &str = "txn_committed_total";
    /// Generated transactions.
    pub const GENERATED: &str = "txn_generated_total";
    /// Run violations.
    pub const VIOLATIONS: &str = "violations_total";
    /// Total object edge traversals.
    pub const HOPS: &str = "object_hops_total";
    /// Total weighted communication cost.
    pub const COMM_COST: &str = "comm_cost_total";
    /// Steps between generation and the assigned execution time.
    pub const QUEUE_WAIT: &str = "queue_wait_steps";
    /// Steps between generation and commit.
    pub const TIME_TO_COMMIT: &str = "time_to_commit_steps";
    /// Edge traversals per object over the whole run (from the event
    /// log; absent when event recording was disabled).
    pub const OBJECT_HOPS: &str = "object_hops_per_object";
}

/// Fold a finished run into `registry`: queue-wait and time-to-commit
/// histograms, per-object hop counts (when the event log was recorded),
/// and the headline totals. Complements the live [`TelemetrySink`] —
/// together they populate the full sidecar snapshot.
pub fn record_run(result: &RunResult, registry: &MetricsRegistry) {
    registry
        .counter(run_names::COMMITTED)
        .add(result.metrics.committed as u64);
    registry
        .counter(run_names::GENERATED)
        .add(result.txns.len() as u64);
    registry
        .counter(run_names::VIOLATIONS)
        .add(result.violations.len() as u64);
    registry.counter(run_names::HOPS).add(result.metrics.hops);
    registry
        .counter(run_names::COMM_COST)
        .add(result.metrics.comm_cost);

    let queue_wait = registry.histogram(run_names::QUEUE_WAIT);
    for (txn, exec_at) in result.schedule.iter() {
        if let Some(tx) = result.txns.get(&txn) {
            queue_wait.record(exec_at.saturating_sub(tx.generated_at));
        }
    }
    let ttc = registry.histogram(run_names::TIME_TO_COMMIT);
    for (txn, commit) in &result.commits {
        let generated = result.txns.get(txn).map_or(0, |tx| tx.generated_at);
        ttc.record(commit.saturating_sub(generated));
    }
    if !result.events.is_empty() {
        let per_object = registry.histogram(run_names::OBJECT_HOPS);
        let mut hops: std::collections::BTreeMap<dtm_model::ObjectId, u64> =
            std::collections::BTreeMap::new();
        for e in &result.events {
            match e {
                dtm_sim::Event::ObjectCreated { object, .. } => {
                    hops.entry(*object).or_insert(0);
                }
                dtm_sim::Event::Departed { object, .. } => {
                    *hops.entry(*object).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        for (_, n) in hops {
            per_object.record(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_counts_phases_and_live() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut sink = TelemetrySink::new(Arc::clone(&registry)).with_timing_sample(2);
        // t=0 is sampled; t=1 is not.
        assert!(sink.wants_timing(0));
        assert!(!sink.wants_timing(1));
        sink.on_phase(0, Phase::Execute, 3, Duration::from_nanos(50));
        sink.on_phase(1, Phase::Execute, 2, Duration::ZERO);
        sink.on_step_end(&StepEffects {
            t: 0,
            live_after: 5,
            ..StepEffects::default()
        });
        sink.on_step_end(&StepEffects {
            t: 1,
            live_after: 2,
            ..StepEffects::default()
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counters[names::STEPS], 2);
        assert_eq!(snap.counters[&names::phase_items(Phase::Execute)], 5);
        // Only the sampled step recorded nanos.
        assert_eq!(
            snap.histograms[&names::phase_nanos(Phase::Execute)].count,
            1
        );
        assert_eq!(snap.histograms[names::LIVE_SET].count, 2);
        assert_eq!(snap.gauges[names::LIVE_PEAK], 5);
        assert_eq!(snap.gauges[names::LIVE_NOW], 2);
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.spans()[0].items, 3);
    }

    #[test]
    fn span_cap_drops_and_counts() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut sink = TelemetrySink::new(registry)
            .with_full_timing()
            .with_max_spans(2);
        for t in 0..4 {
            sink.on_phase(t, Phase::Receive, 1, Duration::from_nanos(1));
        }
        assert_eq!(sink.spans().len(), 2);
        assert_eq!(sink.dropped_spans(), 2);
        let spans = sink.take_spans();
        assert_eq!(spans.len(), 2);
        assert!(sink.spans().is_empty());
    }

    #[test]
    fn zero_sample_disables_timing() {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = TelemetrySink::new(registry).with_timing_sample(0);
        assert!(!sink.wants_timing(0));
        assert!(!sink.wants_timing(64));
    }
}
