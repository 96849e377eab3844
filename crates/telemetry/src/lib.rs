//! `dtm-telemetry`: observability for the DTM scheduling workspace.
//!
//! Layers, usable independently:
//!
//! * [`MetricsRegistry`] — lock-cheap named counters, gauges and
//!   log2-bucketed histograms with a serializable [`MetricsSnapshot`]
//!   (the `--telemetry` sidecar format);
//! * [`TelemetrySink`] — a [`dtm_sim::StepObserver`] feeding the
//!   registry live (phase item counts, sampled wall-clock phase timing,
//!   live-set size), plus [`record_run`] to fold a finished
//!   [`dtm_sim::RunResult`] into queue-wait / time-to-commit / hop
//!   histograms;
//! * [`steady_names`] — the backlog / sojourn-latency entries of an
//!   open-system (streaming) run, which retains no per-transaction
//!   history to fold afterwards ([`dtm_sim::Retention::Streaming`]); the
//!   streaming harness writes them from kernel state as the run goes;
//! * [`RunTrace`] — the one run record: a window of the kernel's
//!   [`dtm_sim::StepEffects`] with the transaction bodies, sampled
//!   [`PhaseSpan`]s, the policy's [`DecisionTrace`] tail and any
//!   [`HealthEvent`]s, in one JSONL vocabulary with one validating
//!   reader ([`RunTrace::from_jsonl`]); the event log, the Chrome
//!   `trace_event` export ([`RunTrace::chrome_trace`], Perfetto-loadable,
//!   validated by [`validate_chrome_trace`]) and the slowest-transaction
//!   table are derived from the steps;
//! * [`FlightRecorder`] — the last K steps, whole, in reused flat storage
//!   (O(K × peak items per step) memory regardless of run length); its
//!   [`FlightRecorder::dump`] is a [`RunTrace`] — the black box for long
//!   open-system runs, and with K unbounded the source of a full trace;
//! * [`HealthMonitor`] — typed [`HealthEvent`] watchdogs (overload,
//!   commit stall, starvation, arena drift) over the step stream and
//!   the kernel's step-end view, with flight-recorder auto-dump on first
//!   event;
//! * [`PeriodicExposer`] — periodic [`MetricsSnapshot`] flushing to JSON
//!   and/or Prometheus text format ([`prometheus_text`]) while a run is
//!   still in flight.
//!
//! Observation is strictly passive: attaching any of these to an engine
//! or policy must never change a run's schedule, events or metrics (the
//! integration suite pins this with golden traces), and the sink's
//! sampled timing keeps attached-mode overhead within the substrate
//! bench's noise floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod expose;
pub mod flight;
pub mod health;
pub mod registry;
pub mod sink;
pub mod trace;

pub use decision::{decision_trace, Decision, DecisionKind, DecisionTrace, DecisionTraceHandle};
pub use expose::{prometheus_text, PeriodicExposer};
pub use flight::{
    flight_recorder, FlightRecorder, FlightRecorderHandle, ObservabilityStack, DEFAULT_FLIGHT_K,
    DEFAULT_FLIGHT_TIMING_SAMPLE,
};
pub use health::{
    half_window_slope, health_monitor, HealthConfig, HealthEvent, HealthEventKind, HealthMonitor,
    HealthMonitorHandle,
};
pub use registry::{
    Counter, Gauge, Histogram, HistogramBucket, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use sink::{names, record_run, run_names, steady_names, TelemetrySink, DEFAULT_TIMING_SAMPLE};
pub use trace::{
    slowest_transactions, validate_chrome_trace, PhaseSpan, RecordError, RecordErrorKind, RunTrace,
    RECORD_VERSION,
};
