//! `dtm-telemetry`: observability for the DTM scheduling workspace.
//!
//! Three layers, usable independently:
//!
//! * [`MetricsRegistry`] — lock-cheap named counters, gauges and
//!   log2-bucketed histograms with a serializable [`MetricsSnapshot`]
//!   (the `--telemetry` sidecar format);
//! * [`TelemetrySink`] — a [`dtm_sim::StepObserver`] feeding the
//!   registry live (phase item counts, sampled wall-clock phase timing,
//!   live-set tracking), plus [`record_run`] to fold a finished
//!   [`dtm_sim::RunResult`] into queue-wait / time-to-commit / hop
//!   histograms;
//! * [`SteadyStateProbe`] — a backlog / sojourn-latency observer for
//!   open-system (streaming) runs, whose results exist only as the
//!   stream flows by ([`dtm_sim::Retention::Streaming`] retains no
//!   per-transaction history to fold afterwards);
//! * [`RunTrace`] — a structured trace joining the engine's event log,
//!   the policy's [`DecisionTrace`] and the sink's sampled
//!   [`PhaseSpan`]s, exportable as JSONL or Chrome `trace_event` JSON
//!   ([`RunTrace::chrome_trace`], Perfetto-loadable, validated by
//!   [`validate_chrome_trace`]);
//! * [`FlightRecorder`] — a bounded ring buffer of per-step records
//!   (O(K) memory regardless of run length) with a deterministic JSONL
//!   [`FlightRecorder::dump`] — the black box for long open-system runs;
//! * [`HealthMonitor`] — typed [`HealthEvent`] watchdogs (overload,
//!   commit stall, starvation, arena drift) over the step stream, with
//!   flight-recorder auto-dump on first event;
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
pub mod steady;
pub mod trace;

pub use decision::{decision_trace, Decision, DecisionKind, DecisionTrace, DecisionTraceHandle};
pub use expose::{prometheus_text, PeriodicExposer};
pub use flight::{
    flight_recorder, validate_flight_dump, FlightDumpSummary, FlightRecord, FlightRecorder,
    FlightRecorderHandle, ObservabilityStack, DEFAULT_FLIGHT_K, DEFAULT_FLIGHT_TIMING_SAMPLE,
};
pub use health::{
    half_window_slope, health_monitor, HealthConfig, HealthEvent, HealthEventKind, HealthMonitor,
    HealthMonitorHandle,
};
pub use registry::{
    Counter, Gauge, Histogram, HistogramBucket, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use sink::{names, record_run, run_names, PhaseSpan, TelemetrySink, DEFAULT_TIMING_SAMPLE};
pub use steady::{steady_names, SteadyStateProbe};
pub use trace::{slowest_transactions, validate_chrome_trace, RunTrace};
