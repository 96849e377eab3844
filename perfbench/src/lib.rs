//! Benchmark of the `dtm` simulator running the paper's schedulers.
//!
//! Three workloads (see [`Workload`]) each run in their own process. A
//! plain run reports end-to-end metrics; a traced run wraps the public
//! entry point of every layer (see [`probe`]) and reports per-layer
//! metrics plus the tracing overhead. No library code is changed: the
//! wrappers implement the same public traits the library exposes.

#![forbid(unsafe_op_in_unsafe_fn)]

pub mod expected;
pub mod pass;
pub mod probe;
pub mod run;
pub mod workload;

pub use run::{per_layer_names, run, Metric, Outcome, RunArgs, END_TO_END};
pub use workload::{prepare, Size, Workload, DEFAULT_SEED};
