//! # dtm-sim
//!
//! Synchronous discrete-time simulator of the data-flow model of
//! distributed transactional memory (Section II of Busch et al., IPDPS
//! 2020).
//!
//! The model: time advances in discrete steps; at any step a node may
//! (1) receive objects from adjacent nodes, (2) execute any transaction
//! that has assembled its required objects, and (3) forward objects to
//! adjacent nodes. A transaction executes instantly once its objects have
//! arrived — every delay is communication. Objects travel along shortest
//! paths toward the *next scheduled requester in execution order*.
//!
//! The [`engine::Engine`] drives a [`policy::SchedulingPolicy`] (the online
//! schedulers of `dtm-core` implement this trait) against a
//! [`dtm_model::WorkloadSource`], producing a [`metrics::RunResult`] with
//! an event log that [`validate`] can independently re-check for
//! conflict-freedom and movement consistency.
//!
//! Extensions exercised by the ablation experiments: object speed division
//! (the half-speed rule of Algorithm 3) and bounded link capacity (the
//! congestion question raised in the paper's conclusion).
//!
//! **Open-system mode.** Under [`engine::Retention::Streaming`] the
//! [`kernel::StepKernel`] runs indefinitely against never-exhausting
//! sources (e.g. [`dtm_model::OpenLoopSource`]) in bounded memory: the
//! transaction arena recycles slots through a free list, no history is
//! folded from the kernel's per-tick [`effects::StepEffects`] (its one
//! write channel), per-transaction result columns stay empty, and
//! steady-state sojourn latency folds into a fixed-size
//! [`metrics::Log2Histogram`]. Drive such runs with
//! [`kernel::StepKernel::run_for`] / `run_until` and read
//! [`kernel::StepKernel::status`] for the drained-versus-open split.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod column;
pub mod effects;
pub mod engine;
pub mod events;
pub mod gantt;
pub mod kernel;
pub mod metrics;
pub mod observer;
pub mod policy;
mod runlog;
pub mod state;
pub mod validate;

pub use arena::{IdWindow, ObjectArena, RuntimeState, TxnArena};
pub use column::{IdColumn, IdEntry};
pub use effects::{Delivery, Departure, StepEffects};
pub use engine::{run_policy, Engine, EngineConfig, Retention};
pub use events::Event;
pub use gantt::{render_timeline, TimelineOptions};
pub use kernel::{KernelMapStats, RunCheckpoint, RunStatus, StepKernel};
pub use metrics::{
    edge_congestion, peak_congestion, percentile, LatencySummary, Log2Histogram, Metrics,
    RunResult, Violation,
};
pub use observer::{Phase, StepObserver};
pub use policy::{FixedSchedulePolicy, SchedulingPolicy};
pub use state::{LiveTxn, ObjectPlace, ObjectState, SystemView};
pub use validate::{validate_capacity, validate_events, ValidationConfig, ValidationError};
