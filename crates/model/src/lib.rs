//! # dtm-model
//!
//! Transactions, mobile objects, workload instances and generators for the
//! data-flow model of distributed transactional memory (Section II of
//! Busch et al., *"Dynamic Scheduling in Distributed Transactional
//! Memory"*, IPDPS 2020).
//!
//! In the data-flow model each transaction resides at a node of the
//! communication graph and requests a set of shared objects; objects are
//! mobile and move to the transactions that need them. A transaction
//! executes (commits) at the step it has assembled all its objects.
//!
//! This crate defines:
//! * [`Transaction`] (a home node and a sorted object set `O(T)`; two
//!   transactions conflict iff their object sets intersect, the paper's
//!   only conflict notion), [`ObjectInfo`] and the id types;
//! * [`Instance`] — a workload: object placements plus a set of
//!   transactions with generation times (a *batch* instance has all
//!   generation times equal to zero, the setting of Busch et al. SPAA'17);
//! * [`Schedule`] — an assignment of execution times to transactions;
//! * [`generator`] — seeded random workload generators (uniform, Zipf,
//!   hotspot, neighborhood locality) and arrival processes (batch, Poisson,
//!   periodic bursts);
//! * [`source`] — the [`source::WorkloadSource`] trait by which the
//!   simulator pulls online arrivals, including the closed-loop source of
//!   Section III-C (a node issues a fresh transaction right after its
//!   previous one commits);
//! * [`arrival`] — open-system arrival processes (seeded Poisson,
//!   bursty on/off, adversarial fixed-rate ρ): deterministic, unbounded
//!   streams behind [`arrival::OpenLoopSource`] for steady-state
//!   stability experiments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod generator;
pub mod ids;
pub mod instance;
pub mod presets;
pub mod schedule;
pub mod source;
pub mod stats;
pub mod txn;

pub use arrival::{ArrivalProcess, OpenLoopSource};
pub use generator::{FiniteArrivals, ObjectChoice, WorkloadGenerator, WorkloadSpec};
pub use ids::{ObjectId, Time, TxnId};
pub use instance::{Instance, InstanceError, ObjectInfo};
pub use schedule::Schedule;
pub use source::{BatchSource, ClosedLoopSource, TraceSource, WorkloadSource};
pub use stats::{workload_stats, WorkloadStats};
pub use txn::Transaction;
