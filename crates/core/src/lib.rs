//! # dtm-core
//!
//! Online dynamic scheduling for distributed transactional memory — the
//! algorithms of Busch, Herlihy, Popovic and Sharma, *"Dynamic Scheduling
//! in Distributed Transactional Memory"* (IPDPS 2020).
//!
//! The paper's setting: transactions arrive online at nodes of a weighted
//! communication graph and request mobile shared objects; objects move to
//! transactions along shortest paths; the scheduler assigns each
//! transaction an execution time that is never revised. Three schedulers
//! are provided, each a [`dtm_sim::SchedulingPolicy`]:
//!
//! * [`GreedyPolicy`] — **Algorithm 1**, the online greedy schedule: each
//!   arriving transaction is colored in the extended dependency graph
//!   `H'_t` (Lemmas 1 and 2 in [`coloring`]), and the color becomes its
//!   execution offset. Near-optimal on small-diameter graphs: `O(k)`
//!   competitive on cliques (Theorem 3), `O(k log n)` on hypercubes,
//!   butterflies and `log n`-dimensional grids (Section III-D).
//! * [`BucketPolicy`] — **Algorithm 2**, the online bucket schedule: a
//!   black-box conversion of any offline batch scheduler `𝒜` (a
//!   [`dtm_offline::BatchScheduler`]) into an online scheduler with a
//!   `O(b_𝒜 log^3(nD))` competitive ratio (Theorem 4). Level-`i` buckets
//!   hold transactions whose batch would execute within `2^i` steps and
//!   activate every `2^i` steps.
//! * [`DistributedBucketPolicy`] — **Algorithm 3**, the decentralized
//!   bucket schedule: partial buckets live at leaders of a hierarchical
//!   sparse cover ([`dtm_graph::SparseCover`]); transactions discover
//!   their objects (at half object speed), report to the leader of the
//!   lowest home cluster covering their dependency radius, and are
//!   scheduled on bucket activation — `O(b_𝒜 log^9(nD))` competitive
//!   (Theorem 5).
//!
//! Baselines and deployment wrappers: [`FifoPolicy`] (earliest-feasible
//! arrival-order scheduling), [`TspPolicy`] (per-object TSP tours, the
//! related-work baseline \[30\]) and [`CentralizedWrapper`] (Section III-E's
//! simple centralized coordinator, which charges every decision a
//! round-trip to a designated node).
//!
//! # Example
//!
//! Run Algorithm 1 on a random online workload over a hypercube and check
//! the execution end to end:
//!
//! ```
//! use dtm_core::GreedyPolicy;
//! use dtm_graph::topology;
//! use dtm_model::{FiniteArrivals, ObjectChoice, TraceSource, WorkloadGenerator, WorkloadSpec};
//! use dtm_sim::{run_policy, validate_events, EngineConfig, ValidationConfig};
//!
//! let network = topology::hypercube(4);
//! let spec = WorkloadSpec {
//!     num_objects: 8,
//!     k: 2,
//!     object_choice: ObjectChoice::Uniform,
//!     arrival: FiniteArrivals::Bernoulli { rate: 0.2, horizon: 10 },
//! };
//! let instance = WorkloadGenerator::new(spec, 7).generate(&network);
//! let result = run_policy(
//!     &network,
//!     TraceSource::new(instance),
//!     GreedyPolicy::new(),
//!     EngineConfig::default(),
//! );
//! result.expect_ok();
//! validate_events(&network, &result, &ValidationConfig::default()).unwrap();
//! assert_eq!(result.metrics.committed, result.txns.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod bucket;
pub mod centralized;
pub mod coloring;
pub mod conflict;
pub mod dependency;
pub mod distributed;
pub mod distributed_msg;
pub mod fifo;
pub mod greedy;
pub mod viewctx;

pub use adaptive::{AutoPolicy, RandomizedBackoffPolicy};
pub use bucket::BucketPolicy;
pub use centralized::CentralizedWrapper;
pub use coloring::{
    smallest_valid_color, smallest_valid_color_into, smallest_valid_color_uniform,
    smallest_valid_multiple, smallest_valid_multiple_into, ColorConstraint,
};
pub use conflict::ConflictCache;
pub use dependency::{constraints_for, extended_degrees, ExtendedDegrees};
pub use distributed::DistributedBucketPolicy;
pub use distributed_msg::DistributedMsgPolicy;
pub use fifo::{FifoPolicy, TspPolicy};
pub use greedy::{GreedyMode, GreedyPolicy};
pub use viewctx::{batch_context_from_view, FixedCache, StepContext};

/// Test fixture: a [`dtm_sim::RuntimeState`] holding `objects` and the
/// live transactions `txns`, with no step effects recorded.
#[cfg(test)]
pub(crate) fn state_of(
    txns: impl IntoIterator<Item = dtm_sim::LiveTxn>,
    objects: impl IntoIterator<Item = dtm_sim::ObjectState>,
) -> dtm_sim::RuntimeState {
    let mut state = dtm_sim::RuntimeState::new();
    for st in objects {
        state.insert_object(st);
    }
    for lt in txns {
        state.insert_txn(lt);
    }
    state
}
