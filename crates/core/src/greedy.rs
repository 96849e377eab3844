//! Algorithm 1 — the online greedy schedule (Section III).
//!
//! At every time step the newly generated transactions are immediately
//! assigned execution times by greedily coloring them in the extended
//! dependency graph `H'_t`: already-scheduled transactions keep their
//! colors (remaining time until execution), current object holders have
//! color 0, and each new transaction receives the smallest valid color,
//! which Lemma 1 bounds by `2Γ'_t - Δ'_t` (Theorem 1). On uniform-weight
//! graphs the Lemma 2 variant assigns colors that are multiples of the
//! edge weight `β` and achieves `Γ'_t` (Theorem 2) — the analysis behind
//! the clique's `O(k)` (Theorem 3) and the hypercube/butterfly/grid
//! `O(k log n)` competitive bounds (Section III-D).

use crate::coloring::{smallest_valid_color_into, smallest_valid_multiple_into, ColorConstraint};
use crate::conflict::ConflictCache;
use dtm_graph::Weight;
use dtm_model::{Schedule, Time, TxnId};
use dtm_sim::{SchedulingPolicy, SystemView};
use dtm_telemetry::{Decision, DecisionKind, DecisionTraceHandle};
use std::collections::BTreeMap;

/// Coloring mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GreedyMode {
    /// Lemma 1: arbitrary weights, smallest valid color (Theorem 1).
    General,
    /// Lemma 2: treat every dependency-edge weight as the uniform value
    /// `beta` (e.g. `β = log n` for the hypercube viewed as a complete
    /// graph, Section III-D) and assign colors that are positive multiples
    /// of `beta` (Theorem 2).
    Uniform {
        /// The uniform edge weight.
        beta: Weight,
    },
}

/// Reusable buffers for the coloring pass, so warmed-up schedule phases
/// allocate nothing: every `Vec` here keeps its capacity across steps.
#[derive(Clone, Debug, Default)]
struct GreedyScratch {
    /// Sorted arrival batch.
    // dtm-lint: bounded -- cleared every schedule pass; capacity plateaus at the largest batch
    order: Vec<TxnId>,
    /// Constraint set of the transaction currently being colored.
    // dtm-lint: bounded -- cleared per transaction colored; capacity plateaus at the widest neighborhood
    constraints: Vec<ColorConstraint>,
    /// Same-step colors assigned so far (the partial coloring earlier
    /// arrivals contribute to later ones).
    // dtm-lint: bounded -- cleared every schedule pass; holds at most one batch of colors
    colored: BTreeMap<TxnId, Time>,
    /// Interval scratch for [`smallest_valid_color_into`].
    // dtm-lint: bounded -- cleared per coloring query; capacity plateaus at the constraint count
    ranges: Vec<(Time, Time)>,
    /// Forbidden-multiple scratch for [`smallest_valid_multiple_into`].
    // dtm-lint: bounded -- cleared per coloring query; capacity plateaus at the constraint count
    forbidden: Vec<Time>,
}

/// Algorithm 1.
///
/// `Clone` (for [`dtm_sim::SchedulingPolicy::fork`] checkpoints) shares
/// an attached decision-trace handle — a fork feeds the same trace —
/// and deep-copies the incremental conflict cache, which from then on
/// follows the fork's own view.
///
/// **Boundedness (open-system audit).** The [`ConflictCache`] holds only
/// live transactions and their conflict edges; scratch buffers are sized
/// by the largest arrival batch. Safe for indefinite streaming runs.
#[derive(Clone)]
pub struct GreedyPolicy {
    mode: GreedyMode,
    cache: ConflictCache,
    scratch: GreedyScratch,
    decisions: Option<DecisionTraceHandle>,
}

impl GreedyPolicy {
    /// General-weights greedy scheduler (Theorem 1).
    pub fn new() -> Self {
        GreedyPolicy {
            mode: GreedyMode::General,
            cache: ConflictCache::default(),
            scratch: GreedyScratch::default(),
            decisions: None,
        }
    }

    /// Uniform-weight variant (Theorem 2) with dependency weight `beta`.
    /// All conflict-edge weights are **raised** to `beta` (a valid
    /// over-approximation when every pairwise distance is at most `beta`,
    /// as in the paper's hypercube treatment).
    pub fn uniform(beta: Weight) -> Self {
        assert!(beta >= 1);
        GreedyPolicy {
            mode: GreedyMode::Uniform { beta },
            cache: ConflictCache::default(),
            scratch: GreedyScratch::default(),
            decisions: None,
        }
    }

    /// Record one [`DecisionKind::GreedyColor`] per scheduled transaction
    /// into `trace` (the caller keeps the other `Arc` end).
    pub fn with_decision_trace(mut self, trace: DecisionTraceHandle) -> Self {
        self.decisions = Some(trace);
        self
    }

    /// The coloring mode.
    pub fn mode(&self) -> GreedyMode {
        self.mode
    }
}

impl Default for GreedyPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulingPolicy for GreedyPolicy {
    // dtm-lint: hot-path
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        // Fold this step's deltas even when there is nothing to color:
        // skipping a refresh would silently drop the window's effects.
        self.cache.refresh(view);
        if arrivals.is_empty() {
            return Schedule::new();
        }
        let GreedyScratch {
            order,
            constraints,
            colored,
            ranges,
            forbidden,
        } = &mut self.scratch;
        order.clear();
        order.extend_from_slice(arrivals);
        order.sort_unstable();
        colored.clear();
        let mut fragment = Schedule::new();
        for &id in order.iter() {
            let lt = view.live(id).expect("arrival is live"); // dtm-lint: allow(C1) -- engine contract: every id in `arrivals` is live this step
            let degrees = self
                .cache
                .constraints_into(view, &lt.txn, colored, constraints);
            let conflicts = constraints.len();
            let (color, bound) = match self.mode {
                GreedyMode::General => {
                    let c = smallest_valid_color_into(constraints, ranges);
                    (c, degrees.theorem1_bound())
                }
                GreedyMode::Uniform { beta } => {
                    // Work in absolute time so every execution time is an
                    // absolute multiple of β — transactions colored at
                    // different steps then still occupy distinct β-slots,
                    // which is Lemma 2's premise. Conflict weights are
                    // raised to β (valid when pairwise distances are <= β,
                    // the paper's hypercube treatment); holders keep their
                    // true effective distance.
                    let mut slots: Time = 0; // forbidden-slot budget
                    for c in constraints.iter_mut() {
                        let is_holder = c.color == 0 && c.weight > 0;
                        if is_holder {
                            slots += c.weight.div_ceil(beta);
                        } else {
                            c.weight = c.weight.max(beta);
                            slots += 1;
                        }
                        c.color += view.now; // relative -> absolute
                    }
                    let exec = smallest_valid_multiple_into(beta, view.now, constraints, forbidden);
                    let c = exec - view.now;
                    // Slot-counting bound: the first candidate slot is at
                    // most β after now, and each dependency blocks at most
                    // its counted slots.
                    (c, beta * slots + beta)
                }
            };
            colored.insert(id, color);
            fragment.set(id, view.now + color);
            if let Some(trace) = &self.decisions {
                trace.lock().push(Decision {
                    t: view.now,
                    txn: id,
                    exec_at: Some(view.now + color),
                    kind: DecisionKind::GreedyColor {
                        conflicts,
                        color,
                        bound,
                    },
                });
            }
        }
        fragment
    }

    fn name(&self) -> String {
        match self.mode {
            GreedyMode::General => "greedy".into(),
            GreedyMode::Uniform { beta } => format!("greedy-uniform(beta={beta})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;
    use dtm_graph::NodeId;
    use dtm_model::{
        FiniteArrivals, Instance, ObjectChoice, ObjectId, ObjectInfo, TraceSource, Transaction,
        WorkloadGenerator, WorkloadSpec,
    };
    use dtm_sim::{run_policy, validate_events, EngineConfig, ValidationConfig};
    use dtm_telemetry::decision_trace;
    use std::sync::Arc;

    fn obj(id: u32, origin: u32) -> ObjectInfo {
        ObjectInfo {
            id: ObjectId(id),
            origin: NodeId(origin),
            created_at: 0,
        }
    }

    fn txn(id: u64, home: u32, objs: &[u32], t: Time) -> Transaction {
        Transaction::new(
            TxnId(id),
            NodeId(home),
            objs.iter().map(|&o| ObjectId(o)),
            t,
        )
    }

    #[test]
    fn single_txn_waits_exactly_object_distance() {
        let net = topology::line(8);
        let inst = Instance::new(vec![obj(0, 0)], vec![txn(0, 5, &[0], 0)]);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            GreedyPolicy::new(),
            EngineConfig::default(),
        );
        res.expect_ok();
        assert_eq!(res.commits[&TxnId(0)], 5); // color = distance
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
    }

    #[test]
    fn conflicting_batch_serializes_correctly() {
        let net = topology::line(8);
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(0, 1, &[0], 0), txn(1, 3, &[0], 0), txn(2, 5, &[0], 0)],
        );
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            GreedyPolicy::new(),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(res.metrics.committed, 3);
    }

    #[test]
    fn theorem1_bound_holds_on_random_workloads() {
        let trace = decision_trace();
        for seed in 0..5 {
            let net = topology::grid(&[4, 4]);
            let spec = WorkloadSpec {
                num_objects: 6,
                k: 3,
                object_choice: ObjectChoice::Uniform,
                arrival: FiniteArrivals::Bernoulli {
                    rate: 0.3,
                    horizon: 10,
                },
            };
            let inst = WorkloadGenerator::new(spec, seed).generate(&net);
            if inst.txns.is_empty() {
                continue;
            }
            let res = run_policy(
                &net,
                TraceSource::new(inst),
                GreedyPolicy::new().with_decision_trace(Arc::clone(&trace)),
                EngineConfig::default(),
            );
            res.expect_ok();
            validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        }
        let trace = trace.lock();
        assert!(!trace.is_empty());
        for d in &trace.decisions {
            let DecisionKind::GreedyColor { color, bound, .. } = d.kind else {
                panic!("unexpected decision {:?}", d.kind);
            };
            assert!(
                color <= bound,
                "{}: color {color} > theorem bound {bound}",
                d.txn
            );
        }
    }

    #[test]
    fn uniform_mode_colors_are_multiples() {
        let net = topology::clique(8);
        let trace = decision_trace();
        let spec = WorkloadSpec::batch_uniform(4, 2);
        let inst = WorkloadGenerator::new(spec, 3).generate(&net);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            GreedyPolicy::uniform(1).with_decision_trace(Arc::clone(&trace)),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        for d in &trace.lock().decisions {
            let DecisionKind::GreedyColor { color, bound, .. } = d.kind else {
                panic!("unexpected decision {:?}", d.kind);
            };
            assert!(color >= 1);
            assert!(color <= bound);
        }
    }

    #[test]
    fn uniform_mode_on_hypercube_with_beta_log_n() {
        // The paper's Section III-D treatment: hypercube viewed as a
        // complete graph with uniform weight log n.
        let net = topology::hypercube(4);
        let spec = WorkloadSpec::batch_uniform(8, 2);
        let inst = WorkloadGenerator::new(spec, 4).generate(&net);
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            GreedyPolicy::uniform(4),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
    }

    #[test]
    fn online_arrivals_never_retime_existing() {
        let net = topology::line(12);
        // Staggered conflicting arrivals.
        let inst = Instance::new(
            vec![obj(0, 0)],
            vec![txn(0, 11, &[0], 0), txn(1, 2, &[0], 1), txn(2, 7, &[0], 2)],
        );
        let res = run_policy(
            &net,
            TraceSource::new(inst),
            GreedyPolicy::new(),
            EngineConfig::default(),
        );
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        // All three committed, no violations: the coloring respected both
        // the in-flight object and the already-scheduled transactions.
        assert_eq!(res.metrics.committed, 3);
    }

    #[test]
    fn closed_loop_clique_runs_clean() {
        use dtm_model::ClosedLoopSource;
        let net = topology::clique(6);
        let spec = WorkloadSpec::batch_uniform(6, 2);
        let src = ClosedLoopSource::new(net.clone(), spec, 3, 9);
        let res = run_policy(&net, src, GreedyPolicy::new(), EngineConfig::default());
        res.expect_ok();
        validate_events(&net, &res, &ValidationConfig::default()).unwrap();
        assert_eq!(res.metrics.committed, 18);
    }
}
