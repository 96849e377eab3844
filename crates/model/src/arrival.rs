//! Open-system arrival processes: deterministic, unbounded transaction
//! streams for steady-state (stability) experiments.
//!
//! Closed-batch runs replay a finite [`crate::Instance`] and drain it to
//! empty; the processes here never run dry. An [`ArrivalProcess`] decides
//! *how many* transactions arrive at each step and *where* (their home
//! nodes); [`OpenLoopSource`] turns that decision into fully-formed
//! transactions by drawing object sets from a [`WorkloadSpec`]'s
//! popularity distribution, exactly like [`crate::ClosedLoopSource`]
//! does for the closed loop.
//!
//! All three processes are seeded and deterministic: the same
//! `(process, spec, seed)` triple produces the same transaction stream
//! forever, on every platform. None of them allocates on a step that
//! produces no arrivals — the steady-state tick path stays
//! allocation-free through quiet periods (pinned by the
//! `alloc_steady_state` integration test).
//!
//! The randomized processes thin per node: one `gen_bool(rate / n)`
//! draw per node per tick, in node order. [`ChaCha8Rng::bernoulli_run`]
//! makes exactly those draws, but scans the generator's buffered words
//! for the next success instead of testing one node at a time, so a
//! tick costs one pass over n words and no per-node calls.

use crate::generator::WorkloadSpec;
use crate::ids::{ObjectId, Time, TxnId};
use crate::instance::ObjectInfo;
use crate::txn::Transaction;
use dtm_graph::{Network, NodeId};
use rand::distributions::Bernoulli;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// An unbounded, deterministic arrival process: given the step number it
/// yields the home nodes of the transactions injected at that step.
///
/// Rates are *system-wide expected transactions per step* (the injection
/// rate ρ of the stability literature), independent of the network size,
/// so a ρ-sweep compares policies at equal offered load across
/// topologies.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at expected rate `rate` per step: each node
    /// independently injects with probability `rate / n` (Bernoulli
    /// thinning of a Poisson stream; exact Poisson in the n → ∞ limit).
    Poisson {
        /// Expected arrivals per step, system-wide (ρ).
        rate: f64,
    },
    /// Bursty on/off modulation: behaves like [`ArrivalProcess::Poisson`]
    /// at `rate` during each `on`-window, then injects nothing for the
    /// following `off`-window. The *average* rate is
    /// `rate * on / (on + off)`.
    OnOff {
        /// Expected arrivals per step while the source is on.
        rate: f64,
        /// Length of each on-window in steps (≥ 1).
        on: Time,
        /// Length of each off-window in steps.
        off: Time,
    },
    /// Adversarial fixed-rate injection: *exactly*
    /// `⌊(t+1)·rate⌋ − ⌊t·rate⌋` transactions per step (a token bucket —
    /// no randomness in the count), homes assigned round-robin so every
    /// node is loaded equally. The worst case for policies that rely on
    /// arrival gaps to drain backlog.
    Adversarial {
        /// Exact long-run arrivals per step (ρ).
        rate: f64,
    },
}

impl ArrivalProcess {
    /// Append the home nodes of the transactions arriving at step `t` to
    /// `out` (not cleared; appended in deterministic node order). Must be
    /// called with strictly increasing `t` for round-robin state to make
    /// sense; the randomized variants are stateless in `t` given `rng`'s
    /// call sequence.
    ///
    /// Performs no allocation when the step has no arrivals (beyond what
    /// `out` already owns).
    pub fn homes_at(
        &mut self,
        t: Time,
        network_n: usize,
        rng: &mut ChaCha8Rng,
        out: &mut Vec<NodeId>,
    ) {
        match self {
            ArrivalProcess::Poisson { rate } => {
                bernoulli_thin(*rate, network_n, rng, out);
            }
            ArrivalProcess::OnOff { rate, on, off } => {
                let period = (*on + *off).max(1);
                if t % period < *on {
                    bernoulli_thin(*rate, network_n, rng, out);
                }
                // Off-window: no draws at all — the rng sequence depends
                // only on the deterministic on/off pattern, never on
                // anything a policy did.
            }
            ArrivalProcess::Adversarial { rate } => {
                let r = rate.max(0.0);
                let due = ((t + 1) as f64 * r).floor() as u64 - (t as f64 * r).floor() as u64;
                for i in 0..due {
                    out.push(NodeId(((t + i) % network_n as u64) as u32));
                }
            }
        }
    }

    /// Long-run expected arrivals per step (the ρ this process offers).
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::OnOff { rate, on, off } => {
                rate * (*on as f64) / ((*on + *off).max(1) as f64)
            }
            ArrivalProcess::Adversarial { rate } => *rate,
        }
    }

    /// Short name for tables (`poisson` / `onoff` / `adversarial`).
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::OnOff { .. } => "onoff",
            ArrivalProcess::Adversarial { .. } => "adversarial",
        }
    }
}

/// Per-node Bernoulli thinning at system rate `rate`: node `v` injects
/// with probability `rate / n`, drawn in ascending node order — one
/// `gen_bool` draw per node, scanned in runs by
/// [`ChaCha8Rng::bernoulli_run`].
///
/// # Panics
/// Panics if `rate` is NaN.
fn bernoulli_thin(rate: f64, n: usize, rng: &mut ChaCha8Rng, out: &mut Vec<NodeId>) {
    let p = (rate / n.max(1) as f64).clamp(0.0, 1.0);
    if p == 0.0 {
        return;
    }
    // dtm-lint: allow(C1) -- documented panic: p is clamped to [0, 1], so only a NaN rate fails
    let bernoulli = Bernoulli::new(p).expect("arrival rate is a number");
    let mut v = rng.bernoulli_run(bernoulli, n);
    while v < n {
        out.push(NodeId::from_index(v));
        v += 1 + rng.bernoulli_run(bernoulli, n - v - 1);
    }
}

/// Open-loop workload source: an [`ArrivalProcess`] injecting
/// transactions forever, with object sets drawn from a
/// [`WorkloadSpec`]'s popularity distribution (the spec's own finite
/// `arrival` field is ignored, as in [`crate::ClosedLoopSource`]).
///
/// [`crate::WorkloadSource::exhausted`] is always `false`: an open run
/// never drains, it is stopped by the driver (`run_for` /
/// [`crate::WorkloadSource`] consumers with a step budget).
#[derive(Clone, Debug)]
pub struct OpenLoopSource {
    network: Network,
    spec: WorkloadSpec,
    process: ArrivalProcess,
    objects: Vec<ObjectInfo>,
    rng: ChaCha8Rng,
    next_txn: u64,
    /// Reusable per-step home buffer (empty between calls).
    homes: Vec<NodeId>,
    emitted: u64,
}

impl OpenLoopSource {
    /// Build an open-loop source over `network`. Objects are placed
    /// uniformly at random (seeded), all created at time 0; arrivals and
    /// object-set draws share the same seeded rng, so the full stream is
    /// a pure function of `(network, spec, process, seed)`.
    pub fn new(network: Network, spec: WorkloadSpec, process: ArrivalProcess, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = network.n() as u32;
        let objects: Vec<ObjectInfo> = (0..spec.num_objects)
            .map(|i| ObjectInfo {
                id: ObjectId(i),
                origin: NodeId(rng.gen_range(0..n)),
                created_at: 0,
            })
            .collect();
        OpenLoopSource {
            network,
            spec,
            process,
            objects,
            rng,
            next_txn: 0,
            homes: Vec::new(),
            emitted: 0,
        }
    }

    /// The arrival process driving this source.
    pub fn process(&self) -> &ArrivalProcess {
        &self.process
    }

    /// Transactions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl crate::source::WorkloadSource for OpenLoopSource {
    fn arrivals_into(&mut self, t: Time, out: &mut Vec<Transaction>) {
        let mut homes = std::mem::take(&mut self.homes);
        homes.clear();
        self.process
            .homes_at(t, self.network.n(), &mut self.rng, &mut homes);
        for &home in &homes {
            let objs =
                self.spec
                    .sample_object_set(&mut self.rng, &self.objects, home, &self.network);
            let id = TxnId(self.next_txn);
            self.next_txn += 1;
            self.emitted += 1;
            out.push(Transaction::new(id, home, objs, t));
        }
        homes.clear();
        self.homes = homes;
    }

    fn on_commit(&mut self, _txn: &Transaction, _t: Time) {}

    fn exhausted(&self) -> bool {
        false
    }

    fn objects(&self) -> &[ObjectInfo] {
        &self.objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::WorkloadSource;
    use dtm_graph::topology;

    fn drain(src: &mut OpenLoopSource, steps: Time) -> Vec<Transaction> {
        let mut all = Vec::new();
        for t in 0..steps {
            src.arrivals_into(t, &mut all);
        }
        all
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let mk = |seed| {
            OpenLoopSource::new(
                topology::grid(&[4, 4]),
                WorkloadSpec::batch_uniform(8, 2),
                ArrivalProcess::Poisson { rate: 0.5 },
                seed,
            )
        };
        let a = drain(&mut mk(7), 200);
        let b = drain(&mut mk(7), 200);
        let c = drain(&mut mk(8), 200);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        // Rate sanity: expectation 0.5/step over 200 steps = 100.
        assert!(a.len() > 50 && a.len() < 180, "got {}", a.len());
    }

    /// The Poisson stream on a 2000-node graph, where a tick's draws span
    /// whole generator refills, is the one a per-node `gen_bool` loop
    /// and `sample_object_set` produce from the same seeded generator:
    /// the same object placement, homes, object sets, ids and steps.
    #[test]
    fn poisson_stream_replays_per_node_gen_bool() {
        let network = topology::geometric(2000, 4, 18);
        let spec = WorkloadSpec::batch_uniform(500, 2);
        let n = network.n();
        for (rate, seed) in [(0.4, 2026), (4.0, 7)] {
            let mut src = OpenLoopSource::new(
                network.clone(),
                spec.clone(),
                ArrivalProcess::Poisson { rate },
                seed,
            );
            let got = drain(&mut src, 300);

            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let origins: Vec<NodeId> = (0..spec.num_objects)
                .map(|_| NodeId(rng.gen_range(0..n as u32)))
                .collect();
            let placed: Vec<NodeId> = src.objects().iter().map(|o| o.origin).collect();
            assert_eq!(placed, origins, "rate {rate}");
            let mut want = Vec::new();
            for t in 0..300 {
                let homes: Vec<usize> = (0..n).filter(|_| rng.gen_bool(rate / n as f64)).collect();
                for home in homes {
                    let home = NodeId::from_index(home);
                    let objs = spec.sample_object_set(&mut rng, src.objects(), home, &network);
                    want.push(Transaction::new(TxnId(want.len() as u64), home, objs, t));
                }
            }
            assert!(want.len() > 100, "rate {rate}: {} arrivals", want.len());
            assert_eq!(got, want, "rate {rate}");
        }
    }

    #[test]
    fn poisson_never_exhausts_and_ids_are_sequential() {
        let mut src = OpenLoopSource::new(
            topology::line(6),
            WorkloadSpec::batch_uniform(4, 1),
            ArrivalProcess::Poisson { rate: 1.0 },
            3,
        );
        let txns = drain(&mut src, 100);
        assert!(!src.exhausted());
        assert_eq!(src.emitted(), txns.len() as u64);
        for (i, txn) in txns.iter().enumerate() {
            assert_eq!(txn.id.0, i as u64);
        }
    }

    #[test]
    fn onoff_is_silent_in_off_windows() {
        let mut src = OpenLoopSource::new(
            topology::clique(8),
            WorkloadSpec::batch_uniform(4, 1),
            ArrivalProcess::OnOff {
                rate: 4.0,
                on: 3,
                off: 5,
            },
            11,
        );
        let mut per_step = Vec::new();
        for t in 0..80 {
            let mut out = Vec::new();
            src.arrivals_into(t, &mut out);
            per_step.push(out.len());
        }
        for (t, &count) in per_step.iter().enumerate() {
            if (t as Time) % 8 >= 3 {
                assert_eq!(count, 0, "off-window step {t} produced arrivals");
            }
        }
        assert!(per_step.iter().sum::<usize>() > 0);
    }

    #[test]
    fn adversarial_rate_is_exact_and_round_robin() {
        let mut src = OpenLoopSource::new(
            topology::line(5),
            WorkloadSpec::batch_uniform(4, 1),
            ArrivalProcess::Adversarial { rate: 0.75 },
            1,
        );
        let txns = drain(&mut src, 400);
        // Exactly ⌊400·0.75⌋ = 300 transactions.
        assert_eq!(txns.len(), 300);
        // Every node gets load (round-robin homes).
        for v in 0..5u32 {
            assert!(txns.iter().any(|t| t.home == NodeId(v)));
        }
    }

    #[test]
    fn mean_rate_reports_long_run_average() {
        assert_eq!(ArrivalProcess::Poisson { rate: 0.4 }.mean_rate(), 0.4);
        assert_eq!(
            ArrivalProcess::OnOff {
                rate: 1.0,
                on: 1,
                off: 3
            }
            .mean_rate(),
            0.25
        );
        assert_eq!(ArrivalProcess::Adversarial { rate: 0.9 }.mean_rate(), 0.9);
    }

    #[test]
    fn generated_at_matches_step() {
        let mut src = OpenLoopSource::new(
            topology::clique(4),
            WorkloadSpec::batch_uniform(4, 2),
            ArrivalProcess::Adversarial { rate: 1.0 },
            5,
        );
        for t in 0..20 {
            let mut out = Vec::new();
            src.arrivals_into(t, &mut out);
            assert!(out.iter().all(|x| x.generated_at == t));
        }
    }
}
