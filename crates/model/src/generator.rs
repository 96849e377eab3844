//! Seeded random workload generators.
//!
//! The paper's scheduling problems are parameterized by `w` objects, up to
//! one live transaction per node, and up to `k` objects per transaction
//! (Sections III-C and IV-D). Generators here produce both batch instances
//! (all transactions at time 0) and online arrival streams, with several
//! object-popularity distributions to exercise contention regimes.

use crate::ids::{ObjectId, Time, TxnId};
use crate::instance::{Instance, ObjectInfo};
use crate::txn::Transaction;
use dtm_graph::{Network, NodeId, Weight};
use rand::distributions::Bernoulli;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How a transaction picks the objects it requests.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ObjectChoice {
    /// Uniformly random distinct objects.
    Uniform,
    /// Zipf-distributed popularity with the given exponent (`s > 0`);
    /// object 0 is the most popular. Models skewed contention.
    Zipf {
        /// Zipf exponent (1.0 = classic).
        exponent: f64,
    },
    /// With probability `hot_prob` pick among the first `hot_objects`
    /// objects, otherwise among the rest. An adversarial contention knob.
    Hotspot {
        /// Number of hot objects.
        hot_objects: u32,
        /// Probability of touching the hot set per pick.
        hot_prob: f64,
    },
    /// Prefer objects whose origin lies within `radius` of the requesting
    /// transaction's home (locality-heavy workloads, e.g. NoC traffic):
    /// each pick is uniform over the local objects in id order, or over
    /// all objects when none is local; when fewer than `k` are local the
    /// rejection loop gives up and fills the rest uniformly. A pick costs
    /// O(w) distance queries (a count of the local objects, then a scan up
    /// to the chosen one) and allocates nothing.
    Neighborhood {
        /// Locality radius in graph distance.
        radius: Weight,
    },
}

/// When transactions arrive.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FiniteArrivals {
    /// All transactions at time 0, one per node (the offline batch setting
    /// of SPAA'17 / Section IV-D).
    Batch,
    /// Each node independently generates a transaction with probability
    /// `rate` at every step of `0..horizon` (Bernoulli approximation of
    /// per-node Poisson arrivals).
    Bernoulli {
        /// Per-node per-step arrival probability.
        rate: f64,
        /// Number of time steps to generate arrivals for.
        horizon: Time,
    },
    /// `per_burst` transactions at random homes every `period` steps, for
    /// `bursts` bursts (stress-tests bucket activation alignment).
    Bursts {
        /// Steps between bursts.
        period: Time,
        /// Transactions per burst.
        per_burst: u32,
        /// Number of bursts.
        bursts: u32,
    },
}

/// Full workload specification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of shared objects (`w`).
    pub num_objects: u32,
    /// Objects per transaction (`k`), clamped to `num_objects`.
    pub k: usize,
    /// Object popularity distribution.
    pub object_choice: ObjectChoice,
    /// Arrival process.
    pub arrival: FiniteArrivals,
}

impl WorkloadSpec {
    /// A uniform batch spec: `w` objects, `k` per transaction.
    pub fn batch_uniform(num_objects: u32, k: usize) -> Self {
        WorkloadSpec {
            num_objects,
            k,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Batch,
        }
    }

    /// Sample a distinct object set of size `min(k, w)` for a transaction
    /// at `home` according to the popularity distribution.
    pub fn sample_object_set(
        &self,
        rng: &mut ChaCha8Rng,
        objects: &[ObjectInfo],
        home: NodeId,
        network: &Network,
    ) -> Vec<ObjectId> {
        let w = objects.len();
        let k = self.k.min(w);
        if k == 0 {
            return Vec::new();
        }
        let mut picked: Vec<ObjectId> = Vec::with_capacity(k);
        let mut attempts = 0usize;
        let max_attempts = 64 * k + 64;
        while picked.len() < k && attempts < max_attempts {
            attempts += 1;
            let candidate = self.sample_one(rng, objects, home, network);
            if !picked.contains(&candidate) {
                picked.push(candidate);
            }
        }
        // Rejection took too long (tiny hot sets): fill with uniform
        // distinct leftovers so the transaction still has k objects.
        if picked.len() < k {
            let mut rest: Vec<ObjectId> = objects
                .iter()
                .map(|o| o.id)
                .filter(|id| !picked.contains(id))
                .collect();
            rest.shuffle(rng);
            picked.extend(rest.into_iter().take(k - picked.len()));
        }
        picked.sort_unstable();
        picked
    }

    fn sample_one(
        &self,
        rng: &mut ChaCha8Rng,
        objects: &[ObjectInfo],
        home: NodeId,
        network: &Network,
    ) -> ObjectId {
        let w = objects.len();
        match &self.object_choice {
            ObjectChoice::Uniform => objects[rng.gen_range(0..w)].id,
            ObjectChoice::Zipf { exponent } => {
                // Inverse-CDF over unnormalized weights 1/(r+1)^s.
                let total: f64 = (0..w).map(|r| 1.0 / ((r + 1) as f64).powf(*exponent)).sum();
                let mut x = rng.gen_range(0.0..total);
                for (r, obj) in objects.iter().enumerate() {
                    let wgt = 1.0 / ((r + 1) as f64).powf(*exponent);
                    if x < wgt {
                        return obj.id;
                    }
                    x -= wgt;
                }
                objects[w - 1].id
            }
            ObjectChoice::Hotspot {
                hot_objects,
                hot_prob,
            } => {
                let hot = (*hot_objects as usize).min(w).max(1);
                if rng.gen_bool((*hot_prob).clamp(0.0, 1.0)) || hot == w {
                    objects[rng.gen_range(0..hot)].id
                } else {
                    objects[rng.gen_range(hot..w)].id
                }
            }
            ObjectChoice::Neighborhood { radius } => {
                // Count the local objects, then scan to the i-th: the same
                // rng draw as indexing a collected list, with no list.
                let to_home = network.distances_to(home);
                let local: usize = objects
                    .iter()
                    .map(|o| usize::from(to_home(o.origin) <= *radius))
                    .sum();
                if local == 0 {
                    return objects[rng.gen_range(0..w)].id;
                }
                let i = rng.gen_range(0..local);
                objects
                    .iter()
                    .filter(|o| to_home(o.origin) <= *radius)
                    .nth(i)
                    // dtm-lint: allow(C1) -- i < local, the number of objects the filter passes
                    .expect("i-th local object exists")
                    .id
            }
        }
    }
}

/// Seeded generator turning a [`WorkloadSpec`] into an [`Instance`].
#[derive(Debug)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    rng: ChaCha8Rng,
    next_txn: u64,
}

impl WorkloadGenerator {
    /// Create a generator; identical `(spec, seed)` yields identical
    /// workloads.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        WorkloadGenerator {
            spec,
            rng: ChaCha8Rng::seed_from_u64(seed),
            next_txn: 0,
        }
    }

    /// The spec this generator uses.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Place the spec's objects uniformly at random on the network, all
    /// created at time 0.
    pub fn place_objects(&mut self, network: &Network) -> Vec<ObjectInfo> {
        let n = network.n() as u32;
        (0..self.spec.num_objects)
            .map(|i| ObjectInfo {
                id: ObjectId(i),
                origin: NodeId(self.rng.gen_range(0..n)),
                created_at: 0,
            })
            .collect()
    }

    /// Generate one transaction at `home`, time `t`, drawing an object set
    /// from the spec's distribution.
    pub fn gen_txn(
        &mut self,
        home: NodeId,
        t: Time,
        objects: &[ObjectInfo],
        network: &Network,
    ) -> Transaction {
        let objs = self
            .spec
            .sample_object_set(&mut self.rng, objects, home, network);
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        Transaction::new(id, home, objs, t)
    }

    /// Generate a full instance according to the spec's arrival process.
    ///
    /// # Panics
    /// Panics if a [`FiniteArrivals::Bernoulli`] rate is NaN.
    pub fn generate(&mut self, network: &Network) -> Instance {
        let objects = self.place_objects(network);
        let n = network.n();
        let mut txns = Vec::new();
        match self.spec.arrival.clone() {
            FiniteArrivals::Batch => {
                for v in 0..n {
                    let t = self.gen_txn(NodeId::from_index(v), 0, &objects, network);
                    txns.push(t);
                }
            }
            FiniteArrivals::Bernoulli { rate, horizon } => {
                // One draw per node per step; each hit's object draws
                // follow its own draw in the stream.
                let bernoulli = Bernoulli::new(rate.clamp(0.0, 1.0))
                    // dtm-lint: allow(C1) -- documented panic: the rate is clamped to [0, 1], so only NaN fails
                    .expect("arrival rate is a number");
                for step in 0..horizon {
                    let mut v = self.rng.bernoulli_run(bernoulli, n);
                    while v < n {
                        txns.push(self.gen_txn(NodeId::from_index(v), step, &objects, network));
                        v += 1 + self.rng.bernoulli_run(bernoulli, n - v - 1);
                    }
                }
            }
            FiniteArrivals::Bursts {
                period,
                per_burst,
                bursts,
            } => {
                for b in 0..bursts {
                    let t = b as Time * period.max(1);
                    for _ in 0..per_burst {
                        let home = NodeId(self.rng.gen_range(0..n as u32));
                        txns.push(self.gen_txn(home, t, &objects, network));
                    }
                }
            }
        }
        Instance::new(objects, txns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::topology;
    use rand::RngCore;

    fn gen(spec: WorkloadSpec, seed: u64) -> (Instance, Network) {
        let net = topology::grid(&[4, 4]);
        let mut g = WorkloadGenerator::new(spec, seed);
        let inst = g.generate(&net);
        inst.validate(&net).unwrap();
        (inst, net)
    }

    #[test]
    fn batch_one_txn_per_node() {
        let (inst, net) = gen(WorkloadSpec::batch_uniform(8, 3), 1);
        assert_eq!(inst.num_txns(), net.n());
        assert!(inst.is_batch());
        assert!(inst.txns.iter().all(|t| t.k() == 3));
        // All homes distinct.
        let mut homes: Vec<_> = inst.txns.iter().map(|t| t.home).collect();
        homes.sort();
        homes.dedup();
        assert_eq!(homes.len(), net.n());
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = gen(WorkloadSpec::batch_uniform(8, 2), 42);
        let (b, _) = gen(WorkloadSpec::batch_uniform(8, 2), 42);
        let (c, _) = gen(WorkloadSpec::batch_uniform(8, 2), 43);
        assert_eq!(a.txns, b.txns);
        assert_ne!(a.txns, c.txns);
    }

    #[test]
    fn k_clamped_to_num_objects() {
        let (inst, _) = gen(WorkloadSpec::batch_uniform(2, 5), 7);
        assert!(inst.txns.iter().all(|t| t.k() == 2));
    }

    #[test]
    fn zipf_skews_popularity() {
        let spec = WorkloadSpec {
            num_objects: 16,
            k: 1,
            object_choice: ObjectChoice::Zipf { exponent: 1.2 },
            arrival: FiniteArrivals::Batch,
        };
        let net = topology::clique(64);
        let mut g = WorkloadGenerator::new(spec, 5);
        let inst = g.generate(&net);
        let req = inst.requesters();
        let first = req.get(&ObjectId(0)).map_or(0, |v| v.len());
        let last = req.get(&ObjectId(15)).map_or(0, |v| v.len());
        assert!(
            first > last,
            "zipf should favor object 0 ({first} vs {last})"
        );
    }

    #[test]
    fn hotspot_concentrates() {
        let spec = WorkloadSpec {
            num_objects: 32,
            k: 2,
            object_choice: ObjectChoice::Hotspot {
                hot_objects: 2,
                hot_prob: 0.9,
            },
            arrival: FiniteArrivals::Batch,
        };
        let net = topology::clique(64);
        let mut g = WorkloadGenerator::new(spec, 6);
        let inst = g.generate(&net);
        let req = inst.requesters();
        let hot: usize = (0..2)
            .map(|i| req.get(&ObjectId(i)).map_or(0, |v| v.len()))
            .sum();
        let total: usize = req.values().map(|v| v.len()).sum();
        assert!(hot * 2 > total, "hot set should draw most requests");
    }

    #[test]
    fn neighborhood_prefers_local() {
        let spec = WorkloadSpec {
            num_objects: 32,
            k: 2,
            object_choice: ObjectChoice::Neighborhood { radius: 2 },
            arrival: FiniteArrivals::Batch,
        };
        let net = topology::line(32);
        let mut g = WorkloadGenerator::new(spec, 8);
        let inst = g.generate(&net);
        // Majority of accesses should be within radius 2 of home.
        let mut local = 0usize;
        let mut total = 0usize;
        for t in &inst.txns {
            for o in t.objects() {
                let origin = inst.object(o).unwrap().origin;
                total += 1;
                if net.distance(origin, t.home) <= 2 {
                    local += 1;
                }
            }
        }
        assert!(local * 2 >= total, "{local}/{total} local accesses");
    }

    #[test]
    fn bernoulli_arrivals_within_horizon() {
        let spec = WorkloadSpec {
            num_objects: 8,
            k: 2,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bernoulli {
                rate: 0.3,
                horizon: 20,
            },
        };
        let (inst, _) = gen(spec, 3);
        assert!(!inst.txns.is_empty());
        assert!(inst.horizon() < 20);
        assert!(!inst.is_batch() || inst.txns.iter().all(|t| t.generated_at == 0));
    }

    #[test]
    fn bursts_arrive_periodically() {
        let spec = WorkloadSpec {
            num_objects: 8,
            k: 1,
            object_choice: ObjectChoice::Uniform,
            arrival: FiniteArrivals::Bursts {
                period: 10,
                per_burst: 4,
                bursts: 3,
            },
        };
        let (inst, _) = gen(spec, 4);
        assert_eq!(inst.num_txns(), 12);
        let times: Vec<Time> = inst.txns.iter().map(|t| t.generated_at).collect();
        assert!(times.iter().all(|&t| t % 10 == 0 && t <= 20));
    }

    #[test]
    fn txn_ids_unique_across_calls() {
        let net = topology::line(8);
        let mut g = WorkloadGenerator::new(WorkloadSpec::batch_uniform(4, 1), 9);
        let a = g.generate(&net);
        let b = g.generate(&net);
        let mut ids: Vec<u64> = a.txns.iter().chain(b.txns.iter()).map(|t| t.id.0).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    /// The collect-and-index `Neighborhood` draw that count-and-select
    /// replaced: each attempt collects the local objects into a fresh
    /// `Vec` and indexes one entry.
    fn reference_object_set(
        spec: &WorkloadSpec,
        rng: &mut ChaCha8Rng,
        objects: &[ObjectInfo],
        home: NodeId,
        network: &Network,
    ) -> Vec<ObjectId> {
        let w = objects.len();
        let k = spec.k.min(w);
        if k == 0 {
            return Vec::new();
        }
        let ObjectChoice::Neighborhood { radius } = spec.object_choice else {
            unreachable!("the reference covers Neighborhood only")
        };
        let sample_one = |rng: &mut ChaCha8Rng| {
            let to_home = network.distances_to(home);
            let local: Vec<ObjectId> = objects
                .iter()
                .filter(|o| to_home(o.origin) <= radius)
                .map(|o| o.id)
                .collect();
            if local.is_empty() {
                objects[rng.gen_range(0..w)].id
            } else {
                local[rng.gen_range(0..local.len())]
            }
        };
        let mut picked: Vec<ObjectId> = Vec::with_capacity(k);
        let mut attempts = 0usize;
        while picked.len() < k && attempts < 64 * k + 64 {
            attempts += 1;
            let candidate = sample_one(rng);
            if !picked.contains(&candidate) {
                picked.push(candidate);
            }
        }
        if picked.len() < k {
            let mut rest: Vec<ObjectId> = objects
                .iter()
                .map(|o| o.id)
                .filter(|id| !picked.contains(id))
                .collect();
            rest.shuffle(rng);
            picked.extend(rest.into_iter().take(k - picked.len()));
        }
        picked.sort_unstable();
        picked
    }

    /// Draw object sets at `homes` random homes with `sample_object_set`
    /// and with the reference, from one seed; both must pick the same sets
    /// and leave the rng in the same state. Returns how many homes had no
    /// local object, and how many had some but fewer than `k`.
    fn assert_matches_reference(
        net: &Network,
        spec: &WorkloadSpec,
        homes: usize,
        seed: u64,
    ) -> (usize, usize) {
        let ObjectChoice::Neighborhood { radius } = spec.object_choice else {
            unreachable!("the reference covers Neighborhood only")
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = net.n() as u32;
        let objects: Vec<ObjectInfo> = (0..spec.num_objects)
            .map(|i| ObjectInfo {
                id: ObjectId(i),
                origin: NodeId(rng.gen_range(0..n)),
                created_at: 0,
            })
            .collect();
        let mut fast = rng.clone();
        let (mut none_local, mut few_local) = (0, 0);
        for _ in 0..homes {
            let home = NodeId(rng.gen_range(0..n));
            assert_eq!(NodeId(fast.gen_range(0..n)), home);
            let want = reference_object_set(spec, &mut rng, &objects, home, net);
            let got = spec.sample_object_set(&mut fast, &objects, home, net);
            assert_eq!(got, want, "home {home:?}, spec {spec:?}");
            let local = objects
                .iter()
                .filter(|o| net.distance(o.origin, home) <= radius)
                .count();
            none_local += usize::from(local == 0);
            few_local += usize::from(local > 0 && local < spec.k);
        }
        for _ in 0..8 {
            assert_eq!(fast.next_u64(), rng.next_u64(), "rng state diverged");
        }
        (none_local, few_local)
    }

    fn neighborhood(num_objects: u32, k: usize, radius: Weight) -> WorkloadSpec {
        WorkloadSpec {
            num_objects,
            k,
            object_choice: ObjectChoice::Neighborhood { radius },
            arrival: FiniteArrivals::Batch,
        }
    }

    #[test]
    fn neighborhood_draws_match_collect_and_index_on_landmark_tier() {
        let net = topology::geometric(5000, 4, 18);
        assert_eq!(net.routing_tier(), "landmark");
        let radius = 48 + net.distance_slack();
        for k in 1..=3 {
            let spec = neighborhood(1000, k, radius);
            let (none, few) = assert_matches_reference(&net, &spec, 60, k as u64);
            assert_eq!(
                (none, few),
                (0, 0),
                "radius {radius} should reach k objects"
            );
            // Radius 0: only objects on the home itself are local, so most
            // homes take the uniform fallback and, for k > 1, some run the
            // rejection loop out and shuffle the leftovers.
            let spec = neighborhood(1000, k, 0);
            let (none, few) = assert_matches_reference(&net, &spec, 400, 10 + k as u64);
            assert!(none > 0, "k={k}: no home without a local object");
            if k > 1 {
                assert!(few > 0, "k={k}: no home with fewer than k local objects");
            }
        }
    }

    #[test]
    fn neighborhood_draws_match_collect_and_index_on_lazy_tree_tier() {
        let net = topology::random(300, 3, 5, 7);
        assert_eq!(net.routing_tier(), "lazy-tree");
        for k in 1..=3 {
            for (radius, seed) in [(8, 20), (0, 30)] {
                assert_matches_reference(&net, &neighborhood(150, k, radius), 100, seed + k as u64);
            }
            // A radius where some homes see fewer than k local objects.
            let spec = neighborhood(100, k, 1);
            let (_, few) = assert_matches_reference(&net, &spec, 200, 50 + k as u64);
            if k > 1 {
                assert!(few > 0, "k={k}: no home with fewer than k local objects");
            }
        }
    }
}
