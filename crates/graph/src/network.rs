//! [`Network`]: a communication graph together with a distance and routing
//! oracle. This is the object schedulers and the simulator query.
//!
//! The oracle is tiered by graph size, most exact tier first:
//!
//! 1. **Structured** — closed-form answers for the paper's named
//!    topologies ([`crate::structured`]), any size.
//! 2. **Lazy trees** (`n ≤ 4096`) — one exact Dijkstra shortest-path tree
//!    per *target* node, computed once on first use and then read without
//!    a lock (routing in the data-flow model is always "toward the next
//!    requesting transaction", so trees are naturally keyed by
//!    destination).
//! 3. **Landmark** (`n > 4096`) — the approximate
//!    [`crate::oracle::LandmarkOracle`]: distances become deterministic
//!    upper bounds with additive stretch `≤ 2R`, and routing follows
//!    landmark trees with memoized paths. This is the tier that carries
//!    10⁵–10⁶-node networks.
//!
//! Tiers 1–2 agree exactly (tie-breaking included); the property tests in
//! this module and in `oracle` pin both that equivalence and the landmark
//! tier's stretch bound.

use crate::graph::{Graph, NodeId, Weight};
use crate::oracle::LandmarkOracle;
use crate::shortest_paths::ShortestPathTree;
use crate::structured::Structured;
use std::sync::{Arc, OnceLock};

/// Largest unstructured graph served by exact per-target shortest-path
/// trees; beyond this the landmark oracle takes over (a full tree cache
/// would cost `O(n)` memory *per routing target*).
const LAZY_LIMIT: usize = 4096;

/// A communication graph with a distance / routing oracle.
///
/// Cheap to clone (`Arc` internals); safe to share across threads.
#[derive(Clone)]
pub struct Network {
    inner: Arc<Inner>,
}

struct Inner {
    graph: Graph,
    structured: Option<Structured>,
    /// Shortest-path trees indexed by *target* node, each computed on
    /// first use. One slot per node on the lazy-tree tier, empty on the
    /// structured and landmark tiers — so non-empty *is* the tier test.
    trees: Box<[OnceLock<ShortestPathTree>]>,
    /// Landmark oracle, built on first use; only the landmark tier
    /// (unstructured graphs above [`LAZY_LIMIT`]) ever asks for it.
    landmark: OnceLock<LandmarkOracle>,
    diameter: OnceLock<Weight>,
}

impl Network {
    /// Wrap a validated graph. `structured` supplies closed-form answers and
    /// must describe the same graph (verified by the topology tests).
    ///
    /// # Panics
    /// Panics if the graph is empty or disconnected, or if `structured`
    /// disagrees with the graph's node count.
    pub fn new(graph: Graph, structured: Option<Structured>) -> Self {
        graph
            .validate()
            .unwrap_or_else(|e| panic!("invalid network graph {}: {e}", graph.name()));
        if let Some(s) = &structured {
            assert_eq!(
                s.n(),
                graph.n(),
                "structured oracle node count mismatch for {}",
                graph.name()
            );
        }
        let tree_slots = match structured {
            None if graph.n() <= LAZY_LIMIT => graph.n(),
            _ => 0,
        };
        Network {
            inner: Arc::new(Inner {
                graph,
                structured,
                trees: (0..tree_slots).map(|_| OnceLock::new()).collect(),
                landmark: OnceLock::new(),
                diameter: OnceLock::new(),
            }),
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.inner.graph
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.inner.graph.n()
    }

    /// Name of the topology instance.
    pub fn name(&self) -> &str {
        self.inner.graph.name()
    }

    /// The closed-form oracle, if this network is a structured topology.
    pub fn structured(&self) -> Option<&Structured> {
        self.inner.structured.as_ref()
    }

    /// Shortest-path distance between two nodes. Exact on the structured
    /// and lazy-tree tiers; on the landmark tier a deterministic
    /// upper bound within additive `2R` of the metric (see
    /// [`crate::oracle`]).
    // dtm-lint: hot-path
    pub fn distance(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            return 0;
        }
        if let Some(s) = &self.inner.structured {
            return s.dist(u, v);
        }
        if !self.inner.trees.is_empty() {
            return self.tree(v).dist(u);
        }
        self.landmark().distance(u, v)
    }

    /// First hop from `from` on a shortest path toward `target` (on the
    /// landmark tier: on the oracle's routed path, whose total cost never
    /// exceeds [`Network::distance`]).
    ///
    /// # Panics
    /// Panics if `from == target`.
    // dtm-lint: hot-path
    pub fn next_hop(&self, from: NodeId, target: NodeId) -> NodeId {
        assert_ne!(from, target, "next_hop requires distinct endpoints");
        if let Some(s) = &self.inner.structured {
            return s.next_hop(from, target);
        }
        if !self.inner.trees.is_empty() {
            return self
                .tree(target)
                .next_hop(from)
                .expect("connected graph: every node routes to every target"); // dtm-lint: allow(C1) -- Network::new rejects disconnected graphs, so every tree reaches every node
        }
        self.landmark().next_hop(from, target)
    }

    /// First hop from `from` toward `target` together with that edge's
    /// weight — the forward phase's per-departure query, answered in one
    /// oracle probe. On any shortest-path hop the edge weight equals the
    /// distance drop `dist(from, target) - dist(next, target)`, so no
    /// scan of the CSR edge row is needed.
    ///
    /// # Panics
    /// Panics if `from == target`.
    // dtm-lint: hot-path
    pub fn hop_toward(&self, from: NodeId, target: NodeId) -> (NodeId, Weight) {
        assert_ne!(from, target, "hop_toward requires distinct endpoints");
        let (next, w) = if let Some(s) = &self.inner.structured {
            let next = s.next_hop(from, target);
            (next, s.edge_weight(from, next))
        } else if !self.inner.trees.is_empty() {
            let tree = self.tree(target);
            let next = tree
                .next_hop(from)
                .expect("connected graph: every node routes to every target"); // dtm-lint: allow(C1) -- Network::new rejects disconnected graphs, so every tree reaches every node
            (next, tree.dist(from) - tree.dist(next))
        } else {
            // Landmark distances are estimates, so the distance-drop trick
            // does not apply; hops are tree edges, read the weight directly.
            let next = self.landmark().next_hop(from, target);
            let w = self
                .inner
                .graph
                .edge_weight(from, next)
                .expect("landmark-routed hops follow graph edges"); // dtm-lint: allow(C1) -- oracle paths walk shortest-path-tree edges, which are graph edges by construction
            (next, w)
        };
        debug_assert_eq!(
            Some(w),
            self.inner.graph.edge_weight(from, next),
            "distance drop along a shortest-path hop is the edge weight"
        );
        (next, w)
    }

    /// Full shortest path from `u` to `v` (inclusive endpoints).
    pub fn path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            cur = self.next_hop(cur, v);
            path.push(cur);
        }
        path
    }

    /// Graph diameter `D` (cached after first computation). Exact on
    /// structured and exact-tier networks; on the landmark tier a
    /// deterministic upper bound that also dominates every reported
    /// distance (all consumers — bucket levels, cover depth, adaptive
    /// horizons — only require an upper bound).
    pub fn diameter(&self) -> Weight {
        *self.inner.diameter.get_or_init(|| {
            if let Some(s) = &self.inner.structured {
                s.diameter()
            } else if !self.inner.trees.is_empty() {
                crate::shortest_paths::diameter(&self.inner.graph)
            } else {
                self.landmark().diameter_bound()
            }
        })
    }

    /// The quantity `n * D` that bounds the worst sequential schedule
    /// (Lemma 3); bucket levels range up to `log2(n*D) + 1`.
    pub fn nd_product(&self) -> u64 {
        (self.n() as u64).saturating_mul(self.diameter().max(1))
    }

    /// Maximum bucket level `log2(n*D) + 1` from Lemma 3.
    pub fn max_bucket_level(&self) -> u32 {
        let nd = self.nd_product().max(1);
        // ceil(log2(nd)) + 1.
        let ceil_log = 64 - (nd - 1).leading_zeros();
        ceil_log + 1
    }

    /// Which tier answers this network's distance/next-hop queries:
    /// `"structured"` (closed-form), `"lazy-tree"` (on-demand
    /// shortest-path trees) or `"landmark"` (approximate oracle). Purely a
    /// function of the construction parameters — nothing is built to
    /// answer this.
    pub fn routing_tier(&self) -> &'static str {
        if self.inner.structured.is_some() {
            "structured"
        } else if !self.inner.trees.is_empty() {
            "lazy-tree"
        } else {
            "landmark"
        }
    }

    /// Additive slack of reported distances over true shortest-path
    /// distances: `0` on the exact tiers, `2R` (twice the landmark
    /// covering radius) on the landmark tier. Forces the oracle build on
    /// first call for landmark-tier networks.
    pub fn distance_slack(&self) -> Weight {
        if self.routing_tier() == "landmark" {
            self.landmark().stretch_radius().saturating_mul(2)
        } else {
            0
        }
    }

    /// The landmark oracle, built on first use. Callers are on the
    /// landmark tier: unstructured, with no tree slots.
    fn landmark(&self) -> &LandmarkOracle {
        self.inner
            .landmark
            .get_or_init(|| LandmarkOracle::build(&self.inner.graph))
    }

    /// Shortest-path tree toward `target`, computed on first use and read
    /// lock-free afterwards.
    fn tree(&self, target: NodeId) -> &ShortestPathTree {
        self.inner.trees[target.index()]
            .get_or_init(|| ShortestPathTree::compute(&self.inner.graph, target))
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name())
            .field("n", &self.n())
            .field("structured", &self.inner.structured.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn weighted_path() -> Network {
        let mut g = Graph::new(4, "wpath");
        g.add_edge(NodeId(0), NodeId(1), 2).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 3).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 4).unwrap();
        Network::new(g, None)
    }

    #[test]
    fn distances_via_dijkstra() {
        let net = weighted_path();
        assert_eq!(net.distance(NodeId(0), NodeId(3)), 9);
        assert_eq!(net.distance(NodeId(3), NodeId(0)), 9);
        assert_eq!(net.distance(NodeId(1), NodeId(1)), 0);
    }

    #[test]
    fn path_extraction() {
        let net = weighted_path();
        assert_eq!(
            net.path(NodeId(0), NodeId(3)),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(net.path(NodeId(2), NodeId(2)), vec![NodeId(2)]);
    }

    #[test]
    fn diameter_cached() {
        let net = weighted_path();
        assert_eq!(net.diameter(), 9);
        assert_eq!(net.diameter(), 9);
    }

    #[test]
    fn structured_oracle_used() {
        let mut g = Graph::new(4, "clique4");
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                g.add_edge(NodeId(u), NodeId(v), 1).unwrap();
            }
        }
        let net = Network::new(g, Some(Structured::Clique { n: 4 }));
        assert_eq!(net.distance(NodeId(0), NodeId(3)), 1);
        assert_eq!(net.next_hop(NodeId(0), NodeId(3)), NodeId(3));
        assert_eq!(net.diameter(), 1);
    }

    #[test]
    fn max_bucket_level_formula() {
        // n=4, D=9 -> nD=36, ceil(log2 36)=6, +1 = 7.
        let net = weighted_path();
        assert_eq!(net.nd_product(), 36);
        assert_eq!(net.max_bucket_level(), 7);
    }

    #[test]
    #[should_panic(expected = "invalid network graph")]
    fn rejects_disconnected() {
        let mut g = Graph::new(3, "bad");
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        let _ = Network::new(g, None);
    }

    #[test]
    fn lazy_trees_match_fresh_reference_trees() {
        // Random weighted graphs below and above 256 nodes: every
        // distance/next_hop/hop_toward answer must equal a freshly
        // computed per-target tree's, tie-breaks included.
        for (n, seed) in [(24, 42), (300, 7)] {
            let net = crate::topology::random(n, 3, 5, seed);
            assert_eq!(net.routing_tier(), "lazy-tree");
            for t in (0..n).map(NodeId) {
                let tree = ShortestPathTree::compute(net.graph(), t);
                for u in (0..n).map(NodeId) {
                    assert_eq!(net.distance(u, t), tree.dist(u));
                    if u != t {
                        let next = tree.next_hop(u).unwrap();
                        assert_eq!(net.next_hop(u, t), next);
                        assert_eq!(net.hop_toward(u, t), (next, tree.dist(u) - tree.dist(next)));
                    }
                }
            }
        }
    }

    #[test]
    fn hop_toward_matches_next_hop_and_edge_weight() {
        // Structured closed forms (hypercube, cluster) and lazy trees
        // (random graph, long weighted path).
        let nets = [
            crate::topology::hypercube(4),
            // Cluster exercises the one non-unit edge weight (γ bridges).
            crate::topology::cluster(4, 5, 9),
            crate::topology::random(24, 3, 5, 7),
            {
                let mut g = Graph::new(257, "bigpath");
                for u in 0..256u32 {
                    g.add_edge(NodeId(u), NodeId(u + 1), 1 + u as u64 % 3)
                        .unwrap();
                }
                Network::new(g, None)
            },
        ];
        for net in &nets {
            let n = net.n() as u32;
            for u in (0..n).step_by(5) {
                for v in (0..n).step_by(7) {
                    if u == v {
                        continue;
                    }
                    let (next, w) = net.hop_toward(NodeId(u), NodeId(v));
                    assert_eq!(next, net.next_hop(NodeId(u), NodeId(v)));
                    assert_eq!(Some(w), net.graph().edge_weight(NodeId(u), next));
                }
            }
        }
    }

    #[test]
    fn landmark_tier_activates_above_lazy_limit() {
        use crate::graph::GraphBuilder;
        let n = LAZY_LIMIT + 104;
        let mut b = GraphBuilder::new(n, "longpath");
        for u in 0..(n - 1) as u32 {
            b.add_edge(NodeId(u), NodeId(u + 1), 1 + u as u64 % 3)
                .unwrap();
        }
        let net = Network::new(b.build(), None);
        assert_eq!(net.routing_tier(), "landmark");
        // On a path the true metric is the prefix-weight difference; the
        // oracle must upper-bound it within additive 2R, stay symmetric,
        // and route at a total cost within its own promise.
        let prefix: Vec<Weight> = {
            let mut p = vec![0];
            for u in 0..(n - 1) as u32 {
                let w = net.graph().edge_weight(NodeId(u), NodeId(u + 1)).unwrap();
                p.push(p[u as usize] + w);
            }
            p
        };
        let r2 = 2 * net.landmark().stretch_radius();
        for (u, v) in [(0u32, 17u32), (4_000, 13), (900, 901), (2_048, 4_100)] {
            let truth = prefix[u.max(v) as usize] - prefix[u.min(v) as usize];
            let est = net.distance(NodeId(u), NodeId(v));
            assert!(est >= truth && est <= truth + r2, "stretch bound");
            assert_eq!(est, net.distance(NodeId(v), NodeId(u)), "symmetry");
            let (mut cur, mut cost, mut hops) = (NodeId(u), 0, 0usize);
            while cur != NodeId(v) {
                let (next, w) = net.hop_toward(cur, NodeId(v));
                assert_eq!(Some(w), net.graph().edge_weight(cur, next));
                cost += w;
                cur = next;
                hops += 1;
                assert!(hops <= n, "routing must terminate");
            }
            assert!(cost <= est, "routed cost must not exceed the promise");
            assert!(net.diameter() >= est, "diameter bound dominates");
        }
    }

    #[test]
    fn concurrent_tree_cache() {
        let net = weighted_path();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let net = net.clone();
                s.spawn(move || {
                    for t in 0..4u32 {
                        for u in 0..4u32 {
                            let _ = net.distance(NodeId(u), NodeId(t));
                        }
                    }
                });
            }
        });
        assert_eq!(net.distance(NodeId(0), NodeId(3)), 9);
    }
}

#[cfg(test)]
mod metric_tests {
    use super::*;
    use crate::topology;
    use proptest::prelude::*;

    proptest! {
        /// The distance oracle is a metric: symmetric, zero iff equal,
        /// triangle inequality — on weighted random graphs (Dijkstra path)
        /// and structured topologies (closed forms).
        #[test]
        fn distance_is_a_metric(seed in 0u64..60, topo in 0u8..4) {
            let net = match topo {
                0 => topology::random(18, 3, 5, seed),
                1 => topology::cluster(3, 3, 4),
                2 => topology::torus(&[4, 4]),
                _ => topology::star(3, 4),
            };
            let n = net.n() as u32;
            for u in 0..n {
                for v in 0..n {
                    let duv = net.distance(NodeId(u), NodeId(v));
                    prop_assert_eq!(duv, net.distance(NodeId(v), NodeId(u)));
                    prop_assert_eq!(duv == 0, u == v);
                    for w in (0..n).step_by(3) {
                        let duw = net.distance(NodeId(u), NodeId(w));
                        let dwv = net.distance(NodeId(w), NodeId(v));
                        prop_assert!(duv <= duw + dwv, "triangle violated");
                    }
                }
            }
        }

        /// Following next_hop from u to v costs exactly distance(u, v).
        #[test]
        fn routing_realizes_distances(seed in 0u64..60) {
            let net = topology::random(16, 3, 4, seed);
            let n = net.n() as u32;
            for u in 0..n {
                for v in 0..n {
                    if u == v { continue; }
                    let path = net.path(NodeId(u), NodeId(v));
                    let cost: Weight = path
                        .windows(2)
                        .map(|p| net.graph().edge_weight(p[0], p[1]).expect("edge"))
                        .sum();
                    prop_assert_eq!(cost, net.distance(NodeId(u), NodeId(v)));
                }
            }
        }
    }
}
