//! [`Network`]: a communication graph together with a distance and routing
//! oracle. This is the object schedulers and the simulator query.
//!
//! The oracle is tiered by graph size, most exact tier first:
//!
//! 1. **Structured** — closed-form answers for the paper's named
//!    topologies ([`crate::structured`]), any size.
//! 2. **Dense** (`n ≤ 256`) — an `n × n` all-pairs table built from
//!    per-target Dijkstra trees, so the hot `distance` / `next_hop` calls
//!    are two flat array reads. Byte-identical to the lazy tier.
//! 3. **Lazy trees** (`n ≤ 4096`) — one exact Dijkstra shortest-path tree
//!    per *target* node, computed on first use (routing in the data-flow
//!    model is always "toward the next requesting transaction", so trees
//!    are naturally keyed by destination).
//! 4. **Landmark** (`n > 4096`) — the approximate
//!    [`crate::oracle::LandmarkOracle`]: distances become deterministic
//!    upper bounds with additive stretch `≤ 2R`, and routing follows
//!    landmark trees with memoized paths. This is the tier that carries
//!    10⁵–10⁶-node networks.
//!
//! Tiers 1–3 agree exactly (tie-breaking included); the property tests in
//! this module and in `oracle` pin both that equivalence and the landmark
//! tier's stretch bound.

use crate::graph::{Graph, NodeId, Weight};
use crate::oracle::LandmarkOracle;
use crate::shortest_paths::ShortestPathTree;
use crate::structured::Structured;
use parking_lot::RwLock;
use std::sync::{Arc, OnceLock};

/// Largest unstructured graph for which the dense all-pairs fast path is
/// materialized (`n²` table entries; 256² × 12 bytes ≈ 0.8 MB).
const DENSE_LIMIT: usize = 256;

/// Largest unstructured graph served by exact per-target shortest-path
/// trees; beyond this the landmark oracle takes over (a full tree cache
/// would cost `O(n)` memory *per routing target*).
const LAZY_LIMIT: usize = 4096;

/// Dense all-pairs routing table, row-major by *target* node:
/// `dist[target.index() * n + from.index()]`. Built from the same
/// per-target [`ShortestPathTree`]s the lazy cache would compute, so its
/// answers (including tie-breaking) are identical by construction.
struct DenseRouting {
    n: usize,
    dist: Vec<Weight>,
    /// First hop from `from` toward `target`; `u32::MAX` on the diagonal.
    next: Vec<u32>,
}

impl DenseRouting {
    fn build(graph: &Graph) -> Self {
        let n = graph.n();
        let mut dist = vec![0; n * n];
        let mut next = vec![u32::MAX; n * n];
        for target in graph.nodes() {
            let tree = ShortestPathTree::compute(graph, target);
            let row = target.index() * n;
            for from in graph.nodes() {
                dist[row + from.index()] = tree.dist(from);
                next[row + from.index()] = tree.next_hop(from).map_or(u32::MAX, |p| p.0);
            }
        }
        DenseRouting { n, dist, next }
    }
}

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
    /// Lazily computed shortest-path trees, indexed by *target* node.
    trees: RwLock<Vec<Option<Arc<ShortestPathTree>>>>,
    /// Dense all-pairs fast path; `None` inside once initialized means
    /// "not applicable" (structured oracle present, or graph too large).
    dense: OnceLock<Option<DenseRouting>>,
    /// Landmark tier for graphs above [`LAZY_LIMIT`]; `None` inside once
    /// initialized means "not applicable" (exact tier in charge).
    landmark: OnceLock<Option<LandmarkOracle>>,
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
        let n = graph.n();
        // The per-target tree cache only serves tier 3; don't reserve a
        // slot per node on structured or landmark-scale networks.
        let tree_slots = if structured.is_some() || n > LAZY_LIMIT {
            0
        } else {
            n
        };
        Network {
            inner: Arc::new(Inner {
                graph,
                structured,
                trees: RwLock::new(vec![None; tree_slots]),
                dense: OnceLock::new(),
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

    /// Shortest-path distance between two nodes. Exact on structured,
    /// dense and lazy-tree tiers; on the landmark tier a deterministic
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
        if let Some(d) = self.dense() {
            return d.dist[v.index() * d.n + u.index()];
        }
        if let Some(lm) = self.landmark() {
            return lm.distance(u, v);
        }
        self.tree(v).dist(u)
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
        if let Some(d) = self.dense() {
            let hop = d.next[target.index() * d.n + from.index()];
            debug_assert_ne!(hop, u32::MAX, "connected graph routes everywhere");
            return NodeId(hop);
        }
        if let Some(lm) = self.landmark() {
            return lm.next_hop(from, target);
        }
        self.tree(target)
            .next_hop(from)
            .expect("connected graph: every node routes to every target") // dtm-lint: allow(C1) -- Network::new rejects disconnected graphs, so every tree reaches every node
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
        } else if let Some(d) = self.dense() {
            let row = target.index() * d.n;
            let hop = d.next[row + from.index()];
            debug_assert_ne!(hop, u32::MAX, "connected graph routes everywhere");
            (
                NodeId(hop),
                d.dist[row + from.index()] - d.dist[row + hop as usize],
            )
        } else if let Some(lm) = self.landmark() {
            // Landmark distances are estimates, so the distance-drop trick
            // does not apply; hops are tree edges, read the weight directly.
            let next = lm.next_hop(from, target);
            let w = self
                .inner
                .graph
                .edge_weight(from, next)
                .expect("landmark-routed hops follow graph edges"); // dtm-lint: allow(C1) -- oracle paths walk shortest-path-tree edges, which are graph edges by construction
            (next, w)
        } else {
            let tree = self.tree(target);
            let next = tree
                .next_hop(from)
                .expect("connected graph: every node routes to every target"); // dtm-lint: allow(C1) -- Network::new rejects disconnected graphs, so every tree reaches every node
            (next, tree.dist(from) - tree.dist(next))
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
            } else if let Some(lm) = self.landmark() {
                lm.diameter_bound()
            } else {
                crate::shortest_paths::diameter(&self.inner.graph)
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
    /// `"structured"` (closed-form), `"dense"` (all-pairs table),
    /// `"landmark"` (approximate oracle) or `"lazy-tree"` (on-demand
    /// shortest-path trees). Purely a function of the construction
    /// parameters — nothing is built to answer this.
    pub fn routing_tier(&self) -> &'static str {
        if self.inner.structured.is_some() {
            "structured"
        } else if self.inner.graph.n() <= DENSE_LIMIT {
            "dense"
        } else if self.inner.graph.n() > LAZY_LIMIT {
            "landmark"
        } else {
            "lazy-tree"
        }
    }

    /// Additive slack of reported distances over true shortest-path
    /// distances: `0` on the exact tiers, `2R` (twice the landmark
    /// covering radius) on the landmark tier. Forces the oracle build on
    /// first call for landmark-tier networks.
    pub fn distance_slack(&self) -> Weight {
        match self.landmark() {
            Some(lm) => lm.stretch_radius().saturating_mul(2),
            None => 0,
        }
    }

    /// The dense all-pairs table, built on first use for unstructured
    /// graphs with at most [`DENSE_LIMIT`] nodes; `None` otherwise.
    fn dense(&self) -> Option<&DenseRouting> {
        self.inner
            .dense
            .get_or_init(|| {
                (self.inner.structured.is_none() && self.inner.graph.n() <= DENSE_LIMIT)
                    .then(|| DenseRouting::build(&self.inner.graph))
            })
            .as_ref()
    }

    /// The landmark oracle, built on first use for unstructured graphs
    /// above [`LAZY_LIMIT`] nodes; `None` otherwise.
    fn landmark(&self) -> Option<&LandmarkOracle> {
        self.inner
            .landmark
            .get_or_init(|| {
                (self.inner.structured.is_none() && self.inner.graph.n() > LAZY_LIMIT)
                    .then(|| LandmarkOracle::build(&self.inner.graph))
            })
            .as_ref()
    }

    /// Shortest-path tree toward `target`, computing and caching on demand.
    fn tree(&self, target: NodeId) -> Arc<ShortestPathTree> {
        if let Some(t) = &self.inner.trees.read()[target.index()] {
            return Arc::clone(t);
        }
        let tree = Arc::new(ShortestPathTree::compute(&self.inner.graph, target));
        let mut guard = self.inner.trees.write();
        // A racing writer may have filled the slot; keep the first value.
        Arc::clone(guard[target.index()].get_or_insert(tree))
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
    fn dense_fast_path_matches_trees() {
        // Random weighted graph small enough for the dense table: every
        // distance/next_hop answer must equal the per-target tree's.
        let net = crate::topology::random(24, 3, 5, 42);
        assert!(net.dense().is_some(), "small unstructured graph is dense");
        for t in 0..24u32 {
            let tree = ShortestPathTree::compute(net.graph(), NodeId(t));
            for u in 0..24u32 {
                assert_eq!(net.distance(NodeId(u), NodeId(t)), tree.dist(NodeId(u)));
                if u != t {
                    assert_eq!(
                        net.next_hop(NodeId(u), NodeId(t)),
                        tree.next_hop(NodeId(u)).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn dense_fast_path_gating() {
        // Structured topologies answer via closed forms: no dense table.
        let net = crate::topology::hypercube(4);
        let _ = net.distance(NodeId(0), NodeId(5));
        assert!(net.dense().is_none());
        // Graphs above the size limit fall back to the lazy tree cache.
        let mut g = Graph::new(DENSE_LIMIT + 1, "bigpath");
        for u in 0..DENSE_LIMIT as u32 {
            g.add_edge(NodeId(u), NodeId(u + 1), 1).unwrap();
        }
        let net = Network::new(g, None);
        assert_eq!(net.distance(NodeId(0), NodeId(10)), 10);
        assert!(net.dense().is_none());
    }

    #[test]
    fn hop_toward_matches_next_hop_and_edge_weight() {
        // All three oracle backends: structured (hypercube), dense table
        // (small unstructured), lazy trees (above the dense limit).
        let nets = [
            crate::topology::hypercube(4),
            // Cluster exercises the one non-unit edge weight (γ bridges).
            crate::topology::cluster(4, 5, 9),
            crate::topology::random(24, 3, 5, 7),
            {
                let mut g = Graph::new(DENSE_LIMIT + 1, "bigpath");
                for u in 0..DENSE_LIMIT as u32 {
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
        assert!(net.dense().is_none());
        assert!(net.landmark().is_some(), "big graph uses the landmark tier");
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
        let r2 = 2 * net.landmark().unwrap().stretch_radius();
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
