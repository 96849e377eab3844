//! Landmark (ALT-style) distance and routing oracle for large graphs.
//!
//! Above [`crate::network`]'s exact tiers, per-target Dijkstra trees stop
//! being affordable: a 10⁵-node network would pay `O(m log n)` per distinct
//! routing target and cache `O(n)` memory per tree. The landmark oracle
//! instead precomputes `k` shortest-path trees (k ≈ 16) rooted at
//! farthest-point-sampled landmarks and answers every query from those.
//!
//! ## Estimate
//!
//! Each node `v` is assigned a *home landmark* `H(v)` — its nearest
//! landmark, ties toward the smaller landmark index. The directed estimate
//! routes through the target's home landmark,
//!
//! ```text
//! est(u → v) = d(u, H(v)) + d(H(v), v)
//! ```
//!
//! and the reported distance is the symmetrized `max(est(u→v), est(v→u))`.
//! By the triangle inequality the estimate **upper-bounds** the true
//! distance, and `est(u→v) ≤ d(u,v) + 2·d(v,H(v))`, so the additive error
//! is at most `2R` where `R = max_v d(v, H(v))` is the covering radius of
//! the landmark set ([`LandmarkOracle::stretch_radius`], pinned by the
//! property tests). The upper-bound direction is a *hard requirement*: the
//! step kernel schedules a transaction's execution from the reported
//! distance and raises `MissedExecution` if the object physically arrives
//! later, so routing must never cost more than the oracle promised.
//!
//! ## Routing
//!
//! `next_hop(u, v)` walks the tree of `H(v)`: ascend from `u` toward the
//! landmark until reaching an ancestor of `v`, then descend to `v`. The
//! realized cost is `d(u,l) + d(l,v) − 2·d(a,l) ≤ est(u → v)` (where `a`
//! is the meeting ancestor), so the promise above holds. The rule is
//! *memoryless* — the hop out of `u` depends only on `(u, v)`, never on
//! where the object started — so each hop is answered from the tree
//! alone, with no per-pair state.
//!
//! Each tree is laid out in preorder: `tin[x]` is `x`'s preorder index
//! and `size[x]` its subtree size (stored side by side, so one read
//! fetches both), so `x`'s subtree occupies the preorder interval
//! `[tin[x], tin[x] + size[x])`, and `pre` maps an index back to its
//! node. `u` is an ancestor of `v` iff `tin[v]` lies in `u`'s interval.
//! If it does, the hop descends to the child whose interval holds
//! `tin[v]`: children's intervals tile `u`'s interval after `u` itself,
//! so the first child is `pre[tin[u] + 1]` and each next sibling starts
//! where the previous one's interval ends. Otherwise the hop ascends to
//! `u`'s parent. A hop is a few flat-array reads: no lock, no
//! allocation, `O(children of u)` on the way down.
//!
//! The layout is built from the order in which Dijkstra settles nodes
//! (parents before children, since weights are positive): one reverse
//! pass sums subtree sizes, one forward pass hands each child the next
//! free slot of its parent's interval. Memory is fixed at `tin`, `size`,
//! `pre` and the tree's parent array — 4n `u32`s — plus the tree's
//! distances, per landmark.

use crate::graph::{Graph, NodeId, Weight};
use crate::shortest_paths::ShortestPathTree;

/// Number of landmarks sampled (capped by `n`). More landmarks tighten
/// `R` but add a full Dijkstra + `O(n)` memory each at build time.
pub const DEFAULT_LANDMARKS: usize = 16;

/// Most landmarks [`LandmarkOracle::build_with`] places, so that
/// [`LandmarkOracle::distances_to`] can gather a target's distance to
/// every landmark into a fixed array.
pub const MAX_LANDMARKS: usize = 64;

/// One landmark's shortest-path tree and its preorder layout (see the
/// module docs).
struct LandmarkTree {
    tree: ShortestPathTree,
    /// `(tin, size)` of each node: its preorder index and subtree size
    /// (itself included).
    span: Box<[(u32, u32)]>,
    /// Node at each preorder index.
    pre: Box<[u32]>,
}

impl LandmarkTree {
    /// Lay out `tree` in preorder from its settle `order` of `(node,
    /// parent)` pairs: the root first, every parent before its children.
    /// `next` is scratch of at least `n` entries and needs no reset: each
    /// slot is written before it is read.
    fn new(tree: ShortestPathTree, order: &[(u32, u32)], next: &mut [u32]) -> Self {
        let n = order.len();
        let mut span = vec![(0u32, 1u32); n].into_boxed_slice();
        for &(v, p) in order[1..].iter().rev() {
            span[p as usize].1 += span[v as usize].1;
        }
        let mut pre = vec![0u32; n].into_boxed_slice();
        let root = order[0].0;
        pre[0] = root;
        next[root as usize] = 1;
        for &(v, p) in &order[1..] {
            let t = next[p as usize];
            let (tin, size) = &mut span[v as usize];
            next[p as usize] = t + *size;
            *tin = t;
            pre[t as usize] = v;
            next[v as usize] = t + 1;
        }
        LandmarkTree { tree, span, pre }
    }
}

/// Landmark distance/routing oracle. Build once per network; every query
/// is a lock-free read of flat arrays.
pub struct LandmarkOracle {
    /// One laid-out shortest-path tree per landmark, indexed by landmark id.
    trees: Vec<LandmarkTree>,
    /// Home landmark index of each node (nearest, ties to smaller index).
    home: Vec<u16>,
    /// Distance from each node to its home landmark.
    home_dist: Vec<Weight>,
    /// Covering radius `R = max_v d(v, H(v))`.
    radius: Weight,
    /// Upper bound on both the true diameter and any reported distance.
    diameter_bound: Weight,
}

impl LandmarkOracle {
    /// Build the oracle with [`DEFAULT_LANDMARKS`] landmarks.
    pub fn build(graph: &Graph) -> Self {
        Self::build_with(graph, DEFAULT_LANDMARKS)
    }

    /// Build with an explicit landmark budget (`k` clamped to
    /// `[1, min(n, MAX_LANDMARKS)]`).
    ///
    /// Landmarks are chosen by farthest-point sampling seeded at node 0:
    /// each round adds the node maximizing the distance to the landmarks
    /// picked so far (ties toward the smaller node id). Fully
    /// deterministic, and `k` Dijkstra runs total.
    pub fn build_with(graph: &Graph, k: usize) -> Self {
        let n = graph.n();
        assert!(n > 0, "landmark oracle needs a non-empty graph");
        let k = k.clamp(1, n.min(MAX_LANDMARKS));
        let mut trees: Vec<LandmarkTree> = Vec::with_capacity(k);
        let mut home: Vec<u16> = vec![0; n];
        let mut home_dist: Vec<Weight> = vec![Weight::MAX; n];
        let mut next_mark = NodeId(0);
        // Layout scratch shared by every landmark.
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut next: Vec<u32> = vec![0; n];
        for mark in 0..k {
            let tree = ShortestPathTree::compute_settling(graph, next_mark, &mut order);
            assert!(tree.spanning(), "landmark oracle requires connectivity");
            // Fold this landmark into the nearest-landmark assignment and
            // pick the farthest remaining node as the next landmark.
            let mut far = NodeId(0);
            let mut far_d: Weight = 0;
            for v in graph.nodes() {
                let d = tree.dist(v);
                if d < home_dist[v.index()] {
                    home_dist[v.index()] = d;
                    home[v.index()] = mark as u16;
                }
                if home_dist[v.index()] > far_d {
                    far_d = home_dist[v.index()];
                    far = v;
                }
            }
            trees.push(LandmarkTree::new(tree, &order, &mut next));
            if far_d == 0 {
                break; // every node is itself a landmark already
            }
            next_mark = far;
        }
        let radius = home_dist.iter().copied().max().unwrap_or(0);
        let max_ecc = trees
            .iter()
            .map(|t| t.tree.eccentricity())
            .max()
            .unwrap_or(0);
        LandmarkOracle {
            trees,
            home,
            home_dist,
            radius,
            // Any pair satisfies d(u,v) ≤ est(u→v) ≤ ecc(H(v)) + R.
            diameter_bound: max_ecc + radius,
        }
    }

    /// Number of landmarks actually placed.
    pub fn landmarks(&self) -> usize {
        self.trees.len()
    }

    /// Covering radius `R`: every reported distance is within an additive
    /// `2R` of the true shortest-path distance.
    pub fn stretch_radius(&self) -> Weight {
        self.radius
    }

    /// Upper bound on the graph diameter *and* on every distance this
    /// oracle reports — safe to feed to bucket-level and cover-depth
    /// formulas that need `D` without `n` full Dijkstra runs.
    pub fn diameter_bound(&self) -> Weight {
        self.diameter_bound
    }

    /// Directed estimate `d(u, H(v)) + d(H(v), v)` — the cost promise for
    /// routing from `u` to `v` (see module docs).
    // dtm-lint: hot-path
    #[inline]
    fn est(&self, u: NodeId, v: NodeId) -> Weight {
        let l = self.home[v.index()] as usize;
        self.trees[l].tree.dist(u) + self.home_dist[v.index()]
    }

    /// Symmetrized distance estimate: `max` of the two directed estimates,
    /// so it upper-bounds the routed cost in *either* direction while
    /// keeping `distance(u, v) == distance(v, u)`.
    // dtm-lint: hot-path
    #[inline]
    pub fn distance(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            return 0;
        }
        self.est(u, v).max(self.est(v, u))
    }

    /// [`LandmarkOracle::distance`]`(·, v)` for one fixed `v`. The
    /// estimate out of `v` reads `v`'s distance in the tree of each
    /// queried node's home landmark; those distances are gathered once
    /// here, so a query reads only the one tree toward `v` and the queried
    /// node's own entries.
    pub fn distances_to(&self, v: NodeId) -> impl Fn(NodeId) -> Weight + '_ {
        let mut from_v = [0; MAX_LANDMARKS];
        for (d, t) in from_v.iter_mut().zip(&self.trees) {
            *d = t.tree.dist(v);
        }
        let toward = &self.trees[self.home[v.index()] as usize].tree;
        let v_home_dist = self.home_dist[v.index()];
        move |u| {
            if u == v {
                return 0;
            }
            let out_of_v = from_v[self.home[u.index()] as usize];
            (toward.dist(u) + v_home_dist).max(out_of_v + self.home_dist[u.index()])
        }
    }

    /// First hop from `u` on the oracle's routed path toward `v`: down to
    /// the child whose preorder interval holds `v` if `u` is an ancestor
    /// of `v` in the tree of `H(v)`, up to `u`'s parent otherwise.
    // dtm-lint: hot-path
    pub fn next_hop(&self, u: NodeId, v: NodeId) -> NodeId {
        debug_assert_ne!(u, v, "next_hop requires distinct endpoints");
        let t = &self.trees[self.home[v.index()] as usize];
        let x = t.span[v.index()].0;
        let (at, size) = t.span[u.index()];
        // `x ∈ [at, at + size)` as one unsigned compare.
        if x.wrapping_sub(at) >= size {
            return t
                .tree
                .next_hop(u)
                .expect("the root is an ancestor of every node"); // dtm-lint: allow(C1) -- only the root lacks a parent, and the root's interval holds every node
        }
        let mut child = t.pre[at as usize + 1];
        loop {
            let (tin, size) = t.span[child as usize];
            let end = tin + size;
            if x < end {
                return NodeId(child);
            }
            child = t.pre[end as usize];
        }
    }
}

#[cfg(test)]
impl LandmarkOracle {
    /// Reference for [`LandmarkOracle::next_hop`]: the whole routed path
    /// from `u` to `v` in the tree of `H(v)`, built by ascending from `u`
    /// until reaching a node on `v`'s root path, then descending along it.
    fn compute_path(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
        let tree = &self.trees[self.home[v.index()] as usize].tree;
        let vpath = tree.path_to_root(v);
        let mut path = vec![u];
        let mut cur = u;
        let meet = loop {
            if let Some(at) = vpath.iter().position(|&x| x == cur) {
                break at;
            }
            cur = tree.next_hop(cur).expect("the root is on every root path");
            path.push(cur);
        };
        path.extend(vpath[..meet].iter().rev());
        debug_assert_eq!(path.last(), Some(&v));
        path
    }
}

impl std::fmt::Debug for LandmarkOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LandmarkOracle")
            .field("landmarks", &self.trees.len())
            .field("radius", &self.radius)
            .field("diameter_bound", &self.diameter_bound)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    fn oracle_and_graph(seed: u64, n: u32) -> (LandmarkOracle, crate::network::Network) {
        let net = topology::random(n, 3, 5, seed);
        let oracle = LandmarkOracle::build_with(net.graph(), 4);
        (oracle, net)
    }

    #[test]
    fn estimates_upper_bound_true_distance_within_stretch() {
        let (oracle, net) = oracle_and_graph(11, 40);
        let r2 = 2 * oracle.stretch_radius();
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                let truth = ShortestPathTree::compute(net.graph(), v).dist(u);
                let est = oracle.distance(u, v);
                assert!(est >= truth, "estimate must upper-bound the metric");
                assert!(est <= truth + r2, "additive stretch bound 2R violated");
                assert_eq!(est, oracle.distance(v, u), "symmetry");
            }
        }
    }

    /// From one landmark up to the cap, which `build_with` enforces.
    #[test]
    fn distances_to_matches_distance() {
        let net = topology::random(80, 3, 5, 4);
        for k in [1, 4, DEFAULT_LANDMARKS, MAX_LANDMARKS, MAX_LANDMARKS + 9] {
            let oracle = LandmarkOracle::build_with(net.graph(), k);
            assert!(oracle.landmarks() <= MAX_LANDMARKS);
            for v in net.graph().nodes() {
                let to_v = oracle.distances_to(v);
                for u in net.graph().nodes() {
                    assert_eq!(to_v(u), oracle.distance(u, v), "{u}->{v} k={k}");
                }
            }
        }
    }

    #[test]
    fn routed_cost_never_exceeds_estimate() {
        let (oracle, net) = oracle_and_graph(23, 40);
        let g = net.graph();
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let mut cost: Weight = 0;
                let mut cur = u;
                let mut hops = 0;
                while cur != v {
                    let next = oracle.next_hop(cur, v);
                    cost += g.edge_weight(cur, next).expect("routed hops are edges");
                    cur = next;
                    hops += 1;
                    assert!(hops <= g.n(), "routing must terminate");
                }
                assert!(cost <= oracle.distance(u, v), "promise violated");
            }
        }
    }

    /// Hop by hop through `next_hop`, with the step cap as a
    /// termination check.
    fn route(oracle: &LandmarkOracle, u: NodeId, v: NodeId, n: usize) -> Vec<NodeId> {
        let mut path = vec![u];
        let mut cur = u;
        while cur != v {
            cur = oracle.next_hop(cur, v);
            path.push(cur);
            assert!(path.len() <= n, "routing must terminate");
        }
        path
    }

    #[test]
    fn route_from_every_waypoint_is_a_suffix() {
        // Memoryless routing: restarting at any intermediate node
        // reproduces the rest of the journey exactly.
        let (oracle, net) = oracle_and_graph(5, 30);
        let n = net.n();
        for (u, v) in [(0, 29), (29, 0), (7, 18), (13, 2)] {
            let full = route(&oracle, NodeId(u), NodeId(v), n);
            for (i, &w) in full.iter().enumerate() {
                assert_eq!(route(&oracle, w, NodeId(v), n), &full[i..]);
            }
        }
    }

    #[test]
    fn diameter_bound_dominates_estimates() {
        let (oracle, net) = oracle_and_graph(7, 35);
        let mut max_est = 0;
        let mut true_diam = 0;
        for v in net.graph().nodes() {
            let tree = ShortestPathTree::compute(net.graph(), v);
            true_diam = true_diam.max(tree.eccentricity());
            for u in net.graph().nodes() {
                max_est = max_est.max(oracle.distance(u, v));
            }
        }
        assert!(oracle.diameter_bound() >= true_diam);
        assert!(oracle.diameter_bound() >= max_est);
    }

    #[test]
    fn next_hop_matches_reference_on_small_graphs() {
        // Every ordered pair, three graph families, k from a single
        // landmark up to saturation (k >= n).
        let nets = [
            topology::random(40, 3, 5, 17),
            topology::geometric(60, 3, 4),
            topology::power_law(50, 2, 8),
            topology::random(6, 2, 3, 9),
            // Weights above the Dial cut: the binary-heap backend.
            topology::random(30, 3, 100, 3),
        ];
        for net in &nets {
            let g = net.graph();
            for k in [1, 4, 16] {
                let oracle = LandmarkOracle::build_with(g, k);
                for u in g.nodes() {
                    for v in g.nodes() {
                        if u != v {
                            let hop = oracle.next_hop(u, v);
                            assert_eq!(hop, oracle.compute_path(u, v)[1], "{u}->{v} k={k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn routed_paths_match_reference_on_stream_graph() {
        // The 10⁴-node geometric graph of the stream workload, 2000
        // seeded pairs routed to completion.
        let net = topology::geometric(10_000, 4, 18);
        let oracle = LandmarkOracle::build_with(net.graph(), 16);
        let n = net.n() as u64;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            NodeId((x % n) as u32)
        };
        for _ in 0..2000 {
            let (u, v) = (next(), next());
            if u != v {
                assert_eq!(route(&oracle, u, v, net.n()), oracle.compute_path(u, v));
            }
        }
    }

    #[test]
    fn saturated_landmarks_on_tiny_graph() {
        // k >= n: every node becomes (or is covered at distance 0 by) a
        // landmark, so estimates are exact.
        let net = topology::random(6, 2, 3, 9);
        let oracle = LandmarkOracle::build_with(net.graph(), 16);
        assert_eq!(oracle.stretch_radius(), 0);
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                assert_eq!(oracle.distance(u, v), net.distance(u, v));
            }
        }
    }
}
