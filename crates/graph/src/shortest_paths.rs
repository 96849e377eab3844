//! Dijkstra shortest-path trees, path extraction and eccentricities.
//!
//! Objects in the data-flow model travel along shortest paths (Section II),
//! so every scheduler and the simulator need distances and next-hop routing.
//! A [`ShortestPathTree`] rooted at a node `s` answers both `dist(v, s)` and
//! "first hop from `v` toward `s`" queries, which is exactly the shape
//! object routing needs (route *toward* the next requesting transaction).
//!
//! Two priority-queue backends drive the same relaxation loop: a binary
//! heap (`O((m + n) log n)`, any weights) and a Dial bucket queue
//! (`O(m + D)` for integer weights bounded by [`DIAL_MAX_WEIGHT`]) —
//! [`ShortestPathTree::compute`] picks per graph. They produce **identical
//! trees**: the parent rule "strict improvement, or equal distance through
//! a smaller parent id" makes the chosen parent a pure function of the
//! final distance labels, independent of queue pop order — every node ends
//! up with the smallest-id neighbor among its optimal predecessors. The
//! `dial_matches_heap` property test pins this.
//!
//! Only a strict improvement queues a node, so each node has exactly one
//! queue entry carrying its final label; any other entry is stale and is
//! recognised by its label alone, with no settled-set bitmap. Weights are
//! positive, so a settled node's label is below anything still being
//! relaxed: neither an improvement nor a parent swap ever reaches it.

use crate::graph::{Graph, NodeId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel parent for the root (and unreachable nodes).
const NO_PARENT: u32 = u32::MAX;

/// Largest maximum edge weight for which [`ShortestPathTree::compute`]
/// uses the Dial bucket queue (bucket ring of `C + 1` entries; beyond
/// this the empty-bucket scan cost outweighs the heap's log factor).
pub const DIAL_MAX_WEIGHT: Weight = 64;

/// A shortest-path tree rooted at `root`.
///
/// For every node `v`, `dist(v)` is the shortest-path distance from `v` to
/// the root, and `parent(v)` is the neighbor of `v` on a shortest path
/// toward the root (ties broken toward the smallest node id, so routing is
/// deterministic).
#[derive(Clone, Debug)]
pub struct ShortestPathTree {
    root: NodeId,
    dist: Vec<Weight>,
    parent: Vec<u32>,
}

impl ShortestPathTree {
    /// Run Dijkstra from `root` over the whole graph.
    ///
    /// Uses the Dial bucket queue when every edge weight is at most
    /// [`DIAL_MAX_WEIGHT`] (`O(m + D)`), the binary heap otherwise
    /// (`O((m + n) log n)`); the resulting tree is identical either way
    /// (see module docs).
    pub fn compute(graph: &Graph, root: NodeId) -> Self {
        Self::settle(graph, root, |_, _| {})
    }

    /// [`ShortestPathTree::compute`] that also appends every node, with
    /// its parent ([`u32::MAX`] for the root), to `order` in the order
    /// Dijkstra settles it (`order` is cleared first). A node's parent is
    /// final once it settles. Settling is in nondecreasing distance and
    /// weights are positive, so every node's parent precedes it — the
    /// property the landmark oracle's preorder layout is built from.
    pub(crate) fn compute_settling(
        graph: &Graph,
        root: NodeId,
        order: &mut Vec<(u32, u32)>,
    ) -> Self {
        order.clear();
        Self::settle(graph, root, |v, parent| order.push((v, parent)))
    }

    /// The backend choice of [`ShortestPathTree::compute`], reporting each
    /// node and its parent to `settled` as it settles.
    fn settle(graph: &Graph, root: NodeId, settled: impl FnMut(u32, u32)) -> Self {
        match graph.max_edge_weight() {
            Some(c) if c <= DIAL_MAX_WEIGHT => Self::dial(graph, root, c, settled),
            _ => Self::heap(graph, root, settled),
        }
    }

    /// Binary-heap Dijkstra (any positive weights).
    pub fn compute_heap(graph: &Graph, root: NodeId) -> Self {
        Self::heap(graph, root, |_, _| {})
    }

    /// Binary-heap Dijkstra reporting each node and its parent to
    /// `settled` as it settles.
    fn heap(graph: &Graph, root: NodeId, mut settled: impl FnMut(u32, u32)) -> Self {
        let n = graph.n();
        assert!(root.index() < n, "root {root} out of range");
        let mut dist = vec![Weight::MAX; n];
        let mut parent = vec![NO_PARENT; n];
        let mut heap: BinaryHeap<Reverse<(Weight, u32)>> = BinaryHeap::new();
        dist[root.index()] = 0;
        heap.push(Reverse((0, root.0)));
        while let Some(Reverse((d, v))) = heap.pop() {
            let vi = v as usize;
            if d != dist[vi] {
                continue; // stale label superseded by a smaller one
            }
            settled(v, parent[vi]);
            for &(nb, w) in graph.neighbors(NodeId(v)) {
                let nd = d + w;
                let nbi = nb.index();
                // Strict improvement, or equal distance through a smaller
                // parent id: keeps routing deterministic across runs.
                if nd < dist[nbi] {
                    dist[nbi] = nd;
                    parent[nbi] = v;
                    heap.push(Reverse((nd, nb.0)));
                } else if nd == dist[nbi] && v < parent[nbi] {
                    parent[nbi] = v; // already queued at `nd`
                }
            }
        }
        ShortestPathTree { root, dist, parent }
    }

    /// Dial (bucket queue) Dijkstra for integer weights bounded by `c`:
    /// a ring of `c + 1` buckets indexed by distance mod `c + 1`. Every
    /// pending label lies in `[cur, cur + c]`, so bucket residues are
    /// unambiguous; stale entries are skipped by their label.
    /// `O(m + D)` time, `O(n + c)` extra space.
    pub fn compute_dial(graph: &Graph, root: NodeId, c: Weight) -> Self {
        Self::dial(graph, root, c, |_, _| {})
    }

    /// Dial Dijkstra reporting each node and its parent to `settled` as it
    /// settles.
    fn dial(graph: &Graph, root: NodeId, c: Weight, mut settled: impl FnMut(u32, u32)) -> Self {
        let n = graph.n();
        assert!(root.index() < n, "root {root} out of range");
        debug_assert!(graph.max_edge_weight().unwrap_or(0) <= c, "weight bound");
        let ring = c as usize + 1;
        let mut dist = vec![Weight::MAX; n];
        let mut parent = vec![NO_PARENT; n];
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); ring];
        let mut pending = 1usize;
        dist[root.index()] = 0;
        buckets[0].push(root.0);
        let mut cur: Weight = 0;
        while pending > 0 {
            let slot = (cur % ring as Weight) as usize;
            // Drain with swap_remove-free pops; intra-bucket order is
            // irrelevant because the parent rule is pop-order independent
            // and positive weights never relax into the current bucket.
            while let Some(v) = buckets[slot].pop() {
                pending -= 1;
                let vi = v as usize;
                // The bucket residue resolves to `cur`, so a smaller label
                // marks the entry stale.
                if dist[vi] != cur {
                    continue;
                }
                settled(v, parent[vi]);
                for &(nb, w) in graph.neighbors(NodeId(v)) {
                    let nd = cur + w;
                    let nbi = nb.index();
                    if nd < dist[nbi] {
                        dist[nbi] = nd;
                        parent[nbi] = v;
                        buckets[(nd % ring as Weight) as usize].push(nb.0);
                        pending += 1;
                    } else if nd == dist[nbi] && v < parent[nbi] {
                        parent[nbi] = v; // already queued at `nd`
                    }
                }
            }
            cur += 1;
        }
        ShortestPathTree { root, dist, parent }
    }

    /// The root of this tree.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Distance from `v` to the root. `Weight::MAX` if unreachable.
    // dtm-lint: hot-path
    #[inline]
    pub fn dist(&self, v: NodeId) -> Weight {
        self.dist[v.index()]
    }

    /// Neighbor of `v` on a shortest path toward the root.
    ///
    /// Returns `None` for the root itself and for unreachable nodes.
    // dtm-lint: hot-path
    #[inline]
    pub fn next_hop(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.index()];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// Full shortest path from `v` to the root, inclusive of both endpoints.
    ///
    /// # Panics
    /// Panics if `v` cannot reach the root.
    pub fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        assert!(
            self.dist(v) != Weight::MAX,
            "{v} cannot reach root {}",
            self.root
        );
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.next_hop(cur) {
            path.push(p);
            cur = p;
        }
        debug_assert_eq!(path.last().copied(), Some(self.root));
        path
    }

    /// Eccentricity of the root: max distance from any reachable node.
    pub fn eccentricity(&self) -> Weight {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != Weight::MAX)
            .max()
            .unwrap_or(0)
    }

    /// True if every node reaches the root.
    pub fn spanning(&self) -> bool {
        self.dist.iter().all(|&d| d != Weight::MAX)
    }
}

/// Reusable scratch for [`bounded_ball_into`]: an epoch-stamped flat
/// distance array (O(1) amortized reset — bumping the epoch invalidates
/// every stamp at once) plus the Dijkstra heap. Repeated ball carving
/// during sparse-cover construction reuses one scratch across thousands
/// of calls, paying neither the `BTreeMap` log factor nor a fresh
/// allocation per ball.
#[derive(Clone, Debug, Default)]
pub struct BallScratch {
    /// `dist[v]` is valid iff `stamp[v] == epoch`.
    dist: Vec<Weight>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<(Weight, u32)>>,
}

impl BallScratch {
    /// Fresh scratch; arrays grow to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new ball: size the arrays and invalidate old stamps.
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, Weight::MAX);
            self.stamp.resize(n, u32::MAX);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == u32::MAX {
            // One-in-4-billion wrap: u32::MAX is the "never stamped"
            // sentinel, so skip it and clear any stale sentinels.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.heap.clear();
    }

    #[inline]
    fn get(&self, v: usize) -> Weight {
        if self.stamp[v] == self.epoch {
            self.dist[v]
        } else {
            Weight::MAX
        }
    }

    #[inline]
    fn set(&mut self, v: usize, d: Weight) {
        self.dist[v] = d;
        self.stamp[v] = self.epoch;
    }
}

/// All nodes within distance `radius` of `center` (inclusive), with their
/// distances, appended to `out` sorted by node id. Dijkstra with early
/// cut-off over `scratch`: cost proportional to the ball size, not the
/// graph size, and allocation-free once the scratch is warm.
pub fn bounded_ball_into(
    graph: &Graph,
    center: NodeId,
    radius: Weight,
    scratch: &mut BallScratch,
    out: &mut Vec<(NodeId, Weight)>,
) {
    out.clear();
    scratch.begin(graph.n());
    scratch.set(center.index(), 0);
    scratch.heap.push(Reverse((0, center.0)));
    while let Some(Reverse((d, v))) = scratch.heap.pop() {
        let vi = v as usize;
        if scratch.get(vi) != d {
            continue; // stale entry
        }
        out.push((NodeId(v), d));
        for &(nb, w) in graph.neighbors(NodeId(v)) {
            let nd = d + w;
            if nd > radius {
                continue;
            }
            if nd < scratch.get(nb.index()) {
                scratch.set(nb.index(), nd);
                scratch.heap.push(Reverse((nd, nb.0)));
            }
        }
    }
    out.sort_unstable_by_key(|&(v, _)| v);
}

/// Convenience wrapper over [`bounded_ball_into`] with a throwaway
/// scratch. Callers issuing many balls (cover construction) should hold
/// a [`BallScratch`] and call the `_into` form directly.
pub fn bounded_ball(graph: &Graph, center: NodeId, radius: Weight) -> Vec<(NodeId, Weight)> {
    let mut scratch = BallScratch::new();
    let mut out = Vec::new();
    bounded_ball_into(graph, center, radius, &mut scratch, &mut out);
    out
}

/// Exact diameter by running Dijkstra from every node: `O(n (m+n) log n)`.
///
/// Acceptable for the graph sizes used in scheduling experiments (up to a
/// few thousand nodes); structured topologies provide closed forms and
/// the landmark oracle tier an estimate instead (see [`crate::structured`]
/// and [`crate::oracle`]).
pub fn diameter(graph: &Graph) -> Weight {
    graph
        .nodes()
        .map(|v| ShortestPathTree::compute(graph, v).eccentricity())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// 0 -1- 1 -1- 2 -1- 3 plus a heavy shortcut 0 -5- 3.
    fn path_with_shortcut() -> Graph {
        let mut g = Graph::new(4, "t");
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        g.add_edge(NodeId(0), NodeId(3), 5).unwrap();
        g
    }

    #[test]
    fn dijkstra_prefers_light_path() {
        let g = path_with_shortcut();
        let t = ShortestPathTree::compute(&g, NodeId(3));
        assert_eq!(t.dist(NodeId(0)), 3);
        assert_eq!(t.dist(NodeId(3)), 0);
        assert_eq!(t.path_to_root(NodeId(0)).len(), 4);
    }

    #[test]
    fn shortcut_used_when_cheaper() {
        let mut g = path_with_shortcut();
        // Make the direct edge competitive.
        let mut g2 = Graph::new(4, "t2");
        for (u, v, w) in g.edges() {
            let w = if (u, v) == (NodeId(0), NodeId(3)) {
                2
            } else {
                w
            };
            g2.add_edge(u, v, w).unwrap();
        }
        g = g2;
        let t = ShortestPathTree::compute(&g, NodeId(3));
        assert_eq!(t.dist(NodeId(0)), 2);
        assert_eq!(t.path_to_root(NodeId(0)), vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    fn next_hop_walks_toward_root() {
        let g = path_with_shortcut();
        let t = ShortestPathTree::compute(&g, NodeId(3));
        assert_eq!(t.next_hop(NodeId(0)), Some(NodeId(1)));
        assert_eq!(t.next_hop(NodeId(1)), Some(NodeId(2)));
        assert_eq!(t.next_hop(NodeId(2)), Some(NodeId(3)));
        assert_eq!(t.next_hop(NodeId(3)), None);
    }

    #[test]
    fn unreachable_nodes_have_max_dist() {
        let mut g = Graph::new(3, "t");
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        for t in [
            ShortestPathTree::compute(&g, NodeId(0)),
            ShortestPathTree::compute_heap(&g, NodeId(0)),
            ShortestPathTree::compute_dial(&g, NodeId(0), 1),
        ] {
            assert_eq!(t.dist(NodeId(2)), Weight::MAX);
            assert_eq!(t.next_hop(NodeId(2)), None);
            assert!(!t.spanning());
        }
    }

    #[test]
    fn diameter_of_weighted_path() {
        let mut g = Graph::new(3, "t");
        g.add_edge(NodeId(0), NodeId(1), 2).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 7).unwrap();
        assert_eq!(diameter(&g), 9);
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost paths from 3 to 0: via 1 or via 2; parent must pick
        // the smaller intermediate node deterministically.
        let mut g = Graph::new(4, "diamond");
        g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 1).unwrap();
        g.add_edge(NodeId(1), NodeId(3), 1).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        let t = ShortestPathTree::compute(&g, NodeId(0));
        assert_eq!(t.next_hop(NodeId(3)), Some(NodeId(1)));
    }

    #[test]
    fn tie_break_picks_smallest_id_parent_everywhere() {
        // Stacked equal-weight diamonds: 0-{1,2}-3-{4,5}-6, all weight 1.
        // Every node with several optimal predecessors must route through
        // the smallest-id one, regardless of queue pop order — in both
        // queue backends.
        let mut g = Graph::new(7, "diamonds");
        for (u, v) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
        ] {
            g.add_edge(NodeId(u), NodeId(v), 1).unwrap();
        }
        for t in [
            ShortestPathTree::compute_heap(&g, NodeId(0)),
            ShortestPathTree::compute_dial(&g, NodeId(0), 1),
        ] {
            for v in g.nodes() {
                let Some(p) = t.next_hop(v) else { continue };
                // The chosen parent lies on a shortest path...
                let w = g.edge_weight(v, p).unwrap();
                assert_eq!(t.dist(p) + w, t.dist(v), "parent of {v} not optimal");
                // ...and is the smallest-id neighbor among all optimal ones.
                let best = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&(u, w)| t.dist(u) + w == t.dist(v))
                    .map(|&(u, _)| u)
                    .min()
                    .unwrap();
                assert_eq!(p, best, "parent of {v} not the smallest-id option");
            }
            assert_eq!(t.next_hop(NodeId(3)), Some(NodeId(1)));
            assert_eq!(t.next_hop(NodeId(6)), Some(NodeId(4)));
        }
    }

    #[test]
    fn single_node_tree() {
        let g = Graph::new(1, "dot");
        let t = ShortestPathTree::compute(&g, NodeId(0));
        assert_eq!(t.dist(NodeId(0)), 0);
        assert_eq!(t.eccentricity(), 0);
        assert!(t.spanning());
        assert_eq!(t.path_to_root(NodeId(0)), vec![NodeId(0)]);
    }

    #[test]
    fn ball_scratch_reuse_across_calls() {
        let g = path_with_shortcut();
        let mut scratch = BallScratch::new();
        let mut out = Vec::new();
        bounded_ball_into(&g, NodeId(0), 2, &mut scratch, &mut out);
        assert_eq!(out, vec![(NodeId(0), 0), (NodeId(1), 1), (NodeId(2), 2)]);
        // Second ball from a different center on the same scratch: stale
        // stamps from the first ball must be invisible.
        bounded_ball_into(&g, NodeId(3), 1, &mut scratch, &mut out);
        assert_eq!(out, vec![(NodeId(2), 1), (NodeId(3), 0)]);
        // Radius 0 = just the center.
        bounded_ball_into(&g, NodeId(1), 0, &mut scratch, &mut out);
        assert_eq!(out, vec![(NodeId(1), 0)]);
    }

    #[test]
    fn bounded_ball_matches_tree_distances() {
        let g = path_with_shortcut();
        let ball = bounded_ball(&g, NodeId(0), 3);
        let tree = ShortestPathTree::compute(&g, NodeId(0));
        assert_eq!(ball.len(), 4);
        for (v, d) in ball {
            assert_eq!(d, tree.dist(v));
        }
    }
}

#[cfg(test)]
mod dial_tests {
    use super::*;
    use crate::topology;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Dial and heap Dijkstra produce byte-identical trees (distances
        /// AND parents) on random weighted graphs — the guarantee that
        /// lets `compute` switch backends without perturbing any golden
        /// trace.
        #[test]
        fn dial_matches_heap(seed in 0u64..60, n in 2u32..40, w in 1u64..6) {
            let net = topology::random(n, 3, w, seed);
            let g = net.graph();
            let c = g.max_edge_weight().unwrap();
            for root in g.nodes() {
                let a = ShortestPathTree::compute_heap(g, root);
                let b = ShortestPathTree::compute_dial(g, root, c);
                for v in g.nodes() {
                    prop_assert_eq!(a.dist(v), b.dist(v));
                    prop_assert_eq!(a.next_hop(v), b.next_hop(v));
                }
            }
        }

        /// The settle order of either backend lists every node once, with
        /// its final parent, each after that parent, and the tree is the
        /// plain `compute` one.
        #[test]
        fn settle_order_puts_parents_first(seed in 0u64..40, n in 2u32..40, w in 1u64..100) {
            let net = topology::random(n, 3, w, seed);
            let g = net.graph();
            let mut order = vec![(7, 7)];
            for root in g.nodes() {
                let t = ShortestPathTree::compute_settling(g, root, &mut order);
                let plain = ShortestPathTree::compute(g, root);
                let mut pos = vec![usize::MAX; g.n()];
                for (i, &(v, p)) in order.iter().enumerate() {
                    prop_assert_eq!(pos[v as usize], usize::MAX, "settled twice");
                    pos[v as usize] = i;
                    let want = plain.next_hop(NodeId(v)).map_or(u32::MAX, |p| p.0);
                    prop_assert_eq!(p, want, "parent changed after settling");
                }
                prop_assert_eq!(order.len(), g.n());
                prop_assert_eq!(order[0], (root.0, u32::MAX));
                for v in g.nodes() {
                    prop_assert_eq!(t.dist(v), plain.dist(v));
                    prop_assert_eq!(t.next_hop(v), plain.next_hop(v));
                    if let Some(p) = t.next_hop(v) {
                        prop_assert!(pos[p.index()] < pos[v.index()], "parent after child");
                    }
                }
            }
        }

        /// Balls computed through the epoch-stamped scratch agree with a
        /// full tree truncated at the radius.
        #[test]
        fn bounded_ball_matches_truncated_tree(seed in 0u64..40, n in 2u32..30, r in 0u64..12) {
            let net = topology::random(n, 3, 4, seed);
            let g = net.graph();
            let mut scratch = BallScratch::new();
            let mut out = Vec::new();
            for center in g.nodes() {
                bounded_ball_into(g, center, r, &mut scratch, &mut out);
                let tree = ShortestPathTree::compute(g, center);
                let expect: Vec<(NodeId, Weight)> = g
                    .nodes()
                    .filter(|&v| tree.dist(v) <= r)
                    .map(|v| (v, tree.dist(v)))
                    .collect();
                prop_assert_eq!(&out, &expect);
            }
        }
    }
}
