//! Hierarchical sparse cover decomposition (Section V of the paper).
//!
//! The distributed bucket scheduler needs a hierarchy of clusters with
//! `H1 = ceil(log D) + 1` layers where, at layer `ℓ`:
//!
//! 1. each layer consists of `H2 = O(log n)` *sub-layers*, each of which is
//!    a **partition** of `G`;
//! 2. every cluster has (weak) diameter at most `f(ℓ) = O(2^ℓ log n)`;
//! 3. every node `u` has a **home cluster** at layer `ℓ` that contains its
//!    entire `(2^ℓ - 1)`-neighborhood.
//!
//! These are the only three properties Algorithm 3 and its analysis use
//! (Lemmas 5–8), so any conforming construction preserves the paper's
//! guarantees. We build the cover by seeded random ball carving with a
//! deterministic "dedicated ball" fallback that guarantees termination; the
//! three properties are checked explicitly by [`SparseCover::verify`] and by
//! property tests.

use crate::graph::{NodeId, Weight};
use crate::network::Network;
use crate::shortest_paths::{bounded_ball_into, BallScratch};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a cluster within a [`SparseCover`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The height of a cluster: its `(layer, sublayer)` pair, ordered
/// lexicographically (Section V: "Heights are ordered lexicographically").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Height {
    /// Layer index `ℓ` (0-based).
    pub layer: u32,
    /// Sub-layer index within the layer (0-based).
    pub sublayer: u32,
}

/// One cluster of the cover.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Cluster {
    /// Identifier (index into [`SparseCover::clusters`]).
    pub id: ClusterId,
    /// Height `(layer, sublayer)`.
    pub height: Height,
    /// The designated leader node (the carving center), which hosts the
    /// partial buckets of Algorithm 3.
    pub leader: NodeId,
    /// Member nodes, sorted.
    pub nodes: Vec<NodeId>,
}

impl Cluster {
    /// True if `v` belongs to this cluster (binary search on sorted members).
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }
}

/// Violations detected by [`SparseCover::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverError {
    /// A sub-layer is not a partition: some node missing or duplicated.
    NotAPartition {
        /// Offending height.
        height: Height,
    },
    /// A cluster's weak diameter exceeds the layer bound.
    DiameterExceeded {
        /// Offending cluster.
        cluster: ClusterId,
        /// Measured weak diameter.
        measured: Weight,
        /// Allowed bound `f(ℓ)`.
        bound: Weight,
    },
    /// A node's home cluster does not contain its `(2^ℓ - 1)`-neighborhood.
    HomeNotCovering {
        /// The node.
        node: NodeId,
        /// The layer.
        layer: u32,
    },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::NotAPartition { height } => {
                write!(f, "sub-layer {height:?} is not a partition")
            }
            CoverError::DiameterExceeded {
                cluster,
                measured,
                bound,
            } => write!(
                f,
                "cluster {cluster:?} has weak diameter {measured} > bound {bound}"
            ),
            CoverError::HomeNotCovering { node, layer } => write!(
                f,
                "home cluster of {node} at layer {layer} misses its neighborhood"
            ),
        }
    }
}

impl std::error::Error for CoverError {}

/// One sub-layer: a partition of the node set into clusters.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct SubLayer {
    /// `assignment[v]` = cluster owning node `v`.
    assignment: Vec<ClusterId>,
    /// Clusters of this sub-layer.
    clusters: Vec<ClusterId>,
}

/// One layer: several partition sub-layers plus per-node home clusters.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Layer {
    sublayers: Vec<SubLayer>,
    /// `home[v]` = home cluster of node `v` at this layer.
    home: Vec<ClusterId>,
    /// Covering radius `2^ℓ - 1`.
    radius: Weight,
    /// Weak-diameter bound `f(ℓ)` for clusters of this layer.
    diameter_bound: Weight,
}

/// A hierarchical sparse cover of a network (see module docs).
#[derive(Clone, Debug)]
pub struct SparseCover {
    clusters: Vec<Cluster>,
    layers: Vec<Layer>,
}

/// Random carving rounds per layer before falling back to dedicated balls.
fn max_random_rounds(n: usize) -> usize {
    4 * (usize::BITS - n.max(2).leading_zeros()) as usize
}

/// Reusable state threaded through cover construction so repeated ball
/// queries stop paying per-call allocation and per-node log factors:
///
/// * `ball` / `out` — the epoch-stamped Dijkstra scratch shared by every
///   carve and padding query of the whole build;
/// * `pad_balls` — per-**layer** memo of each node's `(2^ℓ - 1)`-ball
///   (ids only). A layer often needs several sub-layers before every node
///   is padded, and a node's padding ball is identical in each of them,
///   so it is computed once per layer instead of once per sub-layer.
struct CarveScratch {
    ball: BallScratch,
    out: Vec<(NodeId, Weight)>,
    pad_balls: Vec<Option<Vec<NodeId>>>,
}

impl CarveScratch {
    fn new(n: usize) -> Self {
        CarveScratch {
            ball: BallScratch::new(),
            out: Vec::new(),
            pad_balls: (0..n).map(|_| None).collect(),
        }
    }

    /// Invalidate the padding-ball memo (the covering radius changed).
    fn begin_layer(&mut self) {
        self.pad_balls.iter_mut().for_each(|b| *b = None);
    }

    /// The ids within `radius` of `u`, memoized for the current layer.
    fn pad_ball(&mut self, network: &Network, u: NodeId, radius: Weight) -> &[NodeId] {
        let slot = &mut self.pad_balls[u.index()];
        if slot.is_none() {
            bounded_ball_into(network.graph(), u, radius, &mut self.ball, &mut self.out);
            *slot = Some(self.out.iter().map(|&(v, _)| v).collect());
        }
        slot.as_deref().unwrap_or(&[])
    }
}

impl SparseCover {
    /// Build a sparse cover of `network`, deterministic in `seed`.
    ///
    /// Layers run from 0 to `ceil(log2(D + 1))` inclusive so the top layer's
    /// covering radius `2^ℓ - 1 >= D` spans the whole graph.
    pub fn build(network: &Network, seed: u64) -> Self {
        let n = network.n();
        let diameter = network.diameter();
        // ceil(log2(D + 1)): the top layer's radius 2^ℓ - 1 must reach D.
        let top_layer = 64 - diameter.leading_zeros();
        let mut cover = SparseCover {
            clusters: Vec::new(),
            layers: Vec::new(),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scratch = CarveScratch::new(n);
        for layer_idx in 0..=top_layer {
            let radius: Weight = (1u64 << layer_idx) - 1;
            let carve_radius: Weight = 1u64 << (layer_idx + 1);
            scratch.begin_layer();
            let layer = cover.build_layer(
                network,
                layer_idx,
                radius,
                carve_radius,
                &mut rng,
                &mut scratch,
            );
            cover.layers.push(layer);
            debug_assert!(cover.layers[layer_idx as usize].home.len() == n);
        }
        cover
    }

    /// Build a single layer: carve partitions until every node is padded
    /// (its `radius`-ball inside one cluster of some sub-layer).
    fn build_layer(
        &mut self,
        network: &Network,
        layer_idx: u32,
        radius: Weight,
        carve_radius: Weight,
        rng: &mut ChaCha8Rng,
        scratch: &mut CarveScratch,
    ) -> Layer {
        let n = network.n();
        let no_home = ClusterId(u32::MAX);
        let mut home = vec![no_home; n];
        let mut sublayers = Vec::new();
        let mut unpadded: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let random_rounds = max_random_rounds(n);
        let mut round = 0usize;
        while !unpadded.is_empty() {
            let sub_idx = sublayers.len() as u32;
            let height = Height {
                layer: layer_idx,
                sublayer: sub_idx,
            };
            let assignment = if round < random_rounds {
                let mut order: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
                order.shuffle(rng);
                self.carve(network, &order, carve_radius, height, scratch)
            } else {
                // Deterministic fallback: dedicate balls to a maximal
                // 2·radius-separated subset of the unpadded nodes, then
                // carve the rest around them.
                // Separation > carve_radius + radius guarantees no earlier
                // dedicated ball can claim any node of a later chosen
                // node's radius-neighborhood, so every chosen node ends up
                // padded in this sub-layer.
                let mut order: Vec<NodeId> = Vec::with_capacity(n);
                let mut chosen: Vec<NodeId> = Vec::new();
                for &u in &unpadded {
                    if chosen
                        .iter()
                        .all(|&c| network.distance(c, u) > carve_radius + radius)
                    {
                        chosen.push(u);
                        order.push(u);
                    }
                }
                for v in (0..n).map(NodeId::from_index) {
                    if !chosen.contains(&v) {
                        order.push(v);
                    }
                }
                self.carve(network, &order, carve_radius, height, scratch)
            };
            // Determine which still-unpadded nodes this sub-layer pads.
            let mut still = Vec::new();
            for &u in &unpadded {
                if Self::is_padded(network, u, radius, &assignment, scratch) {
                    home[u.index()] = assignment[u.index()];
                } else {
                    still.push(u);
                }
            }
            let clusters = {
                let mut ids: Vec<ClusterId> = assignment.clone();
                ids.sort_unstable();
                ids.dedup();
                ids
            };
            sublayers.push(SubLayer {
                assignment,
                clusters,
            });
            unpadded = still;
            round += 1;
            assert!(
                round <= max_random_rounds(n) + n + 2,
                "sparse cover construction failed to terminate"
            );
        }
        Layer {
            sublayers,
            home,
            radius,
            diameter_bound: 2 * carve_radius,
        }
    }

    /// Ball-carve a partition: process `order` as candidate centers; each
    /// center claims all still-unassigned nodes within `carve_radius`.
    /// Registers the new clusters and returns the node assignment.
    fn carve(
        &mut self,
        network: &Network,
        order: &[NodeId],
        carve_radius: Weight,
        height: Height,
        scratch: &mut CarveScratch,
    ) -> Vec<ClusterId> {
        let n = network.n();
        let unassigned = ClusterId(u32::MAX);
        let mut assignment = vec![unassigned; n];
        for &center in order {
            if assignment[center.index()] != unassigned {
                continue;
            }
            let id = ClusterId(self.clusters.len() as u32);
            let mut members = Vec::new();
            bounded_ball_into(
                network.graph(),
                center,
                carve_radius,
                &mut scratch.ball,
                &mut scratch.out,
            );
            for &(v, _) in &scratch.out {
                if assignment[v.index()] == unassigned {
                    assignment[v.index()] = id;
                    members.push(v);
                }
            }
            members.sort_unstable();
            self.clusters.push(Cluster {
                id,
                height,
                leader: center,
                nodes: members,
            });
        }
        debug_assert!(assignment.iter().all(|&c| c != unassigned));
        assignment
    }

    /// Is `u`'s `radius`-neighborhood entirely inside `u`'s cluster?
    /// The neighborhood is memoized per layer in `scratch` (see
    /// [`CarveScratch`]); only the assignment varies between sub-layers.
    fn is_padded(
        network: &Network,
        u: NodeId,
        radius: Weight,
        assignment: &[ClusterId],
        scratch: &mut CarveScratch,
    ) -> bool {
        if radius == 0 {
            return true;
        }
        let mine = assignment[u.index()];
        scratch
            .pad_ball(network, u, radius)
            .iter()
            .all(|&v| assignment[v.index()] == mine)
    }

    /// Number of layers `H1`.
    pub fn num_layers(&self) -> u32 {
        self.layers.len() as u32
    }

    /// Maximum number of sub-layers in any layer (`H2`).
    pub fn max_sublayers(&self) -> u32 {
        self.layers
            .iter()
            .map(|l| l.sublayers.len() as u32)
            .max()
            .unwrap_or(0)
    }

    /// All clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Look up a cluster.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// Covering radius `2^ℓ - 1` of a layer.
    pub fn layer_radius(&self, layer: u32) -> Weight {
        self.layers[layer as usize].radius
    }

    /// The home cluster of `node` at `layer`; contains the node's
    /// `(2^ℓ - 1)`-neighborhood.
    pub fn home_cluster(&self, node: NodeId, layer: u32) -> &Cluster {
        let id = self.layers[layer as usize].home[node.index()];
        self.cluster(id)
    }

    /// The cluster owning `node` in a specific sub-layer.
    pub fn cluster_at(&self, node: NodeId, height: Height) -> &Cluster {
        let id = self.layers[height.layer as usize].sublayers[height.sublayer as usize].assignment
            [node.index()];
        self.cluster(id)
    }

    /// Smallest layer whose covering radius is at least `y`, i.e. the layer
    /// Algorithm 3 step 5 selects for a transaction whose furthest relevant
    /// party is `y` away. Clamped to the top layer.
    pub fn lowest_covering_layer(&self, y: Weight) -> u32 {
        for (idx, layer) in self.layers.iter().enumerate() {
            if layer.radius >= y {
                return idx as u32;
            }
        }
        (self.layers.len() - 1) as u32
    }

    /// Verify the three cover properties against the network. Exhaustive
    /// (`O(n^2)` distance queries per layer); intended for tests and
    /// experiment sanity checks.
    pub fn verify(&self, network: &Network) -> Result<(), CoverError> {
        let n = network.n();
        for layer in &self.layers {
            for sub in &layer.sublayers {
                // Partition: assignment total + each cluster's members match.
                if sub.assignment.len() != n {
                    return Err(CoverError::NotAPartition {
                        height: self.cluster(sub.clusters[0]).height,
                    });
                }
                let mut counted = 0usize;
                for &cid in &sub.clusters {
                    let c = self.cluster(cid);
                    counted += c.nodes.len();
                    for &v in &c.nodes {
                        if sub.assignment[v.index()] != cid {
                            return Err(CoverError::NotAPartition { height: c.height });
                        }
                    }
                    // Weak diameter via the leader: every member within
                    // carve radius of the leader implies diameter <= bound.
                    let mut max_d = 0;
                    for &v in &c.nodes {
                        for &u in &c.nodes {
                            let d = network.distance(u, v);
                            max_d = max_d.max(d);
                        }
                    }
                    if max_d > layer.diameter_bound {
                        return Err(CoverError::DiameterExceeded {
                            cluster: cid,
                            measured: max_d,
                            bound: layer.diameter_bound,
                        });
                    }
                }
                if counted != n {
                    return Err(CoverError::NotAPartition {
                        height: self.cluster(sub.clusters[0]).height,
                    });
                }
            }
            // Home property.
            for v in (0..n).map(NodeId::from_index) {
                let home = self.cluster(layer.home[v.index()]);
                for u in (0..n).map(NodeId::from_index) {
                    if network.distance(v, u) <= layer.radius && !home.contains(u) {
                        return Err(CoverError::HomeNotCovering {
                            node: v,
                            layer: home.height.layer,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    fn check(network: &Network, seed: u64) -> SparseCover {
        let cover = SparseCover::build(network, seed);
        cover.verify(network).expect("cover properties hold");
        cover
    }

    #[test]
    fn line_cover_valid() {
        let net = topology::line(32);
        let cover = check(&net, 1);
        // Top layer radius must span the diameter.
        let top = cover.num_layers() - 1;
        assert!(cover.layer_radius(top) >= net.diameter());
    }

    #[test]
    fn grid_cover_valid() {
        let net = topology::grid(&[5, 5]);
        check(&net, 2);
    }

    #[test]
    fn clique_cover_valid() {
        let net = topology::clique(12);
        let cover = check(&net, 3);
        // Diameter 1 -> layers 0 and 1.
        assert_eq!(cover.num_layers(), 2);
    }

    #[test]
    fn star_cover_valid() {
        let net = topology::star(3, 5);
        check(&net, 4);
    }

    #[test]
    fn cluster_topology_cover_valid() {
        let net = topology::cluster(3, 3, 4);
        check(&net, 5);
    }

    #[test]
    fn random_graph_cover_valid() {
        let net = topology::random(30, 3, 4, 11);
        check(&net, 6);
    }

    #[test]
    fn butterfly_cover_valid() {
        let net = topology::butterfly(3);
        check(&net, 7);
    }

    #[test]
    fn home_cluster_contains_neighborhood() {
        let net = topology::line(16);
        let cover = check(&net, 8);
        for layer in 0..cover.num_layers() {
            let r = cover.layer_radius(layer);
            for v in net.graph().nodes() {
                let home = cover.home_cluster(v, layer);
                for u in net.graph().nodes() {
                    if net.distance(u, v) <= r {
                        assert!(home.contains(u));
                    }
                }
            }
        }
    }

    #[test]
    fn lowest_covering_layer_monotone() {
        let net = topology::line(32);
        let cover = check(&net, 9);
        let mut prev = 0;
        for y in 0..=net.diameter() {
            let l = cover.lowest_covering_layer(y);
            assert!(l >= prev);
            assert!(cover.layer_radius(l) >= y || l == cover.num_layers() - 1);
            prev = l;
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let net = topology::grid(&[4, 4]);
        let a = SparseCover::build(&net, 42);
        let b = SparseCover::build(&net, 42);
        assert_eq!(a.clusters.len(), b.clusters.len());
        for (x, y) in a.clusters.iter().zip(b.clusters.iter()) {
            assert_eq!(x.nodes, y.nodes);
            assert_eq!(x.leader, y.leader);
        }
    }

    #[test]
    fn heights_ordered_lexicographically() {
        let a = Height {
            layer: 1,
            sublayer: 5,
        };
        let b = Height {
            layer: 2,
            sublayer: 0,
        };
        let c = Height {
            layer: 2,
            sublayer: 1,
        };
        assert!(a < b && b < c);
    }

    #[test]
    fn single_node_cover() {
        let net = topology::line(1);
        let cover = check(&net, 10);
        assert!(cover.num_layers() >= 1);
        assert_eq!(cover.home_cluster(NodeId(0), 0).nodes, vec![NodeId(0)]);
    }
}

#[cfg(test)]
mod weighted_cover_tests {
    use super::*;
    use crate::topology;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Cover properties hold on weighted random graphs too (weighted
        /// balls, weighted home-neighborhood containment).
        #[test]
        fn cover_valid_on_weighted_graphs(seed in 0u64..40, n in 6u32..24, w in 1u64..5) {
            let net = topology::random(n, 3, w, seed);
            let cover = SparseCover::build(&net, seed ^ 0xc0ffee);
            prop_assert!(cover.verify(&net).is_ok());
            let top = cover.num_layers() - 1;
            prop_assert!(cover.layer_radius(top) >= net.diameter());
        }
    }
}
