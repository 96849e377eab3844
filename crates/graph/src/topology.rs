//! Generators for the network architectures analyzed in the paper
//! (Section I "Contributions"): clique, hypercube, butterfly, grid, line,
//! cluster and star — plus ring, torus, complete binary tree and connected
//! Erdős–Rényi graphs used as additional experiment substrates, and three
//! large-scale families sized for the landmark routing tier (10⁵–10⁶
//! nodes): random geometric graphs, power-law preferential-attachment
//! graphs and fog/cloud trees.
//!
//! All generators assemble edges through [`GraphBuilder`], which keeps
//! construction `O(n + m)` regardless of insertion order.

use crate::graph::{GraphBuilder, NodeId, Weight};
use crate::network::Network;
use crate::structured::Structured;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A topology descriptor: a recipe that [`Topology::build`]s into a
/// [`Network`]. Serializable so experiment configurations round-trip.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Complete graph on `n` nodes (Theorem 3: O(k)-competitive greedy).
    Clique {
        /// Number of nodes.
        n: u32,
    },
    /// Path graph (Section IV-D: O(log^3 n)-competitive bucket schedule).
    Line {
        /// Number of nodes.
        n: u32,
    },
    /// Cycle graph.
    Ring {
        /// Number of nodes.
        n: u32,
    },
    /// d-dimensional grid (log n-dimensional grids get O(k log n) greedy).
    Grid {
        /// Side lengths.
        dims: Vec<u32>,
    },
    /// Hypercube of `2^dim` nodes (Section III-D: O(k log n) greedy).
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// `dim`-dimensional butterfly: `(dim+1) * 2^dim` nodes (same bound as
    /// the hypercube, Section III-D).
    Butterfly {
        /// Dimension.
        dim: u32,
    },
    /// Star of `rays` rays with `ray_len` nodes each (Section IV-D).
    Star {
        /// Number of rays (α).
        rays: u32,
        /// Nodes per ray (β).
        ray_len: u32,
    },
    /// Cluster graph of `cliques` cliques with `clique_size` nodes and
    /// complete bridge edges of weight `bridge_weight` (Section IV-D,
    /// requires γ >= β).
    Cluster {
        /// Number of cliques (α).
        cliques: u32,
        /// Nodes per clique (β).
        clique_size: u32,
        /// Bridge weight (γ).
        bridge_weight: Weight,
    },
    /// d-dimensional torus.
    Torus {
        /// Side lengths.
        dims: Vec<u32>,
    },
    /// Complete binary tree with `depth` levels of edges
    /// (`2^(depth+1) - 1` nodes).
    Tree {
        /// Depth (root at depth 0).
        depth: u32,
    },
    /// Connected Erdős–Rényi-style random graph: a random spanning tree plus
    /// random extra edges until the average degree is ~`avg_degree`, edge
    /// weights uniform in `1..=max_weight`.
    Random {
        /// Number of nodes.
        n: u32,
        /// Target average degree (>= 2 recommended).
        avg_degree: u32,
        /// Maximum edge weight (1 = unweighted).
        max_weight: Weight,
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// Random geometric graph: nodes at integer positions in a square
    /// sized so expected density is ~1 node per `radius × radius` cell;
    /// nodes within Euclidean distance `radius` are linked with weight
    /// ≈ their distance. A deterministic cell-order chain guarantees
    /// connectivity. Scales to 10⁵–10⁶ nodes.
    Geometric {
        /// Number of nodes.
        n: u32,
        /// Connection radius (also the cell size; >= 1).
        radius: u32,
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// Power-law graph by preferential attachment: each new node links to
    /// `attach` earlier nodes sampled proportionally to degree. Unit
    /// weights; connected by construction. Scales to 10⁵–10⁶ nodes.
    PowerLaw {
        /// Number of nodes.
        n: u32,
        /// Edges added per arriving node (>= 1).
        attach: u32,
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// Fog/cloud hierarchy: complete `fanout`-ary tree with `levels`
    /// levels and power-of-two edge weights shrinking toward the leaves
    /// (see [`Structured::FogTree`]). Closed-form routing at any size.
    FogTree {
        /// Number of levels (>= 1).
        levels: u32,
        /// Children per internal node (>= 1).
        fanout: u32,
    },
}

impl Topology {
    /// Short human-readable name, e.g. `"hypercube(d=6)"`.
    pub fn name(&self) -> String {
        match self {
            Topology::Clique { n } => format!("clique(n={n})"),
            Topology::Line { n } => format!("line(n={n})"),
            Topology::Ring { n } => format!("ring(n={n})"),
            Topology::Grid { dims } => format!("grid({dims:?})"),
            Topology::Hypercube { dim } => format!("hypercube(d={dim})"),
            Topology::Butterfly { dim } => format!("butterfly(d={dim})"),
            Topology::Star { rays, ray_len } => format!("star(a={rays},b={ray_len})"),
            Topology::Cluster {
                cliques,
                clique_size,
                bridge_weight,
            } => format!("cluster(a={cliques},b={clique_size},g={bridge_weight})"),
            Topology::Torus { dims } => format!("torus({dims:?})"),
            Topology::Tree { depth } => format!("tree(depth={depth})"),
            Topology::Random {
                n,
                avg_degree,
                max_weight,
                seed,
            } => format!("random(n={n},deg={avg_degree},w={max_weight},seed={seed})"),
            Topology::Geometric { n, radius, seed } => {
                format!("geometric(n={n},r={radius},seed={seed})")
            }
            Topology::PowerLaw { n, attach, seed } => {
                format!("powerlaw(n={n},m={attach},seed={seed})")
            }
            Topology::FogTree { levels, fanout } => format!("fogtree(l={levels},f={fanout})"),
        }
    }

    /// Number of nodes the built network will have.
    pub fn n(&self) -> usize {
        match self {
            Topology::Clique { n } | Topology::Line { n } | Topology::Ring { n } => *n as usize,
            Topology::Grid { dims } | Topology::Torus { dims } => {
                dims.iter().map(|&d| d as usize).product()
            }
            Topology::Hypercube { dim } => 1usize << dim,
            Topology::Butterfly { dim } => (*dim as usize + 1) << dim,
            Topology::Star { rays, ray_len } => 1 + (*rays as usize) * (*ray_len as usize),
            Topology::Cluster {
                cliques,
                clique_size,
                ..
            } => (*cliques as usize) * (*clique_size as usize),
            Topology::Tree { depth } => (1usize << (depth + 1)) - 1,
            Topology::Random { n, .. } => *n as usize,
            Topology::Geometric { n, .. } | Topology::PowerLaw { n, .. } => *n as usize,
            Topology::FogTree { levels, fanout } => Structured::FogTree {
                levels: *levels,
                fanout: *fanout,
            }
            .n(),
        }
    }

    /// Build the network.
    ///
    /// # Panics
    /// Panics on degenerate parameters (zero sizes, γ < β for clusters).
    pub fn build(&self) -> Network {
        match self {
            Topology::Clique { n } => clique(*n),
            Topology::Line { n } => line(*n),
            Topology::Ring { n } => ring(*n),
            Topology::Grid { dims } => grid(dims),
            Topology::Hypercube { dim } => hypercube(*dim),
            Topology::Butterfly { dim } => butterfly(*dim),
            Topology::Star { rays, ray_len } => star(*rays, *ray_len),
            Topology::Cluster {
                cliques,
                clique_size,
                bridge_weight,
            } => cluster(*cliques, *clique_size, *bridge_weight),
            Topology::Torus { dims } => torus(dims),
            Topology::Tree { depth } => tree(*depth),
            Topology::Random {
                n,
                avg_degree,
                max_weight,
                seed,
            } => random(*n, *avg_degree, *max_weight, *seed),
            Topology::Geometric { n, radius, seed } => geometric(*n, *radius, *seed),
            Topology::PowerLaw { n, attach, seed } => power_law(*n, *attach, *seed),
            Topology::FogTree { levels, fanout } => fog_tree(*levels, *fanout),
        }
    }
}

/// Names [`by_name`] accepts, in the order tools list them.
pub const NAMES: [&str; 6] = ["clique", "line", "grid", "hypercube", "star", "cluster"];

/// The fixed-size named instances the trace tools and examples share:
/// `clique` (24 nodes), `line` (48), `grid` (6×6), `hypercube` (dim 5),
/// `star` (4 rays of 8) and `cluster` (4 cliques of 5, bridge weight 6).
/// `None` for any other name (see [`NAMES`]).
pub fn by_name(name: &str) -> Option<Network> {
    Some(match name {
        "clique" => clique(24),
        "line" => line(48),
        "grid" => grid(&[6, 6]),
        "hypercube" => hypercube(5),
        "star" => star(4, 8),
        "cluster" => cluster(4, 5, 6),
        _ => return None,
    })
}

/// Add an edge inside a builder. Builders only link nodes they have
/// already allocated and never repeat an edge, so a failure here is a
/// generator bug, not an input condition.
fn link(g: &mut GraphBuilder, u: NodeId, v: NodeId, w: Weight) {
    g.add_edge(u, v, w)
        .expect("topology builders link distinct existing nodes exactly once"); // dtm-lint: allow(C1) -- builder invariant: endpoints are allocated above and each edge is added once
}

/// Complete graph on `n` nodes, unit weights.
pub fn clique(n: u32) -> Network {
    assert!(n >= 1, "clique needs at least one node");
    let mut g = GraphBuilder::new(n as usize, format!("clique(n={n})"));
    for u in 0..n {
        for v in (u + 1)..n {
            link(&mut g, NodeId(u), NodeId(v), 1);
        }
    }
    Network::new(g.build(), Some(Structured::Clique { n }))
}

/// Path graph on `n` nodes, unit weights.
pub fn line(n: u32) -> Network {
    assert!(n >= 1, "line needs at least one node");
    let mut g = GraphBuilder::new(n as usize, format!("line(n={n})"));
    for u in 1..n {
        link(&mut g, NodeId(u - 1), NodeId(u), 1);
    }
    Network::new(g.build(), Some(Structured::Line { n }))
}

/// Cycle on `n >= 3` nodes, unit weights.
pub fn ring(n: u32) -> Network {
    assert!(n >= 3, "ring needs at least three nodes");
    let mut g = GraphBuilder::new(n as usize, format!("ring(n={n})"));
    for u in 0..n {
        link(&mut g, NodeId(u), NodeId((u + 1) % n), 1);
    }
    Network::new(g.build(), Some(Structured::Ring { n }))
}

/// d-dimensional grid with side lengths `dims`, unit weights.
pub fn grid(dims: &[u32]) -> Network {
    assert!(!dims.is_empty() && dims.iter().all(|&d| d >= 1), "bad dims");
    let n: usize = dims.iter().map(|&d| d as usize).product();
    let s = Structured::Grid {
        dims: dims.to_vec(),
    };
    let mut g = GraphBuilder::new(n, format!("grid({dims:?})"));
    for id in 0..n as u32 {
        // Connect to +1 neighbor in each dimension.
        let mut stride = 1u32;
        let mut rest = id;
        for &d in dims {
            let coord = rest % d;
            if coord + 1 < d {
                link(&mut g, NodeId(id), NodeId(id + stride), 1);
            }
            rest /= d;
            stride *= d;
        }
    }
    Network::new(g.build(), Some(s))
}

/// d-dimensional torus with side lengths `dims`, unit weights.
pub fn torus(dims: &[u32]) -> Network {
    assert!(
        !dims.is_empty() && dims.iter().all(|&d| d >= 3),
        "torus sides must be >= 3"
    );
    let n: usize = dims.iter().map(|&d| d as usize).product();
    let s = Structured::Torus {
        dims: dims.to_vec(),
    };
    let mut g = GraphBuilder::new(n, format!("torus({dims:?})"));
    for id in 0..n as u32 {
        let mut stride = 1u32;
        let mut rest = id;
        for &d in dims {
            let coord = rest % d;
            let next_coord = (coord + 1) % d;
            let nb = id - coord * stride + next_coord * stride;
            if g.edge_weight(NodeId(id), NodeId(nb)).is_none() {
                link(&mut g, NodeId(id), NodeId(nb), 1);
            }
            rest /= d;
            stride *= d;
        }
    }
    Network::new(g.build(), Some(s))
}

/// Hypercube with `2^dim` nodes, unit weights.
pub fn hypercube(dim: u32) -> Network {
    assert!((1..=20).contains(&dim), "hypercube dim out of range");
    let n = 1u32 << dim;
    let mut g = GraphBuilder::new(n as usize, format!("hypercube(d={dim})"));
    for u in 0..n {
        for b in 0..dim {
            let v = u ^ (1 << b);
            if u < v {
                link(&mut g, NodeId(u), NodeId(v), 1);
            }
        }
    }
    Network::new(g.build(), Some(Structured::Hypercube { dim }))
}

/// `dim`-dimensional butterfly: levels `0..=dim`, `2^dim` rows; node
/// `(level, row)` has id `level * 2^dim + row`. Unit weights. No closed-form
/// oracle — distances go through Dijkstra.
pub fn butterfly(dim: u32) -> Network {
    assert!((1..=16).contains(&dim), "butterfly dim out of range");
    let rows = 1u32 << dim;
    let n = (dim + 1) * rows;
    let mut g = GraphBuilder::new(n as usize, format!("butterfly(d={dim})"));
    for level in 0..dim {
        for row in 0..rows {
            let here = level * rows + row;
            let straight = (level + 1) * rows + row;
            let cross = (level + 1) * rows + (row ^ (1 << level));
            link(&mut g, NodeId(here), NodeId(straight), 1);
            link(&mut g, NodeId(here), NodeId(cross), 1);
        }
    }
    Network::new(g.build(), None)
}

/// Star with `rays` rays of `ray_len` nodes; node 0 is the center.
pub fn star(rays: u32, ray_len: u32) -> Network {
    assert!(rays >= 1 && ray_len >= 1, "star needs rays and ray length");
    let s = Structured::Star { rays, ray_len };
    let n = s.n();
    let mut g = GraphBuilder::new(n, format!("star(a={rays},b={ray_len})"));
    for r in 0..rays {
        let first = 1 + r * ray_len;
        link(&mut g, NodeId(0), NodeId(first), 1);
        for p in 1..ray_len {
            link(&mut g, NodeId(first + p - 1), NodeId(first + p), 1);
        }
    }
    Network::new(g.build(), Some(s))
}

/// Cluster graph: `cliques` cliques of `clique_size` unit-weight nodes;
/// node `c * clique_size` is clique `c`'s bridge; bridges form a complete
/// graph with weight `bridge_weight`. The paper requires γ >= β.
pub fn cluster(cliques: u32, clique_size: u32, bridge_weight: Weight) -> Network {
    assert!(cliques >= 1 && clique_size >= 1, "cluster needs size");
    assert!(
        bridge_weight >= clique_size as Weight,
        "paper requires bridge weight γ >= β (clique size)"
    );
    let s = Structured::Cluster {
        cliques,
        clique_size,
        bridge_weight,
    };
    let n = s.n();
    let mut g = GraphBuilder::new(
        n,
        format!("cluster(a={cliques},b={clique_size},g={bridge_weight})"),
    );
    for c in 0..cliques {
        let base = c * clique_size;
        for i in 0..clique_size {
            for j in (i + 1)..clique_size {
                link(&mut g, NodeId(base + i), NodeId(base + j), 1);
            }
        }
    }
    for c1 in 0..cliques {
        for c2 in (c1 + 1)..cliques {
            link(
                &mut g,
                NodeId(c1 * clique_size),
                NodeId(c2 * clique_size),
                bridge_weight,
            );
        }
    }
    Network::new(g.build(), Some(s))
}

/// Complete binary tree with `depth` edge-levels (`2^(depth+1) - 1` nodes),
/// unit weights. Node `i`'s children are `2i+1` and `2i+2`.
pub fn tree(depth: u32) -> Network {
    assert!(depth <= 20, "tree depth out of range");
    let n = (1usize << (depth + 1)) - 1;
    let mut g = GraphBuilder::new(n, format!("tree(depth={depth})"));
    for i in 0..n as u32 {
        for child in [2 * i + 1, 2 * i + 2] {
            if (child as usize) < n {
                link(&mut g, NodeId(i), NodeId(child), 1);
            }
        }
    }
    Network::new(g.build(), None)
}

/// Connected random graph: a uniformly-shuffled spanning tree plus extra
/// random edges until average degree ~`avg_degree`, weights in
/// `1..=max_weight`. Deterministic for a fixed `seed`.
pub fn random(n: u32, avg_degree: u32, max_weight: Weight, seed: u64) -> Network {
    assert!(n >= 2, "random graph needs at least two nodes");
    assert!(max_weight >= 1, "weights must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = GraphBuilder::new(
        n as usize,
        format!("random(n={n},deg={avg_degree},w={max_weight},seed={seed})"),
    );
    let mut order: Vec<u32> = (0..n).collect();
    order.shuffle(&mut rng);
    // Random spanning tree: attach each node to a random earlier one.
    for i in 1..n as usize {
        let parent = order[rng.gen_range(0..i)];
        let w = rng.gen_range(1..=max_weight);
        link(&mut g, NodeId(order[i]), NodeId(parent), w);
    }
    let target_edges =
        ((n as usize) * (avg_degree as usize) / 2).min(n as usize * (n as usize - 1) / 2);
    let mut attempts = 0;
    while g.edge_count() < target_edges && attempts < 50 * target_edges {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || g.edge_weight(NodeId(u), NodeId(v)).is_some() {
            continue;
        }
        let w = rng.gen_range(1..=max_weight);
        link(&mut g, NodeId(u), NodeId(v), w);
    }
    Network::new(g.build(), None)
}

/// Integer square root (floor), avoiding floats for determinism (D5).
fn isqrt(x: u64) -> u64 {
    if x < 2 {
        return x;
    }
    let mut r = 1u64 << (u64::BITS - x.leading_zeros()).div_ceil(2);
    loop {
        let next = (r + x / r) / 2;
        if next >= r {
            return r;
        }
        r = next;
    }
}

/// Random geometric graph on `n` nodes: integer positions uniform in a
/// square of side `isqrt(n) * radius` (expected density ≈ 1 node per
/// `radius × radius` cell), an edge between every pair within Euclidean
/// distance `radius` (weight `max(1, ⌊distance⌋)`), plus a deterministic
/// chain through the cells — same weight rule — so the graph is always
/// connected. Neighbor search uses the 3×3 surrounding cells, so
/// construction is `O(n)` expected. Deterministic in `seed`; all math is
/// integer (D5).
pub fn geometric(n: u32, radius: u32, seed: u64) -> Network {
    assert!(n >= 2, "geometric graph needs at least two nodes");
    assert!(radius >= 1, "geometric radius must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let side = (isqrt(n as u64).max(1) * radius as u64).max(radius as u64 + 1);
    let cells_per_row = (side / radius as u64 + 1) as usize;
    let mut g = GraphBuilder::new(
        n as usize,
        format!("geometric(n={n},r={radius},seed={seed})"),
    );
    let pos: Vec<(u64, u64)> = (0..n)
        .map(|_| (rng.gen_range(0..side), rng.gen_range(0..side)))
        .collect();
    // Bucket nodes by cell for 3×3 neighborhood search.
    let cell_of = |p: (u64, u64)| -> usize {
        (p.1 / radius as u64) as usize * cells_per_row + (p.0 / radius as u64) as usize
    };
    let mut cells: Vec<Vec<u32>> = (0..cells_per_row * cells_per_row)
        .map(|_| Vec::new())
        .collect();
    for (i, &p) in pos.iter().enumerate() {
        cells[cell_of(p)].push(i as u32);
    }
    let dist2 = |a: (u64, u64), b: (u64, u64)| -> u64 {
        let dx = a.0.abs_diff(b.0);
        let dy = a.1.abs_diff(b.1);
        dx * dx + dy * dy
    };
    let r2 = radius as u64 * radius as u64;
    for u in 0..n {
        let p = pos[u as usize];
        let (cx, cy) = (
            (p.0 / radius as u64) as isize,
            (p.1 / radius as u64) as isize,
        );
        for dy in -1..=1isize {
            for dx in -1..=1isize {
                let (x, y) = (cx + dx, cy + dy);
                if x < 0 || y < 0 || x as usize >= cells_per_row || y as usize >= cells_per_row {
                    continue;
                }
                for &v in &cells[y as usize * cells_per_row + x as usize] {
                    if v <= u {
                        continue; // each unordered pair considered once
                    }
                    let d2 = dist2(p, pos[v as usize]);
                    if d2 <= r2 {
                        link(&mut g, NodeId(u), NodeId(v), isqrt(d2).max(1));
                    }
                }
            }
        }
    }
    // Connectivity chain: visit nodes in (cell, id) order and link each to
    // its predecessor unless already adjacent. Deterministic; adds < n
    // edges whose weight follows the same distance rule.
    let mut chain: Vec<u32> = (0..n).collect();
    chain.sort_unstable_by_key(|&i| (cell_of(pos[i as usize]), i));
    for w in chain.windows(2) {
        let (a, b) = (NodeId(w[0]), NodeId(w[1]));
        if g.edge_weight(a, b).is_none() {
            let d = isqrt(dist2(pos[w[0] as usize], pos[w[1] as usize])).max(1);
            link(&mut g, a, b, d);
        }
    }
    Network::new(g.build(), None)
}

/// Power-law (preferential attachment) graph: nodes arrive in id order;
/// node `i` links to `attach` distinct earlier nodes chosen proportionally
/// to current degree (the classic endpoint-list trick). Unit weights;
/// connected by construction since every node attaches to a predecessor.
/// Deterministic in `seed`.
pub fn power_law(n: u32, attach: u32, seed: u64) -> Network {
    assert!(n >= 2, "power-law graph needs at least two nodes");
    assert!(attach >= 1, "attach must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = GraphBuilder::new(
        n as usize,
        format!("powerlaw(n={n},m={attach},seed={seed})"),
    );
    // Every edge endpoint lands here once; sampling an entry uniformly is
    // degree-proportional sampling.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n as usize * attach as usize);
    for i in 1..n {
        let want = attach.min(i);
        let mut added = 0u32;
        let mut attempts = 0u32;
        while added < want {
            attempts += 1;
            let target = if endpoints.is_empty() || attempts > 8 * attach {
                // Fallback (and bootstrap): uniform over earlier nodes;
                // keeps the loop bounded when degree sampling keeps
                // hitting duplicates.
                rng.gen_range(0..i)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if target == i || g.edge_weight(NodeId(i), NodeId(target)).is_some() {
                continue;
            }
            link(&mut g, NodeId(i), NodeId(target), 1);
            endpoints.push(i);
            endpoints.push(target);
            added += 1;
        }
    }
    Network::new(g.build(), None)
}

/// Fog/cloud tree: complete `fanout`-ary tree with `levels` levels, edge
/// weights `2^(levels-1-d)` into depth `d` — long-latency links near the
/// cloud root, fast links at the device edge. Routing and distances come
/// from the [`Structured::FogTree`] closed forms, so million-node
/// instances cost no Dijkstra at all.
pub fn fog_tree(levels: u32, fanout: u32) -> Network {
    assert!((1..=30).contains(&levels), "fog tree levels out of range");
    assert!(fanout >= 1, "fog tree fanout must be positive");
    let s = Structured::FogTree { levels, fanout };
    let n = s.n();
    assert!(n <= u32::MAX as usize / 4, "fog tree too large");
    let mut g = GraphBuilder::new(n, format!("fogtree(l={levels},f={fanout})"));
    let mut first = 1u64; // first id at the current child depth
    let mut width = fanout as u64;
    for depth in 1..levels {
        let w: Weight = 1u64 << (levels - 1 - depth);
        for i in first..(first + width).min(n as u64) {
            let parent = (i - 1) / fanout as u64;
            link(&mut g, NodeId(parent as u32), NodeId(i as u32), w);
        }
        first += width;
        width *= fanout as u64;
    }
    Network::new(g.build(), Some(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shortest_paths::ShortestPathTree;
    use proptest::prelude::*;

    /// For structured topologies the closed-form oracle must agree with
    /// Dijkstra on the generated graph.
    fn assert_oracle_matches(net: &Network) {
        let s = net.structured().expect("structured topology").clone();
        let g = net.graph();
        for target in g.nodes() {
            let tree = ShortestPathTree::compute(g, target);
            for v in g.nodes() {
                assert_eq!(
                    s.dist(v, target),
                    tree.dist(v),
                    "{}: dist({v},{target})",
                    net.name()
                );
            }
        }
    }

    #[test]
    fn by_name_knows_exactly_the_listed_names() {
        for name in NAMES {
            let net = by_name(name).expect("listed name builds");
            assert!(net.name().starts_with(name), "{name} -> {}", net.name());
        }
        for bad in ["torus", "Grid", "", "grid "] {
            assert!(by_name(bad).is_none(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn clique_matches_dijkstra() {
        assert_oracle_matches(&clique(7));
    }

    #[test]
    fn line_matches_dijkstra() {
        assert_oracle_matches(&line(9));
    }

    #[test]
    fn ring_matches_dijkstra() {
        assert_oracle_matches(&ring(8));
        assert_oracle_matches(&ring(9));
    }

    #[test]
    fn grid_matches_dijkstra() {
        assert_oracle_matches(&grid(&[3, 4]));
        assert_oracle_matches(&grid(&[2, 3, 2]));
        assert_oracle_matches(&grid(&[5]));
    }

    #[test]
    fn torus_matches_dijkstra() {
        assert_oracle_matches(&torus(&[4, 3]));
        assert_oracle_matches(&torus(&[5]));
    }

    #[test]
    fn hypercube_matches_dijkstra() {
        assert_oracle_matches(&hypercube(4));
    }

    #[test]
    fn star_matches_dijkstra() {
        assert_oracle_matches(&star(4, 3));
        assert_oracle_matches(&star(1, 4));
    }

    #[test]
    fn cluster_matches_dijkstra() {
        assert_oracle_matches(&cluster(3, 4, 5));
        assert_oracle_matches(&cluster(2, 2, 2));
        assert_oracle_matches(&cluster(4, 1, 2));
    }

    #[test]
    fn butterfly_shape() {
        let net = butterfly(3);
        assert_eq!(net.n(), 4 * 8);
        // Degree: internal levels have 4 neighbors, boundary levels 2.
        let g = net.graph();
        assert_eq!(g.degree(NodeId(0)), 2);
        assert!(g.is_connected());
        // Known property: diameter of k-dim butterfly is 2k.
        assert_eq!(net.diameter(), 6);
    }

    #[test]
    fn tree_shape() {
        let net = tree(3);
        assert_eq!(net.n(), 15);
        assert_eq!(net.diameter(), 6);
    }

    #[test]
    fn fog_tree_matches_dijkstra() {
        assert_oracle_matches(&fog_tree(3, 2));
        assert_oracle_matches(&fog_tree(4, 3));
        assert_oracle_matches(&fog_tree(2, 6));
        assert_oracle_matches(&fog_tree(5, 1));
    }

    #[test]
    fn geometric_deterministic_and_connected() {
        let a = geometric(200, 4, 13);
        let b = geometric(200, 4, 13);
        assert!(a.graph().is_connected());
        let ea: Vec<_> = a.graph().edges().collect();
        let eb: Vec<_> = b.graph().edges().collect();
        assert_eq!(ea, eb);
        // Weights follow the distance rule: positive, at most ~r√2 for
        // in-radius links plus the (possibly longer) chain edges.
        assert!(a.graph().min_edge_weight().unwrap() >= 1);
    }

    #[test]
    fn power_law_deterministic_connected_and_skewed() {
        let a = power_law(300, 2, 5);
        let b = power_law(300, 2, 5);
        assert!(a.graph().is_connected());
        let ea: Vec<_> = a.graph().edges().collect();
        let eb: Vec<_> = b.graph().edges().collect();
        assert_eq!(ea, eb);
        // Preferential attachment produces hubs: the max degree should be
        // far above the mean (~4 for attach=2).
        let max_deg = a
            .graph()
            .nodes()
            .map(|v| a.graph().degree(v))
            .max()
            .unwrap();
        assert!(max_deg >= 10, "expected a hub, max degree {max_deg}");
        assert!(a.graph().uniform_weight() == Some(1));
    }

    #[test]
    fn isqrt_exact() {
        for x in 0..2000u64 {
            let r = isqrt(x);
            assert!(r * r <= x && (r + 1) * (r + 1) > x, "isqrt({x}) = {r}");
        }
        assert_eq!(isqrt(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn random_graph_deterministic_and_connected() {
        let a = random(40, 4, 3, 7);
        let b = random(40, 4, 3, 7);
        assert!(a.graph().is_connected());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        let ea: Vec<_> = a.graph().edges().collect();
        let eb: Vec<_> = b.graph().edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn topology_enum_roundtrip() {
        let topos = vec![
            Topology::Clique { n: 5 },
            Topology::Line { n: 6 },
            Topology::Hypercube { dim: 3 },
            Topology::Butterfly { dim: 2 },
            Topology::Star {
                rays: 3,
                ray_len: 2,
            },
            Topology::Cluster {
                cliques: 2,
                clique_size: 3,
                bridge_weight: 3,
            },
            Topology::Tree { depth: 2 },
            Topology::Grid { dims: vec![3, 3] },
            Topology::Geometric {
                n: 60,
                radius: 3,
                seed: 2,
            },
            Topology::PowerLaw {
                n: 50,
                attach: 2,
                seed: 3,
            },
            Topology::FogTree {
                levels: 3,
                fanout: 3,
            },
        ];
        for t in topos {
            let net = t.build();
            assert_eq!(net.n(), t.n(), "{}", t.name());
            assert!(net.graph().is_connected());
            assert!(!t.name().is_empty());
            let json = serde_json::to_string(&t).unwrap();
            let back: Topology = serde_json::from_str(&json).unwrap();
            assert_eq!(back, t);
        }
    }

    #[test]
    #[should_panic(expected = "γ >= β")]
    fn cluster_rejects_small_gamma() {
        let _ = cluster(2, 5, 3);
    }

    proptest! {
        #[test]
        fn random_graphs_always_connected(n in 2u32..60, deg in 0u32..6, w in 1u64..5, seed in 0u64..50) {
            let net = random(n, deg, w, seed);
            prop_assert!(net.graph().is_connected());
            prop_assert_eq!(net.n(), n as usize);
        }

        #[test]
        fn geometric_always_connected(n in 2u32..120, r in 1u32..6, seed in 0u64..30) {
            let net = geometric(n, r, seed);
            prop_assert!(net.graph().is_connected());
            prop_assert_eq!(net.n(), n as usize);
        }

        #[test]
        fn power_law_always_connected(n in 2u32..120, m in 1u32..4, seed in 0u64..30) {
            let net = power_law(n, m, seed);
            prop_assert!(net.graph().is_connected());
            prop_assert_eq!(net.n(), n as usize);
        }

        #[test]
        fn grid_oracle_random_dims(d0 in 1u32..5, d1 in 1u32..5, d2 in 1u32..4) {
            let dims = vec![d0, d1, d2];
            let net = grid(&dims);
            // Spot-check a few pairs against Dijkstra.
            let g = net.graph();
            let tree = ShortestPathTree::compute(g, NodeId(0));
            let s = net.structured().unwrap();
            for v in g.nodes() {
                prop_assert_eq!(s.dist(v, NodeId(0)), tree.dist(v));
            }
        }
    }
}
