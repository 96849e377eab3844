//! # dtm-graph
//!
//! Weighted communication graphs for distributed transactional memory
//! scheduling, as defined in Section II of Busch, Herlihy, Popovic and
//! Sharma, *"Dynamic Scheduling in Distributed Transactional Memory"*
//! (IPDPS 2020).
//!
//! The paper models the network as a weighted graph `G = (V, E, w)` with a
//! positive integer weight function `w : E -> Z+`; sending a message over an
//! edge `e` takes `w(e)` synchronous time steps, and objects travel along
//! shortest paths. This crate provides:
//!
//! * [`Graph`] — the weighted undirected communication graph;
//! * [`shortest_paths`] — Dijkstra shortest-path trees, path extraction and
//!   diameter computation;
//! * [`Network`] — a graph plus a tiered distance / routing oracle
//!   (closed forms, lazy per-target trees, or landmark estimates), the
//!   object every scheduler and the simulator talk to;
//! * [`oracle`] — the landmark (ALT-style) approximate oracle tier that
//!   scales routing to 10⁵–10⁶-node networks;
//! * [`topology`] — generators for the specialized architectures the paper
//!   analyzes: clique, hypercube, butterfly, d-dimensional grid, line,
//!   cluster and star (plus ring, torus, tree and random graphs used as
//!   additional workloads);
//! * [`cover`] — the hierarchical sparse cover decomposition (Gupta et al.
//!   \[14\], Sharma & Busch \[28\]) required by the distributed bucket
//!   scheduler of Section V.
//!
//! # Example
//!
//! ```
//! use dtm_graph::{topology, NodeId};
//!
//! let net = topology::hypercube(4); // 16 nodes
//! assert_eq!(net.n(), 16);
//! assert_eq!(net.diameter(), 4);
//! // Closed-form routing: distances and next hops are O(1).
//! assert_eq!(net.distance(NodeId(0b0000), NodeId(0b1011)), 3);
//! let hop = net.next_hop(NodeId(0), NodeId(0b1011));
//! assert!(net.distance(hop, NodeId(0b1011)) == 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cover;
pub mod graph;
pub mod network;
pub mod oracle;
pub mod shortest_paths;
pub mod structured;
pub mod topology;

pub use cover::{Cluster, ClusterId, CoverError, Height, SparseCover};
pub use graph::{Graph, GraphError, NodeId, Weight};
pub use network::Network;
pub use oracle::LandmarkOracle;
pub use shortest_paths::ShortestPathTree;
pub use structured::Structured;
pub use topology::Topology;
