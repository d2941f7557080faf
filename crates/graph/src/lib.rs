//! Graph-search substrate over 3D Hanan grid graphs.
//!
//! This crate hosts the search primitives every router in the reproduction
//! is built from:
//!
//! * [`dijkstra`] — multi-source Dijkstra over a
//!   [`HananGraph`](oarsmt_geom::HananGraph), the "maze router" of the
//!   paper's OARMST construction (Section 3.1, following \[14\]). One
//!   query method, [`DijkstraWorkspace::shortest_path_into`], runs one
//!   relaxation loop over a [`GridAdjacency`]; its [`QueuePolicy`] picks
//!   the frontier: the retained binary-heap oracle, or `Auto` — on
//!   integer cost models an A\* search ([`RectilinearBound`]) for a query
//!   with a target hint, the [`bucket`]-queue (Dial) fast path for one
//!   without. One canonical read-out (the least `(distance, index)`
//!   predecessor) serves every query, so `Auto` returns the heap's paths
//!   bit for bit (DESIGN.md §12). An OARMST build resumes one search
//!   across its Prim steps instead ([`DijkstraWorkspace::prim_step`],
//!   §12.5), an A\* search under `Auto` toward the nearest open terminal,
//!   each step stopping at its own target,
//! * [`bucket`] — the key-indexed bucket queue behind the Dial frontier:
//!   one occupancy bit and one slot per key, pooled bucket storage, and a
//!   cursor a Prim step rewinds to key 0,
//! * [`csr`] — flattened CSR adjacency for the relaxation inner loop,
//! * [`stamp`] — `O(1)`-reset stamped index sets,
//! * [`mst`] — Prim's algorithm over dense terminal-distance matrices,
//! * [`union_find`] — disjoint sets, used for tree validation.
//!
//! # Example
//!
//! ```
//! use oarsmt_geom::{HananGraph, GridPoint};
//! use oarsmt_graph::{DijkstraWorkspace, GridAdjacency, QueuePolicy};
//!
//! let mut g = HananGraph::uniform(4, 4, 1, 1.0, 1.0, 3.0);
//! g.add_obstacle_vertex(GridPoint::new(1, 0, 0)).unwrap();
//! let mut adj = GridAdjacency::new();
//! adj.ensure(&g);
//! let (from, to) = (GridPoint::new(0, 0, 0), GridPoint::new(3, 0, 0));
//! let mut path = Vec::new();
//! let cost = DijkstraWorkspace::new()
//!     .shortest_path_into(
//!         &g,
//!         &adj,
//!         &[from],
//!         |i| i == g.index(to),
//!         None,
//!         QueuePolicy::Auto,
//!         &[],
//!         &mut path,
//!     )
//!     .expect("the obstacle can be routed around");
//! assert_eq!(cost, 5.0); // up, across three columns, back down
//! assert_eq!(path.len(), 6);
//! ```

#![forbid(unsafe_code)]

pub mod bucket;
pub mod csr;
pub mod dijkstra;
pub mod error;
pub mod mst;
pub mod stamp;
pub mod union_find;

pub use bucket::BucketQueue;
pub use csr::GridAdjacency;
pub use dijkstra::{DijkstraWorkspace, QueuePolicy, RectilinearBound, DIAL_MAX_EDGE_COST};
pub use error::GraphError;
pub use mst::{prim_mst, MstEdge};
pub use stamp::{StampMap, StampSet};
pub use union_find::UnionFind;
