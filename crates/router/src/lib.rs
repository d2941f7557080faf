//! OARMST construction and algorithmic ML-OARSMT baseline routers.
//!
//! The paper's router (Fig. 2) ends with an **OARMST** step: a maze-router
//! based Prim's algorithm connects all pins and selected Steiner points,
//! removes redundant Steiner points (degree < 3), and reconstructs the
//! spanning tree — following \[14\]. That step lives in [`oarmst`].
//!
//! Three algorithmic baselines are re-implemented here (the paper compares
//! against their released binaries / published numbers; see DESIGN.md §5):
//!
//! * [`lin18`] — \[14\], the strongest baseline: maze routing with bounded
//!   exploration and path-assessed retracing (Tables 2–4),
//! * [`liu14`] — \[16\]-like geometric-reduction router (Table 4),
//! * [`spanning`] — \[12\]-like spanning-graph router (Table 4).
//!
//! # Example
//!
//! ```
//! use oarsmt_geom::{HananGraph, GridPoint};
//! use oarsmt_router::{OarmstRouter, RouteContext};
//!
//! let mut g = HananGraph::uniform(5, 5, 1, 1.0, 1.0, 3.0);
//! g.add_pin(GridPoint::new(0, 0, 0))?;
//! g.add_pin(GridPoint::new(4, 0, 0))?;
//! g.add_pin(GridPoint::new(2, 4, 0))?;
//! let tree = OarmstRouter::new().route_in(&mut RouteContext::new(), &g, &[])?;
//! assert!(tree.spans_in(&g, g.pins()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod context;
pub mod error;
pub mod exact;
pub mod lin18;
pub mod liu14;
pub mod oarmst;
pub mod prune;
pub mod retrace;
pub mod segments;
pub mod spanning;
pub mod tree;

pub use context::RouteContext;
pub use error::RouteError;
pub use lin18::Lin18Router;
pub use liu14::Liu14Router;
pub use oarmst::OarmstRouter;
// Re-exported so routing callers can pick a policy without depending on
// `oarsmt-graph` directly.
pub use oarsmt_graph::QueuePolicy;
pub use spanning::SpanningRouter;
pub use tree::{RouteTree, TreeAdjacency};
