//! The paper's primary contribution: an RL-trained, arbitrary-size,
//! multi-layer OARSMT router.
//!
//! The router (Fig. 2 of the paper) is a three-stage pipeline:
//!
//! 1. [`features`] encodes a 3D Hanan grid graph into the 7-channel feature
//!    volume of Section 3.3 (Fig. 3),
//! 2. a [`selector`] — usually the neural
//!    [`NeuralSelector`] wrapping the 3D Residual
//!    U-Net — produces the *final selected probability* of every vertex in
//!    **one inference**, and [`topk`] picks the `n − 2` most probable valid
//!    vertices as Steiner points,
//! 3. the OARMST router of [`oarsmt_router`] connects pins plus Steiner
//!    points and prunes redundant ones.
//!
//! [`rl_router::RlRouter`] glues the stages together;
//! [`eval`] implements every metric of the paper's evaluation section
//! (routing-cost comparisons, win rates, ST-to-MST ratios, obstacle-ratio
//! curves).
//!
//! # Example
//!
//! ```
//! use oarsmt::rl_router::RlRouter;
//! use oarsmt::selector::NeuralSelector;
//! use oarsmt_geom::{HananGraph, GridPoint};
//!
//! let mut g = HananGraph::uniform(6, 6, 2, 1.0, 1.0, 3.0);
//! g.add_pin(GridPoint::new(0, 0, 0))?;
//! g.add_pin(GridPoint::new(5, 0, 0))?;
//! g.add_pin(GridPoint::new(2, 5, 1))?;
//!
//! // An untrained selector still routes correctly (the safeguard keeps the
//! // result no worse than the pins-only tree).
//! let mut router = RlRouter::new(NeuralSelector::random(42));
//! let result = router.route(&g)?;
//! assert!(result.tree.spans_in(&g, g.pins()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod eval;
pub mod features;
pub mod parallel;
pub mod rl_router;
pub mod selector;
pub mod topk;

pub use error::CoreError;
pub use rl_router::{RlRouter, RouteOutcome};
pub use selector::{NeuralSelector, Selector};
