//! Combinatorial Monte-Carlo tree search — the paper's training-signal
//! engine (Sections 3.4–3.5) — plus the conventional AlphaGo-like MCTS
//! baseline (Section 4.2).
//!
//! The **combinatorial** MCTS explores Steiner-point *combinations*: an
//! action may only select a vertex with lower selection priority (larger
//! lexicographic `(h, v, m)`) than the previously selected one, so every
//! node of the search tree is a unique combination and no permutation is
//! searched twice. Its [`actor`] converts the Steiner-point selector's
//! independent per-vertex probabilities into a sequential action policy
//! (Eq. 1), its [`critic`] completes a partial state with the top remaining
//! probabilities and prices the tree with the OARMST router, and the label
//! statistic `L_fsp(v) = n_sel(v) / n_opp(v)` (Eq. 3) over the whole search
//! tree becomes a dense supervised target for the selector.
//!
//! The **conventional** baseline in [`alphago`] searches ordered sequences
//! (any valid vertex at every level) and emits one visit-distribution label
//! per executed move — the scheme of \[4\]/AlphaGo that the paper compares
//! against in Figs. 11–12.
//!
//! Both drivers run one private engine (tree, UCT descent, expansion,
//! critic simulation, backup). The schemes differ only in the expansion
//! prior ([`action_policy_into`] vs [`conventional_policy_into`]), the
//! label they record, and how a visit-count tie on the executed root move
//! is broken.

#![forbid(unsafe_code)]

pub mod actor;
pub mod alphago;
pub mod config;
pub mod critic;
mod engine;
pub mod label;
pub mod search;
pub mod terminal;

pub use actor::{action_policy_into, conventional_policy_into};
pub use alphago::{AlphaGoMcts, AlphaGoSample};
pub use config::MctsConfig;
pub use critic::Critic;
pub use label::LabelCounters;
pub use search::{CombinatorialMcts, SearchOutcome};

// The parallel sample-generation path (`oarsmt_rl`) fans one search per
// worker thread: the engines and their outcomes must stay `Send + Sync`.
// Keeping the assertion here turns an accidental `Rc`/`RefCell` in search
// state into a compile error instead of a distant one in `oarsmt_rl`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CombinatorialMcts>();
    assert_send_sync::<AlphaGoMcts>();
    assert_send_sync::<SearchOutcome>();
    assert_send_sync::<AlphaGoSample>();
    assert_send_sync::<MctsConfig>();
    assert_send_sync::<Critic>();
    assert_send_sync::<LabelCounters>();
};
