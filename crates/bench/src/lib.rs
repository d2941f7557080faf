//! Benchmark harness regenerating every table and figure of the paper.
//!
//! One binary per experiment (see DESIGN.md §4):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — test-subset settings (paper vs scaled) |
//! | `table2` | Table 2 — routing cost, ours vs \[14\] |
//! | `table3` | Table 3 — runtime, ours vs \[14\] |
//! | `table4` | Table 4 — public benchmarks vs \[12\]/\[16\]/\[14\] |
//! | `fig10`  | Fig. 10 — improvement ratio vs obstacle ratio |
//! | `fig11`  | Fig. 11 — ST-to-MST vs training time (small layouts) |
//! | `fig12`  | Fig. 12 — ST-to-MST vs training time (larger layouts) |
//!
//! The `oarsmt_bench` runner backs the runtime claims with recorded
//! `BENCH_*.json` artifacts. Each lane ([`lanes`]) is one throughput
//! micro-bench over a ladder of layout sizes, and each asserts its bit-identity
//! oracles while it times:
//!
//! | lane | measures |
//! |---|---|
//! | `critic` | MCTS critic rollouts/s, fresh vs reused `RouteContext` |
//! | `unet` | U-Net forward and train-step throughput |
//! | `batch` | batched vs per-sample selector inference and fitting |
//! | `dijkstra` | heap vs `Auto` (Dial builds, A* reroutes) on OARMST routes |
//!
//! Run any table with `cargo run --release -p oarsmt-bench --bin table2`,
//! and any lane with `cargo run --release -p oarsmt-bench --bin
//! oarsmt_bench -- critic --quick`.

#![forbid(unsafe_code)]

pub mod artifact;
pub mod harness;
pub mod lanes;
pub mod report;
pub mod runner;

pub use harness::{pretrained_selector, SubsetResult};
pub use report::Table;
