//! # skyline-bench
//!
//! The reproduction harness for every table and figure of the paper's
//! evaluation (Section 6), plus Criterion ablation benches.
//!
//! Run `cargo run -p skyline-bench --release --bin repro -- list` for the
//! experiment index; each experiment id (`fig2`, `table10`, …) regenerates
//! the corresponding artefact. Default sizes are scaled down to laptop
//! scale; `--full` switches to the paper's exact cardinalities.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod experiments;
pub mod harness;
pub mod replication_bench;
