//! # blast-bench
//!
//! Benchmark harnesses reproducing every table and figure in the paper's
//! evaluation (see `DESIGN.md` §3 for the experiment index), plus
//! Criterion micro-benchmarks of the core kernels.
//!
//! Each paper exhibit has a `harness = false` bench target under
//! `benches/` that runs the simulated experiment and prints the same
//! rows/series the paper reports; `cargo bench -p blast-bench` runs them
//! all and drops JSON artifacts under `target/paper-results/`.

#![warn(missing_docs)]

pub mod runner;
pub mod table;
pub mod workload;

pub use runner::{run_once, run_traced, Program, RunSummary};
