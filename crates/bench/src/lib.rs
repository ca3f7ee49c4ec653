//! # imprints-bench — the harness regenerating the paper's tables and figures
//!
//! One experiment runner per table/figure of the paper's §6 evaluation
//! (Table 1, Figures 3–11: imprints beside zonemap, WAH and scan), invoked
//! through the `experiments` binary:
//!
//! ```text
//! cargo run --release -p imprints-bench --bin experiments -- --experiment all
//! ```
//!
//! Results print as aligned tables and are also written as CSV under
//! `bench_results/`. The per-experiment mapping lives in DESIGN.md §4.
//!
//! Paper figures only: this crate depends on `colstore`, `imprints`,
//! `baselines` and `datagen` and cannot see the engine or the server. The
//! serving system is measured by the `benchmark/` package (`BENCHMARK.json`).

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
