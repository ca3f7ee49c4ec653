//! # column-imprints — facade crate
//!
//! One-stop import for the Column Imprints reproduction (SIGMOD 2013,
//! Sidirourgos & Kersten). Re-exports the six library crates of the
//! workspace:
//!
//! * [`imprints`] — the column imprints index itself;
//! * [`colstore`] — the columnar storage substrate (columns, relations,
//!   id lists, predicates, persistence);
//! * [`baselines`] — zonemap, WAH-compressed bitmap and sequential-scan
//!   comparators;
//! * [`datagen`] — synthetic dataset and workload generators emulating the
//!   paper's evaluation datasets;
//! * [`engine`] — the sharded, concurrent query-serving engine layering
//!   segments, an epoch-guarded catalog, a morsel-driven executor,
//!   durable storage and background compaction and eviction on top of the
//!   above;
//! * [`server`] — the TCP line-protocol front-end with admission control
//!   (bounded queue, shed-on-overload, per-client fairness) and batched
//!   shared-morsel dispatch into the engine's worker pool.
//!
//! See the `examples/` directory for runnable end-to-end scenarios, the
//! `imprints-bench` crate for the harness that regenerates every table and
//! figure of the paper (and nothing else), and the `benchmark/` package
//! (`BENCHMARK.json`) for every measurement of the engine and the server.

pub use baselines;
pub use colstore;
pub use datagen;
pub use imprints;
pub use imprints_engine as engine;
pub use imprints_server as server;

pub use colstore::{Column, IdList, RangeIndex, RangePredicate, Relation, Scalar};
pub use imprints::ColumnImprints;
pub use imprints_engine::Engine;
