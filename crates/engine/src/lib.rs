//! # imprints-engine — a sharded, concurrent query-serving engine
//!
//! Turns the single-column [`imprints`] primitives into a serving system:
//!
//! * **Segments** ([`segment`]): columns are split into fixed-size,
//!   cacheline-aligned segments, each column carrying its own imprint,
//!   binned from the segment's own rows when it is sealed — index builds
//!   have bounded scope and segments are natural parallelism morsels. A
//!   segment column is an untyped `AnyColumn` plus an
//!   [`AnyImprints`](imprints::relation_index::AnyImprints): the typed
//!   work is the `imprints` crate's, reached through `colstore::dispatch!`,
//!   so this crate holds no per-type code.
//! * **Epoch-guarded catalog** ([`catalog`], [`table`]): a relation's
//!   write head, sealed segment list (`Arc`-swapped) and epoch sit behind
//!   one lock; readers pin a consistent prefix in O(1) under it and sweep
//!   the sealed segments after releasing it.
//! * **Morsel-driven executor** ([`executor`]): a persistent worker pool
//!   fans multi-predicate queries (late materialization: per-column
//!   imprint candidates → id-space merge-join → refinement — the §3 plan
//!   of [`imprints::relation_index::run`], which this crate calls and
//!   does not copy) across segments and merges the ordered per-segment
//!   id lists.
//! * **Tail-indexed write head** ([`table`]): once the open segment is
//!   large enough, each open column buffer carries an incremental tail
//!   imprint — an [`imprints::relation_index::AnyImprints`] extended on
//!   every append (§4.1: appends never readjust borders) — so queries
//!   skip cachelines of the hot head instead of scanning it linearly
//!   under the table read lock, through the same plan the sealed segments
//!   run.
//! * **Maintenance planner** ([`planner`]): LSM-style **tiered
//!   compaction** in the background — runs of adjacent same-tier sealed
//!   segments merge into one (re-binned once over the merged values) under
//!   a per-tick byte budget, swapped in atomically — then eviction of the
//!   coldest persisted segments' data over the resident budget.
//!
//! ```
//! use colstore::{ColumnType, Value};
//! use imprints_engine::{Engine, EngineConfig, ValueRange};
//!
//! let engine = Engine::new(EngineConfig { segment_rows: 256, workers: 2, ..Default::default() });
//! let t = engine
//!     .create_table("readings", &[("sensor", ColumnType::U16), ("value", ColumnType::F64)])
//!     .unwrap();
//! for i in 0..1000u64 {
//!     t.append_row(&[Value::U16((i % 16) as u16), Value::F64((i % 100) as f64)]).unwrap();
//! }
//! let ids = engine
//!     .query(
//!         "readings",
//!         &[
//!             ("sensor", ValueRange::equals(Value::U16(3))),
//!             ("value", ValueRange::at_most(Value::F64(10.0))),
//!         ],
//!     )
//!     .unwrap();
//! assert!(ids.iter().all(|id| id % 16 == 3));
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod config;
pub mod executor;
pub mod persist;
pub mod planner;
pub mod segment;
pub mod table;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use colstore::{ColumnType, IdList, Result};

pub use catalog::{Catalog, StorageStats};
pub use config::{EngineConfig, MaintenanceConfig, StorageOptions};
pub use executor::WorkerPool;
pub use imprints::relation_index::{SegQuery, ValueRange, ValueSet};
pub use imprints::simd::{Hits, RefineKernel};
pub use persist::RecoveryReport;
pub use planner::{
    maintenance_tick, path_report, BucketPathReport, ColumnPathReport, CompactionAction,
    MaintenanceDaemon, MaintenanceReport, PathKind,
};
pub use segment::SealedSegment;
pub use table::{BatchAnswer, BatchQuery, ColumnDef, QueryStats, Table};

/// The assembled engine: catalog + worker pool + optional maintenance
/// daemon, under one configuration.
pub struct Engine {
    cfg: EngineConfig,
    catalog: Arc<Catalog>,
    pool: Arc<WorkerPool>,
    daemon: Mutex<Option<MaintenanceDaemon>>,
}

impl Engine {
    /// Builds an engine with `cfg` (worker pool started immediately).
    pub fn new(cfg: EngineConfig) -> Engine {
        cfg.validate();
        let pool = Arc::new(WorkerPool::new(cfg.effective_workers()));
        Engine { cfg, catalog: Arc::new(Catalog::new()), pool, daemon: Mutex::new(None) }
    }

    /// Builds an engine by **recovering** the catalog from the durable
    /// state under `cfg.storage.root` (see [`Catalog::open`]). New tables
    /// created afterwards persist under the same root.
    pub fn open(cfg: EngineConfig) -> Result<(Engine, RecoveryReport)> {
        cfg.validate();
        let (catalog, report) = Catalog::open(&cfg)?;
        let pool = Arc::new(WorkerPool::new(cfg.effective_workers()));
        Ok((Engine { cfg, catalog: Arc::new(catalog), pool, daemon: Mutex::new(None) }, report))
    }

    /// Seals every table's non-empty open write head, making all appended
    /// rows durable — call before a planned shutdown (see
    /// [`Catalog::flush`]). Returns how many tables sealed a head.
    pub fn flush(&self) -> usize {
        self.catalog.flush()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The relation catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The shared query worker pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Creates a table under the engine's configuration.
    pub fn create_table(&self, name: &str, schema: &[(&str, ColumnType)]) -> Result<Arc<Table>> {
        self.catalog.create_table(name, schema, self.cfg.clone())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.catalog.table(name)
    }

    /// Evaluates a conjunctive query on the worker pool.
    pub fn query(&self, table: &str, preds: &[(&str, ValueRange)]) -> Result<IdList> {
        self.catalog.table(table)?.query_on(preds, Some(&self.pool))
    }

    /// Counts matching rows on the worker pool.
    pub fn count(&self, table: &str, preds: &[(&str, ValueRange)]) -> Result<u64> {
        self.catalog.table(table)?.count(preds, Some(&self.pool))
    }

    /// Starts (or restarts) the background maintenance daemon. Fails,
    /// leaving any running daemon in place, if its thread cannot be
    /// spawned.
    pub fn start_maintenance(&self, interval: Duration) -> Result<()> {
        let mut daemon = self.daemon.lock().expect("daemon slot");
        *daemon = Some(MaintenanceDaemon::start(Arc::clone(&self.catalog), interval)?);
        Ok(())
    }

    /// Stops the maintenance daemon, if running.
    pub fn stop_maintenance(&self) {
        if let Some(mut d) = self.daemon.lock().expect("daemon slot").take() {
            d.stop();
        }
    }

    /// One synchronous maintenance pass (also available while the daemon
    /// runs; swaps are atomic either way).
    pub fn maintenance_tick(&self) -> MaintenanceReport {
        planner::maintenance_tick(&self.catalog)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.stop_maintenance();
    }
}

// Re-exported so downstream code can name the index type without depending
// on the `imprints` crate directly.
pub use imprints::ColumnImprints;

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::relation::AnyColumn;
    use colstore::Value;

    #[test]
    fn engine_end_to_end() {
        let engine =
            Engine::new(EngineConfig { segment_rows: 512, workers: 2, ..Default::default() });
        let t =
            engine.create_table("m", &[("k", ColumnType::I64), ("v", ColumnType::F64)]).unwrap();
        let k: Vec<i64> = (0..4000).map(|i| i % 257).collect();
        let v: Vec<f64> = (0..4000).map(|i| (i % 91) as f64).collect();
        t.append_batch(vec![
            AnyColumn::I64(k.iter().copied().collect()),
            AnyColumn::F64(v.iter().copied().collect()),
        ])
        .unwrap();
        let ids = engine
            .query(
                "m",
                &[
                    ("k", ValueRange::between(Value::I64(10), Value::I64(40))),
                    ("v", ValueRange::at_most(Value::F64(30.0))),
                ],
            )
            .unwrap();
        let expect: Vec<u64> = (0..4000u64)
            .filter(|&i| (10..=40).contains(&k[i as usize]) && v[i as usize] <= 30.0)
            .collect();
        assert_eq!(ids.as_slice(), expect.as_slice());
        assert_eq!(
            engine.count("m", &[("k", ValueRange::equals(Value::I64(5)))]).unwrap(),
            k.iter().filter(|&&x| x == 5).count() as u64
        );
        engine.start_maintenance(Duration::from_millis(10)).unwrap();
        engine.stop_maintenance();
    }
}
