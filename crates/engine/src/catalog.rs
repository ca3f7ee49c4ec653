//! The relation catalog: named tables behind one lock.

use std::collections::HashMap;
use std::fs;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use colstore::{ColumnType, Error, Result};

use crate::config::EngineConfig;
use crate::persist::{RecoveryReport, TableStore, MANIFEST_FILE};
use crate::segment::SealedSegment;
use crate::table::Table;

/// A concurrent registry of [`Table`]s.
#[derive(Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Creates and registers a table.
    pub fn create_table(
        &self,
        name: &str,
        schema: &[(&str, ColumnType)],
        cfg: EngineConfig,
    ) -> Result<Arc<Table>> {
        let table = Arc::new(Table::new(name, schema, cfg)?);
        let mut tables = self.tables.write().expect("catalog lock");
        if tables.contains_key(name) {
            return Err(Error::Mismatch(format!("table {name:?} already exists")));
        }
        tables.insert(name.to_string(), Arc::clone(&table));
        Ok(table)
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .expect("catalog lock")
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {name:?}")))
    }

    /// Unregisters a table, returning whether it existed. Queries holding
    /// the `Arc` finish normally; the data is freed with the last clone.
    /// A durable table's on-disk state is deleted with it — an in-flight
    /// query refining into an *evicted* segment of the dropped table may
    /// therefore fail, which matches dropping semantics elsewhere.
    pub fn drop_table(&self, name: &str) -> bool {
        let removed = self.tables.write().expect("catalog lock").remove(name);
        match removed {
            Some(table) => {
                if let Some(store) = table.store() {
                    let _ = store.destroy();
                }
                true
            }
            None => false,
        }
    }

    /// Seals every table's non-empty open write head (see
    /// [`Table::flush_open`]) — the clean-shutdown hook making all
    /// appended rows durable. Returns how many tables sealed a head.
    pub fn flush(&self) -> usize {
        self.tables().iter().filter(|t| t.flush_open()).count()
    }

    /// Recovers a catalog from the durable state under
    /// [`StorageOptions::root`](crate::StorageOptions::root): every
    /// subdirectory with a committed manifest becomes a table, its sealed
    /// segments restored in manifest order. Per segment column, the
    /// persisted imprint is read back with the data left **evicted** on
    /// disk (with [`load_indexes`](crate::StorageOptions::load_indexes),
    /// the fast path) or the checksummed column data is read and the
    /// imprint rebuilt (the fallback for a missing or damaged index file —
    /// data is ground truth, the index is derived state). Orphan segment
    /// directories from crashed or lost-race writes are removed. The
    /// report says which path each column took and what it cost.
    pub fn open(cfg: &EngineConfig) -> Result<(Catalog, RecoveryReport)> {
        cfg.validate();
        let root = cfg
            .storage
            .root
            .as_deref()
            .ok_or_else(|| Error::Mismatch("Catalog::open needs storage.root set".into()))?;
        fs::create_dir_all(root)?;
        let catalog = Catalog::new();
        let mut report = RecoveryReport::default();
        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(root)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() && entry.path().join(MANIFEST_FILE).is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        for name in names {
            let (store, manifest) = TableStore::open(root, &name)?;
            let types: Vec<ColumnType> = manifest.schema.iter().map(|d| d.ty).collect();
            let mut segments = Vec::with_capacity(manifest.segments.len());
            for entry in &manifest.segments {
                let dir = store.segment_dir(&entry.dir);
                let t0 = Instant::now();
                let (seg, recovered, rebuilt) = SealedSegment::recover(
                    entry.base,
                    entry.rows as usize,
                    &types,
                    &entry.dir,
                    &dir,
                    cfg.storage.load_indexes,
                )?;
                let nanos = t0.elapsed().as_nanos() as u64;
                // A mixed segment (some columns recovered, some rebuilt)
                // bills its time to the dominant path.
                if rebuilt > recovered {
                    report.rebuild_nanos += nanos;
                } else {
                    report.recover_nanos += nanos;
                }
                report.indexes_recovered += recovered;
                report.indexes_rebuilt += rebuilt;
                report.rows += entry.rows;
                segments.push(Arc::new(seg));
            }
            report.segments += segments.len();
            report.orphans_removed += store.gc(&manifest)?;
            report.tables += 1;
            let table = Arc::new(Table::assemble(
                &name,
                manifest.schema,
                cfg.clone(),
                Some(store),
                segments,
                manifest.epoch,
            ));
            catalog.tables.write().expect("catalog lock").insert(name, table);
        }
        // Table directories without a manifest are left untouched: with no
        // manifest there is no way to tell a half-created table from
        // foreign data, and the manifest is written at create time, so
        // that window is one `create_table` call wide.
        Ok((catalog, report))
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.tables.read().expect("catalog lock").keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot of all tables (for the maintenance planner).
    pub fn tables(&self) -> Vec<Arc<Table>> {
        self.tables.read().expect("catalog lock").values().cloned().collect()
    }

    /// Aggregate storage statistics across all tables — what the benchmark
    /// reads its size and residency metrics from, and a cheap health probe
    /// for operators. Per table, the segment count and index bytes come from
    /// one frozen sealed-list snapshot, so they can never pair a pre-swap
    /// count with post-swap bytes even while compaction churns.
    pub fn storage_stats(&self) -> StorageStats {
        let mut stats = StorageStats::default();
        for table in self.tables() {
            let sealed = table.sealed_snapshot();
            stats.tables += 1;
            stats.sealed_segments += sealed.len();
            for seg in sealed.iter() {
                let mut evicted = false;
                for col in seg.columns() {
                    stats.index_bytes += col.index_bytes();
                    if col.data_resident() {
                        stats.data_bytes_resident += col.data_bytes();
                    } else {
                        stats.data_bytes_evicted += col.data_bytes();
                        evicted = true;
                    }
                    stats.faulted_bytes += col.faulted_bytes();
                }
                if evicted {
                    stats.evicted_segments += 1;
                }
            }
            stats.rows += table.row_count();
            stats.persist_errors += table.persist_errors();
        }
        stats
    }
}

/// Catalog-wide storage totals (see [`Catalog::storage_stats`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Registered tables.
    pub tables: usize,
    /// Sealed segments across all tables.
    pub sealed_segments: usize,
    /// Bytes of secondary-index structures (imprints) across all sealed
    /// segments.
    pub index_bytes: usize,
    /// Visible rows across all tables.
    pub rows: u64,
    /// Sealed-segment data bytes currently memory-resident.
    pub data_bytes_resident: usize,
    /// Sealed-segment data bytes evicted to disk (imprints stay resident).
    pub data_bytes_evicted: usize,
    /// Sealed segments with at least one evicted column.
    pub evicted_segments: usize,
    /// Data bytes faulted back in from disk across all segments.
    pub faulted_bytes: u64,
    /// Failed persistence attempts across all tables (durability degraded
    /// to in-memory availability; 0 on a healthy system).
    pub persist_errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_lookup_drop() {
        let cat = Catalog::new();
        cat.create_table("a", &[("x", ColumnType::I32)], EngineConfig::default()).unwrap();
        cat.create_table("b", &[("y", ColumnType::F64)], EngineConfig::default()).unwrap();
        assert!(cat.create_table("a", &[("x", ColumnType::I32)], EngineConfig::default()).is_err());
        assert_eq!(cat.table_names(), vec!["a".to_string(), "b".to_string()]);
        assert!(cat.table("a").is_ok());
        assert!(cat.table("zz").is_err());
        assert!(cat.drop_table("a"));
        assert!(!cat.drop_table("a"));
        assert_eq!(cat.tables().len(), 1);
    }

    #[test]
    fn storage_stats_aggregate_tables() {
        use colstore::relation::AnyColumn;
        let cat = Catalog::new();
        let cfg = EngineConfig { segment_rows: 128, ..Default::default() };
        let t = cat.create_table("s", &[("x", ColumnType::I64)], cfg).unwrap();
        t.append_batch(vec![AnyColumn::I64((0..300).collect())]).unwrap();
        let stats = cat.storage_stats();
        assert_eq!(stats.tables, 1);
        assert_eq!(stats.sealed_segments, 2);
        assert_eq!(stats.rows, 300);
        assert!(stats.index_bytes > 0);
    }
}
