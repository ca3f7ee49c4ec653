//! Sealed, immutable data segments.
//!
//! A table's data is split into fixed-size segments of
//! [`EngineConfig::segment_rows`](crate::EngineConfig::segment_rows) rows.
//! Each sealed segment owns, per column, its cacheline-aligned data (an
//! [`AnyColumn`]) and one secondary index (an [`AnyImprints`]) binned from
//! a sample of the segment's own rows — the paper's Algorithms 1 and 2,
//! unmodified — so a sealed index is a function of its data alone, and
//! every query is answered through it by the typed bodies the write head
//! runs too ([`IndexedColumn`], the paper's Algorithm 3). This module
//! holds no typed code: what it adds is residency (eviction and
//! fault-in), the heat counter and the column's files.
//!
//! Sealed segments are immutable and shared via `Arc`: an index is built
//! once, when its segment is sealed, and only a compaction merge ever
//! builds it again (over the merged rows); queries, appends and the
//! maintenance planner never copy data, they swap segment pointers.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

use colstore::relation::AnyColumn;
use colstore::{AccessStats, CachelineSet, ColumnType, Value};
use imprints::relation_index::{
    self, AnyImprints, AnySet, Forecast, IndexedColumn, PlanColumn, SegQuery,
};
use imprints::simd::Hits;

use crate::persist;

/// The data payload of one sealed segment column: memory-resident, or
/// *evicted* to its durable column file with only the metadata (and the
/// imprint indexing it) left in memory.
///
/// Eviction is what turns the imprint's size advantage into a memory
/// story: the per-column imprints stay resident, the data pages go, and
/// [`DataSlot::read`] faults the column back in from its file the first
/// time refinement actually needs a value. The slot can only evict once
/// [`DataSlot::mark_durable`] pinned a file — un-persisted data is never
/// dropped.
///
/// The slot owns its column outright. A reader holds the read lock for the
/// one column evaluation it needs the values for, so an eviction waits for
/// the evaluations in flight. (Why not an `Arc` per column cloned out to
/// readers: DESIGN.md, "Imprint-resident cold eviction".)
#[derive(Debug)]
struct DataSlot {
    /// `Some` while resident, `None` while evicted (lock class
    /// `segment.data`). Readers hold it for one column evaluation; the
    /// write side is taken to evict and to fault in. Never take it while
    /// holding it: behind a waiting writer a nested read blocks forever.
    cold: RwLock<Option<AnyColumn>>,
    /// The scalar type the column faults back in as.
    ty: ColumnType,
    rows: usize,
    /// The durable column file backing fault-in, set once persisted. A
    /// merged copy starts without one until the replacement segment is
    /// persisted in turn.
    file: OnceLock<PathBuf>,
    /// Data bytes faulted back in from disk over this slot's lifetime.
    faulted: AtomicU64,
}

impl DataSlot {
    fn new(col: AnyColumn) -> Self {
        DataSlot {
            ty: col.column_type(),
            rows: col.len(),
            cold: RwLock::new(Some(col)),
            file: OnceLock::new(),
            faulted: AtomicU64::new(0),
        }
    }

    /// A slot born evicted — the recovery path, where the manifest vouches
    /// for the file and the data is only read if a query refines into it.
    fn evicted(ty: ColumnType, rows: usize, file: PathBuf) -> Self {
        DataSlot {
            cold: RwLock::new(None),
            ty,
            rows,
            file: OnceLock::from(file),
            faulted: AtomicU64::new(0),
        }
    }

    /// Raw data bytes, resident or not — the column's logical size.
    fn data_bytes(&self) -> usize {
        self.rows * self.ty.width()
    }

    fn is_resident(&self) -> bool {
        self.cold.read().unwrap_or_else(PoisonError::into_inner).is_some()
    }

    /// The resident column under the read lock, faulting it back in from
    /// its durable file first if evicted (double-checked under the write
    /// lock, so concurrent readers fault at most once). The guard always
    /// holds `Some`.
    ///
    /// # Panics
    /// Panics if an evicted column's file can no longer be read or no
    /// longer matches its recorded geometry. The file was written and
    /// checksummed by this process (or validated at recovery); losing it
    /// mid-run is environmental damage on par with memory corruption, and
    /// the checksum turns silent bit rot into this loud stop.
    fn read(&self) -> RwLockReadGuard<'_, Option<AnyColumn>> {
        loop {
            let slot = self.cold.read().unwrap_or_else(PoisonError::into_inner);
            if slot.is_some() {
                return slot;
            }
            drop(slot);
            let mut slot = self.cold.write().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                let file = self.file.get().expect("evicted column always has a durable file");
                let col = persist::read_column_file(file, self.ty).unwrap_or_else(|e| {
                    panic!("faulting column back in from {} failed: {e}", file.display())
                });
                assert_eq!(col.len(), self.rows, "faulted column geometry changed on disk");
                self.faulted.fetch_add(self.data_bytes() as u64, Ordering::Relaxed);
                *slot = Some(col);
            }
        }
    }

    /// Runs `f` over the resident column ([`DataSlot::read`]).
    fn with<R>(&self, f: impl FnOnce(&AnyColumn) -> R) -> R {
        f(self.read().as_ref().expect(RESIDENT))
    }

    /// Pins the durable file backing this slot. First caller wins: a slot
    /// that already points at a (still valid) file keeps it.
    fn mark_durable(&self, file: PathBuf) {
        let _ = self.file.set(file);
    }

    /// Drops the resident data if a durable file backs it, returning the
    /// bytes freed (0 when not persisted or already evicted).
    fn evict(&self) -> usize {
        if self.file.get().is_none() {
            return 0;
        }
        let mut slot = self.cold.write().unwrap_or_else(PoisonError::into_inner);
        match slot.take() {
            Some(_) => self.data_bytes(),
            None => 0,
        }
    }
}

const RESIDENT: &str = "DataSlot::read returns a resident slot";

/// The per-column observation counter, updated lock-free by concurrent
/// readers and consumed by the maintenance planner's eviction order.
#[derive(Debug, Default)]
pub struct ColumnObservations {
    /// Queries evaluated against this column.
    pub queries: AtomicU64,
}

/// One column of one sealed segment: aligned data plus its imprint.
#[derive(Debug)]
pub struct SegCol {
    data: DataSlot,
    imprints: AnyImprints,
    obs: ColumnObservations,
}

impl SegCol {
    /// Seals `col` into an indexed segment column: bin borders sampled from
    /// `col`'s own values, the imprint built over them. Seal, compaction
    /// merge and recovery-rebuild all construct here, so a column's index
    /// depends on its rows alone. The heat counter starts from zero.
    pub fn seal(col: AnyColumn) -> Self {
        let imprints = AnyImprints::build(&col);
        SegCol::assemble(DataSlot::new(col), imprints)
    }

    /// Assembles a column from its parts: a new index (or a restart)
    /// starts the heat counter from zero.
    fn assemble(data: DataSlot, imprints: AnyImprints) -> SegCol {
        SegCol { data, imprints, obs: ColumnObservations::default() }
    }

    /// Recovers column `ci` of type `ty` from its persisted files in `dir`.
    /// With `load_indexes`, the imprint is read back and the data stays
    /// **evicted** — the imprint-resident restart, where column data is
    /// only faulted in when a query refines into it. When the index file
    /// is missing, corrupt, or `load_indexes` is off, the column data is
    /// read and the imprint rebuilt from scratch (the checksummed data
    /// file is the ground truth; the index is derived state). Returns the
    /// column and whether its index was recovered (vs rebuilt).
    fn recover(
        ty: ColumnType,
        dir: &Path,
        ci: usize,
        rows: usize,
        load_indexes: bool,
    ) -> colstore::Result<(SegCol, bool)> {
        let data_file = dir.join(persist::column_file(ci));
        if load_indexes {
            if let Ok(imprints) = persist::read_index_file(&dir.join(persist::imprint_file(ci)), ty)
            {
                if imprints.rows() == rows {
                    let slot = DataSlot::evicted(ty, rows, data_file);
                    return Ok((SegCol::assemble(slot, imprints), true));
                }
            }
        }
        let col = persist::read_column_file(&data_file, ty)?;
        if col.len() != rows {
            return Err(colstore::Error::Corrupt(format!(
                "segment column {ci} holds {} rows, manifest says {rows}",
                col.len()
            )));
        }
        let col = SegCol::seal(col);
        col.data.mark_durable(data_file);
        Ok((col, false))
    }

    /// Merges the same column of several adjacent segments into one
    /// freshly indexed column: data concatenated (evicted parts fault in —
    /// a merge reads every value), bins re-sampled **once** over the
    /// combined values, the imprint rebuilt.
    fn merged(parts: &[&SegCol]) -> SegCol {
        let ty = parts.first().expect("merge needs at least one segment").data.ty;
        let data: Vec<_> = parts.iter().map(|p| p.data.read()).collect();
        let refs: Vec<&AnyColumn> = data.iter().map(|d| d.as_ref().expect(RESIDENT)).collect();
        let col = AnyColumn::concat(ty, &refs).expect("merging segments with mismatched types");
        drop(refs);
        drop(data);
        SegCol::seal(col)
    }

    /// Runs `f` over the column's data, faulted back in if evicted.
    pub fn with_data<R>(&self, f: impl FnOnce(&AnyColumn) -> R) -> R {
        self.data.with(f)
    }

    /// The value at local row `id` (faults evicted data back in).
    pub fn value(&self, id: usize) -> Option<Value> {
        self.data.with(|col| col.value(id))
    }

    /// Index bytes (the imprint) for storage accounting.
    pub fn index_bytes(&self) -> usize {
        self.imprints.size_bytes()
    }

    /// Raw data bytes (resident or not — the column's logical size).
    pub fn data_bytes(&self) -> usize {
        self.data.data_bytes()
    }

    /// `true` while the data payload is memory-resident (not evicted).
    pub fn data_resident(&self) -> bool {
        self.data.is_resident()
    }

    /// Drops the resident data if a durable file backs it; returns the
    /// bytes freed.
    pub fn evict(&self) -> usize {
        self.data.evict()
    }

    /// Data bytes faulted back in from disk over this column's lifetime.
    pub fn faulted_bytes(&self) -> u64 {
        self.data.faulted.load(Ordering::Relaxed)
    }

    /// The observation counter feeding the planner's eviction order.
    pub fn observations(&self) -> &ColumnObservations {
        &self.obs
    }

    /// Serializes the column data (faulting it in if evicted).
    pub(crate) fn write_data_to(&self, mut out: &mut dyn Write) -> colstore::Result<()> {
        self.data.with(|col| col.write_to(&mut out))
    }

    /// Serializes the column's imprint index.
    pub(crate) fn write_index_to(&self, mut out: &mut dyn Write) -> colstore::Result<()> {
        self.imprints.write_to(&mut out)
    }

    /// The column as the typed plan bodies see it: `data` (read-locked by
    /// the caller) plus the resident imprint.
    fn indexed<'a>(&'a self, data: &'a AnyColumn) -> IndexedColumn<'a> {
        IndexedColumn { col: data, imprints: Some(&self.imprints) }
    }
}

/// A sealed segment column under the shared §3 plan: this impl only keeps
/// the data resident while a value is needed and bills the heat counter;
/// the work is [`IndexedColumn`]'s, the same typed bodies the write head
/// and `RelationImprints` run.
impl PlanColumn for SegCol {
    fn run_range(&self, set: &AnySet, count_only: bool) -> (Hits, AccessStats) {
        self.note_query();
        if count_only && !self.data.is_resident() {
            // Evicted cold data: when every candidate cacheline is fully
            // covered by the predicate's inner mask the resident imprint
            // counts exactly, leaving the data pages on disk. Otherwise
            // fall through and fault them in.
            if let Some((n, stats)) = self.imprints.count_covered(set) {
                return (Hits::Count(n), stats);
            }
        }
        self.data.with(|col| self.indexed(col).run_range(set, count_only))
    }

    fn candidates(&self, set: &AnySet) -> (CachelineSet, AccessStats) {
        self.imprints.candidates(set)
    }

    /// A column with a durable file can be evicted, and then a value check
    /// faults it in where a probe reads the resident imprint alone. It may
    /// fault whether resident at the moment or not, so the plan, with what
    /// it bills, does not follow eviction timing.
    fn forecast(&self, set: &AnySet) -> Forecast {
        Forecast { may_fault: self.data.file.get().is_some(), ..self.imprints.forecast(set) }
    }

    fn check(
        &self,
        set: &AnySet,
        ranges: &CachelineSet,
        hits: Hits,
        stats: &mut AccessStats,
    ) -> Hits {
        self.data.with(|col| self.indexed(col).check(set, ranges, hits, stats))
    }

    fn weed(&self, set: &AnySet, ids: &mut Vec<u64>, stats: &mut AccessStats) {
        self.data.with(|col| self.indexed(col).weed(set, ids, stats));
    }

    /// The maintenance planner's eviction order reads this counter.
    fn note_query(&self) {
        self.obs.queries.fetch_add(1, Ordering::Relaxed);
    }
}

/// An immutable, indexed run of `rows` consecutive table rows starting at
/// global row id `base`.
#[derive(Debug)]
pub struct SealedSegment {
    base: u64,
    rows: usize,
    cols: Vec<SegCol>,
    /// The durable segment-directory name under the table's storage root,
    /// set once the segment is persisted (or recovered). Empty for a
    /// memory-only segment, whose data is consequently never evictable.
    durable: OnceLock<String>,
}

impl SealedSegment {
    /// Seals one segment's column buffers, each column binned from its own
    /// rows (see [`SegCol::seal`]).
    pub fn seal(base: u64, bufs: Vec<AnyColumn>) -> SealedSegment {
        let rows = bufs.first().map_or(0, AnyColumn::len);
        debug_assert!(bufs.iter().all(|b| b.len() == rows), "ragged segment buffers");
        let cols = bufs.into_iter().map(SegCol::seal).collect();
        SealedSegment { base, rows, cols, durable: OnceLock::new() }
    }

    /// Merges `parts` — adjacent sealed segments in ascending base order —
    /// into one segment covering their combined row range. Per column, the
    /// data is concatenated and the index rebuilt with **one** fresh
    /// binning sample over all merged values, which is the whole point of
    /// tiering: N per-segment index overheads (bin dictionaries, headers,
    /// run breaks at segment boundaries) collapse into one, and one set of
    /// bins fitted to the union replaces N sets fitted part by part.
    ///
    /// Row ids are preserved exactly: the merged segment starts at
    /// `parts[0].base()` and keeps every row in order, so readers observe
    /// no missing or duplicate ids across the swap.
    ///
    /// # Panics
    /// Panics if `parts` is empty or (in debug builds) not contiguous.
    pub fn merge(parts: &[Arc<SealedSegment>]) -> SealedSegment {
        let first = parts.first().expect("merge needs at least one segment");
        debug_assert!(
            parts.windows(2).all(|w| w[0].base + w[0].rows as u64 == w[1].base),
            "merged segments must be adjacent and in ascending base order"
        );
        let base = first.base;
        let rows = parts.iter().map(|p| p.rows).sum();
        let cols = (0..first.cols.len())
            .map(|ci| {
                let col_parts: Vec<&SegCol> = parts.iter().map(|p| &p.cols[ci]).collect();
                SegCol::merged(&col_parts)
            })
            .collect();
        SealedSegment { base, rows, cols, durable: OnceLock::new() }
    }

    /// First global row id covered.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Rows in the segment.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The per-column structures.
    pub fn columns(&self) -> &[SegCol] {
        &self.cols
    }

    /// The durable segment-directory name, once persisted or recovered.
    pub fn durable_name(&self) -> Option<&str> {
        self.durable.get().map(String::as_str)
    }

    /// Records that this segment was persisted as directory `name` under
    /// `dir`, pinning each column's durable data file. First caller wins.
    pub(crate) fn mark_durable(&self, name: &str, dir: &Path) {
        for (ci, col) in self.cols.iter().enumerate() {
            col.data.mark_durable(dir.join(persist::column_file(ci)));
        }
        let _ = self.durable.set(name.to_string());
    }

    /// Memory-resident data bytes across this segment's columns.
    pub fn data_bytes_resident(&self) -> usize {
        self.cols.iter().filter(|c| c.data_resident()).map(SegCol::data_bytes).sum()
    }

    /// Evicted (on-disk only) data bytes across this segment's columns.
    pub fn data_bytes_evicted(&self) -> usize {
        self.cols.iter().filter(|c| !c.data_resident()).map(SegCol::data_bytes).sum()
    }

    /// `true` while every column's data payload is memory-resident.
    pub fn data_resident(&self) -> bool {
        self.cols.iter().all(SegCol::data_resident)
    }

    /// Evicts every persisted column's data, keeping the imprints
    /// resident; returns the bytes freed (0 when the segment was never
    /// persisted).
    pub fn evict(&self) -> usize {
        self.cols.iter().map(SegCol::evict).sum()
    }

    /// Data bytes faulted back in from disk over this segment's lifetime.
    pub fn faulted_bytes(&self) -> u64 {
        self.cols.iter().map(SegCol::faulted_bytes).sum()
    }

    /// Recovers a sealed segment from its durable directory as listed in
    /// the table manifest. Returns the segment plus how many columns came
    /// back with a recovered index vs a rebuilt one (see
    /// [`SegCol::recover`] for the per-column decision).
    pub(crate) fn recover(
        base: u64,
        rows: usize,
        types: &[ColumnType],
        name: &str,
        dir: &Path,
        load_indexes: bool,
    ) -> colstore::Result<(SealedSegment, usize, usize)> {
        let mut recovered = 0;
        let mut rebuilt = 0;
        let mut cols = Vec::with_capacity(types.len());
        for (ci, &ty) in types.iter().enumerate() {
            let (col, rec) = SegCol::recover(ty, dir, ci, rows, load_indexes)?;
            if rec {
                recovered += 1;
            } else {
                rebuilt += 1;
            }
            cols.push(col);
        }
        let seg = SealedSegment { base, rows, cols, durable: OnceLock::new() };
        let _ = seg.durable.set(name.to_string());
        Ok((seg, recovered, rebuilt))
    }

    /// Evaluates `q` over this segment into a fresh [`Hits`] sink
    /// (segment-local ids, or their count) — the segment's one evaluation
    /// entry point, and one of the three callers of the shared §3 plan
    /// ([`relation_index::run`]): a single one-range predicate is one
    /// imprint evaluation of its column, everything else the late
    /// materialization plan over this segment's columns.
    pub fn run(&self, q: &SegQuery) -> (Hits, AccessStats) {
        relation_index::run(&self.cols, self.rows as u64, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use colstore::relation::Field;
    use colstore::{Column, IdList};
    use imprints::relation_index::{resolve_sets, ValueRange, ValueSet};

    /// One single-range predicate — the shape every pre-`ValueSet` test
    /// used.
    fn q(col: usize, range: ValueRange) -> (usize, ValueSet) {
        (col, ValueSet::range(range))
    }

    /// Compiles `preds` (by column position) against `seg`'s columns and
    /// runs them, the way a table resolves a query before its sweep.
    fn run(
        seg: &SealedSegment,
        preds: &[(usize, ValueSet)],
        any: bool,
        count_only: bool,
    ) -> (Hits, AccessStats) {
        let schema: Vec<Field> = seg
            .cols
            .iter()
            .enumerate()
            .map(|(i, col)| Field { name: i.to_string(), ty: col.data.ty })
            .collect();
        let named: Vec<(String, ValueSet)> =
            preds.iter().map(|(i, set)| (i.to_string(), set.clone())).collect();
        let preds = resolve_sets(&schema, &named, imprints::simd::ambient_kernel()).unwrap();
        seg.run(&SegQuery { preds, any, count_only })
    }

    /// The conjunction of `preds`, materialized.
    fn eval_ids(seg: &SealedSegment, preds: &[(usize, ValueSet)]) -> (IdList, AccessStats) {
        let (hits, stats) = run(seg, preds, false, false);
        (hits.into_ids(), stats)
    }

    /// The conjunction of `preds`, counted.
    fn eval_count(seg: &SealedSegment, preds: &[(usize, ValueSet)]) -> (u64, AccessStats) {
        let (hits, stats) = run(seg, preds, false, true);
        (hits.len(), stats)
    }

    /// The disjunction of `preds`, materialized.
    fn eval_any(seg: &SealedSegment, preds: &[(usize, ValueSet)]) -> (IdList, AccessStats) {
        let (hits, stats) = run(seg, preds, true, false);
        (hits.into_ids(), stats)
    }

    fn seal_i64(values: Vec<i64>) -> SealedSegment {
        let col: Column<i64> = Column::from(values);
        SealedSegment::seal(0, vec![AnyColumn::I64(col)])
    }

    fn oracle(values: &[i64], lo: i64, hi: i64) -> Vec<u64> {
        values
            .iter()
            .enumerate()
            .filter(|(_, v)| (lo..=hi).contains(*v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Point, narrow, mid, wide, empty and unbounded single predicates,
    /// materialized and counted, against the brute-force oracle; an
    /// impossible predicate examines no values and fetches no lines.
    #[test]
    fn single_predicate_matches_oracle() {
        let values: Vec<i64> = (0..4096).map(|i| (i * 37) % 500).collect();
        let seg = seal_i64(values.clone());
        let between = |lo, hi| ValueRange::between(Value::I64(lo), Value::I64(hi));
        let cases = [
            ("point", between(104, 104), (104, 104)),
            ("narrow", between(100, 120), (100, 120)),
            ("mid", between(100, 300), (100, 300)),
            ("wide", between(5, 495), (5, 495)),
            ("empty", between(10, 5), (10, 5)),
            ("at least", ValueRange::at_least(Value::I64(250)), (250, i64::MAX)),
            ("at most", ValueRange::at_most(Value::I64(250)), (i64::MIN, 250)),
            ("unbounded", between(i64::MIN, i64::MAX), (i64::MIN, i64::MAX)),
        ];
        for (case, range, (lo, hi)) in cases {
            let expect = oracle(&values, lo, hi);
            let (ids, id_stats) = eval_ids(&seg, &[q(0, range)]);
            assert_eq!(ids.as_slice(), expect.as_slice(), "{case}");
            let (n, count_stats) = eval_count(&seg, &[q(0, range)]);
            assert_eq!(n as usize, expect.len(), "{case}");
            assert_eq!(id_stats, count_stats, "{case}: both sinks are one walk");
            if expect.is_empty() {
                // Nothing that reads the query stats sees phantom work.
                assert_eq!((id_stats.value_comparisons, id_stats.lines_fetched), (0, 0), "{case}");
            }
        }
    }

    /// `a` is clustered, runs of 21 rows, so its imprint skips most lines
    /// for `10..=30` and the plan probes it.
    #[test]
    fn conjunction_matches_oracle() {
        let a: Vec<i64> = (0..2048).map(|i| i / 21).collect();
        let b: Vec<f64> = (0..2048).map(|i| (i % 37) as f64).collect();
        let seg = SealedSegment::seal(
            0,
            vec![AnyColumn::I64(Column::from(a.clone())), AnyColumn::F64(Column::from(b.clone()))],
        );
        let preds = [
            q(0, ValueRange::between(Value::I64(10), Value::I64(30))),
            q(1, ValueRange::at_most(Value::F64(9.0))),
        ];
        let (ids, stats) = eval_ids(&seg, &preds);
        let expect: Vec<u64> = (0..2048u64)
            .filter(|&i| (10..=30).contains(&a[i as usize]) && b[i as usize] <= 9.0)
            .collect();
        assert_eq!(ids.as_slice(), expect.as_slice());
        assert!(stats.index_probes > 0);
        let (n, _) = eval_count(&seg, &preds);
        assert_eq!(n as usize, expect.len());
    }

    #[test]
    fn merge_concatenates_rebins_once_and_resets_heat() {
        // Three adjacent segments, each from its own value domain.
        let sealed: Vec<Arc<SealedSegment>> = (0..3u64)
            .map(|s| {
                let values: Vec<i64> =
                    (0..1024).map(|i| s as i64 * 500_000 + (i * 13) % 900).collect();
                let bufs = vec![AnyColumn::I64(Column::from(values))];
                Arc::new(SealedSegment::seal(s * 1024, bufs))
            })
            .collect();
        // Warm the parts' heat counters so the reset is observable.
        let warm = ValueRange::between(Value::I64(0), Value::I64(100));
        for seg in &sealed {
            for _ in 0..8 {
                let _ = eval_ids(seg, &[q(0, warm)]);
            }
        }
        let merged = SealedSegment::merge(&sealed);
        assert_eq!(merged.base(), 0);
        assert_eq!(merged.rows(), 3 * 1024);
        for seg in &sealed {
            assert_eq!(seg.columns()[0].observations().queries.load(Ordering::Relaxed), 8);
        }
        assert_eq!(merged.columns()[0].observations().queries.load(Ordering::Relaxed), 0);
        // Answers equal the per-part answers shifted to global ids.
        let range = ValueRange::between(Value::I64(500_050), Value::I64(500_500));
        let (got, _) = eval_ids(&merged, &[q(0, range)]);
        let expect: Vec<u64> = sealed
            .iter()
            .flat_map(|seg| {
                eval_ids(seg, &[q(0, range)]).0.into_vec().into_iter().map(|id| id + seg.base())
            })
            .collect();
        assert_eq!(got.as_slice(), expect.as_slice());
        assert!(!got.is_empty());
    }

    /// A sealed segment's index is a function of its rows alone: the same
    /// values sealed through a table as its first segment, after a segment
    /// from a disjoint lower domain, and after one from a disjoint higher
    /// domain give byte-identical indexes and do identical work for the
    /// same query.
    #[test]
    fn a_sealed_index_depends_only_on_its_own_rows() {
        let values: Vec<i64> = (0..4096).map(|i| 1_000_000 + (i * 37) % 5000).collect();
        let preds = [q(0, ValueRange::between(Value::I64(1_000_100), Value::I64(1_000_300)))];
        let sealed_after = |history: Option<i64>| {
            let cfg = EngineConfig { segment_rows: 4096, ..Default::default() };
            let t = crate::Table::new("t", &[("v", colstore::ColumnType::I64)], cfg).unwrap();
            if let Some(origin) = history {
                let older: Vec<i64> = (0..4096).map(|i| origin + i % 900).collect();
                t.append_batch(vec![AnyColumn::I64(Column::from(older))]).unwrap();
            }
            t.append_batch(vec![AnyColumn::I64(Column::from(values.clone()))]).unwrap();
            let seg = Arc::clone(t.sealed_snapshot().last().unwrap());
            let col = &seg.columns()[0];
            let mut index = Vec::new();
            col.write_index_to(&mut index).unwrap();
            let (ids, stats) = eval_ids(&seg, &preds);
            (col.index_bytes(), index, ids, stats)
        };
        let first = sealed_after(None);
        assert!(!first.2.is_empty());
        assert!(first.3.lines_skipped > 0, "the imprint must discriminate on its own domain");
        assert_eq!(sealed_after(Some(0)), first, "after a lower-domain segment");
        assert_eq!(sealed_after(Some(50_000_000)), first, "after a higher-domain segment");
    }

    /// The sink-mode differential: for every query shape, over resident
    /// and evicted data, the counting sink's answer equals the
    /// materializing sink's length and both equal the brute-force oracle —
    /// and both modes bill identical [`AccessStats`], because they are one
    /// walk. The one licensed difference is the evicted-data shortcut: a
    /// count the resident imprint answers exactly touches no data and
    /// bills no value work.
    #[test]
    fn count_and_id_sinks_agree_with_the_oracle() {
        let a: Vec<i64> = (0..3000).map(|i| (i * 37) % 500).collect();
        let b: Vec<i64> = (0..3000).map(|i| i % 37).collect();
        let c: Vec<i64> = (0..3000).map(|i| (i * 7) % 101).collect();
        let between = |lo, hi| ValueRange::between(Value::I64(lo), Value::I64(hi));
        let in_set = |set: &ValueSet, v: i64| {
            set.terms.iter().any(|t| {
                let bound = |b: &Option<Value>, open: i64| match b {
                    Some(Value::I64(x)) => *x,
                    _ => open,
                };
                (bound(&t.low, i64::MIN)..=bound(&t.high, i64::MAX)).contains(&v)
            })
        };
        type Shape = (&'static str, Vec<(usize, ValueSet)>, bool);
        let shapes: [Shape; 6] = [
            ("single range", vec![q(0, between(100, 200))], false),
            ("covered range", vec![q(0, between(i64::MIN, i64::MAX))], false),
            ("in-list", vec![(0, ValueSet::points([5, 17, 291].map(Value::I64)))], false),
            ("2 predicates", vec![q(0, between(10, 300)), q(1, between(0, 8))], false),
            (
                "3 predicates",
                vec![q(0, between(10, 300)), q(1, between(0, 20)), q(2, between(30, 90))],
                false,
            ),
            ("or group", vec![q(0, between(480, 499)), q(1, between(3, 3))], true),
        ];
        let root = std::env::temp_dir().join(format!("imprints-sink-modes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let defs: Vec<crate::table::ColumnDef> = ["a", "b", "c"]
            .iter()
            .map(|n| crate::table::ColumnDef { name: n.to_string(), ty: colstore::ColumnType::I64 })
            .collect();
        let store = crate::persist::TableStore::create(&root, "t", &defs).unwrap();
        for evicted in [false, true] {
            let cols = [&a, &b, &c].map(|v| AnyColumn::I64(Column::from(v.clone())));
            let seg = SealedSegment::seal(0, cols.to_vec());
            if evicted {
                store.persist_segment(&seg).unwrap();
            }
            for (shape, preds, any) in &shapes {
                let case = format!("{shape}, evicted {evicted}");
                let expect: Vec<u64> = (0..3000usize)
                    .filter(|&i| {
                        let hit =
                            |(col, set): &(usize, ValueSet)| in_set(set, [a[i], b[i], c[i]][*col]);
                        if *any {
                            preds.iter().any(hit)
                        } else {
                            preds.iter().all(hit)
                        }
                    })
                    .map(|i| i as u64)
                    .collect();
                assert!(!expect.is_empty(), "{case}: the shape must produce hits");
                let run_cold = |count_only| {
                    if evicted {
                        seg.evict();
                        assert_eq!(seg.data_bytes_resident(), 0, "{case}");
                    }
                    run(&seg, preds, *any, count_only)
                };
                let (hits, id_stats) = run_cold(false);
                let (n, count_stats) = run_cold(true);
                assert_eq!(hits.into_ids().as_slice(), expect.as_slice(), "{case}");
                assert_eq!(n, Hits::Count(expect.len() as u64), "{case}");
                if evicted && *shape == "covered range" {
                    assert!(!seg.data_resident(), "{case}: count faulted data in");
                    assert_eq!(count_stats.value_comparisons, 0, "{case}");
                } else {
                    assert_eq!(id_stats, count_stats, "{case}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// On two uniform columns a memory-only segment value-checks a 10 % ×
    /// 20 % conjunction without a probe (the census says a probe cannot
    /// pay), while the same segment persisted probes its cheapest imprint,
    /// evicted or resident, with identical billing: a value check may
    /// fault its data in. That forces only the probe made while the joint
    /// is every row. The census prices the other conjunct against the
    /// joint that probe left, finds its probe cannot pay, and it weeds. A
    /// count the resident imprint covers faults nothing in.
    #[test]
    fn an_evicted_uniform_segment_still_probes() {
        let uniform = |salt: u64| -> Vec<i64> {
            (0..4096u64)
                .map(|i| ((i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as i64)
                .collect()
        };
        let (a, b) = (uniform(1), uniform(2));
        let between = |lo, hi| ValueRange::between(Value::I64(lo), Value::I64(hi));
        let preds = [q(0, between(100_000, 204_857)), q(1, between(500_000, 709_714))];
        let expect: Vec<u64> = (0..4096u64)
            .filter(|&i| {
                (100_000..=204_857).contains(&a[i as usize])
                    && (500_000..=709_714).contains(&b[i as usize])
            })
            .collect();
        assert!(!expect.is_empty());
        let seal = || {
            let cols = [&a, &b].map(|v| AnyColumn::I64(Column::from(v.clone())));
            SealedSegment::seal(0, cols.to_vec())
        };
        let memory = seal();
        let (ids, st) = eval_ids(&memory, &preds);
        assert_eq!(ids.as_slice(), expect.as_slice());
        assert_eq!(st.index_probes, 0, "a probe of a uniform column cannot pay: {st:?}");

        let root =
            std::env::temp_dir().join(format!("imprints-evicted-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let defs: Vec<crate::table::ColumnDef> = ["a", "b"]
            .iter()
            .map(|n| crate::table::ColumnDef { name: n.to_string(), ty: colstore::ColumnType::I64 })
            .collect();
        let store = crate::persist::TableStore::create(&root, "t", &defs).unwrap();
        let durable = seal();
        store.persist_segment(&durable).unwrap();
        let cheapest = durable.columns().iter().map(|c| c.imprints.imprint_count()).min();
        let mut billed = Vec::new();
        for evicted in [true, false] {
            if evicted {
                assert!(durable.evict() > 0);
            }
            let (ids, st) = eval_ids(&durable, &preds);
            assert_eq!(ids.as_slice(), expect.as_slice(), "evicted {evicted}");
            assert_eq!(Some(st.index_probes as usize), cheapest, "evicted {evicted}: {st:?}");
            billed.push(st);
        }
        assert_eq!(billed[0], billed[1], "resident or evicted, the same work");
        durable.evict();
        let faulted = durable.faulted_bytes();
        let (n, st) = eval_count(&durable, &[q(0, between(i64::MIN, i64::MAX))]);
        assert_eq!(n, 4096);
        assert_eq!(st.value_comparisons, 0);
        assert!(!durable.columns()[0].data_resident(), "the covered count faulted data in");
        assert_eq!(durable.faulted_bytes(), faulted);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_predicate_list_selects_all() {
        let seg = seal_i64((0..100).collect());
        let (ids, _) = eval_ids(&seg, &[]);
        assert_eq!(ids.len(), 100);
    }

    /// The count path is planner-visible: a single-predicate count bills
    /// the column's heat counter exactly like a materializing query.
    #[test]
    fn a_count_bills_the_heat_counter() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<i64> = (0..8192).map(|_| rng.gen_range(0..1_000_000)).collect();
        let seg = seal_i64(values.clone());
        let range = ValueRange::between(Value::I64(0), Value::I64(1000));
        let (n, _) = eval_count(&seg, &[q(0, range)]);
        assert_eq!(n, oracle(&values, 0, 1000).len() as u64);
        let heat = &seg.columns()[0].observations().queries;
        assert_eq!(heat.load(Ordering::Relaxed), 1);
        let _ = eval_ids(&seg, &[q(0, range)]);
        assert_eq!(heat.load(Ordering::Relaxed), 2);
    }

    /// Builds the two-column segment every multi-predicate test below
    /// shares: `a = i % 100`, `b = i % 37` over 2048 rows.
    fn two_col_seg() -> (SealedSegment, Vec<i64>, Vec<i64>) {
        let a: Vec<i64> = (0..2048).map(|i| i % 100).collect();
        let b: Vec<i64> = (0..2048).map(|i| i % 37).collect();
        let seg = SealedSegment::seal(
            0,
            vec![AnyColumn::I64(Column::from(a.clone())), AnyColumn::I64(Column::from(b.clone()))],
        );
        (seg, a, b)
    }

    /// Satellite regression: a conjunction must bill *every* touched
    /// column's query counter (even when an earlier predicate's candidates
    /// empty the plan), so the maintenance planner's heat order sees
    /// multi-predicate traffic instead of attributing the whole query to
    /// the first column.
    #[test]
    fn conjunction_bills_every_touched_column() {
        let (seg, a, b) = two_col_seg();
        let preds = [
            q(0, ValueRange::between(Value::I64(10), Value::I64(40))),
            q(1, ValueRange::at_most(Value::I64(8))),
        ];
        let expect: Vec<u64> = (0..2048u64)
            .filter(|&i| (10..=40).contains(&a[i as usize]) && b[i as usize] <= 8)
            .collect();
        let rounds = 32u64;
        for _ in 0..rounds {
            let (ids, _) = eval_ids(&seg, &preds);
            assert_eq!(ids.as_slice(), expect.as_slice());
        }
        for (col, name) in seg.columns().iter().zip(["a", "b"]) {
            assert_eq!(
                col.observations().queries.load(Ordering::Relaxed),
                rounds,
                "column {name} must be billed one query per conjunction"
            );
        }
        // Early exit — an impossible first predicate empties the plan
        // before the second column is touched — still bills the query on
        // every named column, so planner traffic stays honest.
        let before = seg.columns()[1].observations().queries.load(Ordering::Relaxed);
        let (ids, _) = eval_ids(
            &seg,
            &[
                q(0, ValueRange::between(Value::I64(500), Value::I64(400))),
                q(1, ValueRange::at_most(Value::I64(8))),
            ],
        );
        assert!(ids.is_empty());
        assert_eq!(
            seg.columns()[1].observations().queries.load(Ordering::Relaxed),
            before + 1,
            "early exit must still bill the untouched column's query"
        );
    }

    /// IN-lists (multi-interval `ValueSet`s) must answer exactly like the
    /// brute-force oracle through the conjunction plan — alone too, where
    /// the census prices the probe like any conjunct's: on a uniform column
    /// it cannot pay, so nothing is probed and every row is checked once;
    /// on a clustered column (runs of 64 rows) it pays.
    #[test]
    fn in_list_matches_oracle() {
        let (seg, a, b) = two_col_seg();
        let preds = [
            (0usize, ValueSet::points([Value::I64(5), Value::I64(17), Value::I64(91)])),
            (1usize, ValueSet::range(ValueRange::at_most(Value::I64(20)))),
        ];
        let expect: Vec<u64> = (0..2048u64)
            .filter(|&i| [5, 17, 91].contains(&a[i as usize]) && b[i as usize] <= 20)
            .collect();
        assert!(!expect.is_empty(), "test data must produce hits");
        let (ids, _) = eval_ids(&seg, &preds);
        assert_eq!(ids.as_slice(), expect.as_slice());
        let (n, _) = eval_count(&seg, &preds);
        assert_eq!(n as usize, expect.len());

        let uniform: Vec<i64> =
            (0..2048u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as i64).collect();
        let clustered: Vec<i64> = (0..2048).map(|i| i / 64).collect();
        let cols = [&uniform, &clustered].map(|v| AnyColumn::I64(Column::from(v.clone())));
        let seg = SealedSegment::seal(0, cols.to_vec());
        for (col, values) in [(0, &uniform), (1, &clustered)] {
            let points = [values[7], values[700], values[1500]];
            let preds = [(col, ValueSet::points(points.map(Value::I64)))];
            let expect: Vec<u64> =
                (0..2048u64).filter(|&i| points.contains(&values[i as usize])).collect();
            let (ids, st) = eval_ids(&seg, &preds);
            assert_eq!(ids.as_slice(), expect.as_slice(), "column {col}");
            let (n, _) = eval_count(&seg, &preds);
            assert_eq!(n as usize, expect.len(), "column {col}");
            if col == 0 {
                assert_eq!((st.index_probes, st.value_comparisons), (0, 2048), "{st:?}");
            } else {
                assert!(st.index_probes > 0 && st.value_comparisons < 2048 / 8, "{st:?}");
            }
        }
    }

    /// OR groups union their arms; the empty group is the identity of OR
    /// and matches nothing (unlike the empty conjunction, which matches
    /// everything).
    #[test]
    fn disjunction_matches_oracle() {
        let (seg, a, b) = two_col_seg();
        let preds = [
            q(0, ValueRange::between(Value::I64(95), Value::I64(99))),
            q(1, ValueRange::equals(Value::I64(3))),
        ];
        let expect: Vec<u64> = (0..2048u64)
            .filter(|&i| (95..=99).contains(&a[i as usize]) || b[i as usize] == 3)
            .collect();
        let (ids, stats) = eval_any(&seg, &preds);
        assert_eq!(ids.as_slice(), expect.as_slice());
        assert!(stats.index_probes > 0);
        let (none, _) = eval_any(&seg, &[]);
        assert!(none.is_empty(), "the empty disjunction selects nothing");
        let (all, _) = eval_ids(&seg, &[]);
        assert_eq!(all.len(), 2048, "the empty conjunction selects everything");
    }

    /// The conjunction plan value-checks the predicate with the fewest
    /// imprint candidates first, whatever order the query names them in:
    /// `[wide, narrow]` and `[narrow, wide]` do the same value work.
    #[test]
    fn conjunction_checks_the_most_selective_predicate_first() {
        // `a` is clustered (the imprint prunes a narrow range to a few
        // cachelines); `b` cycles through 0..37 inside every cacheline, so
        // its imprint keeps every row a candidate.
        let a: Vec<i64> = (0..4096).collect();
        let b: Vec<i64> = (0..4096).map(|i| i % 37).collect();
        let seg = SealedSegment::seal(
            0,
            vec![AnyColumn::I64(Column::from(a.clone())), AnyColumn::I64(Column::from(b.clone()))],
        );
        let narrow = q(0, ValueRange::between(Value::I64(1000), Value::I64(1100)));
        let wide = q(1, ValueRange::between(Value::I64(0), Value::I64(30)));
        let expect: Vec<u64> = (0..4096u64)
            .filter(|&i| (1000..=1100).contains(&a[i as usize]) && b[i as usize] <= 30)
            .collect();
        let (ids_nw, stats_nw) = eval_ids(&seg, &[narrow.clone(), wide.clone()]);
        let (ids_wn, stats_wn) = eval_ids(&seg, &[wide, narrow]);
        assert_eq!(ids_nw.as_slice(), expect.as_slice());
        assert_eq!(ids_wn.as_slice(), expect.as_slice());
        assert_eq!(
            stats_wn.value_comparisons, stats_nw.value_comparisons,
            "query order must not change which predicate is checked first"
        );
    }
}
