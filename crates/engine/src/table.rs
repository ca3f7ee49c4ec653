//! Tables: epoch-guarded sealed segments plus one open write segment.
//!
//! ## Concurrency scheme
//!
//! A table's open write head, sealed segment list and epoch sit behind one
//! `RwLock<TableState>` (lock class `table.segments`). Every change of them
//! — an append, a seal, a compaction's swap — is one write critical
//! section, and an install commits its manifest inside it, so the table
//! changes, and commits each change durably, once and in epoch order.
//!
//! The sealed list is copy-on-write (`Arc<Vec<Arc<SealedSegment>>>`): an
//! install swaps the *pointer vector*, never data. A query holds the read
//! lock to clone the list's `Arc`, read the epoch and evaluate the head's
//! (≤ one segment of) rows, and sweeps the frozen list after release: it
//! sees an exact *prefix* of the table — never a gap, never a duplicate —
//! identified by `(epoch, visible rows)`. Column data is never faulted in,
//! and a merged segment never written, under the lock.
//!
//! The write head is not a blind buffer: once it holds
//! [`EngineConfig::tail_index_min_rows`] rows, each open column buffer
//! carries an incremental **tail imprint** (an [`AnyImprints`], see
//! `index_open_tail`) extended on every append inside the same write
//! critical section, so queries skip non-qualifying cachelines of the head
//! instead of scanning it linearly under the read lock. The tail imprint
//! is discarded at seal, when the sealed segment builds its real
//! per-segment imprint.
//!
//! The head and the sealed segments answer a query through the same plan,
//! [`imprints::relation_index::run`]; they differ only in what index each
//! column carries.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use colstore::relation::AnyColumn;
use colstore::{AccessStats, ColumnType, Error, IdList, Result, Value};
use imprints::relation_index::{
    self, resolve_sets, AnyImprints, IndexedColumn, SegQuery, ValueRange, ValueSet,
};
use imprints::simd::{Hits, RefineKernel};

use crate::config::EngineConfig;
use crate::executor::WorkerPool;
use crate::persist::{SegmentEntry, TableStore};
use crate::segment::SealedSegment;

/// A named column of a table schema: its `name` and scalar type `ty`.
pub use colstore::relation::Field as ColumnDef;

type SegmentList = Arc<Vec<Arc<SealedSegment>>>;

/// One sealed segment's share of a batch sweep: its base row id plus one
/// (hits, stats) pair per query slot.
type SegSweep = (u64, Vec<(Hits, AccessStats)>);

struct OpenSegment {
    base: u64,
    bufs: Vec<AnyColumn>,
    /// Per-column incremental tail imprints over `bufs`, present once the
    /// head crossed [`EngineConfig::tail_index_min_rows`]; maintained
    /// under the table write lock and discarded at seal.
    tails: Option<Vec<AnyImprints>>,
}

impl OpenSegment {
    fn len(&self) -> usize {
        self.bufs.first().map_or(0, AnyColumn::len)
    }
}

/// Everything of a table that changes, behind its one lock. `epoch` counts
/// the installs; the durable manifest names the list at that epoch.
struct TableState {
    head: OpenSegment,
    sealed: SegmentList,
    epoch: u64,
}

/// Cumulative table counters.
#[derive(Debug, Default)]
pub struct TableStats {
    /// Queries served.
    pub queries: AtomicU64,
    /// Rows appended over the table's lifetime.
    pub rows_appended: AtomicU64,
    /// Segments sealed.
    pub segments_sealed: AtomicU64,
    /// Always 0, and no code increments it: nothing rebuilds a sealed
    /// index (its bins are sampled at seal; only a compaction merge builds
    /// one again). The field stays because the benchmark's pinned surface
    /// (`benchmark/src/surface.rs::table_counters`) reads it by name;
    /// retiring it is a `benchmark` issue.
    pub rebuilds: AtomicU64,
    /// Compaction merges applied (each replaces several segments by one).
    pub compactions: AtomicU64,
    /// Sealed segments consumed as compaction inputs.
    pub segments_compacted: AtomicU64,
}

/// Aggregate statistics of one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Merged access counters across all *sealed* segments visited.
    pub access: AccessStats,
    /// Access counters of the open write head, kept separate from the
    /// sealed-path work: imprint probes/skips when the tail index served
    /// the head, scalar comparisons when it fell back to the linear scan.
    pub tail_access: AccessStats,
    /// Whether the open rows were answered through the incremental tail
    /// imprint (`false`: head below the engage threshold, tail indexing
    /// disabled, or no predicate touched the head).
    pub tail_indexed: bool,
    /// Rows in the open write head visible to the query.
    pub open_rows: usize,
    /// Sealed segments visited.
    pub sealed_segments: usize,
    /// Rows visible to the query (its consistent prefix length).
    pub visible_rows: u64,
    /// The table epoch the query executed against.
    pub epoch: u64,
}

/// One request of a [`Table::query_batch`] call: named column predicates —
/// each a [`ValueSet`] (one range, an IN-list, any union of intervals) —
/// combined conjunctively or, with `any`, disjunctively; materializing ids
/// or counting.
#[derive(Debug, Clone)]
pub struct BatchQuery {
    /// `(column name, value set)` predicates; empty selects all rows under
    /// conjunction semantics and none under `any`.
    pub preds: Vec<(String, ValueSet)>,
    /// `true` evaluates the predicates as a disjunction (`OR` group).
    pub any: bool,
    /// `true` counts matching rows instead of materializing ids.
    pub count_only: bool,
}

impl BatchQuery {
    /// A materializing query over single-range `preds` (the pre-`ValueSet`
    /// shape, kept for callers without IN-lists).
    pub fn ids(preds: Vec<(String, ValueRange)>) -> BatchQuery {
        BatchQuery::ids_sets(preds.into_iter().map(|(n, r)| (n, ValueSet::range(r))).collect())
    }

    /// A count-only query over single-range `preds`.
    pub fn count(preds: Vec<(String, ValueRange)>) -> BatchQuery {
        BatchQuery::count_sets(preds.into_iter().map(|(n, r)| (n, ValueSet::range(r))).collect())
    }

    /// A materializing conjunction over value-set predicates.
    pub fn ids_sets(preds: Vec<(String, ValueSet)>) -> BatchQuery {
        BatchQuery { preds, any: false, count_only: false }
    }

    /// A count-only conjunction over value-set predicates.
    pub fn count_sets(preds: Vec<(String, ValueSet)>) -> BatchQuery {
        BatchQuery { preds, any: false, count_only: true }
    }

    /// The same query with disjunction (`OR` group) semantics.
    pub fn or_group(mut self) -> BatchQuery {
        self.any = true;
        self
    }
}

/// The answer of one [`BatchQuery`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatchAnswer {
    /// Global matching row ids (a materializing query).
    Ids(IdList),
    /// Matching row count (a count-only query).
    Count(u64),
}

impl From<Hits> for BatchAnswer {
    fn from(hits: Hits) -> BatchAnswer {
        match hits {
            Hits::Count(n) => BatchAnswer::Count(n),
            ids => BatchAnswer::Ids(ids.into_ids()),
        }
    }
}

/// A sharded, concurrently readable and appendable relation.
pub struct Table {
    name: String,
    schema: Vec<ColumnDef>,
    cfg: EngineConfig,
    segments: RwLock<TableState>,
    stats: TableStats,
    /// The durable side of the table when
    /// [`StorageOptions::root`](crate::StorageOptions::root) is set;
    /// `None` keeps the table memory-only.
    store: Option<TableStore>,
    /// Failed persistence attempts (segment writes or manifest commits).
    /// A failure degrades durability to in-memory availability — appends
    /// and queries keep working — and rings this counter instead.
    persist_errors: AtomicU64,
}

impl Table {
    /// Creates an empty table with `schema`. The configuration's
    /// [`refine_kernel`](EngineConfig::refine_kernel) scopes to this
    /// table: it is resolved against the `IMPRINTS_REFINE_KERNEL`
    /// environment override (which wins when set) and compiled into each
    /// query when the query is resolved, so every sealed-segment and
    /// write-head value check of that query runs it — creating another
    /// table with a different selection does not affect this one.
    pub fn new(name: &str, schema: &[(&str, ColumnType)], cfg: EngineConfig) -> Result<Table> {
        cfg.validate();
        if schema.is_empty() {
            return Err(Error::Mismatch("a table needs at least one column".into()));
        }
        let mut defs = Vec::with_capacity(schema.len());
        for (cname, ty) in schema {
            if defs.iter().any(|d: &ColumnDef| d.name == *cname) {
                return Err(Error::Mismatch(format!("duplicate column {cname:?}")));
            }
            defs.push(ColumnDef { name: (*cname).to_string(), ty: *ty });
        }
        let store = match &cfg.storage.root {
            Some(root) => Some(TableStore::create(root, name, &defs)?),
            None => None,
        };
        Ok(Table::assemble(name, defs, cfg, store, Vec::new(), 0))
    }

    /// Assembles a table from sealed `segments` at `epoch` — none for a new
    /// table, those the committed manifest lists for a recovered one — with
    /// the open write head empty and starting right after the last sealed
    /// row.
    pub(crate) fn assemble(
        name: &str,
        schema: Vec<ColumnDef>,
        cfg: EngineConfig,
        store: Option<TableStore>,
        segments: Vec<Arc<SealedSegment>>,
        epoch: u64,
    ) -> Table {
        let base = segments.last().map_or(0, |s| s.base() + s.rows() as u64);
        let bufs = schema.iter().map(|d| AnyColumn::new_empty(d.ty)).collect();
        Table {
            name: name.to_string(),
            schema,
            cfg,
            segments: RwLock::new(TableState {
                head: OpenSegment { base, bufs, tails: None },
                sealed: Arc::new(segments),
                epoch,
            }),
            stats: TableStats::default(),
            store,
            persist_errors: AtomicU64::new(0),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &[ColumnDef] {
        &self.schema
    }

    /// The table's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Monotonic structure-change counter (bumped per seal and per
    /// maintenance swap).
    pub fn epoch(&self) -> u64 {
        self.peek().epoch
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Total rows (sealed + open) at this instant.
    ///
    /// This and the other read-only counters ([`Table::sealed_segment_count`],
    /// [`Table::index_bytes`], the sealed snapshot behind
    /// [`Catalog::storage_stats`](crate::Catalog::storage_stats)) keep
    /// answering on a table whose lock a panicked writer poisoned: they
    /// read a base, lengths and an `Arc` clone, never row data, so the
    /// operator asking what is wrong still gets numbers. After such a
    /// panic the count may include a half-applied batch; queries, appends
    /// and seals on that table keep failing loudly.
    pub fn row_count(&self) -> u64 {
        let state = self.peek();
        state.head.base + state.head.len() as u64
    }

    /// Number of sealed segments at this instant.
    pub fn sealed_segment_count(&self) -> usize {
        self.peek().sealed.len()
    }

    /// Bytes of secondary-index structures: every sealed segment's
    /// imprints, plus the open head's tail imprints once built.
    pub fn index_bytes(&self) -> usize {
        let state = self.peek();
        let tails = state.head.tails.iter().flatten().map(AnyImprints::size_bytes);
        let sealed = state.sealed.iter().flat_map(|s| s.columns()).map(|c| c.index_bytes());
        tails.chain(sealed).sum()
    }

    /// The table state for the read-only counters, which keep answering on
    /// a poisoned lock (see [`Table::row_count`]).
    fn peek(&self) -> RwLockReadGuard<'_, TableState> {
        self.segments.read().unwrap_or_else(PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Appending
    // ------------------------------------------------------------------

    /// Appends one row (`values` in schema order). Prefer
    /// [`Table::append_batch`] for throughput.
    pub fn append_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(Error::Mismatch(format!(
                "row has {} values, schema has {} columns",
                values.len(),
                self.schema.len()
            )));
        }
        let mut batch: Vec<AnyColumn> =
            self.schema.iter().map(|d| AnyColumn::new_empty(d.ty)).collect();
        for (buf, v) in batch.iter_mut().zip(values) {
            buf.push_value(*v)?;
        }
        self.append_batch(batch)
    }

    /// Appends a columnar batch (schema order, equal lengths), sealing
    /// segments as they fill. Returns after all rows are visible.
    pub fn append_batch(&self, batch: Vec<AnyColumn>) -> Result<()> {
        if batch.len() != self.schema.len() {
            return Err(Error::Mismatch(format!(
                "batch has {} columns, schema has {}",
                batch.len(),
                self.schema.len()
            )));
        }
        let rows = batch.first().map_or(0, AnyColumn::len);
        for (buf, def) in batch.iter().zip(&self.schema) {
            if buf.column_type() != def.ty {
                return Err(Error::Mismatch(format!(
                    "batch column for {:?} has type {}, schema says {}",
                    def.name,
                    buf.column_type(),
                    def.ty
                )));
            }
            if buf.len() != rows {
                return Err(Error::Mismatch("ragged append batch".into()));
            }
        }
        if rows == 0 {
            return Ok(());
        }

        let mut state = self.segments.write().map_err(|_| Error::Mismatch(self.poisoned()))?;
        let mut taken = 0usize;
        while taken < rows {
            let from = state.head.len();
            let take = (self.cfg.segment_rows - from).min(rows - taken);
            for (buf, src) in state.head.bufs.iter_mut().zip(&batch) {
                buf.extend_from_range(src, taken..taken + take)?;
            }
            taken += take;
            if state.head.len() == self.cfg.segment_rows {
                // The chunk filled the segment: sealing builds the real
                // per-segment imprint and discards the tail, so extending
                // (or building) the tail for these rows would be pure
                // throwaway work — skip straight to the seal.
                self.seal_open(&mut state);
            } else {
                index_open_tail(&mut state.head, from, self.cfg.tail_index_min_rows);
            }
        }
        self.stats.rows_appended.fetch_add(rows as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Seals the open head into the sealed list under the table write lock
    /// the caller holds, persisting and installing it there. The tail
    /// imprint is discarded: the sealed segment builds its real imprint,
    /// binned from its own rows.
    fn seal_open(&self, state: &mut TableState) {
        let head = &mut state.head;
        head.tails = None;
        let bufs = std::mem::replace(
            &mut head.bufs,
            self.schema.iter().map(|d| AnyColumn::new_empty(d.ty)).collect(),
        );
        let seg = Arc::new(SealedSegment::seal(head.base, bufs));
        head.base += seg.rows() as u64;
        self.persist_segment(&seg);
        assert!(
            self.install_locked(state, &[], seg),
            "a seal appends at the list's end under the table write lock: nothing can race it"
        );
        self.stats.segments_sealed.fetch_add(1, Ordering::Relaxed);
    }

    /// Seals the open write head even when partially filled — the
    /// clean-shutdown hook making every appended row durable before the
    /// process exits. A later append simply starts a fresh segment, and
    /// queries are unaffected (a sealed partial segment answers exactly
    /// like the open rows did). Returns whether anything was sealed; a
    /// table whose lock a panicked writer poisoned seals nothing.
    pub fn flush_open(&self) -> bool {
        let Ok(mut state) = self.segments.write() else { return false };
        if state.head.len() == 0 {
            return false;
        }
        self.seal_open(&mut state);
        true
    }

    /// Writes `seg`'s durable directory when the table persists, counting
    /// (not propagating) failures: availability beats durability, and the
    /// manifest commit below refuses to name a segment that never made it
    /// to disk.
    fn persist_segment(&self, seg: &SealedSegment) {
        if let Some(store) = &self.store {
            if store.persist_segment(seg).is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Commits the manifest naming `list` at `epoch` on a durable table.
    /// A list containing a never-persisted segment (an earlier write
    /// failure) skips the commit — the durable state stays at its last
    /// good epoch — and counts a persistence error.
    fn commit_manifest_for(&self, epoch: u64, list: &[Arc<SealedSegment>]) {
        let Some(store) = &self.store else { return };
        let entries: Option<Vec<SegmentEntry>> = list
            .iter()
            .map(|s| {
                s.durable_name().map(|dir| SegmentEntry {
                    base: s.base(),
                    rows: s.rows() as u64,
                    dir: dir.to_string(),
                })
            })
            .collect();
        let committed = match entries {
            Some(entries) => store.commit_manifest(epoch, &self.schema, &entries).is_ok(),
            None => false,
        };
        if !committed {
            self.persist_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Failed persistence attempts so far (segment writes and manifest
    /// commits; availability beats durability, see the field's docs).
    pub fn persist_errors(&self) -> u64 {
        self.persist_errors.load(Ordering::Relaxed)
    }

    /// `true` when the table writes durable state.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// The durable store, for catalog-level operations (`drop_table`).
    pub(crate) fn store(&self) -> Option<&TableStore> {
        self.store.as_ref()
    }

    /// A compaction's [`Table::install_locked`]: `new` is persisted with no
    /// lock held, then installed under one write-lock acquisition. A
    /// poisoned table lock refuses the install like a lost race.
    pub(crate) fn install(&self, old: &[Arc<SealedSegment>], new: SealedSegment) -> bool {
        assert!(
            old.first().is_none_or(|first| {
                new.base() == first.base()
                    && new.rows() == old.iter().map(|s| s.rows()).sum::<usize>()
            }),
            "a replacement must cover exactly the rows of its window"
        );
        let new = Arc::new(new);
        self.persist_segment(&new);
        let Ok(mut state) = self.segments.write() else { return false };
        self.install_locked(&mut state, old, new)
    }

    /// Installs `new` in place of the sealed segments `old` — the only code
    /// that changes the sealed list — under the table write lock the caller
    /// holds. A seal passes no `old` and appends at the end; a compaction
    /// replaces a run of adjacent segments. The window is located by
    /// `new`'s base row id, and the install happens only if it still holds
    /// exactly the `Arc`s of `old` (an empty window: only if `new`
    /// continues the list's end). A seal appending behind a window does not
    /// invalidate it; a compaction inside it does. Returns whether the list
    /// changed; a lost race leaves an orphan directory for the next
    /// startup's `gc`.
    ///
    /// The order is the durability argument: `new`'s directory was
    /// persisted before it is published, so a manifest can never name a
    /// directory that is not fully on disk; the swap, the epoch bump and
    /// the manifest commit share one critical section, so the manifests
    /// land in epoch order and the committed epoch is [`Table::epoch`]
    /// whenever the lock is free. Readers pinned to the old list keep a
    /// fully consistent view.
    fn install_locked(
        &self,
        state: &mut TableState,
        old: &[Arc<SealedSegment>],
        new: Arc<SealedSegment>,
    ) -> bool {
        let sealed = &state.sealed;
        let start = sealed.partition_point(|s| s.base() < new.base());
        let end = start + old.len();
        let current = if old.is_empty() {
            let covered = sealed.last().map_or(0, |s| s.base() + s.rows() as u64);
            start == sealed.len() && new.base() == covered
        } else {
            sealed
                .get(start..end)
                .is_some_and(|w| w.iter().zip(old).all(|(a, b)| Arc::ptr_eq(a, b)))
        };
        if !current {
            return false;
        }
        let mut list: Vec<Arc<SealedSegment>> = Vec::with_capacity(sealed.len() + 1 - old.len());
        list.extend(sealed.iter().take(start).cloned());
        list.push(new);
        list.extend(sealed.iter().skip(end).cloned());
        state.sealed = Arc::new(list);
        state.epoch += 1;
        self.commit_manifest_for(state.epoch, &state.sealed);
        true
    }

    /// The current sealed segment list (a frozen snapshot).
    pub(crate) fn sealed_snapshot(&self) -> SegmentList {
        self.peek().sealed.clone()
    }

    // ------------------------------------------------------------------
    // Querying
    // ------------------------------------------------------------------

    /// Evaluates a conjunction of `(column, range)` predicates serially on
    /// the calling thread — [`Table::query_one`] for the plainest query
    /// shape. An empty predicate list selects every row.
    pub fn query(&self, preds: &[(&str, ValueRange)]) -> Result<IdList> {
        self.query_on(preds, None)
    }

    /// [`Table::query`], fanned out over `pool` when one is given.
    pub(crate) fn query_on(
        &self,
        preds: &[(&str, ValueRange)],
        pool: Option<&WorkerPool>,
    ) -> Result<IdList> {
        let q = BatchQuery::ids(preds.iter().map(|(n, r)| (n.to_string(), *r)).collect());
        match self.query_one(&q, pool)?.0 {
            BatchAnswer::Ids(ids) => Ok(ids),
            // panic-ok: `BatchQuery::ids` builds a query with `count_only` false.
            BatchAnswer::Count(_) => unreachable!("a materializing query answers with ids"),
        }
    }

    /// Counts the rows matching a conjunction of `(column, range)`
    /// predicates without materializing ids.
    pub fn count(&self, preds: &[(&str, ValueRange)], pool: Option<&WorkerPool>) -> Result<u64> {
        let q = BatchQuery::count(preds.iter().map(|(n, r)| (n.to_string(), *r)).collect());
        match self.query_one(&q, pool)?.0 {
            BatchAnswer::Count(n) => Ok(n),
            // panic-ok: `BatchQuery::count` builds a query with `count_only` true.
            BatchAnswer::Ids(_) => unreachable!("a count-only query answers with a count"),
        }
    }

    /// One query, as a batch of one through [`Table::query_batch`].
    pub fn query_one(
        &self,
        query: &BatchQuery,
        pool: Option<&WorkerPool>,
    ) -> Result<(BatchAnswer, QueryStats)> {
        // panic-ok: `query_batch` answers one slot per query, and this batch holds one.
        self.query_batch(std::slice::from_ref(query), pool).pop().expect("one answer per query")
    }

    /// This table's refinement kernel: the configured selection resolved
    /// against the `IMPRINTS_REFINE_KERNEL` environment override.
    fn refine_kernel(&self) -> RefineKernel {
        imprints::simd::effective_kernel(self.cfg.refine_kernel)
    }

    /// Pins the consistent prefix a batch observes and evaluates every
    /// query's share of the open write head under it: one read lock covers
    /// the head, the sealed list and the epoch, so they agree. Open rows
    /// are evaluated under the lock (bounded by one segment, and through
    /// the tail imprint once the head is large enough); the frozen sealed
    /// list is swept by the caller after release.
    ///
    /// A lock poisoned by a writer that panicked is an error, not a panic:
    /// a half-applied append may have left the head's buffers ragged, so
    /// the poisoned data is not read, and the caller — in the server, the
    /// one dispatcher thread every client depends on — lives on.
    fn pin_prefix(&self, work: &[SegQuery]) -> std::result::Result<PinnedPrefix, String> {
        let state = self.segments.read().map_err(|_| self.poisoned())?;
        let (open, sealed, epoch) = (&state.head, state.sealed.clone(), state.epoch);
        let head = head_columns(&open.bufs, open.tails.as_deref());
        let open_rows = open.len();
        let opens = work.iter().map(|q| relation_index::run(&head, open_rows as u64, q)).collect();
        let tail_indexed = open.tails.is_some();
        Ok(PinnedPrefix { sealed, open_base: open.base, open_rows, tail_indexed, opens, epoch })
    }

    /// Evaluates many independent queries against **one pinned snapshot**
    /// — the table's only executor, and the serving layer's shared-morsel
    /// batch dispatch. A single query is a batch of one
    /// ([`Table::query_one`]).
    ///
    /// All queries observe the same consistent prefix (one epoch, one
    /// sealed list, one open-head read), and the sealed segments are swept
    /// **once per batch**: each segment is one task answering every
    /// query's predicates ([`SealedSegment::run`]) while its data and
    /// indexes are cache-hot, instead of one cold sealed-list walk per
    /// query; on the worker pool that is one task per segment per *batch*
    /// rather than per query. Each query still probes every segment's
    /// imprints (and bills their heat counters) exactly as if issued
    /// alone, so batching never changes answers or planner signals — only
    /// the order work is scheduled in. Per-segment results land in one
    /// [`Hits`] sink per query, in segment order, so ids stay globally
    /// sorted and a count never materializes them.
    ///
    /// Per-query predicate resolution errors come back in that query's
    /// slot; the remaining queries still evaluate. A poisoned table lock
    /// or a panicked pool task errors every remaining slot. The snapshot
    /// stays valid even if the table is concurrently dropped from its
    /// catalog — the pinned `Arc`s keep every segment alive until the
    /// batch finishes.
    pub fn query_batch(
        &self,
        queries: &[BatchQuery],
        pool: Option<&WorkerPool>,
    ) -> Vec<Result<(BatchAnswer, QueryStats)>> {
        // Resolve and compile every query first, once for all segments;
        // failures keep their slot and never reach the data pass.
        let kernel = self.refine_kernel();
        let mut work: Vec<SegQuery> = Vec::with_capacity(queries.len());
        let resolved: Vec<Result<()>> = queries
            .iter()
            .map(|q| {
                let preds = resolve_sets(&self.schema, &q.preds, kernel)?;
                work.push(SegQuery { preds, any: q.any, count_only: q.count_only });
                Ok(())
            })
            .collect();
        let pin = match self.pin_prefix(&work) {
            Ok(pin) => pin,
            Err(why) => return fail_resolved(resolved, &why),
        };

        let work = Arc::new(work);
        let sealed = match sweep_sealed(&pin.sealed, &work, pool) {
            Ok(sealed) => sealed,
            Err(why) => return fail_resolved(resolved, &why),
        };
        self.stats.queries.fetch_add(work.len() as u64, Ordering::Relaxed);
        let mut answers = work.iter().zip(sealed).zip(pin.opens).map(
            |((q, (mut hits, access)), (head_hits, tail_access))| {
                hits.absorb(head_hits, pin.open_base);
                let stats = QueryStats {
                    access,
                    tail_access,
                    tail_indexed: pin.tail_indexed && !q.preds.is_empty(),
                    open_rows: pin.open_rows,
                    sealed_segments: pin.sealed.len(),
                    visible_rows: pin.open_base + pin.open_rows as u64,
                    epoch: pin.epoch,
                };
                (BatchAnswer::from(hits), stats)
            },
        );
        resolved
            .into_iter()
            // panic-ok: `answers` zips `work`, which holds one query per `Ok` slot.
            .map(|r| r.map(|()| answers.next().expect("one per valid query")))
            .collect()
    }

    /// Reconstructs the tuple at global row `id` (late materialization):
    /// `None` past the visible rows, `Err` on a poisoned table lock, as
    /// every slot of a [`Table::query_batch`] is.
    pub fn tuple(&self, id: u64) -> Result<Option<Vec<Value>>> {
        let state = self.segments.read().map_err(|_| Error::Mismatch(self.poisoned()))?;
        let open = &state.head;
        if id >= open.base {
            let local = (id - open.base) as usize;
            return Ok(open.bufs.iter().map(|b| b.value(local)).collect());
        }
        let sealed = state.sealed.clone();
        drop(state);
        let idx = sealed.partition_point(|s| s.base() + s.rows() as u64 <= id);
        Ok(sealed.get(idx).and_then(|seg| {
            let local = (id - seg.base()) as usize;
            seg.columns().iter().map(|c| c.value(local)).collect()
        }))
    }

    /// Why every data access fails on a table whose lock a writer poisoned
    /// by panicking.
    fn poisoned(&self) -> String {
        format!("table {:?}: its lock was poisoned by a writer that panicked", self.name)
    }
}

/// The answers of a batch that could not run: every query that resolved
/// fails with `why`, the others keep their own resolution error.
fn fail_resolved(resolved: Vec<Result<()>>, why: &str) -> Vec<Result<(BatchAnswer, QueryStats)>> {
    resolved.into_iter().map(|r| r.and_then(|()| Err(Error::Mismatch(why.into())))).collect()
}

/// Sweeps a frozen sealed list once for every query of `work`: each
/// segment is one task answering all of them while its data and indexes
/// are cache-hot ([`SealedSegment::run`]), fanned out over `pool` when
/// there is one and more than one segment. Returns, per query, its
/// sealed share in its own [`Hits`] mode (global ids in segment order, or
/// their count) and the access work.
///
/// A segment evaluation can panic by design (`DataSlot::read`: an evicted
/// column whose file vanished). The sweep contains that itself and
/// returns `Err`, so the calling thread — in the server, a dispatcher —
/// survives it the same way serially and on the pool.
fn sweep_sealed(
    sealed: &[Arc<SealedSegment>],
    work: &Arc<Vec<SegQuery>>,
    pool: Option<&WorkerPool>,
) -> std::result::Result<Vec<(Hits, AccessStats)>, String> {
    let sweep = {
        let work = Arc::clone(work);
        move |seg: &SealedSegment| -> Option<SegSweep> {
            let answer_all = || (seg.base(), work.iter().map(|q| seg.run(q)).collect());
            catch_unwind(AssertUnwindSafe(answer_all)).ok()
        }
    };
    let per_segment: Vec<Option<SegSweep>> = match pool {
        Some(pool) if sealed.len() > 1 && !work.is_empty() => {
            let tasks = sealed.iter().map(|seg| {
                let (seg, sweep) = (Arc::clone(seg), sweep.clone());
                move || sweep(&seg)
            });
            pool.scatter(tasks).into_iter().map(Option::flatten).collect()
        }
        _ => sealed.iter().map(|seg| sweep(seg)).collect(),
    };
    let mut acc: Vec<(Hits, AccessStats)> =
        work.iter().map(|q| (Hits::new(q.count_only), AccessStats::default())).collect();
    for part in per_segment {
        let (base, seg_answers) = part.ok_or("segment evaluation task panicked")?;
        for ((hits, stats), (seg_hits, access)) in acc.iter_mut().zip(seg_answers) {
            stats.merge(&access);
            hits.absorb(seg_hits, base);
        }
    }
    Ok(acc)
}

/// The pinned consistent prefix one batch observes: the frozen sealed list
/// plus every query's already-evaluated share of the open write head (see
/// [`Table::pin_prefix`]).
struct PinnedPrefix {
    sealed: SegmentList,
    open_base: u64,
    /// Open rows visible to the batch.
    open_rows: usize,
    /// Whether the head carries tail imprints (every predicate that
    /// touches it then rides one).
    tail_indexed: bool,
    /// Per query, the head's share of the answer in the query's own sink
    /// mode (head-local ids, or their count) and the work it took.
    opens: Vec<(Hits, AccessStats)>,
    epoch: u64,
}

/// The open write head as the plan the sealed segments run sees it
/// ([`relation_index::run`]): one borrowed [`IndexedColumn`] per buffer,
/// carrying that buffer's tail imprint when the head maintains them —
/// every predicate then rides its own column's; below
/// [`EngineConfig::tail_index_min_rows`] every row is a candidate and the
/// kernels read the buffers.
fn head_columns<'a>(
    bufs: &'a [AnyColumn],
    tails: Option<&'a [AnyImprints]>,
) -> Vec<IndexedColumn<'a>> {
    bufs.iter()
        .enumerate()
        .map(|(i, col)| IndexedColumn { col, imprints: tails.and_then(|t| t.get(i)) })
        .collect()
}

/// Maintains the open segment's tail imprints after an append landed rows
/// `from..open.len()`, under the table write lock the caller already holds
/// — so readers never observe imprint and buffer out of sync, and all of
/// it is bounded by one segment of rows. The lifecycle:
///
/// 1. Below `min_rows` ([`EngineConfig::tail_index_min_rows`]) open rows,
///    no tail imprint exists — a tiny head is cheaper to scan than to
///    index, and the bin sample would be too thin to discriminate.
/// 2. Crossing the threshold, [`AnyImprints::build`] samples the rows
///    accumulated so far — real data, not guesses — and every subsequent
///    append goes through [`AnyImprints::append`] (§4.1: existing vectors
///    are never touched, borders never readjusted), so the index grows in
///    O(new rows).
/// 3. When appended data drifts off the sampled domain
///    ([`AnyImprints::append_drift_excessive`], the O(1) half of the
///    paper's §4.1 rebuild heuristic), [`AnyImprints::rebuild`] re-samples
///    over the current buffer. The saturation sweep of
///    [`ColumnImprints::needs_rebuild`](imprints::ColumnImprints::needs_rebuild)
///    is deliberately *not* consulted: this check runs once per append
///    batch under the table write lock, where an O(stored vectors) popcount
///    per chunk would make trickle appends quadratic in head size and
///    stall concurrent readers.
/// 4. At seal the tail imprint is discarded: the sealed segment builds its
///    real per-segment imprint, binned from a fresh sample of the full
///    segment's rows, which the tail imprint never tries to replace.
fn index_open_tail(open: &mut OpenSegment, from: usize, min_rows: usize) {
    if open.len() < min_rows {
        return;
    }
    match &mut open.tails {
        Some(tails) => {
            for (tail, buf) in tails.iter_mut().zip(&open.bufs) {
                tail.append(buf, from);
                if tail.append_drift_excessive() {
                    tail.rebuild(buf);
                }
            }
        }
        None => open.tails = Some(open.bufs.iter().map(AnyImprints::build).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> EngineConfig {
        EngineConfig { segment_rows: 256, workers: 2, ..Default::default() }
    }

    fn ints(values: std::ops::Range<i64>) -> AnyColumn {
        AnyColumn::I64(values.collect())
    }

    /// The ids and statistics of one serial conjunction of ranges.
    fn ids_with_stats(t: &Table, preds: &[(&str, ValueRange)]) -> (IdList, QueryStats) {
        let q = BatchQuery::ids(preds.iter().map(|(n, r)| (n.to_string(), *r)).collect());
        match t.query_one(&q, None).unwrap() {
            (BatchAnswer::Ids(ids), stats) => (ids, stats),
            (BatchAnswer::Count(_), _) => panic!("a materializing query answers with ids"),
        }
    }

    #[test]
    fn append_seals_segments_and_queries_span_them() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..1000)]).unwrap();
        assert_eq!(t.row_count(), 1000);
        assert_eq!(t.sealed_segment_count(), 3); // 3×256 sealed + 232 open
        let ids = t.query(&[("v", ValueRange::between(Value::I64(100), Value::I64(899)))]).unwrap();
        assert_eq!(ids.as_slice(), (100..900).collect::<Vec<u64>>().as_slice());
    }

    #[test]
    fn parallel_query_equals_serial() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        let vals: Vec<i64> = (0..5000).map(|i| (i * 37) % 1000).collect();
        t.append_batch(vec![AnyColumn::I64(vals.into_iter().collect())]).unwrap();
        let pool = WorkerPool::new(4);
        let pred = [("v", ValueRange::between(Value::I64(10), Value::I64(50)))];
        let serial = t.query(&pred).unwrap();
        let parallel = t.query_on(&pred, Some(&pool)).unwrap();
        assert_eq!(serial, parallel);
        assert!(!serial.is_empty());
        let n = t.count(&pred, Some(&pool)).unwrap();
        assert_eq!(n as usize, serial.len());
    }

    #[test]
    fn multi_column_conjunction() {
        let t = Table::new("t", &[("a", ColumnType::I64), ("b", ColumnType::F64)], small_cfg())
            .unwrap();
        let a: Vec<i64> = (0..2000).map(|i| i % 100).collect();
        let b: Vec<f64> = (0..2000).map(|i| (i % 7) as f64).collect();
        t.append_batch(vec![
            AnyColumn::I64(a.iter().copied().collect()),
            AnyColumn::F64(b.iter().copied().collect()),
        ])
        .unwrap();
        let ids = t
            .query(&[
                ("a", ValueRange::between(Value::I64(10), Value::I64(20))),
                ("b", ValueRange::equals(Value::F64(3.0))),
            ])
            .unwrap();
        let expect: Vec<u64> = (0..2000u64)
            .filter(|&i| (10..=20).contains(&a[i as usize]) && b[i as usize] == 3.0)
            .collect();
        assert_eq!(ids.as_slice(), expect.as_slice());
    }

    #[test]
    fn open_rows_visible_immediately() {
        let t = Table::new("t", &[("v", ColumnType::I32)], small_cfg()).unwrap();
        for i in 0..10 {
            t.append_row(&[Value::I32(i)]).unwrap();
        }
        assert_eq!(t.sealed_segment_count(), 0);
        let ids = t.query(&[("v", ValueRange::at_least(Value::I32(5)))]).unwrap();
        assert_eq!(ids.as_slice(), &[5, 6, 7, 8, 9]);
        assert_eq!(t.tuple(7).unwrap(), Some(vec![Value::I32(7)]));
        assert_eq!(t.tuple(10).unwrap(), None);
    }

    #[test]
    fn schema_validation_errors() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        assert!(t.query(&[("nope", ValueRange::equals(Value::I64(1)))]).is_err());
        assert!(t.query(&[("v", ValueRange::equals(Value::I32(1)))]).is_err());
        assert!(t.append_row(&[Value::I32(1)]).is_err());
        assert!(t.append_batch(vec![AnyColumn::I32(vec![1].into())]).is_err());
        assert!(Table::new("t", &[], small_cfg()).is_err());
        assert!(
            Table::new("t", &[("a", ColumnType::I8), ("a", ColumnType::I8)], small_cfg()).is_err()
        );
    }

    #[test]
    fn install_swaps_windows_by_row_id_and_refuses_stale_ones() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..1024)]).unwrap(); // 4 sealed segments of 256
        let sealed = t.sealed_snapshot();
        assert_eq!(sealed.len(), 4);
        let pred = [("v", ValueRange::between(Value::I64(100), Value::I64(700)))];
        let before = t.query(&pred).unwrap();
        let merge = |w: std::ops::Range<usize>| SealedSegment::merge(&sealed[w]);
        let bases = || t.sealed_snapshot().iter().map(|s| s.base()).collect::<Vec<u64>>();

        // Two windows planned from one snapshot both install, the second
        // with no index correction although the first shrank the list.
        let epoch = t.epoch();
        assert!(t.install(&sealed[0..2], merge(0..2)));
        assert!(t.install(&sealed[2..4], merge(2..4)));
        assert_eq!(bases(), vec![0, 512]);
        assert_eq!(t.epoch(), epoch + 2, "every install bumps the epoch once");
        assert_eq!(t.query(&pred).unwrap(), before, "row ids must survive the merges");
        assert_eq!(t.tuple(300).unwrap(), Some(vec![Value::I64(300)]));

        // Refused: a window holding a stale `Arc`, and one past the end.
        assert!(!t.install(&sealed[0..2], merge(0..2)));
        assert!(!t.install(&sealed[3..4], merge(3..4)));

        // One-for-one: a merge of one part is a re-seal of the same rows,
        // and keeps its place.
        let live = t.sealed_snapshot();
        assert!(t.install(&live[1..2], SealedSegment::merge(&live[1..2])));
        assert_eq!(bases(), vec![0, 512]);
        assert!(!Arc::ptr_eq(&t.sealed_snapshot()[1], &live[1]));
        assert_eq!(t.query(&pred).unwrap(), before);

        // The empty window appends — only where the list ends.
        let sealing = |base: u64| SealedSegment::seal(base, vec![ints(0..256)]);
        assert!(!t.install(&[], sealing(512)), "an append cannot land inside the list");
        assert!(!t.install(&[], sealing(2048)), "an append cannot leave a gap");
        assert!(t.install(&[], sealing(1024)));
        assert_eq!(bases(), vec![0, 512, 1024]);
        assert_eq!(t.epoch(), epoch + 4, "a refused install changes nothing");
    }

    fn tail_cfg(min_rows: usize) -> EngineConfig {
        EngineConfig {
            segment_rows: 1024,
            workers: 2,
            tail_index_min_rows: min_rows,
            ..Default::default()
        }
    }

    /// The write head's tail imprint is an invisible accelerator: a
    /// tail-indexed table and a scalar-scan table answer identically, but
    /// the indexed head skips cachelines instead of comparing every row.
    #[test]
    fn tail_indexed_head_matches_scalar_scan_and_skips_lines() {
        let indexed = Table::new("t", &[("v", ColumnType::I64)], tail_cfg(64)).unwrap();
        let scanned = Table::new("t", &[("v", ColumnType::I64)], tail_cfg(usize::MAX)).unwrap();
        // One sealed segment plus a 640-row open head of clustered values.
        let values: Vec<i64> = (0..1664).collect();
        for t in [&indexed, &scanned] {
            t.append_batch(vec![AnyColumn::I64(values.iter().copied().collect())]).unwrap();
            assert_eq!(t.sealed_segment_count(), 1);
        }
        // A narrow range inside the open head (rows 1024..1664).
        let pred = [("v", ValueRange::between(Value::I64(1100), Value::I64(1160)))];
        let (ids_i, st_i) = ids_with_stats(&indexed, &pred);
        let (ids_s, st_s) = ids_with_stats(&scanned, &pred);
        assert_eq!(ids_i, ids_s);
        assert_eq!(ids_i.as_slice(), (1100..1161).collect::<Vec<u64>>().as_slice());
        assert_eq!(st_i.open_rows, 640);
        assert!(st_i.tail_indexed, "a 640-row head above the threshold must use its tail");
        assert!(!st_s.tail_indexed);
        assert_eq!(st_s.tail_access.value_comparisons, 640, "scalar path compares every row");
        assert!(
            st_i.tail_access.value_comparisons < 640 / 4,
            "tail imprint must weed most of the head without comparisons (did {})",
            st_i.tail_access.value_comparisons
        );
        assert!(st_i.tail_access.lines_skipped > 0);
    }

    /// A seal must not cost a recent-window query its skipping. On a
    /// monotone key the tail imprint serves the head's newest rows worst
    /// (they ran off its borders since its last re-bin), and those are the
    /// rows such a workload asks for; the sealed segment bins from its own
    /// rows, so the same range a moment later touches a bin or two. (Bins
    /// inherited from the previous segment put the whole segment in the top
    /// overflow bin, and every one of its values was compared until the
    /// next maintenance tick.)
    #[test]
    fn sealing_a_monotone_key_never_loses_skipping() {
        let cfg = EngineConfig { segment_rows: 4096, tail_index_min_rows: 64, ..small_cfg() };
        let t = Table::new("t", &[("k", ColumnType::I64)], cfg).unwrap();
        // Segment 0 sealed, segment 1 eight rows short of its seal; the
        // tail imprint re-binned itself as the key ran off its borders.
        for start in (0..8192 - 256).step_by(256) {
            t.append_batch(vec![ints(start..start + 256)]).unwrap();
        }
        t.append_batch(vec![ints(8192 - 256..8192 - 8)]).unwrap();
        assert_eq!((t.sealed_segment_count(), t.row_count()), (1, 8184));
        let pred = [("k", ValueRange::between(Value::I64(8160), Value::I64(8170)))];
        let (ids_before, before) = ids_with_stats(&t, &pred);
        assert!(before.tail_indexed);
        assert!(before.tail_access.lines_skipped > 256, "the head must be skipping: {before:?}");
        t.append_batch(vec![ints(8184..8192)]).unwrap();
        assert_eq!(t.sealed_segment_count(), 2);
        let (ids_after, after) = ids_with_stats(&t, &pred);
        assert_eq!(ids_after, ids_before);
        assert_eq!(after.open_rows, 0);
        // Segment 0's values end at 4095: the range falls off its last
        // border, so nearly all the sealed work is segment 1's.
        let one_line = 8; // i64 values per 64-byte cacheline
        assert!(
            after.access.value_comparisons <= before.tail_access.value_comparisons + one_line,
            "sealed segment compared {} values, the open head compared {}",
            after.access.value_comparisons,
            before.tail_access.value_comparisons
        );
        // Two of the 64 bins at most, a cacheline of slack at either end.
        assert!(after.access.value_comparisons <= 2 * 4096 / 64 + 2 * one_line);
    }

    /// Every predicate of a conjunction rides its own column's tail
    /// imprint; sealing discards them, and the fresh (empty, below
    /// threshold) head falls back to the scalar path until it regrows.
    #[test]
    fn every_conjunct_rides_its_tail_imprint_and_seal_discards_them() {
        let t = Table::new("t", &[("a", ColumnType::I64), ("b", ColumnType::I64)], tail_cfg(128))
            .unwrap();
        // Runs of 64 and 32 rows: each imprint skips most lines for one
        // value, and stores a few vectors per run.
        let a: Vec<i64> = (0..1500).map(|i| i / 64).collect();
        let b: Vec<i64> = (0..1500).map(|i| (i / 32) % 7).collect();
        t.append_batch(vec![
            AnyColumn::I64(a.iter().copied().collect()),
            AnyColumn::I64(b.iter().copied().collect()),
        ])
        .unwrap();
        let pred =
            [("a", ValueRange::at_least(Value::I64(22))), ("b", ValueRange::equals(Value::I64(3)))];
        let (ids, st) = ids_with_stats(&t, &pred);
        let expect: Vec<u64> =
            (0..1500u64).filter(|&i| a[i as usize] >= 22 && b[i as usize] == 3).collect();
        assert_eq!(ids.as_slice(), expect.as_slice());
        assert!(!expect.is_empty());
        assert!(st.tail_indexed, "a conjunction over an indexed head must ride the tails");
        // Both columns' imprints were probed on the 476-row head: the
        // conjunction bills what each bills alone.
        let alone = |p| ids_with_stats(&t, &[p]).1.tail_access.index_probes;
        let (pa, pb) = (alone(pred[0]), alone(pred[1]));
        assert!(pa > 0 && pb > 0);
        assert_eq!(st.tail_access.index_probes, pa + pb, "{:?}", st.tail_access);

        // Fill the head to exactly the seal boundary: the new head is empty
        // and below threshold, so the next query takes the scalar path.
        t.append_batch(vec![ints(0..548), AnyColumn::I64((0..548).map(|i| i % 7).collect())])
            .unwrap();
        assert_eq!(t.row_count() % 1024, 0);
        let (_, st) = ids_with_stats(&t, &pred);
        assert_eq!(st.open_rows, 0);
        assert!(!st.tail_indexed, "sealing must discard the head's tail imprint");
    }

    /// An 8,192-row tail-indexed head of two monotone columns, nothing
    /// sealed: `a` and `b` both count 0, 1, 2, ….
    fn monotone_head() -> Table {
        let cfg = EngineConfig { segment_rows: 16_384, ..tail_cfg(64) };
        let t = Table::new("t", &[("a", ColumnType::I64), ("b", ColumnType::I64)], cfg).unwrap();
        t.append_batch(vec![ints(0..8192), ints(0..8192)]).unwrap();
        assert_eq!((t.sealed_segment_count(), t.row_count()), (0, 8192));
        t
    }

    /// The head runs the sealed plan: the predicate with the fewest
    /// imprint candidates is value-checked first whatever order the query
    /// names them in. (The head's own plan rode the tail imprint for the
    /// first-named predicate only: `a>=0 b=5000..5010` compared 8,200
    /// values, `b=5000..5010 a>=0` 147.)
    #[test]
    fn head_conjunction_cost_does_not_depend_on_predicate_order() {
        let t = monotone_head();
        let wide = ("a", ValueRange::at_least(Value::I64(0)));
        let narrow = ("b", ValueRange::between(Value::I64(5000), Value::I64(5010)));
        let (ids_wn, wn) = ids_with_stats(&t, &[wide, narrow]);
        let (ids_nw, nw) = ids_with_stats(&t, &[narrow, wide]);
        assert_eq!(ids_wn.as_slice(), (5000..=5010).collect::<Vec<u64>>().as_slice());
        assert_eq!(ids_nw, ids_wn);
        assert!(wn.tail_indexed && nw.tail_indexed);
        assert_eq!(wn.tail_access, nw.tail_access, "query order must not change the head's work");
        assert!(
            wn.tail_access.value_comparisons < 8192 / 50,
            "a narrow conjunct must bound the head's value work: {:?}",
            wn.tail_access
        );
    }

    /// What a query bills does not depend on which of its terms can match:
    /// every term of a set is compiled and probed, an impossible one
    /// included (each skips every line), and a set of one term takes the
    /// single-range walk. Pinned on one sealed segment (128 lines) and a
    /// 640-row indexed head (80 lines).
    #[test]
    fn impossible_terms_bill_exactly_as_written() {
        let t = Table::new("t", &[("v", ColumnType::I64)], tail_cfg(64)).unwrap();
        // Runs of 32 rows, four cachelines: 32 values sealed, 20 open, and
        // a stored vector per run, so that a probe of one value pays.
        let vals: Vec<i64> = (0..1664).map(|i| (i % 1024) / 32).collect();
        t.append_batch(vec![AnyColumn::I64(vals.into_iter().collect())]).unwrap();
        let between = |lo, hi| ValueRange::between(Value::I64(lo), Value::I64(hi));
        let stats = |index_probes, value_comparisons, lines_fetched, lines_skipped| AccessStats {
            index_probes,
            value_comparisons,
            lines_fetched,
            lines_skipped,
        };
        // The live term's probe walks the 32 and 20 stored vectors; its
        // two values fill 8 lines on each part, 64 values checked. The
        // impossible term's probe walks none and skips every line.
        let cases = [
            ("impossible range", vec![between(10, 5)], 0, stats(0, 0, 0, 128), stats(0, 0, 0, 80)),
            (
                "one impossible term, one live",
                vec![between(10, 5), between(5, 6)],
                128,
                stats(32, 64, 8, 248),
                stats(20, 64, 8, 152),
            ),
            (
                "all impossible",
                vec![between(10, 5), between(900, 100)],
                0,
                stats(0, 0, 0, 256),
                stats(0, 0, 0, 160),
            ),
        ];
        for (case, terms, hits, sealed, head) in cases {
            let q = BatchQuery::ids_sets(vec![("v".into(), ValueSet { terms })]);
            let (answer, st) = t.query_one(&q, None).unwrap();
            let BatchAnswer::Ids(ids) = answer else { panic!("{case}: ids expected") };
            assert_eq!(ids.len(), hits, "{case}");
            assert!(st.tail_indexed && st.open_rows == 640, "{case}: {st:?}");
            assert_eq!(st.access, sealed, "{case}: sealed segment");
            assert_eq!(st.tail_access, head, "{case}: write head");
        }
    }

    /// A two-column conjunction bills the cachelines it reads: the runs the
    /// first conjunct value-checks, then the lines of the second column its
    /// survivors are gathered from. Pinned on one sealed segment (128 lines
    /// a column) and a 640-row indexed head (80 lines a column).
    #[test]
    fn conjunction_bills_the_lines_it_reads() {
        let schema = [("a", ColumnType::I64), ("b", ColumnType::I64)];
        let t = Table::new("t", &schema, tail_cfg(64)).unwrap();
        let column = |f: fn(i64) -> i64| AnyColumn::I64((0..1664).map(f).collect());
        t.append_batch(vec![column(|i| i % 1024), column(|i| i % 3)]).unwrap();
        let preds = [
            ("a", ValueRange::between(Value::I64(100), Value::I64(299))),
            ("b", ValueRange::equals(Value::I64(1))),
        ];
        let (ids, st) = ids_with_stats(&t, &preds);
        let expect: Vec<u64> = (100..=299).chain(1124..=1323).filter(|i| i % 3 == 1).collect();
        assert_eq!(ids.as_slice(), expect.as_slice());
        assert!(st.tail_indexed && st.open_rows == 640, "{st:?}");
        // Every line of `b` holds 0, 1 and 2, so its census predicts its
        // probe skips nothing, and `b` is never probed. On the sealed part
        // `a`'s probe pays: its 28 candidate lines (224 values) are
        // checked, and the 200 rows with `a` in range are gathered from
        // `b`'s lines 12..=37 (26 lines).
        let sealed = AccessStats {
            index_probes: 118,
            value_comparisons: 224 + 200,
            lines_fetched: 28 + 26,
            lines_skipped: 100,
        };
        assert_eq!(st.access, sealed, "sealed segment");
        // On the head `a` stores a vector per line and its range skips
        // under 70 % of them, so nothing is probed: `b`, first in cost
        // order (one stored vector), is checked over all 640 rows, and its
        // 214 survivors are gathered from every one of `a`'s 80 lines.
        let head = AccessStats {
            index_probes: 0,
            value_comparisons: 640 + 214,
            lines_fetched: 80 + 80,
            lines_skipped: 0,
        };
        assert_eq!(st.tail_access, head, "write head");
    }

    /// `ts` (i64, the row index) and `sensor` (u16, one value per cacheline
    /// and a different one on the next, so one stored imprint vector per
    /// line) over one 8,192-row sealed segment and a 4,096-row indexed
    /// head: `sensor` stores 256 and 128 vectors, `ts` fewer.
    fn ts_sensor_table() -> Table {
        let cfg = EngineConfig { segment_rows: 8192, ..tail_cfg(64) };
        let schema = [("ts", ColumnType::I64), ("sensor", ColumnType::U16)];
        let t = Table::new("t", &schema, cfg).unwrap();
        let sensor = (0..12_288u64).map(|i| sensor_at(i) as u16).collect();
        t.append_batch(vec![ints(0..12_288), AnyColumn::U16(sensor)]).unwrap();
        assert_eq!((t.sealed_segment_count(), t.row_count()), (1, 12_288));
        t
    }

    fn sensor_at(row: u64) -> u64 {
        (row / 32 + 3) % 32
    }

    /// The plan probes `ts` (its imprint is the cheaper) and stops: the
    /// candidate rows `ts` leaves on each part, a bin or two of it, are no
    /// more than `sensor`'s stored vectors, so `sensor` weeds them by value
    /// instead of walking its imprint. The conjunction bills exactly the
    /// probes of `ts` alone, whichever order the query names the two in.
    #[test]
    fn conjunction_stops_probing_once_the_joint_is_smaller_than_the_next_imprint() {
        let t = ts_sensor_table();
        // Straddles the seal: rows 8142..=8191 are sealed, 8192..=8242 open.
        let (lo, hi) = (8142, 8242);
        let ts = ("ts", ValueRange::between(Value::I64(lo), Value::I64(hi)));
        let sensor = ("sensor", ValueRange::equals(Value::U16(3)));
        let (ids, st) = ids_with_stats(&t, &[ts, sensor]);
        let expect: Vec<u64> = (lo as u64..=hi as u64).filter(|&i| sensor_at(i) == 3).collect();
        assert_eq!(ids.as_slice(), expect.as_slice());
        assert_eq!(expect.len(), 32);
        assert!(st.tail_indexed && st.open_rows == 4096, "{st:?}");
        let probes = |st: &QueryStats| (st.access.index_probes, st.tail_access.index_probes);
        let (_, alone) = ids_with_stats(&t, &[sensor]);
        assert_eq!(probes(&alone), (256, 128), "one stored `sensor` vector per line");
        let (_, alone) = ids_with_stats(&t, &[ts]);
        assert_eq!(probes(&st), probes(&alone), "`sensor`'s imprint was probed");
        assert_eq!(probes(&st), (117, 113));
        // `ts`'s census predicts its probe pays, so the plan is the one it
        // was before the census, to the last counter.
        let stats = |index_probes, value_comparisons, lines_fetched, lines_skipped| AccessStats {
            index_probes,
            value_comparisons,
            lines_fetched,
            lines_skipped,
        };
        let (sealed, head) = (stats(117, 202, 21, 1005), stats(113, 115, 10, 504));
        assert_eq!((st.access, st.tail_access), (sealed, head));
        let (ids_sw, sw) = ids_with_stats(&t, &[sensor, ts]);
        assert_eq!(ids_sw, ids);
        assert_eq!((sw.access, sw.tail_access), (st.access, st.tail_access));
    }

    /// The converse: on two clustered columns — runs of 64 and of 128
    /// rows, so each imprint stores about one vector per run — each range
    /// skips most lines but leaves a quarter of the rows, far more than
    /// the other column stores vectors, so the plan probes both imprints —
    /// the sum of each alone — in either order.
    #[test]
    fn conjunction_probes_every_imprint_while_the_joint_stays_large() {
        let schema = [("a", ColumnType::I64), ("b", ColumnType::I64)];
        let t = Table::new("t", &schema, tail_cfg(64)).unwrap();
        let a: Vec<i64> = (0..1664).map(|i| (i / 64) % 16).collect();
        let b: Vec<i64> = (0..1664).map(|i| (i / 128) % 8).collect();
        t.append_batch(vec![
            AnyColumn::I64(a.iter().copied().collect()),
            AnyColumn::I64(b.iter().copied().collect()),
        ])
        .unwrap();
        let pa = ("a", ValueRange::between(Value::I64(2), Value::I64(5)));
        let pb = ("b", ValueRange::between(Value::I64(1), Value::I64(2)));
        let expect: Vec<u64> = (0..1664u64)
            .filter(|&i| (2..=5).contains(&a[i as usize]) && (1..=2).contains(&b[i as usize]))
            .collect();
        assert!(!expect.is_empty());
        let probes = |st: &QueryStats| (st.access.index_probes, st.tail_access.index_probes);
        let (_, sa) = ids_with_stats(&t, &[pa]);
        let (_, sb) = ids_with_stats(&t, &[pb]);
        let both = (probes(&sa).0 + probes(&sb).0, probes(&sa).1 + probes(&sb).1);
        for preds in [[pa, pb], [pb, pa]] {
            let (ids, st) = ids_with_stats(&t, &preds);
            assert_eq!(ids.as_slice(), expect.as_slice());
            assert!(st.tail_indexed && st.open_rows == 640, "{st:?}");
            assert_eq!(probes(&st), both, "{preds:?}");
        }
    }

    /// On two uniform columns a 10 % range skips too few lines for a probe
    /// to pay (the census predicts it), so the plan probes neither imprint:
    /// the joint is every row, the first conjunct in cost order is
    /// value-checked over it, and the other weeds its survivors — rows
    /// plus survivors compared on each part.
    #[test]
    fn uniform_conjunction_probes_nothing_and_checks_every_row_once() {
        let schema = [("a", ColumnType::I64), ("b", ColumnType::I64)];
        let t = Table::new("t", &schema, tail_cfg(64)).unwrap();
        let uniform = |salt: u64| {
            let mix = move |i: u64| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54;
            (0..1664).map(move |i| mix(i) as i64)
        };
        let (a, b): (Vec<i64>, Vec<i64>) = uniform(1).zip(uniform(2)).unzip();
        t.append_batch(vec![
            AnyColumn::I64(a.iter().copied().collect()),
            AnyColumn::I64(b.iter().copied().collect()),
        ])
        .unwrap();
        let in_a = |i: usize| (100..=201).contains(&a[i]);
        let in_b = |i: usize| (500..=601).contains(&b[i]);
        let pa = ("a", ValueRange::between(Value::I64(100), Value::I64(201)));
        let pb = ("b", ValueRange::between(Value::I64(500), Value::I64(601)));
        let expect: Vec<u64> =
            (0..1664u64).filter(|&i| in_a(i as usize) && in_b(i as usize)).collect();
        assert!(!expect.is_empty());
        for (preds, first) in [([pa, pb], &in_a as &dyn Fn(usize) -> bool), ([pb, pa], &in_a)] {
            let (ids, st) = ids_with_stats(&t, &preds);
            assert_eq!(ids.as_slice(), expect.as_slice());
            assert!(st.tail_indexed && st.open_rows == 640, "{st:?}");
            for (part, access, rows) in [(0, st.access, 0..1024), (1, st.tail_access, 1024..1664)] {
                let survivors = rows.clone().filter(|&i| first(i)).count() as u64;
                assert_eq!(access.index_probes, 0, "part {part}: {preds:?}");
                assert_eq!(access.lines_skipped, 0, "part {part}");
                assert_eq!(access.value_comparisons, rows.len() as u64 + survivors, "part {part}");
            }
        }
    }

    /// Disjoint candidate ranges answer before any value is fetched, on
    /// the head as on a sealed segment.
    #[test]
    fn head_conjunction_exits_on_an_empty_candidate_intersection() {
        let t = monotone_head();
        let preds = [
            ("a", ValueRange::between(Value::I64(1000), Value::I64(3000))),
            ("b", ValueRange::between(Value::I64(6000), Value::I64(7000))),
        ];
        let (ids, st) = ids_with_stats(&t, &preds);
        assert!(ids.is_empty());
        assert!(st.tail_indexed && st.tail_access.index_probes > 0);
        assert_eq!(st.tail_access.value_comparisons, 0, "{:?}", st.tail_access);
    }

    /// Counts and materializing queries are one executor: both equal the
    /// brute-force oracle, report the same pinned prefix (epoch,
    /// visibility, head accounting), and the count includes open rows.
    #[test]
    fn count_and_ids_report_the_same_pinned_prefix() {
        let t = Table::new("t", &[("v", ColumnType::I64)], tail_cfg(64)).unwrap();
        let vals: Vec<i64> = (0..2500).map(|i| (i * 37) % 1000).collect();
        t.append_batch(vec![AnyColumn::I64(vals.iter().copied().collect())]).unwrap();
        let expect: Vec<u64> =
            (0..2500u64).filter(|&i| (10..=50).contains(&vals[i as usize])).collect();
        let preds = vec![("v".to_string(), ValueRange::between(Value::I64(10), Value::I64(50)))];
        let (ids, qs) = t.query_one(&BatchQuery::ids(preds.clone()), None).unwrap();
        let (n, cs) = t.query_one(&BatchQuery::count(preds), None).unwrap();
        assert_eq!(ids, BatchAnswer::Ids(IdList::from_sorted(expect.clone())));
        assert_eq!(n, BatchAnswer::Count(expect.len() as u64));
        assert_eq!(cs.epoch, qs.epoch);
        assert_eq!(cs.visible_rows, 2500);
        assert_eq!(qs.visible_rows, 2500);
        assert_eq!(cs.open_rows, qs.open_rows);
        assert_eq!(cs.sealed_segments, qs.sealed_segments);
        assert_eq!(cs.tail_indexed, qs.tail_indexed);
        assert!(cs.open_rows > 0, "the open head must be part of the count");
        // The sealed count path reports its access work too.
        assert!(cs.access.index_probes > 0 || cs.access.value_comparisons > 0);
    }

    /// `query_batch` answers every slot of a mixed materializing / count /
    /// OR batch exactly like the brute-force oracle, on one pinned prefix,
    /// with the head populated, serially and on the pool.
    #[test]
    fn query_batch_matches_the_oracle() {
        let t = Table::new("t", &[("a", ColumnType::I64), ("b", ColumnType::I64)], tail_cfg(64))
            .unwrap();
        let a: Vec<i64> = (0..3000).map(|i| (i * 37) % 700).collect();
        let b: Vec<i64> = (0..3000).map(|i| i % 13).collect();
        t.append_batch(vec![
            AnyColumn::I64(a.iter().copied().collect()),
            AnyColumn::I64(b.iter().copied().collect()),
        ])
        .unwrap();
        type Case = (Vec<(String, ValueRange)>, bool, fn(i64, i64) -> bool);
        let between = |lo, hi| ValueRange::between(Value::I64(lo), Value::I64(hi));
        let cases: [Case; 5] = [
            (vec![("a".into(), between(10, 80))], false, |a, _| (10..=80).contains(&a)),
            (vec![("a".into(), ValueRange::at_least(Value::I64(650)))], false, |a, _| a >= 650),
            (vec![("a".into(), between(0, 300)), ("b".into(), between(4, 4))], false, |a, b| {
                (0..=300).contains(&a) && b == 4
            }),
            (vec![], false, |_, _| true),
            (vec![("a".into(), between(690, 699)), ("b".into(), between(12, 12))], true, |a, b| {
                (690..=699).contains(&a) || b == 12
            }),
        ];
        let mut batch = Vec::new();
        let mut expect = Vec::new();
        for count_only in [false, true] {
            for (preds, any, row_test) in &cases {
                let mut q = BatchQuery::ids(preds.clone());
                (q.any, q.count_only) = (*any, count_only);
                batch.push(q);
                let ids: Vec<u64> =
                    (0..3000u64).filter(|&i| row_test(a[i as usize], b[i as usize])).collect();
                expect.push(if count_only {
                    BatchAnswer::Count(ids.len() as u64)
                } else {
                    BatchAnswer::Ids(IdList::from_sorted(ids))
                });
            }
        }
        let pool = WorkerPool::new(2);
        for pool in [None, Some(&pool)] {
            let out = t.query_batch(&batch, pool);
            assert_eq!(out.len(), batch.len());
            for (res, expect) in out.into_iter().zip(&expect) {
                let (answer, stats) = res.unwrap();
                assert_eq!(&answer, expect);
                assert_eq!(stats.epoch, t.epoch());
                assert_eq!(stats.visible_rows, 3000);
                assert_eq!(stats.open_rows, 3000 % 1024);
                assert_eq!(stats.sealed_segments, 2);
            }
        }
    }

    fn poison(t: &Table) {
        let writer = catch_unwind(AssertUnwindSafe(|| {
            let _guard = t.segments.write().unwrap();
            panic!("writer dies mid-append");
        }));
        assert!(writer.is_err() && t.segments.is_poisoned());
    }

    /// A writer that panicked while holding the table lock poisons it. The
    /// read path must report that as an error in every query's slot — not
    /// unwind into its caller, which in the server is the one dispatcher
    /// thread — and must not read the possibly half-appended head; a tuple
    /// lookup and an append fail the same way.
    #[test]
    fn poisoned_table_lock_is_a_query_error_not_a_panic() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..600)]).unwrap();
        poison(&t);
        let batch = vec![
            BatchQuery::ids(vec![("v".into(), ValueRange::at_least(Value::I64(590)))]),
            BatchQuery::count(vec![]),
            BatchQuery::ids(vec![("nope".into(), ValueRange::equals(Value::I64(1)))]),
        ];
        let pool = WorkerPool::new(2);
        for pool in [None, Some(&pool)] {
            let out = catch_unwind(AssertUnwindSafe(|| t.query_batch(&batch, pool)))
                .expect("a poisoned lock must not unwind out of query_batch");
            assert_eq!(out.len(), batch.len());
            for (q, res) in batch.iter().zip(out) {
                let err = res.expect_err("no slot may answer from a poisoned table");
                let unresolvable = q.preds.first().is_some_and(|(name, _)| name == "nope");
                assert_eq!(err.to_string().contains("poisoned"), !unresolvable, "{err}");
            }
        }
        assert!(t.query(&[]).is_err());
        assert!(t.count(&[], None).is_err());
        let untouched = |f: &dyn Fn() -> Result<()>| {
            let res = catch_unwind(AssertUnwindSafe(f)).expect("a poisoned lock must not unwind");
            assert!(res
                .expect_err("no access to a poisoned table")
                .to_string()
                .contains("poisoned"));
        };
        untouched(&|| t.tuple(0).map(drop));
        untouched(&|| t.tuple(595).map(drop));
        untouched(&|| t.append_batch(vec![ints(0..10)]));
        assert!(!t.flush_open(), "a poisoned table seals nothing");
    }

    /// A segment evaluation that panics — `DataSlot::read` on an evicted
    /// column whose file vanished — is an `Err` in every slot of the batch
    /// on *both* sweep branches: the pooled fan-out (two segments and a
    /// pool) and the calling thread (one segment, or no pool), which in
    /// the server is the one dispatcher thread.
    #[test]
    fn fault_in_failure_is_a_query_error_with_one_segment_too() {
        let root = std::env::temp_dir().join(format!("imprints-vanished-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let pool = WorkerPool::new(2);
        for segments in [1i64, 2] {
            let mut cfg = small_cfg();
            cfg.storage.root = Some(root.clone());
            let name = format!("t{segments}");
            let schema = [("a", ColumnType::I64), ("b", ColumnType::I64)];
            let t = Table::new(&name, &schema, cfg).unwrap();
            t.append_batch(vec![ints(0..256 * segments), ints(0..256 * segments)]).unwrap();
            let sealed = t.sealed_snapshot();
            assert_eq!((sealed.len(), t.persist_errors()), (segments as usize, 0));
            for seg in sealed.iter() {
                assert!(seg.evict() > 0);
                let dir = root.join(&name).join(seg.durable_name().unwrap());
                std::fs::remove_file(dir.join(crate::persist::column_file(0))).unwrap();
            }
            // The range needs a value check, so the data must fault in.
            let lost = [("a", ValueRange::between(Value::I64(3), Value::I64(9)))];
            for pool in [None, Some(&pool)] {
                let res = catch_unwind(AssertUnwindSafe(|| t.query_on(&lost, pool)))
                    .expect("a failed fault-in must not unwind out of query_batch");
                let err = res.expect_err("no answer without the column's data");
                assert!(err.to_string().contains("panicked"), "{err}");
                // Column `b`'s files are intact: the table still answers.
                let healthy = [("b", ValueRange::between(Value::I64(3), Value::I64(9)))];
                assert_eq!(t.query_on(&healthy, pool).unwrap().len(), 7);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The operator's counters keep answering on a poisoned table — `STATS`
    /// is how they find out what is wrong — while queries on it still
    /// error.
    #[test]
    fn poisoned_table_lock_still_answers_storage_stats_and_path_report() {
        let cat = crate::Catalog::new();
        let t = cat.create_table("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..600)]).unwrap();
        let sealed = t.sealed_segment_count();
        assert!(sealed > 0);
        poison(&t);
        let stats = cat.storage_stats();
        assert_eq!((stats.rows, stats.sealed_segments), (600, sealed));
        assert!(stats.index_bytes > 0 && t.index_bytes() >= stats.index_bytes);
        let report = crate::planner::path_report(&cat);
        assert_eq!((report.len(), report[0].buckets[0].votes), (1, [sealed as u64, 0, 0]));
        assert!(t.query_batch(&[BatchQuery::count(vec![])], None)[0].is_err());
    }

    /// A batch with an unresolvable query errors only that slot; the rest
    /// evaluate against the shared pinned snapshot.
    #[test]
    fn query_batch_isolates_resolution_errors() {
        let t = Table::new("t", &[("v", ColumnType::I64)], small_cfg()).unwrap();
        t.append_batch(vec![ints(0..600)]).unwrap();
        let batch = vec![
            BatchQuery::ids(vec![("v".into(), ValueRange::at_least(Value::I64(590)))]),
            BatchQuery::ids(vec![("nope".into(), ValueRange::equals(Value::I64(1)))]),
            BatchQuery::count(vec![("v".into(), ValueRange::equals(Value::I32(1)))]),
            BatchQuery::count(vec![("v".into(), ValueRange::at_most(Value::I64(9)))]),
        ];
        let out = t.query_batch(&batch, None);
        assert_eq!(
            out[0].as_ref().unwrap().0,
            BatchAnswer::Ids(IdList::from_sorted((590..600).collect()))
        );
        assert!(out[1].is_err(), "unknown column must error its own slot");
        assert!(out[2].is_err(), "type-mismatched bound must error its own slot");
        assert_eq!(out[3].as_ref().unwrap().0, BatchAnswer::Count(10));
    }

    #[test]
    fn empty_predicates_select_every_visible_row() {
        let t = Table::new("t", &[("v", ColumnType::U16)], small_cfg()).unwrap();
        let vals: Vec<u16> = (0..700u32).map(|i| (i % 500) as u16).collect();
        t.append_batch(vec![AnyColumn::U16(vals.into_iter().collect())]).unwrap();
        let ids = t.query(&[]).unwrap();
        assert_eq!(ids.len(), 700);
    }
}
