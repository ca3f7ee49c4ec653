//! The maintenance planner: tiered segment compaction + cold-data
//! eviction.
//!
//! A sealed segment's index is built once, from its own rows, when the
//! segment is sealed (see [`crate::segment`]), so there is no per-index
//! degradation to watch for. What does degrade is *structural*: trickle
//! appends seal many small segments, each paying its own index overhead
//! (bin dictionary, header, imprint-run breaks at segment boundaries) and
//! each a separate stop on every query's sealed-list walk. The planner
//! answers with LSM-style **tiered compaction**: segments are bucketed
//! into size tiers (tier *t* holds segments of
//! `unit·fanin^t ..< unit·fanin^(t+1)` rows), and a run of
//! [`tier_fanin`](crate::MaintenanceConfig::tier_fanin) adjacent same-tier
//! segments is merged into one — data concatenated, bins re-sampled once
//! over the union, the imprint rebuilt — then swapped in atomically,
//! with compaction throughput capped per tick by
//! [`compaction_budget_bytes`](crate::MaintenanceConfig::compaction_budget_bytes).
//! The second half of a tick evicts the data pages of the coldest
//! persisted segments when a table is over its resident-data budget.
//!
//! This is the automated-index-management loop (AIM-style): observe →
//! decide → merge/evict → swap, with the table's one lock making each swap
//! (and its manifest commit) atomic to readers.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::catalog::Catalog;
use crate::segment::SealedSegment;
use crate::table::Table;

/// One planned or applied compaction merge: `len` adjacent sealed segments
/// starting at index `start` (at planning time) merge into one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionAction {
    /// Table name.
    pub table: String,
    /// First sealed segment index of the merge window at planning time.
    pub start: usize,
    /// Segments merged (the tier fan-in).
    pub len: usize,
    /// Rows of the merged output segment.
    pub rows: usize,
    /// Size tier of the input segments.
    pub tier: u32,
}

/// Outcome of one maintenance pass.
#[derive(Debug, Default)]
pub struct MaintenanceReport {
    /// Compaction merges applied (window swapped for one segment).
    pub compacted: Vec<CompactionAction>,
    /// Input data bytes consumed by the applied compactions.
    pub compaction_bytes: usize,
    /// Compaction merges that lost the swap race.
    pub compaction_races: usize,
    /// Segments whose cold data was evicted to disk this pass.
    pub evicted_segments: usize,
    /// Data bytes freed by those evictions.
    pub evicted_bytes: usize,
}

impl MaintenanceReport {
    /// Whether the pass changed nothing (no compactions, no evictions).
    pub fn is_idle(&self) -> bool {
        self.compacted.is_empty() && self.evicted_segments == 0
    }
}

/// The top tier: no merge produces a segment of more rows than this (4 Mi),
/// and a segment there is never rewritten.
pub const MAX_SEGMENT_ROWS: usize = 1 << 22;

/// Size tier of a segment of `rows` rows: tier `t` spans
/// `unit·fanin^t ..< unit·fanin^(t+1)` rows (everything below `unit·fanin`
/// is tier 0).
fn tier_of(rows: usize, unit: usize, fanin: usize) -> u32 {
    let mut tier = 0u32;
    let mut upper = unit.saturating_mul(fanin);
    while rows >= upper {
        tier += 1;
        let next = upper.saturating_mul(fanin);
        if next == upper {
            break; // saturated at usize::MAX
        }
        upper = next;
    }
    tier
}

/// The tier policy over one frozen sealed list: walks runs of adjacent
/// same-tier segments and emits one `Compact` window per `fanin` of them,
/// skipping windows whose merged size would cross `max_rows`
/// ([`MAX_SEGMENT_ROWS`] outside the tests). Windows never overlap, so any
/// prefix of the plan can be applied against the same snapshot.
fn plan_compactions_for(
    table: &Table,
    sealed: &[Arc<SealedSegment>],
    max_rows: usize,
) -> Vec<CompactionAction> {
    let fanin = table.config().maintenance.tier_fanin;
    if fanin < 2 {
        return Vec::new();
    }
    // A tier-0 segment is what every fresh seal holds.
    let unit = table.config().segment_rows;
    let tier = |s: &Arc<SealedSegment>| tier_of(s.rows(), unit, fanin);
    let mut actions = Vec::new();
    let mut start = 0;
    for run in sealed.chunk_by(|a, b| tier(a) == tier(b)) {
        let mut at = start;
        let mut rest = run;
        while let Some(window @ [head, ..]) = rest.get(..fanin) {
            let rows: usize = window.iter().map(|s| s.rows()).sum();
            let fits = rows <= max_rows;
            if fits {
                actions.push(CompactionAction {
                    table: table.name().to_string(),
                    start: at,
                    len: fanin,
                    rows,
                    tier: tier(head),
                });
            }
            // A window too large for the top tier: slide past its head.
            let step = if fits { fanin } else { 1 };
            rest = rest.get(step..).unwrap_or_default();
            at += step;
        }
        start += run.len();
    }
    actions
}

// A sealed segment answers through its imprint, so there is no path
// choice to report. What follows is the smallest shape that keeps the
// names `benchmark/src/surface.rs` reads for its `engine.path_share.*`
// rows; ROADMAP item 1(b) retires those rows and, with them, everything
// down to `path_report`.

/// A slot of [`BucketPathReport::votes`]. The engine only ever answers
/// through [`PathKind::Imprints`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// The column-imprints secondary index.
    Imprints,
    /// Unused slot.
    ZoneMap,
    /// Unused slot.
    Scan,
}

impl PathKind {
    /// All slots, in [`PathKind::slot`] order.
    pub const CLASSIC: [PathKind; 3] = [PathKind::Imprints, PathKind::ZoneMap, PathKind::Scan];

    /// Index into [`BucketPathReport::votes`].
    pub fn slot(self) -> usize {
        self as usize
    }
}

/// Sealed segments per [`PathKind`] slot.
#[derive(Debug, Clone)]
pub struct BucketPathReport {
    /// One vote per sealed segment, all in the imprint slot.
    pub votes: [u64; 3],
}

/// The access path of one table column's sealed segments.
#[derive(Debug, Clone)]
pub struct ColumnPathReport {
    /// Always one entry.
    pub buckets: Vec<BucketPathReport>,
}

/// One [`ColumnPathReport`] per column of every table.
pub fn path_report(catalog: &Catalog) -> Vec<ColumnPathReport> {
    let mut out = Vec::new();
    for table in catalog.tables() {
        let votes = [table.sealed_snapshot().len() as u64, 0, 0];
        let column = ColumnPathReport { buckets: vec![BucketPathReport { votes }] };
        out.extend(std::iter::repeat_n(column, table.schema().len()));
    }
    out
}

/// One maintenance pass: merge small segment tiers under the compaction
/// budget, swapping every result in atomically, then evict cold data over
/// the resident budget. Returns what happened.
pub fn maintenance_tick(catalog: &Catalog) -> MaintenanceReport {
    let mut report = MaintenanceReport::default();
    for table in catalog.tables() {
        compact_table(&table, &mut report);
        evict_cold(&table, &mut report);
    }
    report
}

/// The eviction half of one tick: when a table's resident sealed data
/// exceeds the table's configured `storage.max_resident_data_bytes`
/// budget, persisted segments
/// are evicted **coldest first** — ascending cumulative per-column query
/// counts — until the table is back under budget. Only the data pages go;
/// the imprints stay resident, so evicted segments keep answering
/// fully-covered counts from memory and pruning candidates for
/// everything else. Never-persisted segments (memory-only tables, or a
/// segment whose durable write failed) are silently skipped: eviction
/// must not lose data.
fn evict_cold(table: &Table, report: &mut MaintenanceReport) {
    let budget = table.config().storage.max_resident_data_bytes;
    if budget == usize::MAX {
        return;
    }
    let sealed = table.sealed_snapshot();
    let mut resident: usize = sealed.iter().map(|s| s.data_bytes_resident()).sum();
    if resident <= budget {
        return;
    }
    let heat = |seg: &SealedSegment| -> u64 {
        seg.columns()
            .iter()
            // ordering: a heat estimate — a stale count only shifts the
            // eviction order, never correctness.
            .map(|c| c.observations().queries.load(std::sync::atomic::Ordering::Relaxed))
            .sum()
    };
    let mut coldest_first: Vec<&Arc<SealedSegment>> = sealed.iter().collect();
    coldest_first.sort_by_key(|seg| heat(seg));
    for seg in coldest_first {
        if resident <= budget {
            break;
        }
        let freed = seg.evict();
        if freed > 0 {
            resident = resident.saturating_sub(freed);
            report.evicted_segments += 1;
            report.evicted_bytes += freed;
        }
    }
}

/// The compaction half of one tick. Each pass of the outer loop freezes one
/// snapshot, plans once, and applies *every* planned window against it —
/// the windows are non-overlapping, and [`Table::install`] finds each by
/// row id, so later windows stay valid after earlier installs shrank the
/// live list. Merges are built off the snapshot with no locks held and
/// installed atomically. The outer loop then re-plans so
/// merges cascade within one tick (four tier-0 merges can produce the four
/// tier-1 segments that immediately merge into a tier-2), stopping when
/// the plan is empty, the byte budget is spent, or a swap loses a race
/// (stale snapshot; the next tick retries).
fn compact_table(table: &Table, report: &mut MaintenanceReport) {
    let budget = match table.config().maintenance.compaction_budget_bytes {
        0 => usize::MAX,
        b => b,
    };
    let mut spent = 0usize;
    loop {
        let sealed = table.sealed_snapshot();
        let plan = plan_compactions_for(table, &sealed, MAX_SEGMENT_ROWS);
        if plan.is_empty() {
            return;
        }
        for action in plan {
            // The plan is over this snapshot, so every window lies in it.
            let Some(window) = sealed.get(action.start..action.start + action.len) else {
                return;
            };
            let bytes: usize = window
                .iter()
                .map(|s| s.columns().iter().map(|c| c.data_bytes()).sum::<usize>())
                .sum();
            // Always make progress on the first merge so tiering cannot
            // stall, but stop starting new ones past the budget.
            if spent > 0 && spent + bytes > budget {
                return;
            }
            let merged = SealedSegment::merge(window);
            if table.install(window, merged) {
                // ordering: monotonic telemetry, guards no other memory.
                table.stats().compactions.fetch_add(1, Ordering::Relaxed);
                // ordering: as above.
                table.stats().segments_compacted.fetch_add(action.len as u64, Ordering::Relaxed);
                spent += bytes;
                report.compaction_bytes += bytes;
                report.compacted.push(action);
            } else {
                report.compaction_races += 1;
                return;
            }
        }
    }
}

/// A background thread running [`maintenance_tick`] on an interval.
pub struct MaintenanceDaemon {
    /// Never sent on: dropping it is the stop signal.
    stop: Option<Sender<()>>,
    handle: Option<JoinHandle<()>>,
}

impl MaintenanceDaemon {
    /// Starts the daemon over `catalog`, ticking every `interval`. Fails
    /// only if the thread cannot be spawned.
    pub fn start(catalog: Arc<Catalog>, interval: Duration) -> std::io::Result<MaintenanceDaemon> {
        let (stop, stopped) = mpsc::channel();
        let ticks = move || loop {
            let _ = maintenance_tick(&catalog);
            if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                break;
            }
        };
        let handle =
            std::thread::Builder::new().name("imprints-maintenance".into()).spawn(ticks)?;
        Ok(MaintenanceDaemon { stop: Some(stop), handle: Some(handle) })
    }

    /// Whether the daemon thread is still alive — `false` once stopped, and
    /// also if a tick panicked and took the thread with it.
    pub fn is_running(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// Stops the daemon and joins its thread.
    pub fn stop(&mut self) {
        drop(self.stop.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MaintenanceDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use colstore::relation::AnyColumn;
    use colstore::{ColumnType, Value};
    use imprints::relation_index::ValueRange;

    #[test]
    fn tier_of_buckets_by_size_ratio() {
        // unit 512, fanin 4: tier 0 < 2048 <= tier 1 < 8192 <= tier 2 …
        assert_eq!(tier_of(512, 512, 4), 0);
        assert_eq!(tier_of(2047, 512, 4), 0);
        assert_eq!(tier_of(2048, 512, 4), 1);
        assert_eq!(tier_of(8191, 512, 4), 1);
        assert_eq!(tier_of(8192, 512, 4), 2);
        assert!(tier_of(usize::MAX, 512, 4) >= 20, "huge segments terminate at a high tier");
    }

    #[test]
    fn compaction_plan_windows_same_tier_runs() {
        let cat = Catalog::new();
        let cfg = EngineConfig {
            segment_rows: 128,
            maintenance: crate::config::MaintenanceConfig { tier_fanin: 2, ..Default::default() },
            ..Default::default()
        };
        let t = cat.create_table("tiers", &[("v", ColumnType::I64)], cfg).unwrap();
        let vals: Vec<i64> = (0..128 * 6).map(|i| i % 97).collect();
        t.append_batch(vec![AnyColumn::I64(vals.into_iter().collect())]).unwrap();
        assert_eq!(t.sealed_segment_count(), 6);
        let planned = plan_compactions_for(&t, &t.sealed_snapshot(), MAX_SEGMENT_ROWS);
        // Six tier-0 segments, fan-in 2 → three non-overlapping windows.
        assert_eq!(planned.len(), 3);
        assert!(planned.iter().all(|a| a.len == 2 && a.tier == 0 && a.rows == 256));
        assert_eq!(planned.iter().map(|a| a.start).collect::<Vec<_>>(), vec![0, 2, 4]);
    }

    #[test]
    fn tick_cascades_tiers_and_preserves_answers() {
        let cat = Catalog::new();
        let cfg = EngineConfig {
            segment_rows: 128,
            maintenance: crate::config::MaintenanceConfig {
                tier_fanin: 2,
                compaction_budget_bytes: 0, // unlimited
            },
            ..Default::default()
        };
        let t = cat.create_table("cascade", &[("v", ColumnType::I64)], cfg).unwrap();
        let vals: Vec<i64> = (0..128 * 8).map(|i| (i * 7) % 500).collect();
        t.append_batch(vec![AnyColumn::I64(vals.iter().copied().collect())]).unwrap();
        assert_eq!(t.sealed_segment_count(), 8);
        let pred = [("v", ValueRange::between(Value::I64(40), Value::I64(90)))];
        let before = t.query(&pred).unwrap();
        let report = maintenance_tick(&cat);
        // 8 tier-0 → 4 tier-1 → 2 tier-2 → 1 tier-3, all within one tick.
        assert_eq!(report.compacted.len(), 7, "cascade must run to one segment: {report:?}");
        assert_eq!(t.sealed_segment_count(), 1);
        assert!(report.compaction_bytes > 0);
        assert_eq!(t.query(&pred).unwrap(), before, "compaction must not change answers");
        assert!(maintenance_tick(&cat).is_idle(), "a compacted table has nothing left to do");
    }

    #[test]
    fn budget_bounds_one_tick_but_progress_never_stalls() {
        let cat = Catalog::new();
        let seg_bytes = 128 * std::mem::size_of::<i64>(); // one segment's data
        let cfg = EngineConfig {
            segment_rows: 128,
            maintenance: crate::config::MaintenanceConfig {
                tier_fanin: 2,
                // Budget below even one merge's input: each tick still does
                // exactly its one guaranteed merge.
                compaction_budget_bytes: seg_bytes,
            },
            ..Default::default()
        };
        let t = cat.create_table("budget", &[("v", ColumnType::I64)], cfg).unwrap();
        let vals: Vec<i64> = (0..128 * 4).map(|i| i % 50).collect();
        t.append_batch(vec![AnyColumn::I64(vals.into_iter().collect())]).unwrap();
        assert_eq!(t.sealed_segment_count(), 4);
        let r1 = maintenance_tick(&cat);
        assert_eq!(r1.compacted.len(), 1, "budgeted tick merges exactly one window");
        assert_eq!(t.sealed_segment_count(), 3);
        // Ticking until idle still converges.
        let mut guard = 0;
        while !maintenance_tick(&cat).is_idle() {
            guard += 1;
            assert!(guard < 16, "budgeted compaction must converge");
        }
        assert_eq!(t.sealed_segment_count(), 1);
    }

    #[test]
    fn max_segment_rows_caps_the_top_tier() {
        let cat = Catalog::new();
        let cfg = EngineConfig {
            segment_rows: 128,
            maintenance: crate::config::MaintenanceConfig {
                tier_fanin: 2,
                compaction_budget_bytes: 0,
            },
            ..Default::default()
        };
        let t = cat.create_table("capped", &[("v", ColumnType::I64)], cfg).unwrap();
        let vals: Vec<i64> = (0..128 * 8).map(|i| i % 10).collect();
        t.append_batch(vec![AnyColumn::I64(vals.into_iter().collect())]).unwrap();
        let sealed = t.sealed_snapshot();
        // Eight 128-row segments pair into 256-row ones, never larger.
        let plan = plan_compactions_for(&t, &sealed, 256);
        assert_eq!(plan.len(), 4);
        assert!(plan.iter().all(|a| a.rows == 256));
        assert!(plan_compactions_for(&t, &sealed, 255).is_empty());
        // Applied, the 256-row tier cannot merge again under that cap.
        for a in &plan {
            let window = &sealed[a.start..a.start + a.len];
            assert!(t.install(window, SealedSegment::merge(window)));
        }
        assert_eq!(t.sealed_segment_count(), 4);
        assert!(plan_compactions_for(&t, &t.sealed_snapshot(), 256).is_empty());
        assert_eq!(plan_compactions_for(&t, &t.sealed_snapshot(), 512).len(), 2);
    }

    #[test]
    fn fanin_below_two_disables_compaction() {
        let cat = Catalog::new();
        let cfg = EngineConfig {
            segment_rows: 128,
            maintenance: crate::config::MaintenanceConfig { tier_fanin: 0, ..Default::default() },
            ..Default::default()
        };
        let t = cat.create_table("off", &[("v", ColumnType::I64)], cfg).unwrap();
        let vals: Vec<i64> = (0..128 * 8).map(|i| i % 10).collect();
        t.append_batch(vec![AnyColumn::I64(vals.into_iter().collect())]).unwrap();
        let report = maintenance_tick(&cat);
        assert!(report.compacted.is_empty());
        assert_eq!(t.sealed_segment_count(), 8);
    }

    /// Seals on the appending thread and compactions on a ticking one race
    /// to install. Each commits its manifest inside the table's write
    /// critical section, so the committed epoch never goes back, and after
    /// every round the committed manifest is the table's list at the
    /// table's epoch and a reopen answers like the oracle.
    #[test]
    fn durable_epoch_is_the_table_epoch_after_every_install() {
        let root = std::env::temp_dir().join(format!("imprints-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = EngineConfig {
            segment_rows: 128,
            maintenance: crate::config::MaintenanceConfig {
                tier_fanin: 2,
                compaction_budget_bytes: 0,
            },
            storage: crate::config::StorageOptions {
                root: Some(root.clone()),
                ..Default::default()
            },
            ..Default::default()
        };
        let cat = Catalog::new();
        let t = cat.create_table("t", &[("v", ColumnType::I64)], cfg.clone()).unwrap();
        let value = |row: u64| (row * 37 % 1000) as i64;
        let pred = [("v", ValueRange::between(Value::I64(100), Value::I64(300)))];
        let manifest_path = root.join("t").join(crate::persist::MANIFEST_FILE);
        let committed = || crate::persist::read_manifest(&manifest_path).unwrap();
        let (mut rows, mut epoch) = (0u64, 0u64);
        for _round in 0..4 {
            let ticking = std::sync::atomic::AtomicBool::new(true);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while ticking.load(Ordering::Relaxed) {
                        maintenance_tick(&cat);
                    }
                });
                // Eight seals, four 32-row appends each, so the head ends
                // the round empty and every row is durable.
                for _ in 0..32 {
                    let batch = AnyColumn::I64((rows..rows + 32).map(value).collect());
                    t.append_batch(vec![batch]).unwrap();
                    rows += 32;
                    let now = committed().epoch;
                    assert!(now >= epoch, "the committed epoch went back from {epoch} to {now}");
                    epoch = now;
                }
                ticking.store(false, Ordering::Relaxed);
            });
            let manifest = committed();
            assert_eq!(manifest.epoch, t.epoch());
            let dirs: Vec<&str> = manifest.segments.iter().map(|e| e.dir.as_str()).collect();
            let sealed = t.sealed_snapshot();
            let live: Vec<&str> = sealed.iter().map(|s| s.durable_name().unwrap()).collect();
            assert_eq!(dirs, live);
            let (reopened, _) = Catalog::open(&cfg).unwrap();
            let expect: Vec<u64> =
                (0..rows).filter(|&row| (100..=300).contains(&value(row))).collect();
            let ids = reopened.table("t").unwrap().query(&pred).unwrap();
            assert_eq!(ids.as_slice(), expect.as_slice());
        }
        assert!(t.stats().compactions.load(Ordering::Relaxed) > 0, "no install raced a seal");
        assert_eq!(t.persist_errors(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Four full tier-0 segments: one default-fan-in merge away from idle.
    fn four_segments(cat: &Catalog, cfg: EngineConfig) -> Arc<Table> {
        let cfg = EngineConfig { segment_rows: 512, ..cfg };
        let t = cat.create_table("four", &[("v", ColumnType::I64)], cfg).unwrap();
        t.append_batch(vec![AnyColumn::I64((0..2048).map(|i| i % 1000).collect())]).unwrap();
        assert_eq!(t.sealed_segment_count(), 4);
        t
    }

    /// Polls `done` every 2 ms for up to a second.
    fn wait_for(done: impl Fn() -> bool) -> bool {
        for _ in 0..500 {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        done()
    }

    #[test]
    fn daemon_runs_and_stops() {
        let cat = Arc::new(Catalog::new());
        let t = four_segments(&cat, EngineConfig::default());
        let mut d = MaintenanceDaemon::start(Arc::clone(&cat), Duration::from_millis(5)).unwrap();
        let compactions = || t.stats().compactions.load(Ordering::Relaxed);
        assert!(wait_for(|| compactions() > 0), "daemon should have merged the four segments");
        assert!(d.is_running());
        d.stop();
        assert!(!d.is_running());
    }

    /// A tick that panics takes the daemon thread with it, and
    /// `is_running` must say so: here an evicted column's file vanishes,
    /// so the merge's fault-in panics by design ([`SealedSegment::merge`]
    /// reads every part).
    #[test]
    fn daemon_death_is_visible_through_is_running() {
        let root = std::env::temp_dir().join(format!("imprints-daemon-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cat = Arc::new(Catalog::new());
        let storage =
            crate::config::StorageOptions { root: Some(root.clone()), ..Default::default() };
        let t = four_segments(&cat, EngineConfig { storage, ..Default::default() });
        let sealed = t.sealed_snapshot();
        assert!(sealed.iter().all(|s| s.evict() > 0), "persisted segments must evict");
        let dir = root.join("four").join(sealed[0].durable_name().unwrap());
        std::fs::remove_file(dir.join(crate::persist::column_file(0))).unwrap();
        let d = MaintenanceDaemon::start(Arc::clone(&cat), Duration::from_millis(5)).unwrap();
        assert!(wait_for(|| !d.is_running()), "a dead daemon thread must not report running");
        let _ = std::fs::remove_dir_all(&root);
    }
}
