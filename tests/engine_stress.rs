//! Concurrency stress tests for the engine: concurrent readers and one
//! appender, with the maintenance daemon running (tiered segment
//! compaction), must always produce results identical to a serial scan of
//! a consistent snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::{ColumnType, Value};
use column_imprints::engine::{
    maintenance_tick, BatchAnswer, BatchQuery, Catalog, EngineConfig, MaintenanceConfig,
    MaintenanceDaemon, Table, ValueRange, WorkerPool,
};
use column_imprints::IdList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const READERS: usize = 4;
const TOTAL_ROWS: usize = 120_000;

/// A conjunction of ranges fanned out over `pool`.
fn query_on(table: &Table, pool: &WorkerPool, preds: &[(&str, ValueRange)]) -> IdList {
    let q = BatchQuery::ids(preds.iter().map(|(n, r)| (n.to_string(), *r)).collect());
    match table.query_one(&q, Some(pool)).unwrap().0 {
        BatchAnswer::Ids(ids) => ids,
        BatchAnswer::Count(_) => panic!("a materializing query answers with ids"),
    }
}

#[test]
fn concurrent_readers_and_appender_stay_consistent() {
    let catalog = Arc::new(Catalog::new());
    let cfg = EngineConfig {
        segment_rows: 2048,
        workers: 2,
        // Engage the write head's tail imprint almost immediately, so the
        // readers exercise the tail-indexed eval_open path against the
        // appender's incremental extends and seal-time discards.
        tail_index_min_rows: 128,
        // Fan-in 4 lets tiered compaction churn the sealed list under the
        // readers.
        maintenance: MaintenanceConfig { tier_fanin: 4, ..Default::default() },
        ..Default::default()
    };
    let table = catalog
        .create_table("events", &[("key", ColumnType::I64), ("score", ColumnType::F64)], cfg)
        .unwrap();
    let pool = Arc::new(WorkerPool::new(4));
    let done = Arc::new(AtomicBool::new(false));
    let checks = Arc::new(AtomicU64::new(0));

    // Maintenance daemon churns segment swaps under the readers.
    let daemon = MaintenanceDaemon::start(Arc::clone(&catalog), Duration::from_millis(3));

    std::thread::scope(|s| {
        // One appender: batches of drifting data (later batches shift the
        // key domain, so segments of one merge window straddle domains).
        {
            let table = Arc::clone(&table);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(42);
                let mut appended = 0usize;
                while appended < TOTAL_ROWS {
                    let n = rng.gen_range(200..1500).min(TOTAL_ROWS - appended);
                    let shift = (appended / 30_000) as i64 * 500_000;
                    let keys: Vec<i64> = (0..n).map(|_| shift + rng.gen_range(0..10_000)).collect();
                    let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
                    table
                        .append_batch(vec![
                            AnyColumn::I64(keys.into_iter().collect()),
                            AnyColumn::F64(scores.into_iter().collect()),
                        ])
                        .unwrap();
                    appended += n;
                }
                done.store(true, Ordering::Release);
            });
        }

        // READERS validating threads.
        for r in 0..READERS {
            let table = Arc::clone(&table);
            let pool = Arc::clone(&pool);
            let done = Arc::clone(&done);
            let checks = Arc::clone(&checks);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + r as u64);
                loop {
                    let finished = done.load(Ordering::Acquire);

                    // 1) Exact check against a consistent snapshot oracle.
                    let snap = table.snapshot();
                    let lo = rng.gen_range(0..2_500_000i64);
                    let hi = lo + rng.gen_range(0..500_000i64);
                    let smax = rng.gen_range(0.0..100.0f64);
                    let preds = [
                        ("key", ValueRange::between(Value::I64(lo), Value::I64(hi))),
                        ("score", ValueRange::at_most(Value::F64(smax))),
                    ];
                    let got = snap.query(&preds).unwrap();
                    let keys: Vec<i64> = snap.column_values("key").unwrap();
                    let scores: Vec<f64> = snap.column_values("score").unwrap();
                    let expect: Vec<u64> = (0..keys.len() as u64)
                        .filter(|&i| {
                            (lo..=hi).contains(&keys[i as usize]) && scores[i as usize] <= smax
                        })
                        .collect();
                    assert_eq!(
                        got.as_slice(),
                        expect.as_slice(),
                        "snapshot query diverged from serial scan (epoch {})",
                        snap.epoch()
                    );

                    // 2) Soundness of live parallel queries: rows are
                    // append-only, so every returned id must satisfy the
                    // predicates whenever we look at it.
                    let live = query_on(&table, &pool, &preds);
                    assert!(
                        live.as_slice().windows(2).all(|w| w[0] < w[1]),
                        "live result must be strictly ascending"
                    );
                    for &id in live.as_slice().iter().step_by(97) {
                        let tuple = table.tuple(id).expect("returned id must exist");
                        let (Value::I64(k), Value::F64(v)) = (tuple[0], tuple[1]) else {
                            panic!("wrong tuple types");
                        };
                        assert!((lo..=hi).contains(&k) && v <= smax, "id {id} is a false hit");
                    }

                    checks.fetch_add(1, Ordering::Relaxed);
                    if finished {
                        break;
                    }
                }
            });
        }
    });

    drop(daemon);
    let churned = table.stats().compactions.load(Ordering::Relaxed);
    // Deterministic final passes: any pending tier merges the daemon did
    // not get to are applied (and counted) here.
    let mut guard = 0;
    while !maintenance_tick(&catalog).is_idle() {
        guard += 1;
        assert!(guard < 64, "maintenance must converge after the appender stops");
    }
    assert_eq!(table.row_count(), TOTAL_ROWS as u64);
    // Compaction merged the 2048-row seal-granularity segments into tiers:
    // fewer, larger segments, with every row still present exactly once.
    assert!(table.stats().compactions.load(Ordering::Relaxed) > 0, "tiered compaction never fired");
    assert!(
        table.sealed_segment_count() < TOTAL_ROWS / 2048,
        "compaction must leave fewer segments than were sealed, got {}",
        table.sealed_segment_count()
    );
    let everything = table.query(&[]).unwrap();
    assert_eq!(everything.len() as u64, table.row_count());
    assert!(
        everything.as_slice().windows(2).all(|w| w[1] == w[0] + 1),
        "row ids must stay contiguous after compaction"
    );
    let n_checks = checks.load(Ordering::Relaxed);
    assert!(
        n_checks >= READERS as u64,
        "each reader must have completed at least one validated query, got {n_checks}"
    );
    assert!(churned > 0, "the daemon never churned the sealed list under the readers");
}

/// Validating readers hold `TableSnapshot`s *across* compaction swaps while
/// the daemon runs at an aggressive interval with an eager tier policy:
/// every pinned snapshot must keep answering identically (its epoch's view
/// is frozen), and every live query must see an exact contiguous row-id
/// prefix — no id lost or duplicated by a merge swap.
#[test]
fn snapshots_stay_consistent_across_compaction_swaps() {
    const ROWS: usize = 60_000;
    const VALIDATORS: usize = 3;
    let catalog = Arc::new(Catalog::new());
    let cfg = EngineConfig {
        segment_rows: 512,
        workers: 2,
        tail_index_min_rows: 128,
        maintenance: MaintenanceConfig {
            // Eager tiering: pairs merge as soon as they exist, so swaps
            // happen constantly under the readers.
            tier_fanin: 2,
            compaction_budget_bytes: 0,
            ..Default::default()
        },
        ..Default::default()
    };
    let table = catalog.create_table("churn", &[("k", ColumnType::I64)], cfg).unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let daemon = MaintenanceDaemon::start(Arc::clone(&catalog), Duration::from_millis(1));

    std::thread::scope(|s| {
        {
            let table = Arc::clone(&table);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7);
                let mut appended = 0usize;
                while appended < ROWS {
                    let n = rng.gen_range(100..600).min(ROWS - appended);
                    let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..100_000)).collect();
                    table.append_batch(vec![AnyColumn::I64(keys.into_iter().collect())]).unwrap();
                    appended += n;
                }
                done.store(true, Ordering::Release);
            });
        }
        for r in 0..VALIDATORS {
            let table = Arc::clone(&table);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + r as u64);
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = table.snapshot();
                    let pinned_epoch = snap.epoch();
                    let full = snap.query(&[]).unwrap();
                    // Consistency of the pinned view: exactly the rows
                    // 0..row_count, each exactly once.
                    assert_eq!(full.len() as u64, snap.row_count());
                    assert!(
                        full.as_slice().windows(2).all(|w| w[1] == w[0] + 1),
                        "snapshot ids must be a contiguous prefix (epoch {pinned_epoch})"
                    );
                    // Hold the snapshot while the daemon swaps beneath it,
                    // then re-ask: the frozen view may not move.
                    std::thread::sleep(Duration::from_millis(rng.gen_range(1..4)));
                    let again = snap.query(&[]).unwrap();
                    assert_eq!(full, again, "a pinned snapshot changed across a swap");
                    let lo = rng.gen_range(0..90_000i64);
                    let pred = [("k", ValueRange::between(Value::I64(lo), Value::I64(lo + 5000)))];
                    let a = snap.query(&pred).unwrap();
                    let b = snap.query(&pred).unwrap();
                    assert_eq!(a, b);
                    // Live view: still an exact contiguous prefix, at least
                    // as long as the snapshot's.
                    let live = table.query(&[]).unwrap();
                    assert!(live.len() as u64 >= snap.row_count());
                    assert!(
                        live.as_slice().windows(2).all(|w| w[1] == w[0] + 1),
                        "live ids must be a contiguous prefix"
                    );
                    assert!(table.epoch() >= pinned_epoch, "epochs are monotonic");
                    if finished {
                        break;
                    }
                }
            });
        }
    });

    drop(daemon);
    assert_eq!(table.row_count(), ROWS as u64);
    let mut guard = 0;
    while !maintenance_tick(&catalog).is_idle() {
        guard += 1;
        assert!(guard < 64);
    }
    // 117 tier-0 seals with fan-in 2: someone (daemon or drain) must have
    // merged; the cumulative counter is deterministic either way.
    assert!(
        table.stats().compactions.load(Ordering::Relaxed) > 0,
        "the eager tier policy never compacted"
    );

    // Epilogue, fully deterministic: pin a snapshot, force a merge swap
    // beneath it, and check the frozen view does not move.
    let pinned = table.snapshot();
    let pinned_full = pinned.query(&[]).unwrap();
    table.append_batch(vec![AnyColumn::I64((0..1024).collect())]).unwrap(); // 2 fresh tier-0 seals
    let epoch_before_swap = table.epoch();
    let report = maintenance_tick(&catalog);
    assert!(!report.compacted.is_empty(), "two adjacent tier-0 segments must merge");
    assert!(table.epoch() > epoch_before_swap, "the merge swap must bump the epoch");
    assert_eq!(pinned.query(&[]).unwrap(), pinned_full, "pinned snapshot moved across the swap");
    assert_eq!(pinned.row_count(), ROWS as u64);

    let full = table.query(&[]).unwrap();
    assert_eq!(full.len() as u64, table.row_count());
    assert!(full.as_slice().windows(2).all(|w| w[1] == w[0] + 1));
}
