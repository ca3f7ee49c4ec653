//! Property tests for the engine: segmented evaluation must be
//! indistinguishable from whole-column evaluation, for any data, any
//! predicate and any segmentation.

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::{Column, ColumnType, Value};
use column_imprints::engine::{
    maintenance_tick, BatchAnswer, BatchQuery, Catalog, EngineConfig, MaintenanceConfig, Table,
    ValueRange, ValueSet, WorkerPool,
};
use column_imprints::ColumnImprints;
use proptest::prelude::*;

fn engine_table(values: &[i64], segment_rows: usize) -> Table {
    let cfg = EngineConfig { segment_rows, workers: 2, ..Default::default() };
    let t = Table::new("t", &[("v", ColumnType::I64)], cfg).unwrap();
    t.append_batch(vec![AnyColumn::I64(values.iter().copied().collect())]).unwrap();
    t
}

fn range(lo: i64, width: i64) -> ValueRange {
    ValueRange::between(Value::I64(lo), Value::I64(lo + width))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Per-segment candidate/refine merged across segments equals the
    /// whole-column imprint evaluation (and the brute-force oracle).
    #[test]
    fn segment_merge_equals_whole_column(
        values in prop::collection::vec(-3000i64..3000, 0..6000),
        seg_exp in 1usize..6,
        lo in -3500i64..3500,
        width in 0i64..2500,
    ) {
        let segment_rows = 64usize << seg_exp; // 128..=2048, all multiples of 64
        let table = engine_table(&values, segment_rows);
        let got = table.query(&[("v", range(lo, width))]).unwrap();

        // Whole-column evaluation through one monolithic imprint index.
        let col: Column<i64> = Column::from(values.clone());
        let idx = ColumnImprints::build(&col);
        let pred = column_imprints::RangePredicate::between(lo, lo + width);
        let (whole, _) = column_imprints::imprints::query::evaluate(&idx, &col, &pred);
        prop_assert_eq!(got.as_slice(), whole.as_slice());

        // And both equal the oracle.
        let oracle: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| (lo..=lo + width).contains(*v))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(got.as_slice(), oracle.as_slice());
    }

    /// The segmentation itself is unobservable: any two segment sizes give
    /// identical answers, serial or morsel-parallel.
    #[test]
    fn segmentation_is_transparent(
        values in prop::collection::vec(0i64..1000, 0..4000),
        lo in 0i64..1100,
        width in 0i64..600,
    ) {
        let a = engine_table(&values, 128);
        let b = engine_table(&values, 1024);
        let preds = [("v", range(lo, width))];
        let ra = a.query(&preds).unwrap();
        let rb = b.query(&preds).unwrap();
        prop_assert_eq!(ra.as_slice(), rb.as_slice());
        let pool = WorkerPool::new(3);
        let q = BatchQuery::ids(vec![("v".into(), range(lo, width))]);
        let (rp, _) = a.query_one(&q, Some(&pool)).unwrap();
        prop_assert_eq!(rp, BatchAnswer::Ids(ra.clone()));
        let n = a.count(&preds, Some(&pool)).unwrap();
        prop_assert_eq!(n as usize, ra.len());
    }

    /// The engine's counters are the paper layer's counters: the same
    /// query twice gives the same answer and the same sealed
    /// [`QueryStats::access`](column_imprints::engine::QueryStats), and
    /// that access is the sum of what `imprints::query::evaluate` bills
    /// over each sealed segment's rows.
    #[test]
    fn sealed_access_counters_repeat_and_equal_the_paper_layer(
        values in prop::collection::vec(-3000i64..3000, 0..6000),
        seg_exp in 1usize..6,
        lo in -3500i64..3500,
        width in 0i64..2500,
        count_only in any::<bool>(),
    ) {
        let segment_rows = 64usize << seg_exp;
        let table = engine_table(&values, segment_rows);
        let q = BatchQuery {
            preds: vec![("v".into(), ValueSet::range(range(lo, width)))],
            any: false,
            count_only,
        };
        let (first, first_stats) = table.query_one(&q, None).unwrap();
        let (second, second_stats) = table.query_one(&q, None).unwrap();
        prop_assert_eq!(first, second);
        prop_assert_eq!(first_stats.access, second_stats.access);

        let pred = column_imprints::RangePredicate::between(lo, lo + width);
        let mut expect = column_imprints::colstore::AccessStats::default();
        let sealed = values.chunks_exact(segment_rows);
        prop_assert_eq!(first_stats.sealed_segments, sealed.len());
        for rows in sealed {
            let col: Column<i64> = Column::from(rows.to_vec());
            let idx = ColumnImprints::build(&col);
            let (_, stats) = column_imprints::imprints::query::evaluate(&idx, &col, &pred);
            expect.merge(&stats.access);
        }
        prop_assert_eq!(first_stats.access, expect);
    }

    /// Multi-predicate conjunctions through the engine's late
    /// materialization match the oracle.
    #[test]
    fn conjunction_matches_oracle(
        rows in prop::collection::vec((0i64..500, 0i64..50), 0..3000),
        a_lo in 0i64..550, a_width in 0i64..300,
        b_lo in 0i64..55, b_width in 0i64..30,
    ) {
        let a: Vec<i64> = rows.iter().map(|r| r.0).collect();
        let b: Vec<i64> = rows.iter().map(|r| r.1).collect();
        let cfg = EngineConfig { segment_rows: 256, workers: 2, ..Default::default() };
        let t = Table::new(
            "t",
            &[("a", ColumnType::I64), ("b", ColumnType::I64)],
            cfg,
        )
        .unwrap();
        t.append_batch(vec![
            AnyColumn::I64(a.iter().copied().collect()),
            AnyColumn::I64(b.iter().copied().collect()),
        ])
        .unwrap();
        let got = t
            .query(&[("a", range(a_lo, a_width)), ("b", range(b_lo, b_width))])
            .unwrap();
        let oracle: Vec<u64> = (0..rows.len() as u64)
            .filter(|&i| {
                (a_lo..=a_lo + a_width).contains(&a[i as usize])
                    && (b_lo..=b_lo + b_width).contains(&b[i as usize])
            })
            .collect();
        prop_assert_eq!(got.as_slice(), oracle.as_slice());
    }

    /// Appending in many small batches equals appending at once, and
    /// background maintenance never changes answers.
    #[test]
    fn incremental_appends_and_maintenance_preserve_answers(
        chunks in prop::collection::vec(
            prop::collection::vec(-2000i64..2000, 1..700),
            1..6,
        ),
        lo in -2200i64..2200,
        width in 0i64..1500,
    ) {
        let all: Vec<i64> = chunks.iter().flatten().copied().collect();
        let whole = engine_table(&all, 256);
        // Fan-in 2, so the tick below swaps segments whenever two sealed.
        let cfg = EngineConfig {
            segment_rows: 256,
            workers: 2,
            maintenance: MaintenanceConfig { tier_fanin: 2, ..Default::default() },
            ..Default::default()
        };
        let catalog = Catalog::new();
        let incremental = catalog.create_table("t", &[("v", ColumnType::I64)], cfg).unwrap();
        for chunk in &chunks {
            incremental
                .append_batch(vec![AnyColumn::I64(chunk.iter().copied().collect())])
                .unwrap();
        }
        let preds = [("v", range(lo, width))];
        let before = incremental.query(&preds).unwrap();
        prop_assert_eq!(before.as_slice(), whole.query(&preds).unwrap().as_slice());
        // Merge every tier the appends left behind: answers invariant.
        let _ = maintenance_tick(&catalog);
        let after = incremental.query(&preds).unwrap();
        prop_assert_eq!(before.as_slice(), after.as_slice());
    }

    /// The executor has no batch-only behaviour: a `query_batch` of N mixed
    /// materializing / counting / OR / IN-list queries (one of them
    /// unresolvable) answers slot for slot like N batches of one, serially
    /// and on the pool, with sealed segments and an open head in play.
    #[test]
    fn batch_of_n_equals_n_batches_of_one(
        rows in prop::collection::vec((0i64..500, 0i64..50), 1..3000),
        shapes in prop::collection::vec(
            ((0i64..550, 0i64..300, 0i64..55, 0i64..30), (0u8..6, any::<bool>())),
            1..12,
        ),
    ) {
        let cfg = EngineConfig {
            segment_rows: 256,
            workers: 2,
            tail_index_min_rows: 64,
            ..Default::default()
        };
        let t = Table::new("t", &[("a", ColumnType::I64), ("b", ColumnType::I64)], cfg).unwrap();
        t.append_batch(vec![
            AnyColumn::I64(rows.iter().map(|r| r.0).collect()),
            AnyColumn::I64(rows.iter().map(|r| r.1).collect()),
        ])
        .unwrap();
        let batch: Vec<BatchQuery> = shapes
            .iter()
            .map(|&((a_lo, a_width, b_lo, b_width), (shape, count_only))| {
                let a = ("a".to_string(), ValueSet::range(range(a_lo, a_width)));
                let b = ("b".to_string(), ValueSet::range(range(b_lo, b_width)));
                let points = [a_lo, a_lo + a_width, b_lo].map(Value::I64);
                let (preds, any) = match shape {
                    0 => (vec![a], false),
                    1 => (vec![a, b], false),
                    2 => (vec![a, b], true),
                    3 => (vec![("a".to_string(), ValueSet::points(points)), b], false),
                    4 => (vec![], false),
                    _ => (vec![("nope".to_string(), ValueSet::range(range(0, 1)))], false),
                };
                BatchQuery { preds, any, count_only }
            })
            .collect();
        let pool = WorkerPool::new(2);
        for pool in [None, Some(&pool)] {
            let together = t.query_batch(&batch, pool);
            prop_assert_eq!(together.len(), batch.len());
            for (q, got) in batch.iter().zip(together) {
                match (got, t.query_one(q, pool)) {
                    (Ok((got, gs)), Ok((alone, als))) => {
                        prop_assert_eq!(got, alone);
                        prop_assert_eq!(
                            (gs.epoch, gs.visible_rows, gs.open_rows, gs.sealed_segments),
                            (als.epoch, als.visible_rows, als.open_rows, als.sealed_segments)
                        );
                    }
                    (Err(_), Err(_)) => prop_assert_eq!(q.preds[0].0.as_str(), "nope"),
                    (got, alone) => prop_assert!(false, "slots disagree: {:?} vs {:?}", got, alone),
                }
            }
        }
    }

    /// Tail-indexed open-segment evaluation is id-identical to the
    /// scalar-scan oracle across arbitrary append/query/seal
    /// interleavings: after every appended chunk — heads below and above
    /// the engage threshold, heads that just rebuilt their tail after a
    /// drifted batch, heads emptied by a seal — a tail-indexed table, a
    /// tail-disabled table and the brute-force oracle must agree, for
    /// single predicates and conjunctions alike.
    #[test]
    fn tail_indexed_open_segment_equals_scalar_oracle(
        chunks in prop::collection::vec(
            prop::collection::vec((-2000i64..2000, 0i64..60), 1..600),
            1..8,
        ),
        a_lo in -2200i64..2200, a_width in 0i64..1500,
        b_lo in 0i64..66, b_width in 0i64..40,
    ) {
        let mk = |tail_min: usize| {
            let cfg = EngineConfig {
                segment_rows: 1024,
                workers: 2,
                tail_index_min_rows: tail_min,
                ..Default::default()
            };
            Table::new("t", &[("a", ColumnType::I64), ("b", ColumnType::I64)], cfg).unwrap()
        };
        let indexed = mk(64);
        let scanned = mk(usize::MAX);
        let single = [("a", range(a_lo, a_width))];
        let conj = [("a", range(a_lo, a_width)), ("b", range(b_lo, b_width))];
        let mut all: Vec<(i64, i64)> = Vec::new();
        for chunk in &chunks {
            for t in [&indexed, &scanned] {
                t.append_batch(vec![
                    AnyColumn::I64(chunk.iter().map(|r| r.0).collect()),
                    AnyColumn::I64(chunk.iter().map(|r| r.1).collect()),
                ])
                .unwrap();
            }
            all.extend_from_slice(chunk);
            for preds in [&single[..], &conj[..]] {
                let got = indexed.query(preds).unwrap();
                prop_assert_eq!(
                    got.as_slice(),
                    scanned.query(preds).unwrap().as_slice(),
                    "tail-indexed and scalar-scan heads disagreed"
                );
                let oracle: Vec<u64> = (0..all.len() as u64)
                    .filter(|&i| {
                        let (a, b) = all[i as usize];
                        (a_lo..=a_lo + a_width).contains(&a)
                            && (preds.len() == 1 || (b_lo..=b_lo + b_width).contains(&b))
                    })
                    .collect();
                prop_assert_eq!(got.as_slice(), oracle.as_slice());
                prop_assert_eq!(
                    indexed.count(preds, None).unwrap() as usize,
                    oracle.len()
                );
            }
        }
        prop_assert_eq!(indexed.row_count(), all.len() as u64);
        prop_assert_eq!(indexed.sealed_segment_count(), scanned.sealed_segment_count());
    }

    /// Arbitrary interleavings of appends and forced compaction ticks:
    /// query results always equal the whole-column oracle, and whenever a
    /// tick actually compacts, the sealed-segment count strictly drops.
    #[test]
    fn compaction_interleaved_with_appends_is_unobservable(
        chunks in prop::collection::vec(
            prop::collection::vec(-2000i64..2000, 1..500),
            1..8,
        ),
        tick_after in prop::collection::vec(any::<bool>(), 8..9),
        lo in -2200i64..2200,
        width in 0i64..1500,
    ) {
        let catalog = Catalog::new();
        let cfg = EngineConfig {
            segment_rows: 128,
            maintenance: MaintenanceConfig {
                tier_fanin: 2,
                compaction_budget_bytes: 0, // unlimited: cascade fully per tick
                ..Default::default()
            },
            ..Default::default()
        };
        let t = catalog.create_table("t", &[("v", ColumnType::I64)], cfg).unwrap();
        let preds = [("v", range(lo, width))];
        let mut all: Vec<i64> = Vec::new();
        for (i, chunk) in chunks.iter().enumerate() {
            t.append_batch(vec![AnyColumn::I64(chunk.iter().copied().collect())]).unwrap();
            all.extend_from_slice(chunk);
            if tick_after[i] {
                let sealed_before = t.sealed_segment_count();
                let report = maintenance_tick(&catalog);
                if !report.compacted.is_empty() {
                    prop_assert!(
                        t.sealed_segment_count() < sealed_before,
                        "a firing compaction must strictly shrink the sealed list \
                         ({} -> {}, report {:?})",
                        sealed_before,
                        t.sealed_segment_count(),
                        report.compacted
                    );
                }
                // Row ids and answers are invariant right after the swap.
                let got = t.query(&preds).unwrap();
                let oracle: Vec<u64> = all
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| (lo..=lo + width).contains(*v))
                    .map(|(i, _)| i as u64)
                    .collect();
                prop_assert_eq!(got.as_slice(), oracle.as_slice());
            }
        }
        prop_assert_eq!(t.row_count(), all.len() as u64);
        // Final state equals whole-column evaluation regardless of how the
        // segment list was reorganized along the way.
        let whole = engine_table(&all, 128);
        prop_assert_eq!(
            t.query(&preds).unwrap().as_slice(),
            whole.query(&preds).unwrap().as_slice()
        );
    }
}
