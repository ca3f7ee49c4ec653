//! Segmented evaluation is indistinguishable from whole-column evaluation
//! for any segmentation, append pattern, query batch, tail threshold and
//! compaction schedule: each test drives the engine against its model
//! (`model/mod.rs`). And the engine's access counters are the paper
//! layer's: a sealed segment bills exactly what `imprints::query::evaluate`
//! bills over its rows.

mod model;

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::{Column, ColumnType, Value};
use column_imprints::engine::{BatchAnswer, BatchQuery, EngineConfig, Table, ValueRange, ValueSet};
use column_imprints::{ColumnImprints, RangePredicate};
use model::{memory, Harness, Op, Query, Term, SIGNED_SHIFT};
use proptest::prelude::*;
use rand::Rng;

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
}

/// Per-segment evaluation merged across segments equals one imprint over
/// the whole column, and the model, for every segment size.
#[test]
fn segment_merge_equals_whole_column() {
    for seg_exp in 1..6 {
        let mut h = Harness::new(memory(64 << seg_exp), vec![ColumnType::I64], seg_exp);
        h.append(6000);
        let col: Column<i64> = h.model.rows.iter().map(|r| r[0] - SIGNED_SHIFT).collect();
        let idx = ColumnImprints::build(&col);
        for _ in 0..8 {
            let q = Query { preds: vec![h.gen.range(0)], any: false };
            let Term(Some(lo), Some(hi)) = q.preds[0].terms[0] else { unreachable!() };
            let pred = RangePredicate::between(lo - SIGNED_SHIFT, hi - SIGNED_SHIFT);
            let (whole, _) = column_imprints::imprints::query::evaluate(&idx, &col, &pred);
            let got = h.table().query_one(&q.batch(&h.gen.types, false), None).unwrap().0;
            assert_eq!(got, BatchAnswer::Ids(whole), "{q:?}");
            h.check_queries(vec![q], false);
        }
    }
}

/// Two segment sizes over the same rows give identical answers, serial or
/// on the pool.
#[test]
fn segmentation_is_transparent() {
    let types = vec![ColumnType::I64, ColumnType::U16];
    let mut hs = [128, 1024].map(|seg| Harness::new(memory(seg), types.clone(), 5));
    for n in [37, 500, 1, 2000, 900] {
        let rows = hs[0].gen.rows(hs[0].model.rows.len(), n);
        for h in &mut hs {
            h.append_rows(rows.clone());
        }
        for pooled in [false, true] {
            let queries: Vec<Query> = (0..4).map(|_| hs[0].gen.query()).collect();
            for q in &queries {
                let q = q.batch(&types, false);
                let [a, b] = [&hs[0], &hs[1]].map(|h| h.table().query_one(&q, None).unwrap().0);
                assert_eq!(a, b, "{q:?}");
            }
            for h in &mut hs {
                h.check_queries(queries.clone(), pooled);
            }
        }
    }
}

/// Multi-column conjunctions through late materialization equal the model.
#[test]
fn conjunction_matches_oracle() {
    for case in 0..6 {
        let types = [ColumnType::I64, ColumnType::I32, ColumnType::F64][..2 + case % 2].to_vec();
        let mut h = Harness::new(memory(256), types, case as u64);
        let n = h.gen.rng.gen_range(1..3000);
        h.append(n);
        for _ in 0..6 {
            let preds = (0..h.gen.types.len()).map(|c| h.gen.range(c)).collect();
            h.check_queries(vec![Query { preds, any: false }], case % 3 == 0);
        }
    }
}

/// Appending in many small batches equals appending at once, and a
/// maintenance tick never changes answers.
#[test]
fn incremental_appends_and_maintenance_preserve_answers() {
    for case in 0..6 {
        let types = vec![ColumnType::I64, ColumnType::U32];
        let mut incremental = Harness::new(memory(256), types.clone(), case);
        let mut whole = Harness::new(memory(256), types, case);
        for _ in 0..incremental.gen.rng.gen_range(1..6) {
            let n = incremental.gen.rng.gen_range(1..700);
            incremental.append(n);
        }
        whole.append_rows(incremental.model.rows.clone());
        let queries: Vec<Query> = (0..4).map(|_| incremental.gen.query()).collect();
        whole.check_queries(queries.clone(), false);
        incremental.check_queries(queries.clone(), false);
        incremental.step(Op::Tick);
        incremental.check_queries(queries, true);
    }
}

/// A batch of up to a dozen mixed queries (and one unresolvable) answers
/// slot for slot like each query alone, serially and on the pool, with
/// sealed segments and a tail-indexed head in play.
#[test]
fn batch_of_n_equals_n_batches_of_one() {
    for case in 0..8 {
        let mut h = Harness::new(memory(256), vec![ColumnType::I64, ColumnType::I8], case);
        let n = h.gen.rng.gen_range(1..3000);
        h.append(n);
        let len = h.gen.rng.gen_range(1..12);
        let queries: Vec<Query> = (0..len).map(|_| h.gen.query()).collect();
        for pooled in [false, true] {
            h.check_queries(queries.clone(), pooled);
        }
    }
}

/// After every appended chunk — heads below and above the engage
/// threshold, heads emptied by a seal — a table of 1,024-row segments,
/// whose head grows a tail imprint at 64 rows, and one whose segments are
/// too large for its head ever to reach the 8,192 rows that engage one
/// answer single predicates and conjunctions like the model, and report
/// whether the head rode its tail imprint.
#[test]
fn tail_indexed_open_segment_equals_scalar_oracle() {
    for case in 0..4 {
        let types = vec![ColumnType::I64, ColumnType::I64];
        let mut hs = [1024, 1 << 17].map(|rows| Harness::new(memory(rows), types.clone(), case));
        for _ in 0..hs[0].gen.rng.gen_range(1..8) {
            let n = hs[0].gen.rng.gen_range(1..600);
            let rows = hs[0].gen.rows(hs[0].model.rows.len(), n);
            let single = Query { preds: vec![hs[0].gen.range(0)], any: false };
            let conj =
                Query { preds: vec![single.preds[0].clone(), hs[0].gen.range(1)], any: false };
            for h in &mut hs {
                h.append_rows(rows.clone());
                h.check_queries(vec![single.clone(), conj.clone()], false);
            }
        }
    }
}

/// Interleaved appends and compacting ticks: answers always equal the
/// model, a tick that compacts strictly lowers the sealed count, and some
/// tick compacts.
#[test]
fn compaction_interleaved_with_appends_is_unobservable() {
    let mut compacted = 0;
    for case in 0..8 {
        let mut h = Harness::new(memory(128), vec![ColumnType::I64], case);
        for _ in 0..h.gen.rng.gen_range(1..8) {
            let n = h.gen.rng.gen_range(1..500);
            h.append(n);
            if h.gen.rng.gen_bool(0.5) {
                h.step(Op::Tick);
            } else {
                h.check();
            }
        }
        compacted += h.compacted;
    }
    assert!(compacted > 0, "no tick compacted");
}
