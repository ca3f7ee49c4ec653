//! Property tests for multi-predicate planning: conjunctions, OR groups
//! and IN-lists must be indistinguishable from the brute-force row oracle
//! for any data, any segmentation, any head geometry (tail-indexed or
//! scalar-scanned, partial or just-sealed), any order the query names its
//! predicates in, and either refinement kernel (the CI matrix forces the
//! scalar kernel through this suite via `IMPRINTS_REFINE_KERNEL`). The
//! paper layer is one more evaluator of the same cases: a `Relation` +
//! `RelationImprints` over the same rows runs the plan the engine runs
//! (`relation_index::run`) and must return the engine's ids.

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::{Column, ColumnType, Relation, Value};
use column_imprints::engine::{BatchAnswer, BatchQuery, EngineConfig, Table, ValueRange, ValueSet};
use column_imprints::imprints::relation_index::RelationImprints;
use proptest::prelude::*;

/// Row shape shared by every generator: three i64 columns with different
/// domains so per-column selectivities (and therefore the order the
/// conjunction plan checks them in) diverge.
type Row = (i64, i64, i64);

fn three_col_table(rows: &[Row], chunks: usize, cfg: EngineConfig) -> Table {
    let t = Table::new(
        "t",
        &[("a", ColumnType::I64), ("b", ColumnType::I64), ("c", ColumnType::I64)],
        cfg,
    )
    .unwrap();
    // Append in several chunks so the open head is left partially filled
    // (or exactly sealed) depending on how the generated row count lands
    // relative to `segment_rows`.
    let per = rows.len().div_ceil(chunks).max(1);
    for chunk in rows.chunks(per) {
        t.append_batch(vec![
            AnyColumn::I64(chunk.iter().map(|r| r.0).collect()),
            AnyColumn::I64(chunk.iter().map(|r| r.1).collect()),
            AnyColumn::I64(chunk.iter().map(|r| r.2).collect()),
        ])
        .unwrap();
    }
    t
}

fn set_range(lo: i64, width: i64) -> ValueSet {
    ValueSet::range(ValueRange::between(Value::I64(lo), Value::I64(lo + width)))
}

fn in_set(s: &ValueSet, v: i64) -> bool {
    s.terms.iter().any(|t| {
        let lo = match &t.low {
            Some(Value::I64(x)) => *x,
            None => i64::MIN,
            _ => unreachable!("i64 columns only"),
        };
        let hi = match &t.high {
            Some(Value::I64(x)) => *x,
            None => i64::MAX,
            _ => unreachable!("i64 columns only"),
        };
        (lo..=hi).contains(&v)
    })
}

/// The materialized ids and the count of `preds` — a batch of two, so
/// both sink modes answer from one pinned prefix.
fn ids_and_count(t: &Table, preds: &[(&str, ValueSet)], any: bool) -> (Vec<u64>, u64) {
    let owned: Vec<(String, ValueSet)> =
        preds.iter().map(|(n, s)| (n.to_string(), s.clone())).collect();
    let batch = [
        BatchQuery { preds: owned.clone(), any, count_only: false },
        BatchQuery { preds: owned, any, count_only: true },
    ];
    let mut out = t.query_batch(&batch, None).into_iter().map(|r| r.unwrap().0);
    match (out.next(), out.next()) {
        (Some(BatchAnswer::Ids(ids)), Some(BatchAnswer::Count(n))) => (ids.into_vec(), n),
        other => panic!("ids then count expected, got {other:?}"),
    }
}

/// The paper layer over `rows`: one unsegmented relation, one imprint per
/// column.
fn paper_layer(rows: &[Row]) -> (Relation, RelationImprints) {
    let mut rel = Relation::new("t");
    rel.add_column("a", rows.iter().map(|r| r.0).collect::<Column<i64>>()).unwrap();
    rel.add_column("b", rows.iter().map(|r| r.1).collect::<Column<i64>>()).unwrap();
    rel.add_column("c", rows.iter().map(|r| r.2).collect::<Column<i64>>()).unwrap();
    let idx = RelationImprints::build(&rel);
    (rel, idx)
}

/// Brute-force oracle over the raw rows, conjunction or disjunction.
fn oracle(rows: &[Row], preds: &[(&str, ValueSet)], any: bool) -> Vec<u64> {
    (0..rows.len() as u64)
        .filter(|&i| {
            let (a, b, c) = rows[i as usize];
            let hit = |(name, set): &(&str, ValueSet)| {
                let v = match *name {
                    "a" => a,
                    "b" => b,
                    _ => c,
                };
                in_set(set, v)
            };
            if any {
                preds.iter().any(hit)
            } else {
                preds.iter().all(hit)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Three-predicate conjunctions equal the brute-force oracle for any
    /// data, any segment size, tail-indexed or scanned heads — and in
    /// every order the query can name the predicates in: the plan picks
    /// its own check order, so all six permutations return identical ids
    /// and counts.
    #[test]
    fn conjunction_equals_oracle_in_every_predicate_order(
        rows in prop::collection::vec((0i64..1000, 0i64..100, 0i64..50), 0..3000),
        chunks in 1usize..5,
        seg_exp in 1usize..5,
        tail_indexed in any::<bool>(),
        a_lo in 0i64..1100, a_width in 0i64..400,
        b_lo in 0i64..110, b_width in 0i64..40,
        c_lo in 0i64..55, c_width in 0i64..20,
    ) {
        let cfg = EngineConfig {
            segment_rows: 64usize << seg_exp, // 128..=1024
            workers: 2,
            tail_index_min_rows: if tail_indexed { 64 } else { usize::MAX },
            ..Default::default()
        };
        let t = three_col_table(&rows, chunks, cfg);
        let preds = [
            ("a", set_range(a_lo, a_width)),
            ("b", set_range(b_lo, b_width)),
            ("c", set_range(c_lo, c_width)),
        ];
        let expect = oracle(&rows, &preds, false);
        let (rel, rel_idx) = paper_layer(&rows);
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let permuted = order.map(|i| preds[i].clone());
            let (got, n) = ids_and_count(&t, &permuted, false);
            prop_assert_eq!(&got, &expect, "order {:?}", order);
            prop_assert_eq!(n as usize, expect.len(), "count, order {:?}", order);
            let ranges = permuted.clone().map(|(name, set)| (name, set.terms[0]));
            let paper = rel_idx.query(&rel, &ranges).unwrap();
            prop_assert_eq!(paper.as_slice(), &got[..], "paper layer, order {:?}", order);
        }
    }

    /// IN-lists, alone and mixed with ranges: lowering an `IN` to a union
    /// of point intervals (and unioning the per-term candidate masks) is
    /// unobservable next to the row-at-a-time oracle.
    #[test]
    fn in_lists_equal_oracle(
        rows in prop::collection::vec((0i64..1000, 0i64..100, 0i64..50), 0..2500),
        points in prop::collection::vec(0i64..1000, 1..8),
        b_lo in 0i64..110, b_width in 0i64..50,
        seg_exp in 1usize..4,
    ) {
        let cfg = EngineConfig {
            segment_rows: 64usize << seg_exp,
            workers: 2,
            tail_index_min_rows: 64,
            ..Default::default()
        };
        let t = three_col_table(&rows, 2, cfg);
        let in_list = ValueSet::points(points.iter().map(|&p| Value::I64(p)));
        // IN alone.
        let alone = [("a", in_list.clone())];
        let expect = oracle(&rows, &alone, false);
        prop_assert_eq!(ids_and_count(&t, &alone, false), (expect.clone(), expect.len() as u64));
        // IN ∧ range (mixed set shapes in one conjunction).
        let mixed = [("a", in_list), ("b", set_range(b_lo, b_width))];
        let expect = oracle(&rows, &mixed, false);
        prop_assert_eq!(ids_and_count(&t, &mixed, false), (expect.clone(), expect.len() as u64));
    }

    /// OR groups: the union evaluation, materialized and counted, equals
    /// the oracle's any-of-predicates filter; the empty group matches
    /// nothing while the empty conjunction matches everything.
    #[test]
    fn disjunction_equals_oracle(
        rows in prop::collection::vec((0i64..1000, 0i64..100, 0i64..50), 0..2500),
        chunks in 1usize..4,
        a_lo in 0i64..1100, a_width in 0i64..200,
        c_points in prop::collection::vec(0i64..50, 1..5),
        seg_exp in 1usize..4,
        tail_indexed in any::<bool>(),
    ) {
        let cfg = EngineConfig {
            segment_rows: 64usize << seg_exp,
            workers: 2,
            tail_index_min_rows: if tail_indexed { 64 } else { usize::MAX },
            ..Default::default()
        };
        let t = three_col_table(&rows, chunks, cfg);
        let preds = [
            ("a", set_range(a_lo, a_width)),
            ("c", ValueSet::points(c_points.iter().map(|&p| Value::I64(p)))),
        ];
        let expect = oracle(&rows, &preds, true);
        prop_assert_eq!(ids_and_count(&t, &preds, true), (expect.clone(), expect.len() as u64));
        // Identity elements: OR of nothing is nothing, AND of nothing is
        // every row.
        prop_assert_eq!(ids_and_count(&t, &[], true), (vec![], 0));
        let everything: Vec<u64> = (0..rows.len() as u64).collect();
        prop_assert_eq!(ids_and_count(&t, &[], false), (everything, rows.len() as u64));
    }

    /// Interleaved appends: after every chunk — whatever mix of sealed
    /// segments and partial head exists at that instant — conjunctions and
    /// disjunctions over the table equal the oracle over the rows appended
    /// so far.
    #[test]
    fn multi_predicate_answers_track_interleaved_appends(
        chunks in prop::collection::vec(
            prop::collection::vec((0i64..1000, 0i64..100, 0i64..50), 1..700),
            1..6,
        ),
        a_lo in 0i64..1100, a_width in 0i64..300,
        b_lo in 0i64..110, b_width in 0i64..40,
    ) {
        let cfg = EngineConfig {
            segment_rows: 256,
            workers: 2,
            tail_index_min_rows: 64,
            ..Default::default()
        };
        let t = Table::new(
            "t",
            &[("a", ColumnType::I64), ("b", ColumnType::I64), ("c", ColumnType::I64)],
            cfg,
        )
        .unwrap();
        let preds = [("a", set_range(a_lo, a_width)), ("b", set_range(b_lo, b_width))];
        let mut all: Vec<Row> = Vec::new();
        for chunk in &chunks {
            t.append_batch(vec![
                AnyColumn::I64(chunk.iter().map(|r| r.0).collect()),
                AnyColumn::I64(chunk.iter().map(|r| r.1).collect()),
                AnyColumn::I64(chunk.iter().map(|r| r.2).collect()),
            ])
            .unwrap();
            all.extend_from_slice(chunk);
            for any in [false, true] {
                let expect = oracle(&all, &preds, any);
                prop_assert_eq!(ids_and_count(&t, &preds, any), (expect.clone(), expect.len() as u64));
            }
        }
    }
}
