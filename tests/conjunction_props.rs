//! Multi-predicate queries — conjunctions, IN-lists, OR groups — equal the
//! engine's model (`model/mod.rs`), also as appends interleave with them.
//! And the paper layer is one more evaluator of the engine's conjunctions:
//! a `Relation` + `RelationImprints` over the same rows runs the plan the
//! engine runs (`relation_index::run`) and must return the engine's ids and
//! the brute-force oracle's, in every order the query names its predicates
//! in.

mod model;

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::{Column, ColumnType, Relation, Value};
use column_imprints::engine::{BatchAnswer, BatchQuery, EngineConfig, Table, ValueRange};
use column_imprints::imprints::relation_index::RelationImprints;
use model::{memory, Harness, Op, Query};
use proptest::prelude::*;
use rand::Rng;

/// Three i64 columns with different domains, so per-column selectivities
/// (and therefore the order the conjunction plan checks them in) diverge.
type Row = (i64, i64, i64);

fn column(rows: &[Row], f: fn(&Row) -> i64) -> Vec<i64> {
    rows.iter().map(f).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Three-predicate conjunctions: the engine (any segment size, tail-indexed
    /// or scanned head) and the paper layer both equal the oracle in all six
    /// predicate orders. A scanned head holds fewer rows than the
    /// `segment_rows / 16` that engage a tail imprint: the rows past it
    /// are left out.
    #[test]
    fn conjunction_equals_oracle_in_every_predicate_order(
        rows in prop::collection::vec((0i64..1000, 0i64..100, 0i64..50), 0..3000),
        seg_exp in 1usize..5,
        tail_indexed in any::<bool>(),
        a_lo in 0i64..1100, a_width in 0i64..400,
        b_lo in 0i64..110, b_width in 0i64..40,
        c_lo in 0i64..55, c_width in 0i64..20,
    ) {
        let cfg = EngineConfig {
            segment_rows: 64usize << seg_exp, // 128..=1024
            workers: 2,
            ..Default::default()
        };
        let open = rows.len() % cfg.segment_rows;
        let kept = if tail_indexed { open } else { open % cfg.tail_index_min_rows() };
        let rows = &rows[..rows.len() - open + kept];
        let cols = [column(rows, |r| r.0), column(rows, |r| r.1), column(rows, |r| r.2)];
        let schema = [("a", ColumnType::I64), ("b", ColumnType::I64), ("c", ColumnType::I64)];
        let t = Table::new("t", &schema, cfg).unwrap();
        t.append_batch(cols.clone().map(|v| AnyColumn::I64(v.into_iter().collect())).into())
            .unwrap();
        let mut rel = Relation::new("t");
        for ((name, _), values) in schema.iter().zip(&cols) {
            rel.add_column(name, values.iter().copied().collect::<Column<i64>>()).unwrap();
        }
        let rel_idx = RelationImprints::build(&rel);

        let bounds = [(a_lo, a_width), (b_lo, b_width), (c_lo, c_width)];
        let expect: Vec<u64> = (0..rows.len())
            .filter(|&i| bounds.iter().zip(&cols).all(|(&(lo, w), v)| (lo..=lo + w).contains(&v[i])))
            .map(|i| i as u64)
            .collect();
        let preds = [0, 1, 2].map(|i| {
            let (lo, w) = bounds[i];
            (schema[i].0, ValueRange::between(Value::I64(lo), Value::I64(lo + w)))
        });
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let permuted = order.map(|i| preds[i]);
            let paper = rel_idx.query(&rel, &permuted).unwrap();
            prop_assert_eq!(paper.as_slice(), &expect[..], "paper layer, order {:?}", order);
            let q = BatchQuery::ids(permuted.iter().map(|(n, r)| (n.to_string(), *r)).collect());
            let (got, _) = t.query_one(&q, None).unwrap();
            prop_assert_eq!(got, BatchAnswer::Ids(paper), "engine, order {:?}", order);
        }
    }
}

/// Three columns of different types, with a sealed prefix of 256-row
/// segments and an open head: a scanned head (`tail_indexed` false) holds
/// fewer than the 16 rows that engage a tail imprint.
fn three_columns(case: u64, tail_indexed: bool) -> Harness {
    let types = vec![ColumnType::I64, ColumnType::U8, ColumnType::F32];
    let cfg = memory(256);
    let (seg, min_rows) = (cfg.segment_rows, cfg.tail_index_min_rows());
    let mut h = Harness::new(cfg, types, case);
    let n = h.gen.rng.gen_range(1..3000);
    let open = n % seg;
    h.append(if tail_indexed { n } else { n - open + open % min_rows });
    h
}

/// IN-lists, alone and mixed with ranges and other IN-lists: lowering an
/// `IN` to a union of point intervals is unobservable next to the model.
#[test]
fn in_lists_equal_oracle() {
    for case in 0..6 {
        let mut h = three_columns(case, case % 2 == 0);
        let g = &mut h.gen;
        let queries = vec![
            Query { preds: vec![g.in_list(0)], any: false },
            Query { preds: vec![g.in_list(1), g.range(0)], any: false },
            Query { preds: vec![g.in_list(2), g.in_list(1)], any: false },
            Query { preds: vec![g.in_list(0), g.range(1), g.in_list(2)], any: false },
        ];
        h.check_queries(queries, case % 3 == 0);
    }
}

/// OR groups, materialized and counted, equal the model's any-of filter;
/// the empty group matches nothing while the empty conjunction matches
/// everything.
#[test]
fn disjunction_equals_oracle() {
    for case in 0..6 {
        let mut h = three_columns(case, true);
        let g = &mut h.gen;
        let queries = vec![
            Query { preds: vec![g.pred(0), g.pred(1)], any: true },
            Query { preds: vec![g.range(2), g.in_list(0), g.pred(1)], any: true },
            Query { preds: vec![], any: true },
            Query { preds: vec![], any: false },
        ];
        h.check_queries(queries, case % 2 == 0);
    }
}

/// After every append — whatever mix of sealed segments and partial head
/// exists at that instant — conjunctions and disjunctions over the table
/// equal the model over the rows appended so far.
#[test]
fn multi_predicate_answers_track_interleaved_appends() {
    for case in 0..4 {
        let mut h = three_columns(case, true);
        for _ in 0..6 {
            let op = [Op::AppendPartial, Op::AppendFill, Op::AppendSpan][h.gen.rng.gen_range(0..3)];
            h.step(op);
            let g = &mut h.gen;
            let queries = vec![
                Query { preds: vec![g.pred(0), g.pred(1), g.pred(2)], any: false },
                Query { preds: vec![g.pred(2), g.pred(0)], any: true },
            ];
            h.check_queries(queries, case % 2 == 0);
        }
    }
}
