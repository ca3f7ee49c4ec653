//! Differential correctness: every index must return exactly the scan's
//! answer, on every data shape and scalar type the system supports.

use baselines::{SeqScan, WahBitmap, ZoneMap};
use colstore::{dispatch, Column, RangeIndex, RangePredicate, Scalar};
use datagen::{datasets, distributions};
use imprints::ColumnImprints;

fn check_all_indexes<T: Scalar>(col: &Column<T>, preds: &[RangePredicate<T>]) {
    let scan = SeqScan::new(col);
    let imp = ColumnImprints::build(col);
    imp.verify(col).expect("imprint invariants");
    let zm = ZoneMap::build(col);
    let wah = WahBitmap::build_with_binning(col, imp.binning().clone());
    for pred in preds {
        let expect = scan.evaluate(col, pred);
        assert_eq!(imp.evaluate(col, pred), expect, "imprints vs scan on {pred}");
        assert_eq!(zm.evaluate(col, pred), expect, "zonemap vs scan on {pred}");
        assert_eq!(wah.evaluate(col, pred), expect, "wah vs scan on {pred}");
    }
}

fn int_preds(lo: i64, hi: i64) -> Vec<RangePredicate<i64>> {
    vec![
        RangePredicate::between(lo, hi),
        RangePredicate::half_open(lo, hi),
        RangePredicate::equals((lo + hi) / 2),
        RangePredicate::less_than(hi),
        RangePredicate::at_least(lo),
        RangePredicate::all(),
        RangePredicate::between(hi, lo), // empty
    ]
}

#[test]
fn sorted_column() {
    let col: Column<i64> = (0..50_000).collect();
    check_all_indexes(&col, &int_preds(1000, 2000));
}

#[test]
fn reverse_sorted_column() {
    let col: Column<i64> = (0..50_000).rev().collect();
    check_all_indexes(&col, &int_preds(1000, 2000));
}

#[test]
fn constant_column() {
    let col: Column<i64> = std::iter::repeat_n(7i64, 10_000).collect();
    check_all_indexes(&col, &int_preds(0, 7));
    check_all_indexes(&col, &int_preds(8, 100));
}

#[test]
fn uniform_random_column() {
    let col: Column<i64> = Column::from(distributions::uniform_ints(60_000, -5000, 5000, 3));
    check_all_indexes(&col, &int_preds(-1000, 1000));
    check_all_indexes(&col, &int_preds(-6000, -4990));
}

#[test]
fn zipf_skewed_column() {
    let col: Column<i64> = Column::from(distributions::zipf(60_000, 500, 1.3, 5));
    check_all_indexes(&col, &int_preds(0, 3));
    check_all_indexes(&col, &int_preds(400, 600));
}

#[test]
fn clustered_walk_column() {
    let vals = distributions::random_walk(60_000, 0.0, 1000.0, 0.5, 2048, 7);
    let col: Column<f64> = Column::from(vals);
    let preds = vec![
        RangePredicate::between(100.0, 200.0),
        RangePredicate::between(0.0, 1000.0),
        RangePredicate::less_than(50.0),
        RangePredicate::equals(500.0),
    ];
    check_all_indexes(&col, &preds);
}

#[test]
fn repeated_permutation_column() {
    let col: Column<i64> = Column::from(distributions::repeated_permutation(60_000, 777, 9));
    check_all_indexes(&col, &int_preds(100, 300));
}

#[test]
fn two_valued_column() {
    let col: Column<i64> = Column::from(distributions::two_valued(60_000, 1000, 11));
    check_all_indexes(&col, &int_preds(0, 0));
    check_all_indexes(&col, &int_preds(1, 1));
}

#[test]
fn narrow_types_u8_i16() {
    let v8: Column<u8> = (0..40_000).map(|i| ((i * 31) % 251) as u8).collect();
    let scan = SeqScan::new(&v8);
    let imp = ColumnImprints::build(&v8);
    let zm = ZoneMap::build(&v8);
    let wah = WahBitmap::build_with_binning(&v8, imp.binning().clone());
    for pred in
        [RangePredicate::between(10u8, 20), RangePredicate::at_least(250), RangePredicate::all()]
    {
        let expect = scan.evaluate(&v8, &pred);
        assert_eq!(imp.evaluate(&v8, &pred), expect);
        assert_eq!(zm.evaluate(&v8, &pred), expect);
        assert_eq!(wah.evaluate(&v8, &pred), expect);
    }

    let v16: Column<i16> = (0..40_000).map(|i| ((i * 37) % 30_000) as i16 - 15_000).collect();
    let scan = SeqScan::new(&v16);
    let imp = ColumnImprints::build(&v16);
    let zm = ZoneMap::build(&v16);
    let wah = WahBitmap::build_with_binning(&v16, imp.binning().clone());
    for pred in [RangePredicate::between(-100i16, 100), RangePredicate::less_than(-14_000)] {
        let expect = scan.evaluate(&v16, &pred);
        assert_eq!(imp.evaluate(&v16, &pred), expect);
        assert_eq!(zm.evaluate(&v16, &pred), expect);
        assert_eq!(wah.evaluate(&v16, &pred), expect);
    }
}

#[test]
fn float_column_with_nan_and_infinities() {
    let mut vals: Vec<f64> = (0..30_000).map(|i| ((i * 17) % 997) as f64 / 10.0).collect();
    vals[100] = f64::NAN;
    vals[200] = f64::INFINITY;
    vals[300] = f64::NEG_INFINITY;
    vals[400] = -0.0;
    let col: Column<f64> = Column::from(vals);
    let preds = vec![
        RangePredicate::between(5.0, 50.0),
        RangePredicate::at_least(99.0),
        RangePredicate::less_than(0.0),
        RangePredicate::all(),
        RangePredicate::equals(0.0),
    ];
    check_all_indexes(&col, &preds);
}

#[test]
fn tiny_columns_every_length() {
    // Lengths around cacheline boundaries: 0..=33 values of i32 (vpc 16).
    for n in 0..=33usize {
        let col: Column<i32> = (0..n as i32).map(|i| (i * 7) % 13).collect();
        let scan = SeqScan::new(&col);
        let imp = ColumnImprints::build(&col);
        imp.verify(&col).unwrap();
        let zm = ZoneMap::build(&col);
        let wah = WahBitmap::build_with_binning(&col, imp.binning().clone());
        for pred in [RangePredicate::between(3, 9), RangePredicate::all()] {
            let expect = scan.evaluate(&col, &pred);
            assert_eq!(imp.evaluate(&col, &pred), expect, "imprints n={n}");
            assert_eq!(zm.evaluate(&col, &pred), expect, "zonemap n={n}");
            assert_eq!(wah.evaluate(&col, &pred), expect, "wah n={n}");
        }
    }
}

#[test]
fn all_dataset_families_cross_validate() {
    use colstore::relation::AnyColumn;
    for family in datasets::DatasetFamily::ALL {
        for gc in datasets::generate(family, 30_000, 99) {
            dispatch!(AnyColumn(c) = &gc.column => {
                let mut sorted = c.values().to_vec();
                sorted.sort_unstable_by(|a, b| {
                    a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)
                });
                let lo = sorted[sorted.len() / 4];
                let hi = sorted[sorted.len() / 2];
                check_all_indexes(c, &[RangePredicate::between(lo, hi), RangePredicate::all()]);
            });
        }
    }
}

#[test]
fn equi_width_strategy_cross_validates() {
    use imprints::{BinningStrategy, BuildOptions};
    for seed in [1u64, 2] {
        let col: Column<i64> = Column::from(distributions::zipf(50_000, 2000, 1.2, seed));
        let scan = SeqScan::new(&col);
        let idx = ColumnImprints::build_with(
            &col,
            BuildOptions { strategy: BinningStrategy::EquiWidth, ..Default::default() },
        );
        idx.verify(&col).unwrap();
        for pred in int_preds(0, 50) {
            assert_eq!(idx.evaluate(&col, &pred), scan.evaluate(&col, &pred), "{pred}");
        }
    }
}
