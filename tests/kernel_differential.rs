//! Differential harness for the false-positive refinement kernels.
//!
//! The vector kernel (`imprints::simd`) and the scalar oracle loop must be
//! observationally identical: byte-identical id lists, identical counts
//! and identical access statistics, on every access path that weeds
//! candidates — imprints (evaluate, count, and the late-materialization
//! `candidates` + `refine` pair), its overlay variant, zonemap,
//! sequential scan, and the WAH bitmap's edge bins — across all scalar
//! widths (8/32/64-bit lanes, floats included), arbitrary bound shapes
//! (unbounded / inclusive / exclusive / point / impossible) and
//! partial-tail geometries (column lengths that are not a multiple of
//! `values_per_block`). Everything is
//! additionally pinned to the brute-force scalar oracle, so a bug shared
//! by both kernels cannot hide either.

use baselines::{SeqScan, WahBitmap, ZoneMap};
use colstore::{Bound, Column, RangePredicate, Scalar};
use imprints::simd::{Hits, PredicateKernel, RefineKernel};
use imprints::{query, ColumnImprints, ImprintStats, OverlayImprints};
use proptest::prelude::*;

/// Brute-force oracle: the definition of a correct answer.
fn oracle<T: Scalar>(col: &Column<T>, pred: &RangePredicate<T>) -> Vec<u64> {
    col.values()
        .iter()
        .enumerate()
        .filter(|(_, v)| pred.matches(v))
        .map(|(i, _)| i as u64)
        .collect()
}

/// Runs one (column, predicate) pair through every access path, under both
/// kernels and into both sinks, and cross-checks ids, counts and
/// statistics.
fn assert_kernels_identical<T: Scalar>(values: Vec<T>, pred: &RangePredicate<T>) {
    let scalar = PredicateKernel::with_kernel(pred, RefineKernel::Scalar);
    let swar = PredicateKernel::with_kernel(pred, RefineKernel::Swar);
    let col: Column<T> = Column::from(values);
    let expect = oracle(&col, pred);
    let idx = ColumnImprints::build(&col);
    let zm = ZoneMap::build(&col);
    let scan = SeqScan::new(&col);
    // WAH shares the imprint's binning, as the engine does.
    let wah = WahBitmap::build_with_binning(&col, idx.binning().clone());
    // The §4.2 overlay over a copy of the column with a few rows
    // rewritten in place (column and overlay updated alike): it feeds the
    // one imprint walk.
    let mut ocol = col.clone();
    let mut overlay = OverlayImprints::new(idx.clone());
    let n = col.len();
    for id in [0, n / 3, n / 2, n.saturating_sub(1)].into_iter().filter(|&id| id < n) {
        let v = col.values()[n - 1 - id];
        ocol.values_mut()[id] = v;
        overlay.note_update(id as u64, v);
    }
    let oexpect = oracle(&ocol, pred);

    for count_only in [false, true] {
        let sink = || Hits::new(count_only);
        let access = |(hits, stats): (Hits, ImprintStats)| (hits, stats.access);
        let (imp_s, ist_s) = query::run(&idx, &col, &scalar, sink());
        let (imp_v, ist_v) = query::run(&idx, &col, &swar, sink());
        assert_eq!(ist_s, ist_v, "imprints stats diverged: {pred}");
        let paths = [
            ("imprints", (imp_s, ist_s.access), (imp_v, ist_v.access), &expect),
            ("zonemap", zm.run(&col, &scalar, sink()), zm.run(&col, &swar, sink()), &expect),
            ("scan", scan.run(&col, &scalar, sink()), scan.run(&col, &swar, sink()), &expect),
            ("wah", wah.run(&col, &scalar, sink()), wah.run(&col, &swar, sink()), &expect),
            (
                "overlay",
                access(overlay.run(&ocol, &scalar, sink())),
                access(overlay.run(&ocol, &swar, sink())),
                &oexpect,
            ),
        ];
        for (path, s, v, expect) in paths {
            assert_eq!(s, v, "{path} kernels diverged (count_only {count_only}): {pred}");
            match s.0 {
                Hits::Ids(ids) => assert_eq!(&ids, expect, "{path}/scalar vs oracle: {pred}"),
                Hits::Count(n) => {
                    assert_eq!(n as usize, expect.len(), "{path} count vs oracle: {pred}")
                }
            }
        }
    }

    // Imprints: late materialization (candidates + refine).
    let (cands, mut rst_s) = query::candidate_id_ranges(&idx, pred);
    let mut rst_v = rst_s;
    let ref_s = query::refine(&col, &scalar, &cands, &mut rst_s);
    let ref_v = query::refine(&col, &swar, &cands, &mut rst_v);
    assert_eq!(ref_s.as_slice(), expect.as_slice(), "refine/scalar vs oracle: {pred}");
    assert_eq!(ref_s, ref_v, "refine kernels diverged: {pred}");
    assert_eq!(rst_s, rst_v, "refine stats diverged: {pred}");
}

/// Appends `extra` until the length is not a multiple of this type's
/// values-per-cacheline grid, forcing a partial tail line.
fn force_partial_tail<T: Scalar>(mut values: Vec<T>, extra: T) -> Vec<T> {
    let vpb = colstore::values_per_cacheline::<T>();
    while values.is_empty() || values.len().is_multiple_of(vpb) {
        values.push(extra);
    }
    values
}

/// An arbitrary predicate over a numeric domain: every bound shape,
/// point queries and impossible ranges included.
macro_rules! arb_pred {
    ($name:ident, $t:ty, $range:expr) => {
        fn $name() -> impl Strategy<Value = RangePredicate<$t>> {
            let bound = prop_oneof![
                1 => Just(Bound::Unbounded),
                4 => ($range).prop_map(Bound::Inclusive),
                4 => ($range).prop_map(Bound::Exclusive),
            ];
            (bound.clone(), bound, $range).prop_map(|(lo, hi, point)| {
                // One in a few predicates collapses to a point query.
                if point as i64 % 5 == 0 {
                    RangePredicate::equals(point)
                } else {
                    RangePredicate::with_bounds(lo, hi)
                }
            })
        }
    };
}

arb_pred!(arb_pred_u8, u8, any::<u8>());
arb_pred!(arb_pred_i32, i32, -2000i32..2000);
arb_pred!(arb_pred_i64, i64, -2_000_000i64..2_000_000);

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// u8: 64 values per cacheline in 8-bit lanes — the densest lane
    /// packing, over a domain the predicate bounds cover entirely
    /// (so `T::MIN`/`T::MAX` edges occur naturally).
    #[test]
    fn u8_paths_agree(
        values in prop::collection::vec(any::<u8>(), 0..2000),
        extra in any::<u8>(),
        pred in arb_pred_u8(),
    ) {
        assert_kernels_identical(force_partial_tail(values, extra), &pred);
    }

    /// i32: 16 values per line in 32-bit lanes, signed key flip.
    #[test]
    fn i32_paths_agree(
        values in prop::collection::vec(-1500i32..1500, 0..2000),
        extra in -1500i32..1500,
        pred in arb_pred_i32(),
    ) {
        assert_kernels_identical(force_partial_tail(values, extra), &pred);
    }

    /// i64: full-width 64-bit lanes, where no key is cut, must still be
    /// byte-identical.
    #[test]
    fn i64_paths_agree(
        values in prop::collection::vec(-1_500_000i64..1_500_000, 0..1500),
        extra in -1_500_000i64..1_500_000,
        pred in arb_pred_i64(),
    ) {
        assert_kernels_identical(force_partial_tail(values, extra), &pred);
    }

    /// f64: totalOrder keys with NaNs and infinities in the data.
    #[test]
    fn f64_paths_agree(
        values in prop::collection::vec(
            prop_oneof![
                12 => -1e6f64..1e6,
                1 => Just(f64::NAN),
                1 => Just(f64::INFINITY),
                1 => Just(f64::NEG_INFINITY),
                1 => Just(-0.0f64),
            ],
            0..1500,
        ),
        lo in -1.2e6f64..1.2e6,
        width in -1e4f64..8e5,
    ) {
        // Negative widths yield impossible ranges; both kernels must
        // agree on those too.
        let pred = RangePredicate::between(lo, lo + width);
        assert_kernels_identical(force_partial_tail(values, 0.25), &pred);
    }

    /// One-sided float predicates exercise the unbounded key edges
    /// (key 0 / key MAX) against NaN-bearing data.
    #[test]
    fn f64_one_sided_agree(
        values in prop::collection::vec(
            prop_oneof![8 => -1e6f64..1e6, 1 => Just(f64::NAN)],
            1..800,
        ),
        cut in -1e6f64..1e6,
        upper in any::<bool>(),
    ) {
        let pred = if upper { RangePredicate::at_most(cut) } else { RangePredicate::greater_than(cut) };
        assert_kernels_identical(force_partial_tail(values, -0.5), &pred);
    }
}

/// Deterministic spot checks at the type extremes, where proptest's
/// uniform draws rarely land.
#[test]
fn extreme_bound_spot_checks() {
    let u8s: Vec<u8> = (0..997).map(|i| (i % 256) as u8).collect();
    for pred in [
        RangePredicate::between(0u8, 0),
        RangePredicate::between(255u8, 255),
        RangePredicate::with_bounds(Bound::Exclusive(255u8), Bound::Unbounded),
        RangePredicate::with_bounds(Bound::Unbounded, Bound::Exclusive(0u8)),
        RangePredicate::all(),
    ] {
        assert_kernels_identical(u8s.clone(), &pred);
    }
    let i64s: Vec<i64> = (0..500)
        .map(|i| match i % 5 {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => (i as i64 - 250) * 1_000_003,
        })
        .collect();
    for pred in [
        RangePredicate::at_most(i64::MIN),
        RangePredicate::at_least(i64::MAX),
        RangePredicate::between(i64::MIN, i64::MIN + 1),
        RangePredicate::half_open(i64::MAX - 1, i64::MAX),
    ] {
        assert_kernels_identical(i64s.clone(), &pred);
    }
}
