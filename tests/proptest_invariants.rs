//! Property-based tests on the core data structures and invariants.

use baselines::{WahBitmap, WahVector, ZoneMap};
use colstore::{Bound, Column, IdList, RangeIndex, RangePredicate};
use imprints::builder::Compressor;
use imprints::{column_entropy, Binning, ColumnImprints, PredicateKernel};
use proptest::prelude::*;

/// Oracle filter.
fn oracle<T: colstore::Scalar>(col: &Column<T>, pred: &RangePredicate<T>) -> Vec<u64> {
    col.values()
        .iter()
        .enumerate()
        .filter(|(_, v)| pred.matches(v))
        .map(|(i, _)| i as u64)
        .collect()
}

fn arb_pred_i32() -> impl Strategy<Value = RangePredicate<i32>> {
    let bound = prop_oneof![
        Just(Bound::Unbounded),
        (-2000i32..2000).prop_map(Bound::Inclusive),
        (-2000i32..2000).prop_map(Bound::Exclusive),
    ];
    (bound.clone(), bound).prop_map(|(lo, hi)| RangePredicate::with_bounds(lo, hi))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn imprints_match_oracle(
        values in prop::collection::vec(-1500i32..1500, 0..3000),
        pred in arb_pred_i32(),
    ) {
        let col: Column<i32> = Column::from(values);
        let idx = ColumnImprints::build(&col);
        idx.verify(&col).unwrap();
        let got = idx.evaluate(&col, &pred);
        let expect = oracle(&col, &pred);
        prop_assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn zonemap_and_wah_match_oracle(
        values in prop::collection::vec(-1500i32..1500, 0..2000),
        pred in arb_pred_i32(),
    ) {
        let col: Column<i32> = Column::from(values);
        let expect = oracle(&col, &pred);
        let zm = ZoneMap::build(&col);
        let got_zm = zm.evaluate(&col, &pred);
        prop_assert_eq!(got_zm.as_slice(), expect.as_slice());
        let wah = WahBitmap::build(&col);
        let got_wah = wah.evaluate(&col, &pred);
        prop_assert_eq!(got_wah.as_slice(), expect.as_slice());
    }

    #[test]
    fn imprints_match_oracle_f64(
        values in prop::collection::vec(
            prop_oneof![
                8 => -1e6f64..1e6,
                1 => Just(f64::NAN),
                1 => Just(f64::INFINITY),
                1 => Just(f64::NEG_INFINITY),
            ],
            0..2000,
        ),
        lo in -1e6f64..1e6,
        width in 0.0f64..5e5,
    ) {
        let col: Column<f64> = Column::from(values);
        let idx = ColumnImprints::build(&col);
        idx.verify(&col).unwrap();
        let pred = RangePredicate::between(lo, lo + width);
        let got = idx.evaluate(&col, &pred);
        let expect = oracle(&col, &pred);
        prop_assert_eq!(got.as_slice(), expect.as_slice());
    }

    /// Satellite regression for the partial-tail geometry: columns whose
    /// length is *not* a multiple of `values_per_block` end in a partial
    /// cacheline, and every imprint query kernel — materializing
    /// evaluation, the count kernel, and the late-materialization
    /// `candidates` + `refine` pair — must agree with the scalar oracle
    /// there (this is exactly where PR 3's `ids_via_full_lines` accounting
    /// bug hid; the oracles elsewhere almost all use exact multiples).
    #[test]
    fn partial_tail_lengths_agree_with_oracle(
        values in prop::collection::vec(-1500i32..1500, 0..3000),
        extra in -1500i32..1500,
        pred in arb_pred_i32(),
    ) {
        // Force a partial tail: i32 packs 16 values per 64-byte line, so a
        // non-multiple of 16 is also a non-multiple of u8's 64.
        let mut values = values;
        while values.len() % 16 == 0 {
            values.push(extra);
        }
        let col: Column<i32> = Column::from(values.clone());
        let idx = ColumnImprints::build(&col);
        prop_assert_eq!(idx.values_per_block(), 16);
        prop_assert!(!col.len().is_multiple_of(idx.values_per_block()));
        let expect = oracle(&col, &pred);

        let (ids, stats) = imprints::query::evaluate(&idx, &col, &pred);
        prop_assert_eq!(ids.as_slice(), expect.as_slice());
        // The exact fast-path id counter can never exceed what was emitted.
        prop_assert!(stats.ids_via_full_lines <= ids.len() as u64);

        let (n, cstats) = imprints::query::count(&idx, &col, &pred);
        prop_assert_eq!(n as usize, expect.len());
        prop_assert_eq!(cstats.ids_via_full_lines, stats.ids_via_full_lines);

        let (cands, mut rstats) = imprints::query::candidate_id_ranges(&idx, &pred);
        let refined = imprints::query::refine(&col, &PredicateKernel::new(&pred), &cands, &mut rstats);
        prop_assert_eq!(refined.as_slice(), expect.as_slice());

        // Same partial-tail geometry at u8's 64-values-per-line grid.
        let u8col: Column<u8> = values.iter().map(|v| (v.unsigned_abs() % 256) as u8).collect();
        let u8idx = ColumnImprints::build(&u8col);
        prop_assert!(!u8col.len().is_multiple_of(u8idx.values_per_block()));
        for p in [
            RangePredicate::between(20u8, 180),
            RangePredicate::less_than(7),
            RangePredicate::at_least(250),
            RangePredicate::equals(values.len() as u8),
        ] {
            let expect = oracle(&u8col, &p);
            let (ids, _) = imprints::query::evaluate(&u8idx, &u8col, &p);
            prop_assert_eq!(ids.as_slice(), expect.as_slice(), "u8 evaluate {}", p);
            let (n, _) = imprints::query::count(&u8idx, &u8col, &p);
            prop_assert_eq!(n as usize, expect.len(), "u8 count {}", p);
            let (cands, mut rstats) = imprints::query::candidate_id_ranges(&u8idx, &p);
            let refined = imprints::query::refine(&u8col, &PredicateKernel::new(&p), &cands, &mut rstats);
            prop_assert_eq!(refined.as_slice(), expect.as_slice(), "u8 refine {}", p);
        }
    }

    #[test]
    fn compressor_roundtrips_any_run_sequence(
        runs in prop::collection::vec((0u64..6, 1u64..40), 0..60),
    ) {
        let mut comp = Compressor::new();
        let mut logical = Vec::new();
        for &(v, n) in &runs {
            for _ in 0..n {
                comp.push_line(v);
            }
            logical.extend(std::iter::repeat_n(v, n as usize));
        }
        comp.verify().unwrap();
        // Decompress through the dictionary.
        let mut out = Vec::new();
        let mut pos = 0usize;
        for e in comp.dict() {
            if e.repeat() {
                out.extend(std::iter::repeat_n(comp.imprints()[pos], e.cnt() as usize));
                pos += 1;
            } else {
                for _ in 0..e.cnt() {
                    out.push(comp.imprints()[pos]);
                    pos += 1;
                }
            }
        }
        prop_assert_eq!(out, logical);
    }

    #[test]
    fn wah_roundtrips_any_bit_sequence(
        runs in prop::collection::vec((any::<bool>(), 1u64..120), 0..50),
    ) {
        let mut v = WahVector::new();
        let mut reference: Vec<bool> = Vec::new();
        for &(bit, n) in &runs {
            v.append_run(bit, n);
            reference.extend(std::iter::repeat_n(bit, n as usize));
        }
        prop_assert_eq!(v.len() as usize, reference.len());
        let ones: Vec<u64> = v.ones().collect();
        let expect: Vec<u64> = reference
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(ones, expect);
        prop_assert_eq!(v.count_ones() as usize, reference.iter().filter(|&&b| b).count());
    }

    #[test]
    fn binning_bin_of_is_monotone_and_matches_definition(
        mut sample in prop::collection::vec(-10_000i64..10_000, 1..500),
        probes in prop::collection::vec(-11_000i64..11_000, 1..200),
    ) {
        sample.sort_unstable();
        let binning = Binning::from_sorted_sample(&sample);
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_unstable();
        let mut prev_bin = 0usize;
        for v in sorted_probes {
            let bin = binning.bin_of(v);
            prop_assert!(bin < binning.bins());
            prop_assert!(bin >= prev_bin, "bin_of must be monotone");
            // The definition, `min(#{i : b[i] ≤ v}, bins − 1)`, as a loop.
            let mut at_or_below = 0;
            for border in binning.borders() {
                if *border <= v {
                    at_or_below += 1;
                }
            }
            prop_assert_eq!(bin, at_or_below.min(binning.bins() - 1));
            prev_bin = bin;
        }
    }

    #[test]
    fn entropy_is_bounded(
        values in prop::collection::vec(0i32..5000, 1..4000),
    ) {
        let col: Column<i32> = Column::from(values);
        let e = column_entropy(&ColumnImprints::build(&col));
        prop_assert!((0.0..=1.0).contains(&e), "E = {}", e);
    }

    #[test]
    fn append_equals_fresh_build_answers(
        base in prop::collection::vec(0i32..1000, 0..1500),
        extra in prop::collection::vec(0i32..1000, 0..800),
        lo in 0i32..1000,
        width in 0i32..500,
    ) {
        // Building on base then appending must answer like an index whose
        // column was the concatenation all along (binning differs — the
        // appended index keeps the old borders — but *answers* must agree).
        let mut idx = ColumnImprints::build(&Column::from(base.clone()));
        idx.append(&extra);
        let mut all = base;
        all.extend_from_slice(&extra);
        let col: Column<i32> = Column::from(all);
        idx.verify(&col).unwrap();
        let pred = RangePredicate::between(lo, lo + width);
        let got = idx.evaluate(&col, &pred);
        let expect = oracle(&col, &pred);
        prop_assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn index_storage_roundtrip(
        values in prop::collection::vec(-3000i64..3000, 0..2000),
    ) {
        let col: Column<i64> = Column::from(values);
        let idx = ColumnImprints::build(&col);
        let mut bytes = Vec::new();
        imprints::storage::write_index(&idx, &mut bytes).unwrap();
        let back: ColumnImprints<i64> =
            imprints::storage::read_index(&mut bytes.as_slice()).unwrap();
        back.verify(&col).unwrap();
        let pred = RangePredicate::between(-500, 500);
        prop_assert_eq!(back.evaluate(&col, &pred), idx.evaluate(&col, &pred));
    }

    #[test]
    fn idlist_ops_match_set_semantics(
        a in prop::collection::btree_set(0u64..500, 0..200),
        b in prop::collection::btree_set(0u64..500, 0..200),
    ) {
        let la = IdList::from_sorted(a.iter().copied().collect());
        let lb = IdList::from_sorted(b.iter().copied().collect());
        let inter: Vec<u64> = a.intersection(&b).copied().collect();
        let uni: Vec<u64> = a.union(&b).copied().collect();
        let got_inter = la.intersect(&lb);
        let got_uni = la.union(&lb);
        prop_assert_eq!(got_inter.as_slice(), inter.as_slice());
        prop_assert_eq!(got_uni.as_slice(), uni.as_slice());
    }

    #[test]
    fn candidate_lines_never_lose_matches(
        values in prop::collection::vec(0i32..2000, 1..3000),
        lo in 0i32..2000,
        width in 0i32..1000,
    ) {
        let col: Column<i32> = Column::from(values);
        let idx = ColumnImprints::build(&col);
        let pred = RangePredicate::between(lo, lo + width);
        let (cands, _) = imprints::query::candidate_id_ranges(&idx, &pred);
        for id in oracle(&col, &pred) {
            prop_assert!(cands.contains(id), "id {} lost from candidates", id);
        }
    }

    #[test]
    fn equi_width_matches_oracle(
        values in prop::collection::vec(-4000i64..4000, 0..2000),
        pred_lo in -4500i64..4500,
        width in 0i64..3000,
    ) {
        use imprints::{BinningStrategy, BuildOptions};
        let col: Column<i64> = Column::from(values);
        let idx = ColumnImprints::build_with(
            &col,
            BuildOptions { strategy: BinningStrategy::EquiWidth, ..Default::default() },
        );
        idx.verify(&col).unwrap();
        let pred = RangePredicate::between(pred_lo, pred_lo + width);
        let got = idx.evaluate(&col, &pred);
        let expect = oracle(&col, &pred);
        prop_assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn masks_innermask_subset_of_mask(
        mut sample in prop::collection::vec(-5000i64..5000, 64..300),
        lo in -6000i64..6000,
        width in 0i64..4000,
    ) {
        sample.sort_unstable();
        let binning = Binning::from_sorted_sample(&sample);
        let pred = RangePredicate::between(lo, lo + width);
        let m = imprints::masks::make_masks(&binning, &pred);
        prop_assert_eq!(m.innermask & !m.mask, 0);
    }
}
