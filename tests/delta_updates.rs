//! End-to-end update workflows (§4): randomized in-place updates through
//! the overlay checked against a brute-force oracle, plus the saturation /
//! rebuild lifecycle of appends.

use colstore::{Column, RangeIndex, RangePredicate};
use datagen::distributions;
use imprints::{ColumnImprints, OverlayImprints};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The brute-force answer over the column as it is now.
fn oracle_ids(col: &Column<i64>, pred: &RangePredicate<i64>) -> Vec<u64> {
    (0..col.len() as u64).filter(|&id| pred.matches(&col.values()[id as usize])).collect()
}

#[test]
fn randomized_in_place_updates_match_oracle() {
    let mut rng = StdRng::seed_from_u64(77);
    for round in 0..20 {
        let n = rng.gen_range(100..5000);
        let mut col: Column<i64> = Column::from(distributions::uniform_ints(n, 0, 500, round));
        let mut idx = OverlayImprints::new(ColumnImprints::build(&col));
        // Updates inside the sampled domain and beyond both overflow bins.
        for _ in 0..rng.gen_range(0..200) {
            let id = rng.gen_range(0..n);
            let v = rng.gen_range(-100..600);
            col.values_mut()[id] = v;
            idx.note_update(id as u64, v);
        }
        for _ in 0..5 {
            let a = rng.gen_range(-120..620);
            let b = rng.gen_range(-120..620);
            let pred = RangePredicate::between(a.min(b), a.max(b));
            let got = idx.evaluate(&col, &pred);
            assert_eq!(got.as_slice(), oracle_ids(&col, &pred).as_slice(), "round {round}, {pred}");
        }
    }
}

#[test]
fn saturation_lifecycle() {
    // Start clustered (low saturation), then append scattershot data into
    // the same lines until the index degrades and rebuild pays off.
    let base: Column<i64> = (0..64_000).map(|i| i / 640).collect();
    let mut idx = ColumnImprints::build(&base);
    let initial_saturation = idx.saturation();
    assert!(initial_saturation < 0.4);

    // Appends drawn uniformly from far outside the sampled domain.
    let noisy = distributions::uniform_ints(64_000, -1_000_000, 1_000_000, 9);
    idx.append(&noisy);
    assert!(idx.append_drift() > 0.5, "out-of-domain appends must register as drift");
    assert!(idx.needs_rebuild());

    let mut col = base.clone();
    col.extend_from_slice(&noisy);
    let rebuilt = idx.rebuild(&col);
    rebuilt.verify(&col).unwrap();
    assert!(!rebuilt.needs_rebuild());
    // The rebuilt binning discriminates the new domain again.
    let pred = RangePredicate::between(-900_000, -800_000);
    let (_, stats) = imprints::query::evaluate(&rebuilt, &col, &pred);
    assert!(stats.access.lines_skipped > 0);
}

#[test]
fn interleaved_appends_and_queries() {
    let mut col: Column<i64> = Column::from(distributions::uniform_ints(1000, 0, 1000, 3));
    let mut idx = ColumnImprints::build(&col);
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..50 {
        let batch: Vec<i64> = (0..rng.gen_range(1..300)).map(|_| rng.gen_range(0..1000)).collect();
        idx.append(&batch);
        col.extend_from_slice(&batch);
        let a = rng.gen_range(0..1000);
        let b = rng.gen_range(0..1000);
        let pred = RangePredicate::between(a.min(b), a.max(b));
        let expect: Vec<u64> = col
            .values()
            .iter()
            .enumerate()
            .filter(|(_, v)| pred.matches(v))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(idx.evaluate(&col, &pred).as_slice(), expect.as_slice());
    }
    idx.verify(&col).unwrap();
}

#[test]
fn stale_imprints_only_widen_results_never_narrow() {
    // In-place updates leave stale bits behind; §4.2 argues they are safe
    // because they only cause false positives. A clustered column (80
    // lines per value) has every row of line 200 moved off its value 2:
    // the line keeps bin 2's bit, so a query for 2 still fetches it and
    // finds nothing there — more work, the same answer.
    let mut col: Column<i64> = (0..32_000).map(|i| i / 640).collect();
    let mut idx = OverlayImprints::new(ColumnImprints::build(&col));
    let pred = RangePredicate::equals(2);
    let (_, before) = idx.evaluate_with_imprint_stats(&col, &pred);
    for id in 1600..1608 {
        col.values_mut()[id] = 50;
        idx.note_update(id as u64, 50);
    }
    let (ids, after) = idx.evaluate_with_imprint_stats(&col, &pred);
    assert_eq!(ids.as_slice(), oracle_ids(&col, &pred).as_slice());
    assert_eq!(ids.len(), 640 - 8);
    let fetched = |s: imprints::ImprintStats| s.access.lines_fetched + s.lines_full;
    assert_eq!(fetched(after), fetched(before), "the stale line is still a candidate");
    // A fresh build over the updated column drops the stale line.
    let fresh = ColumnImprints::build(&col);
    let (fresh_ids, fresh_stats) = imprints::query::evaluate(&fresh, &col, &pred);
    assert_eq!(fresh_ids, ids);
    assert!(fetched(fresh_stats) < fetched(after), "{fresh_stats:?} vs {after:?}");
}
