//! Updating column imprints (§4).
//!
//! **Appends** (§4.1) are the common case and are cheap by construction:
//! the imprint vectors are horizontally compressed, so new data "simply
//! cause\[s\] new imprint vectors to be appended to the end of the existing
//! ones, without the need of accessing any of the previous imprint
//! vectors." The bin borders are *not* readjusted — the first and last bins
//! are overflow bins — but appends landing there are counted as a drift
//! signal.
//!
//! **In-place updates** (§4.2) set the new value's bin bit on the
//! affected cacheline ([`OverlayImprints`]); bits are only ever added, so
//! stale bits cost false positives, never answers. When the overlay stops
//! being sparse the index is simply rebuilt — "the overhead for rebuilding
//! an imprint index during a regular scan is minimal".

use std::collections::BTreeMap;

use colstore::{AccessStats, Column, IdList, RangeIndex, RangePredicate, Scalar};

use crate::index::{ColumnImprints, Run};
use crate::masks;
use crate::query;
use crate::simd::{Hits, PredicateKernel};

/// What one append batch did to the index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendStats {
    /// Rows appended in this batch.
    pub appended: u64,
    /// Rows that fell into the low overflow bin (below every border).
    pub overflow_low: u64,
    /// Rows that fell into the top bin (at or above the last border).
    pub overflow_high: u64,
    /// New cachelines finalized into the compressed structure.
    pub lines_finalized: u64,
}

impl<T: Scalar> ColumnImprints<T> {
    /// Extends the index for `new_values` that the caller has appended (or
    /// is about to append) to the end of the indexed column. Existing
    /// imprint vectors are never touched; only the trailing partial
    /// cacheline and the compressed tail grow.
    ///
    /// The caller is responsible for keeping column and index in sync — the
    /// usual secondary-index contract; [`ColumnImprints::verify`] checks it.
    pub fn append(&mut self, new_values: &[T]) -> AppendStats {
        let vpb = self.values_per_block();
        let bins = self.bins();
        let binning = self.binning().clone();
        let mut stats = AppendStats { appended: new_values.len() as u64, ..Default::default() };

        let (comp, tail_imprint, tail_len, rows, census) = self.parts_mut();
        for &v in new_values {
            let bin = binning.bin_of(v);
            if bin == 0 {
                stats.overflow_low += 1;
            } else if bin == bins - 1 {
                stats.overflow_high += 1;
            }
            // The tail line is a line of the census from its first value:
            // a bit it gains is one more line with that bin.
            if *tail_imprint & 1u64 << bin == 0 {
                census.add_bin(bin);
            }
            *tail_imprint |= 1u64 << bin;
            *tail_len += 1;
            *rows += 1;
            if *tail_len == vpb {
                comp.push_line(*tail_imprint);
                *tail_imprint = 0;
                *tail_len = 0;
                stats.lines_finalized += 1;
            }
        }
        self.appended_rows += stats.appended;
        self.appended_overflow += stats.overflow_low + stats.overflow_high;
        stats
    }

    /// Average fraction of bits set per stored imprint vector. A saturated
    /// index (→ 1.0) filters nothing and should be rebuilt.
    pub fn saturation(&self) -> f64 {
        let (imprints, _) = self.parts();
        let stored = imprints.len() + self.tail().is_some() as usize;
        if stored == 0 {
            return 0.0;
        }
        let mut bits: u64 = imprints.iter().map(|v| v.count_ones() as u64).sum();
        if let Some((t, _)) = self.tail() {
            bits += t.count_ones() as u64;
        }
        bits as f64 / (stored as u64 * self.bins() as u64) as f64
    }

    /// Fraction of appended rows that landed in the overflow bins. High
    /// values mean the appended data has "dramatically different value
    /// distribution" (§4.1) and the binning no longer discriminates.
    pub fn append_drift(&self) -> f64 {
        if self.appended_rows == 0 {
            0.0
        } else {
            self.appended_overflow as f64 / self.appended_rows as f64
        }
    }

    /// The overflow-drift half of the rebuild heuristic: enough rows were
    /// appended to trust the signal, and too many of them landed in the
    /// overflow bins. O(1) — cheap enough for per-append-batch checks
    /// (unlike [`ColumnImprints::saturation`], which sweeps every stored
    /// vector).
    pub fn append_drift_excessive(&self) -> bool {
        self.appended_rows >= 1024 && self.append_drift() > 0.5
    }

    /// Rebuild heuristic: the index stopped being useful either because the
    /// vectors saturated or because appended data keeps overflowing the
    /// sampled domain.
    pub fn needs_rebuild(&self) -> bool {
        self.saturation() > 0.75 || self.append_drift_excessive()
    }

    /// Rebuilds from scratch over the current column contents — the "simply
    /// disregard the entire secondary index and rebuild it during the next
    /// query scan" path of §4.2. Keeps the original build options but
    /// resamples, so drifted domains get fresh borders.
    pub fn rebuild(&self, col: &Column<T>) -> Self {
        ColumnImprints::build_with(col, *self.options())
    }
}

/// In-place updates without rebuild (§4.2): "an insertion however, will
/// call for additional bits to be set to the imprint corresponding to the
/// affected cachelines. Such an approach will eventually saturate the
/// imprint index."
///
/// [`OverlayImprints`] implements exactly that, without rewriting the
/// compressed structure (which run-length sharing forbids): the extra bits
/// live in a sparse per-cacheline *overlay*. Query evaluation ORs the
/// overlay into the stored vector of the affected lines — repeat runs are
/// split on the fly around overlaid lines, so unaffected lines keep their
/// one-probe treatment. Bits are only ever added, so results stay a
/// superset at the imprint level and exact after the value check. The
/// overlay is a *run source*: it hands those split runs to Algorithm 3's
/// one walk ([`query::probe`]) and evaluates nothing itself.
///
/// When [`OverlayImprints::saturated`] trips, rebuild — the overlay is the
/// measured embodiment of the paper's saturation argument.
#[derive(Debug, Clone)]
pub struct OverlayImprints<T: Scalar> {
    base: ColumnImprints<T>,
    /// Extra bits per cacheline (sparse; only updated lines appear).
    overlay: BTreeMap<u64, u64>,
    /// Total in-place updates recorded.
    updates: u64,
}

impl<T: Scalar> OverlayImprints<T> {
    /// Wraps a freshly built index.
    pub fn new(base: ColumnImprints<T>) -> Self {
        OverlayImprints { base, overlay: BTreeMap::new(), updates: 0 }
    }

    /// The wrapped index.
    pub fn base(&self) -> &ColumnImprints<T> {
        &self.base
    }

    /// Records that row `id` now holds `new_value` (the caller updates the
    /// column itself). Sets the value's bin bit on the affected cacheline.
    pub fn note_update(&mut self, id: u64, new_value: T) {
        debug_assert!(id < self.base.rows() as u64);
        let line = id / self.base.values_per_block() as u64;
        let bit = 1u64 << self.base.binning().bin_of(new_value);
        *self.overlay.entry(line).or_insert(0) |= bit;
        self.updates += 1;
    }

    /// Number of cachelines carrying overlay bits.
    pub fn overlaid_lines(&self) -> usize {
        self.overlay.len()
    }

    /// Saturation heuristic: the overlay stopped being sparse (more than a
    /// quarter of the lines touched) — time to rebuild.
    pub fn saturated(&self) -> bool {
        self.overlay.len() as u64 * 4 > self.base.line_count().max(1)
    }

    /// Rebuilds from the current column contents, clearing the overlay.
    pub fn rebuild(&mut self, col: &Column<T>) {
        self.base = ColumnImprints::build_with(col, *self.base.options());
        self.overlay.clear();
        self.updates = 0;
    }

    /// The base index's runs as the updated column sees them: cut at every
    /// overlaid line, which is a run of its own with the extra bits ORed in,
    /// so clean stretches keep their single probe (a repeat entry) or their
    /// stored vectors (the rest).
    fn runs(&self) -> impl Iterator<Item = Run<'_>> + '_ {
        let mut clean = self.base.runs();
        let mut dirty = self.overlay.iter().peekable();
        std::iter::from_fn(move || {
            let until = dirty.peek().map_or(u64::MAX, |(&line, _)| line);
            if let Some(run) = clean.next_before(until) {
                return Some(run);
            }
            let (&line, &extra) = dirty.next()?;
            let imprint = clean.next_before(line + 1)?.vectors()[0] | extra;
            Some(Run::Repeat { imprint, first_line: line, line_count: 1 })
        })
    }

    /// Algorithm 3 over the updated column into `hits`: the one imprint
    /// walk ([`query::probe`]) fed with [`OverlayImprints`]'s view of the
    /// runs, so the overlay shares the base index's kernel, sink and
    /// accounting.
    ///
    /// # Panics
    /// Panics if `col` does not have the indexed column's length.
    pub fn run(
        &self,
        col: &Column<T>,
        kernel: &PredicateKernel<T>,
        hits: Hits,
    ) -> (Hits, query::ImprintStats) {
        let masks = masks::make_masks(self.base.binning(), kernel.predicate());
        query::walk(&self.base, self.runs(), col, kernel, masks, hits)
    }

    /// Evaluates a range predicate against the updated column.
    pub fn evaluate_with_imprint_stats(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (IdList, query::ImprintStats) {
        let (hits, stats) = self.run(col, &PredicateKernel::new(pred), Hits::new(false));
        (hits.into_ids(), stats)
    }
}

impl<T: Scalar> RangeIndex<T> for OverlayImprints<T> {
    fn name(&self) -> &'static str {
        "imprints-overlay"
    }

    fn size_bytes(&self) -> usize {
        RangeIndex::size_bytes(&self.base) + self.overlay.len() * 16
    }

    fn evaluate_with_stats(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (IdList, AccessStats) {
        let (ids, stats) = self.evaluate_with_imprint_stats(col, pred);
        (ids, stats.access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::RangeIndex;

    fn oracle<T: Scalar>(col: &Column<T>, pred: &RangePredicate<T>) -> Vec<u64> {
        col.values()
            .iter()
            .enumerate()
            .filter(|(_, v)| pred.matches(v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    #[test]
    fn append_then_query_matches_full_rebuild() {
        let mut col: Column<i32> = (0..10_000).map(|i| i % 500).collect();
        let mut idx = ColumnImprints::build(&col);
        // Append in several odd-sized batches (exercises the partial tail).
        let batches: Vec<Vec<i32>> = vec![
            (0..7).map(|i| i * 3).collect(),
            (0..1000).map(|i| (i * 7) % 500).collect(),
            vec![499; 33],
        ];
        for b in &batches {
            let stats = idx.append(b);
            assert_eq!(stats.appended, b.len() as u64);
            col.extend_from_slice(b);
        }
        idx.verify(&col).unwrap();
        for pred in [
            RangePredicate::between(0, 10),
            RangePredicate::between(490, 499),
            RangePredicate::all(),
        ] {
            let ids = idx.evaluate(&col, &pred);
            assert_eq!(ids.as_slice(), oracle(&col, &pred));
        }
    }

    #[test]
    fn append_never_touches_existing_imprints() {
        let col: Column<i32> = (0..6400).map(|i| i % 100).collect();
        let mut idx = ColumnImprints::build(&col);
        let before: Vec<u64> = idx.parts().0.to_vec();
        let mut idx2 = idx.clone();
        idx2.append(&[1, 2, 3]);
        idx.append(&(0..5000).map(|i| i % 100).collect::<Vec<_>>());
        // The previously stored imprints are a prefix of the new state.
        assert_eq!(&idx.parts().0[..before.len()], &before[..]);
        assert_eq!(&idx2.parts().0[..before.len()], &before[..]);
    }

    #[test]
    fn append_overflow_tracking() {
        let col: Column<i32> = (100..200).collect();
        let mut idx = ColumnImprints::build(&col);
        // Values far outside the sampled domain land in overflow bins.
        let stats = idx.append(&[-1000, -999, 5000, 5001, 150]);
        assert_eq!(stats.overflow_low, 2);
        assert!(stats.overflow_high >= 2);
        assert!(idx.append_drift() > 0.5);
    }

    #[test]
    fn drift_triggers_rebuild_heuristic() {
        let col: Column<i32> = (0..1000).collect();
        let mut idx = ColumnImprints::build(&col);
        assert!(!idx.needs_rebuild());
        // Append 2000 rows all far below the sampled domain.
        idx.append(&vec![-50_000; 2000]);
        assert!(idx.append_drift() > 0.9);
        assert!(idx.needs_rebuild());
    }

    #[test]
    fn rebuild_resamples_domain() {
        let mut col: Column<i32> = (0..1000).collect();
        let mut idx = ColumnImprints::build(&col);
        let extra: Vec<i32> = (100_000..101_000).collect();
        idx.append(&extra);
        col.extend_from_slice(&extra);
        let rebuilt = idx.rebuild(&col);
        rebuilt.verify(&col).unwrap();
        assert!(!rebuilt.needs_rebuild());
        // The rebuilt borders must now span the appended domain.
        assert!(rebuilt.binning().borders().iter().any(|&b| b > 50_000));
    }

    #[test]
    fn saturation_of_wide_lines() {
        // Every cacheline contains values from every bin: saturation -> 1.
        let col: Column<u8> = (0..6400).map(|i| (i % 64) as u8).collect();
        let idx = ColumnImprints::build(&col);
        assert!(idx.saturation() > 0.5, "saturation {} too low", idx.saturation());
        // Clustered column: one or two bits per line.
        let col2: Column<u8> = (0..6400).map(|i| (i / 640) as u8).collect();
        let idx2 = ColumnImprints::build(&col2);
        assert!(idx2.saturation() < 0.3);
    }

    #[test]
    fn overlay_updates_match_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(61);
        let mut col: Column<i32> = (0..20_000).map(|i| i % 500).collect();
        let mut idx = OverlayImprints::new(ColumnImprints::build(&col));
        // Random in-place updates, including to values far outside the
        // original bins of their lines.
        for _ in 0..2_000 {
            let id = rng.gen_range(0..col.len());
            let v = rng.gen_range(-200..900);
            col.values_mut()[id] = v;
            idx.note_update(id as u64, v);
        }
        for _ in 0..20 {
            let a = rng.gen_range(-250..950);
            let b = rng.gen_range(-250..950);
            let pred = RangePredicate::between(a.min(b), a.max(b));
            let (got, _) = idx.evaluate_with_imprint_stats(&col, &pred);
            let expect: Vec<u64> = col
                .values()
                .iter()
                .enumerate()
                .filter(|(_, v)| pred.matches(v))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(got.as_slice(), expect.as_slice(), "{pred}");
        }
        assert!(idx.overlaid_lines() > 0);
    }

    #[test]
    fn overlay_without_updates_is_identity() {
        let col: Column<i64> = (0..10_000).map(|i| i % 77).collect();
        let base = ColumnImprints::build(&col);
        let overlay = OverlayImprints::new(base.clone());
        let pred = RangePredicate::between(10, 30);
        let (a, sa) = query::evaluate(&base, &col, &pred);
        let (b, sb) = overlay.evaluate_with_imprint_stats(&col, &pred);
        assert_eq!(a, b);
        assert_eq!(sa.access.index_probes, sb.access.index_probes);
    }

    #[test]
    fn overlay_splits_repeat_runs_precisely() {
        // A 16-periodic column compresses to one repeat run; one update to
        // a value *below* the domain (bin 0, which no stored line sets)
        // must cost ~3 probes for a query only the update matches.
        let mut col: Column<i32> = (0..16_000).map(|i| 10 + (i % 16)).collect();
        let mut idx = OverlayImprints::new(ColumnImprints::build(&col));
        assert_eq!(idx.base().imprint_count(), 1, "periodic data must fully compress");
        col.values_mut()[8_000] = -100;
        idx.note_update(8_000, -100);
        let pred = RangePredicate::less_than(0);
        let (ids, stats) = idx.evaluate_with_imprint_stats(&col, &pred);
        assert_eq!(ids.as_slice(), &[8_000]);
        assert!(stats.access.index_probes <= 3, "probes {}", stats.access.index_probes);
        assert!(stats.access.lines_skipped >= 990);
    }

    #[test]
    fn overlay_saturation_and_rebuild() {
        let mut col: Column<i32> = (0..6_400).map(|i| i % 10).collect();
        let mut idx = OverlayImprints::new(ColumnImprints::build(&col));
        assert!(!idx.saturated());
        // Touch most lines.
        for id in (0..6_400).step_by(8) {
            col.values_mut()[id] = 1_000_000;
            idx.note_update(id as u64, 1_000_000);
        }
        assert!(idx.saturated());
        idx.rebuild(&col);
        assert!(!idx.saturated());
        assert_eq!(idx.overlaid_lines(), 0);
        idx.base().verify(&col).unwrap();
    }

    #[test]
    fn overlay_fast_path_stays_sound() {
        // Update a value to another value *inside* the query range: the
        // innermask fast path may fire and must still be correct.
        let mut col: Column<i64> = (0..64_000).collect();
        let mut idx = OverlayImprints::new(ColumnImprints::build(&col));
        col.values_mut()[10_000] = 20_000;
        idx.note_update(10_000, 20_000);
        let pred = RangePredicate::between(5_000, 50_000);
        let (ids, _) = idx.evaluate_with_imprint_stats(&col, &pred);
        let expect: Vec<u64> = col
            .values()
            .iter()
            .enumerate()
            .filter(|(_, v)| pred.matches(v))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(ids.as_slice(), expect.as_slice());
    }

    #[test]
    fn append_to_empty_index() {
        let col: Column<i32> = Column::new();
        let mut idx = ColumnImprints::build(&col);
        let vals: Vec<i32> = (0..100).collect();
        idx.append(&vals);
        let full: Column<i32> = (0..100).collect();
        idx.verify(&full).unwrap();
        let pred = RangePredicate::between(10, 20);
        let ids = idx.evaluate(&full, &pred);
        assert_eq!(ids.as_slice(), oracle(&full, &pred));
    }
}
