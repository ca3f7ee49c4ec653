//! Histogram binning (Algorithm 2).
//!
//! The value domain of a column is divided into at most 64 ranges — the
//! *bins* — whose borders are derived from a small sorted sample:
//!
//! * **Low cardinality** (fewer than 64 distinct sampled values): every
//!   distinct value becomes a border, so each bin holds exactly one value.
//!   The bin count is rounded up to the next of {8, 16, 32, 64}, and unused
//!   borders are filled with the domain maximum so the binary search stays
//!   a fixed-shape 64-way search.
//! * **High cardinality**: the sample (with duplicate multiplicity, per the
//!   paper's §2.4 text: "including in the count the multiple occurrences of
//!   the same value") is split into 62 equal-count ranges, approximating an
//!   equi-height histogram; the 64th border is the domain maximum.
//!
//! Bin semantics: bin ranges are "inclusive on the left, and exclusive on
//! the right". With borders `b[0] ≤ b[1] ≤ …`, the bin of `v` is
//! `min(#{i : b[i] ≤ v}, bins − 1)`: bin 0 is the low overflow bin
//! `(−∞, b[0])`, bin `i ≥ 1` is `[b[i−1], b[i])`, and the top bin extends to
//! `+∞`. The first and last bins thereby absorb out-of-sample outliers,
//! which is what makes appends cheap (§4.1).

use colstore::{Bound, Column, RangePredicate, Scalar};

use crate::sampling;
use crate::MAX_BINS;

/// How bin borders are derived from the sample.
///
/// The paper uses the equi-height split exclusively; §7 names "judicious
/// choice of the binning scheme" as future work, so the equi-width
/// alternative is provided for the ablation benchmark. That benchmark
/// (`ablations::binning_strategy`, heavy-tailed data) does not show
/// equi-height winning: equi-width was the faster in five of six runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BinningStrategy {
    /// Approximate equi-height: each bin holds roughly the same number of
    /// sampled values (Algorithm 2; the paper's choice).
    #[default]
    EquiHeight,
    /// Equi-width: the sampled value range is cut into equal-length
    /// intervals, ignoring the data distribution.
    EquiWidth,
}

/// The histogram: 64 bin borders plus the number of bins actually in use
/// (8, 16, 32 or 64).
#[derive(Debug, Clone, PartialEq)]
pub struct Binning<T: Scalar> {
    borders: [T; MAX_BINS],
    bins: u8,
}

impl<T: Scalar> Binning<T> {
    /// Builds the binning for `col` by sampling (Algorithm 2 driver).
    ///
    /// `sample_size` caps the sample (the paper uses 2048); `seed` makes
    /// sampling reproducible.
    pub fn from_column(col: &Column<T>, sample_size: usize, seed: u64) -> Self {
        let sample = sampling::sorted_sample(col, sample_size, seed);
        Self::from_sorted_sample(&sample)
    }

    /// Builds the binning with an explicit [`BinningStrategy`].
    pub fn from_column_with_strategy(
        col: &Column<T>,
        sample_size: usize,
        seed: u64,
        strategy: BinningStrategy,
    ) -> Self {
        let sample = sampling::sorted_sample(col, sample_size, seed);
        match strategy {
            BinningStrategy::EquiHeight => Self::from_sorted_sample(&sample),
            BinningStrategy::EquiWidth => Self::equi_width_from_sorted_sample(&sample),
        }
    }

    /// Equi-width alternative (§7 "judicious choice of the binning
    /// scheme"): 62 equal-length intervals between the sampled min and max,
    /// via the numeric (`as_f64`) projection. Low-cardinality samples still
    /// take the exact one-value-per-bin path, where the strategies agree.
    pub fn equi_width_from_sorted_sample(sample: &[T]) -> Self {
        let distinct = sampling::distinct_in_sorted(sample);
        if distinct < MAX_BINS {
            return Self::from_sorted_sample(sample);
        }
        let lo = sample[0].as_f64();
        let hi = sample[sample.len() - 1].as_f64();
        if !(hi - lo).is_finite() || hi <= lo {
            // Degenerate numeric span (infinities, NaN extremes): fall back
            // to the robust equi-height split.
            return Self::from_sorted_sample(sample);
        }
        let mut borders = [T::MAX_VALUE; MAX_BINS];
        let step = (hi - lo) / 62.0;
        let mut n = 0;
        for i in 0..63 {
            let target = lo + step * i as f64;
            // Snap to the smallest sampled value ≥ target so borders stay
            // real domain values (required for exact integer semantics).
            let pos = sample.partition_point(|v| v.as_f64() < target);
            let candidate = sample[pos.min(sample.len() - 1)];
            if n == 0 || borders[n - 1].lt_total(&candidate) {
                borders[n] = candidate;
                n += 1;
            }
        }
        Binning { borders, bins: MAX_BINS as u8 }
    }

    /// Builds the binning from an already-sorted sample (duplicates
    /// allowed; they steer the equal-height split).
    pub fn from_sorted_sample(sample: &[T]) -> Self {
        debug_assert!(
            sample.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "sample must be sorted"
        );
        let mut borders = [T::MAX_VALUE; MAX_BINS];
        let distinct = sampling::distinct_in_sorted(sample);

        if distinct < MAX_BINS {
            // Low cardinality: one border per distinct value.
            let mut n = 0;
            for &v in sample {
                if n == 0 || borders[n - 1].total_cmp(&v).is_ne() {
                    borders[n] = v;
                    n += 1;
                }
            }
            debug_assert_eq!(n, distinct);
            // Round the bin count up to the next power of two in {8,16,32,64}.
            // A border array of d values defines d+1 reachable bins, hence
            // the strict `<` thresholds of Algorithm 2.
            let bins = if distinct < 8 {
                8
            } else if distinct < 16 {
                16
            } else if distinct < 32 {
                32
            } else {
                64
            };
            Binning { borders, bins }
        } else {
            // High cardinality: 62 equal-count ranges over the sample with
            // multiplicity. `ystep` stays fractional to spread the ranges
            // evenly (Algorithm 2 keeps it a double for the same reason).
            let ystep = sample.len() as f64 / 62.0;
            let mut y = 0.0f64;
            let mut n = 0;
            for _ in 0..63 {
                let idx = (y as usize).min(sample.len() - 1);
                let candidate = sample[idx];
                // Keep borders strictly increasing: a duplicate border would
                // only create unreachable bins.
                if n == 0 || borders[n - 1].lt_total(&candidate) {
                    borders[n] = candidate;
                    n += 1;
                }
                y += ystep;
            }
            // borders[63] stays MAX_VALUE (the `coltype_MAX` sentinel).
            Binning { borders, bins: MAX_BINS as u8 }
        }
    }

    /// (crate) Reassembles a binning from its raw parts (deserialization).
    pub(crate) fn from_raw(borders: [T; MAX_BINS], bins: u8) -> Self {
        debug_assert!(matches!(bins, 8 | 16 | 32 | 64));
        Binning { borders, bins }
    }

    /// Number of bins in use (8, 16, 32 or 64).
    #[inline]
    pub fn bins(&self) -> usize {
        self.bins as usize
    }

    /// The full 64-entry border array (unused tail entries hold the domain
    /// maximum sentinel).
    #[inline]
    pub fn borders(&self) -> &[T; MAX_BINS] {
        &self.borders
    }

    /// The bin `v` falls into: `min(#{i : b[i] ≤ v}, bins − 1)`.
    ///
    /// §2.5 motivates a hand-unrolled branch-parallel binary search ("three
    /// times faster" than a loop in the authors' C). In Rust
    /// `slice::partition_point` measured ~1.35× *faster* than a branchless
    /// unrolled form over the same 64 borders (DESIGN.md, "One bin
    /// search"), so it is the only search.
    #[inline]
    pub fn bin_of(&self, v: T) -> usize {
        let raw = self.borders.partition_point(|b| b.le_total(&v));
        raw.min(self.bins as usize - 1)
    }

    /// The inclusive bin range `(lowest, highest)` a value matching `pred`
    /// can fall into — two border searches. `bin_of` is monotone, so any
    /// `v ≥/> low` has `bin(v) ≥ bin(low)`, and symmetrically for the
    /// highest bin. Conservative for exclusive bounds (the bound's own bin
    /// is included), and only meaningful for a non-empty predicate range.
    pub fn bin_span(&self, pred: &RangePredicate<T>) -> (usize, usize) {
        let lo = match pred.low() {
            Bound::Unbounded => 0,
            Bound::Inclusive(l) | Bound::Exclusive(l) => self.bin_of(*l),
        };
        let hi = match pred.high() {
            Bound::Unbounded => self.bins() - 1,
            Bound::Inclusive(h) | Bound::Exclusive(h) => self.bin_of(*h),
        };
        (lo, hi)
    }

    /// The value range covered by bin `i`, as bounds:
    /// `(None, b[0])` for bin 0, `[b[i−1], b[i])` in the middle, and
    /// `[b[bins−2], None]` for the top bin. `None` means unbounded
    /// (extends to the domain extreme, inclusive).
    pub fn bin_range(&self, i: usize) -> (Option<T>, Option<T>) {
        assert!(i < self.bins(), "bin index out of range");
        let lo = if i == 0 { None } else { Some(self.borders[i - 1]) };
        let hi = if i == self.bins() - 1 { None } else { Some(self.borders[i]) };
        (lo, hi)
    }

    /// Whether every value that can fall into bin `i` is guaranteed to
    /// satisfy the predicate bounds `low`/`high` (used for the
    /// `innermask`). Conservative: returns `false` when unsure.
    pub fn bin_fully_inside(&self, i: usize, low: &Bound<T>, high: &Bound<T>) -> bool {
        let (bin_lo, bin_hi) = self.bin_range(i);
        let low_ok = match (low, &bin_lo) {
            (Bound::Unbounded, _) => true,
            // Bin 0 reaches down to the domain minimum.
            (Bound::Inclusive(l), None) => l.le_total(&T::MIN_VALUE),
            (Bound::Exclusive(_), None) => false,
            (Bound::Inclusive(l), Some(b)) => l.le_total(b),
            (Bound::Exclusive(l), Some(b)) => l.lt_total(b),
        };
        if !low_ok {
            return false;
        }
        match (high, &bin_hi) {
            (Bound::Unbounded, _) => true,
            // The top bin reaches up to the domain maximum, *inclusive*.
            (Bound::Inclusive(h), None) => T::MAX_VALUE.le_total(h),
            (Bound::Exclusive(_), None) => false,
            // Values in the bin are < b; v < b ≤ h ⇒ v ≤ h and v < h.
            (Bound::Inclusive(h), Some(b)) | (Bound::Exclusive(h), Some(b)) => b.le_total(h),
        }
    }

    /// Bytes this structure occupies (counted toward the index size).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binning_of(values: Vec<i32>) -> Binning<i32> {
        let mut s = values;
        s.sort_unstable();
        Binning::from_sorted_sample(&s)
    }

    #[test]
    fn low_cardinality_one_value_per_bin() {
        let b = binning_of(vec![1, 8, 2, 3, 7, 4, 6, 5, 8, 7, 1, 4, 2, 1, 6]);
        // 8 distinct values -> 16 bins (8 needs d+1 = 9 reachable bins).
        assert_eq!(b.bins(), 16);
        // Each distinct value gets its own bin; values below min go to 0.
        assert_eq!(b.bin_of(0), 0);
        assert_eq!(b.bin_of(1), 1);
        assert_eq!(b.bin_of(2), 2);
        assert_eq!(b.bin_of(8), 8);
        assert_eq!(b.bin_of(100), 8, "above max joins the last real bin's side");
    }

    #[test]
    fn seven_distinct_gives_eight_bins() {
        let b = binning_of((1..=7).collect());
        assert_eq!(b.bins(), 8);
        for v in 1..=7 {
            assert_eq!(b.bin_of(v), v as usize);
        }
        assert_eq!(b.bin_of(0), 0);
    }

    #[test]
    fn bin_thresholds() {
        assert_eq!(binning_of((0..7).collect()).bins(), 8);
        assert_eq!(binning_of((0..8).collect()).bins(), 16);
        assert_eq!(binning_of((0..15).collect()).bins(), 16);
        assert_eq!(binning_of((0..16).collect()).bins(), 32);
        assert_eq!(binning_of((0..31).collect()).bins(), 32);
        assert_eq!(binning_of((0..32).collect()).bins(), 64);
        assert_eq!(binning_of((0..63).collect()).bins(), 64);
        assert_eq!(binning_of((0..64).collect()).bins(), 64);
        assert_eq!(binning_of((0..1000).collect()).bins(), 64);
    }

    #[test]
    fn high_cardinality_equal_height() {
        // 6200 values 0..6200: borders should be ~ every 100th value.
        let b = binning_of((0..6200).collect());
        assert_eq!(b.bins(), 64);
        assert_eq!(b.borders()[0], 0);
        // The split is even: border i ≈ i*100.
        for i in 0..62 {
            let expect = (i as f64 * 100.0) as i32;
            let got = b.borders()[i];
            assert!((got - expect).abs() <= 1, "border {i}: got {got}, expected ~{expect}");
        }
        assert_eq!(b.borders()[63], i32::MAX);
        // Values spread across all bins.
        assert_eq!(b.bin_of(-5), 0);
        assert_eq!(b.bin_of(0), 1);
        assert_eq!(b.bin_of(6199), 63);
        assert_eq!(b.bin_of(i32::MAX), 63);
    }

    #[test]
    fn bin_of_is_monotonic() {
        let b = binning_of((0..10_000).map(|i| (i * 37) % 5000).collect());
        let mut prev = 0;
        for v in (-100..5100).step_by(7) {
            let bin = b.bin_of(v);
            assert!(bin >= prev, "bin_of must be monotone in v");
            assert!(bin < b.bins());
            prev = bin;
        }
    }

    /// The definition `bin_of` implements, `min(#{i : b[i] ≤ v}, bins − 1)`,
    /// as a plain loop.
    fn bin_by_definition<T: Scalar>(b: &Binning<T>, v: T) -> usize {
        let mut at_or_below = 0;
        for border in b.borders() {
            if border.le_total(&v) {
                at_or_below += 1;
            }
        }
        at_or_below.min(b.bins() - 1)
    }

    #[test]
    fn bin_of_matches_the_definition_exhaustively() {
        let b = binning_of((0..6400).map(|i| i * 3).collect());
        for v in (-10..19_300).chain([i32::MIN, i32::MAX]) {
            assert_eq!(b.bin_of(v), bin_by_definition(&b, v), "v = {v}");
        }
    }

    #[test]
    fn skewed_sample_shrinks_hot_bins() {
        // Sample: 90% of mass at value 100, the rest uniform 0..6200.
        let mut s: Vec<i32> = (0..620).map(|i| i * 10).collect();
        s.extend(std::iter::repeat_n(100, 5580));
        s.sort_unstable();
        let b = Binning::from_sorted_sample(&s);
        assert_eq!(b.bins(), 64);
        // The value 100 must sit on a border: its mass forces a split there.
        assert!(b.borders().contains(&100));
    }

    #[test]
    fn duplicate_borders_are_skipped() {
        // Extreme skew: only 64+ distinct but one dominates.
        let mut s: Vec<i32> = (0..64).collect();
        s.extend(std::iter::repeat_n(30, 10_000));
        s.sort_unstable();
        let b = Binning::from_sorted_sample(&s);
        // Borders strictly increasing among the real (non-sentinel) ones.
        let bs = b.borders();
        for w in bs.windows(2) {
            if w[1].total_cmp(&i32::MAX).is_ne() {
                assert!(w[0] < w[1], "borders must be strictly increasing");
            }
        }
    }

    #[test]
    fn floats_with_nan() {
        let mut s: Vec<f64> = (0..200).map(|i| i as f64).collect();
        s.push(f64::NAN);
        s.sort_unstable_by(f64::total_cmp);
        let b = Binning::from_sorted_sample(&s);
        assert_eq!(b.bin_of(f64::NAN), b.bins() - 1, "NaN lands in the top bin");
        assert_eq!(b.bin_of(f64::NEG_INFINITY), 0);
        assert_eq!(b.bin_of(-1.0), 0);
    }

    #[test]
    fn bin_range_endpoints() {
        let b = binning_of((1..=7).collect());
        assert_eq!(b.bin_range(0), (None, Some(1)));
        assert_eq!(b.bin_range(1), (Some(1), Some(2)));
        assert_eq!(b.bin_range(7), (Some(7), None));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bin_range_rejects_out_of_range() {
        let b = binning_of((1..=7).collect());
        let _ = b.bin_range(8);
    }

    #[test]
    fn fully_inside_checks() {
        let b = binning_of((1..=7).collect()); // bins: (..1),[1,2),...,[7,..)
        use Bound::*;
        // [1, 3): bins 1 and 2 are fully inside.
        assert!(b.bin_fully_inside(1, &Inclusive(1), &Exclusive(3)));
        assert!(b.bin_fully_inside(2, &Inclusive(1), &Exclusive(3)));
        assert!(!b.bin_fully_inside(3, &Inclusive(1), &Exclusive(3)));
        // Bin 0 only fully inside when low is MIN or unbounded.
        assert!(!b.bin_fully_inside(0, &Inclusive(0), &Unbounded));
        assert!(b.bin_fully_inside(0, &Inclusive(i32::MIN), &Unbounded));
        assert!(b.bin_fully_inside(0, &Unbounded, &Exclusive(1)));
        // Top bin only fully inside when high is MAX or unbounded.
        assert!(b.bin_fully_inside(7, &Inclusive(7), &Unbounded));
        assert!(b.bin_fully_inside(7, &Inclusive(7), &Inclusive(i32::MAX)));
        assert!(!b.bin_fully_inside(7, &Inclusive(7), &Inclusive(100)));
        // Exclusive low bound on an exact border keeps the bin out.
        assert!(!b.bin_fully_inside(1, &Exclusive(1), &Unbounded));
        assert!(b.bin_fully_inside(2, &Exclusive(1), &Unbounded));
    }

    #[test]
    fn empty_sample_defaults() {
        let b = Binning::<i32>::from_sorted_sample(&[]);
        assert_eq!(b.bins(), 8);
        assert_eq!(b.bin_of(0), 0);
        assert_eq!(b.bin_of(i32::MAX), 7);
    }

    #[test]
    fn equi_width_uniform_data_matches_equi_height_roughly() {
        // On uniform data both strategies produce ~equal bins.
        let s: Vec<i64> = (0..6200).collect();
        let eh = Binning::from_sorted_sample(&s);
        let ew = Binning::equi_width_from_sorted_sample(&s);
        assert_eq!(ew.bins(), 64);
        for i in 0..62 {
            let d = (eh.borders()[i] - ew.borders()[i]).abs();
            assert!(d <= 110, "border {i}: eh {} vs ew {}", eh.borders()[i], ew.borders()[i]);
        }
    }

    #[test]
    fn equi_width_ignores_skew_equi_height_adapts() {
        // 90% of mass at small values: equi-height packs borders low,
        // equi-width spreads them evenly over the range.
        let mut s: Vec<i64> = (0..1000).collect();
        s.extend((0..9000).map(|i| i % 100));
        s.sort_unstable();
        let eh = Binning::from_sorted_sample(&s);
        let ew = Binning::equi_width_from_sorted_sample(&s);
        // Median border: equi-height far below equi-width.
        assert!(eh.borders()[31] < ew.borders()[31]);
        // Both remain valid binnings.
        for v in [0i64, 50, 500, 999, 5000] {
            assert!(eh.bin_of(v) < eh.bins());
            assert_eq!(ew.bin_of(v), bin_by_definition(&ew, v));
        }
    }

    #[test]
    fn equi_width_low_cardinality_falls_back() {
        let s: Vec<i64> = (0..20).collect();
        let eh = Binning::from_sorted_sample(&s);
        let ew = Binning::equi_width_from_sorted_sample(&s);
        assert_eq!(eh, ew);
    }

    #[test]
    fn from_column_end_to_end() {
        let col: Column<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
        let b = Binning::from_column(&col, 2048, 42);
        assert_eq!(b.bins(), 64);
        for &v in col.values().iter().take(1000) {
            let bin = b.bin_of(v);
            assert!(bin < 64);
            assert_eq!(bin, bin_by_definition(&b, v));
        }
    }
}
