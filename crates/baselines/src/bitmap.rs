//! Bit-binned bitmap index with WAH compression (§6).
//!
//! "For the bit-binning approach of bitmaps, the bins used are identical to
//! those used for the imprints index … Using this binning scheme, each
//! value of the column sets the appropriate bit on a vector large enough to
//! hold all records. To compress the resulting bit-vectors we apply WAH
//! compression with word size 32 bits."
//!
//! Query evaluation (§6.3): the bins overlapping the query are decoded; the
//! result is merged through "another bit-vector aligned with the id's" so
//! no final merge/sort is needed, then ids are materialized in order. Edge
//! bins (not fully inside the range) additionally check each candidate
//! value for false positives.

use colstore::{AccessStats, Column, IdList, RangeIndex, RangePredicate, Scalar};
use imprints::binning::Binning;
use imprints::builder::BuildOptions;
use imprints::simd::{Hits, PredicateKernel};

use crate::wah::WahVector;

/// A bit-binned, WAH-compressed bitmap secondary index.
///
/// # Examples
///
/// ```
/// use colstore::{Column, RangeIndex, RangePredicate};
/// use baselines::WahBitmap;
///
/// let col: Column<i32> = (0..10_000).map(|i| (i * 13) % 500).collect();
/// let bm = WahBitmap::build(&col);
/// let ids = bm.evaluate(&col, &RangePredicate::between(100, 200));
/// assert!(ids.iter().all(|id| (100..=200).contains(&col.get(id as usize).unwrap())));
/// ```
#[derive(Debug, Clone)]
pub struct WahBitmap<T: Scalar> {
    binning: Binning<T>,
    vectors: Vec<WahVector>,
    rows: usize,
}

impl<T: Scalar> WahBitmap<T> {
    /// Builds the bitmap with the same default sampling/binning as the
    /// imprints index.
    pub fn build(col: &Column<T>) -> Self {
        let opts = BuildOptions::default();
        let binning = Binning::from_column(col, opts.sample_size, opts.seed);
        Self::build_with_binning(col, binning)
    }

    /// Builds the bitmap over an explicit binning (the evaluation shares
    /// one binning between imprints and WAH for fairness).
    pub fn build_with_binning(col: &Column<T>, binning: Binning<T>) -> Self {
        let bins = binning.bins();
        let mut vectors = vec![WahVector::new(); bins];
        for (row, &v) in col.values().iter().enumerate() {
            let bin = binning.bin_of(v);
            let vec = &mut vectors[bin];
            // Deferred zero runs keep construction O(n): each row appends
            // one run + one bit to exactly one vector.
            vec.pad_to(row as u64);
            vec.push(true);
        }
        for vec in &mut vectors {
            vec.pad_to(col.len() as u64);
        }
        WahBitmap { binning, vectors, rows: col.len() }
    }

    /// The shared histogram binning.
    pub fn binning(&self) -> &Binning<T> {
        &self.binning
    }

    /// Number of bin vectors.
    pub fn bin_count(&self) -> usize {
        self.vectors.len()
    }

    /// The WAH vector of bin `i`.
    pub fn bin_vector(&self, i: usize) -> &WahVector {
        &self.vectors[i]
    }

    /// The bin walk (§6.3): decodes the bins overlapping the kernel's
    /// predicate into one id-aligned result bitvector — inner bins ORed in
    /// wholesale, edge-bin candidates (scattered ids, so the kernel's
    /// per-value check) weeded for false positives — and emits it into
    /// `hits` word by word, which materializes ids in order or popcounts.
    pub fn run(
        &self,
        col: &Column<T>,
        kernel: &PredicateKernel<T>,
        mut hits: Hits,
    ) -> (Hits, AccessStats) {
        assert_eq!(col.len(), self.rows, "index does not cover this column");
        let mut stats = AccessStats::default();
        if kernel.is_empty() || self.rows == 0 {
            return (hits, stats);
        }
        let pred = kernel.predicate();
        let mut result = vec![0u64; self.rows.div_ceil(64)];
        let (bin_lo, bin_hi) = self.binning.bin_span(pred);
        let values = col.values();
        for bin in bin_lo..=bin_hi {
            let vec = &self.vectors[bin];
            if self.binning.bin_fully_inside(bin, pred.low(), pred.high()) {
                // Inner bin: every set bit qualifies.
                stats.index_probes += vec.or_into(&mut result);
            } else {
                // Edge bin: candidates need the false-positive check.
                stats.index_probes += vec.word_count() as u64 + 1;
                for id in vec.ones() {
                    stats.value_comparisons += 1;
                    if kernel.matches(&values[id as usize]) {
                        result[(id / 64) as usize] |= 1 << (id % 64);
                    }
                }
            }
        }
        for (w, &word) in result.iter().enumerate() {
            hits.emit_mask(w as u64 * 64, word);
        }
        (hits, stats)
    }

    /// Counts matching rows without materializing ids: [`WahBitmap::run`]
    /// into a counting sink — the same bin walk and [`AccessStats`] as
    /// [`RangeIndex::evaluate_with_stats`], the result bitvector
    /// popcounted instead of turned into an id list.
    pub fn count_with_stats(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (u64, AccessStats) {
        let (hits, stats) = self.run(col, &PredicateKernel::new(pred), Hits::new(true));
        (hits.len(), stats)
    }
}

impl<T: Scalar> RangeIndex<T> for WahBitmap<T> {
    fn name(&self) -> &'static str {
        "wah"
    }

    fn size_bytes(&self) -> usize {
        self.vectors.iter().map(WahVector::size_bytes).sum::<usize>()
            + std::mem::size_of::<T>() * imprints::MAX_BINS
            + std::mem::size_of::<usize>()
    }

    fn evaluate_with_stats(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (IdList, AccessStats) {
        let (hits, stats) = self.run(col, &PredicateKernel::new(pred), Hits::new(false));
        (hits.into_ids(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle<T: Scalar>(col: &Column<T>, pred: &RangePredicate<T>) -> Vec<u64> {
        col.values()
            .iter()
            .enumerate()
            .filter(|(_, v)| pred.matches(v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    #[test]
    fn each_row_sets_exactly_one_bin() {
        let col: Column<i32> = (0..5000).map(|i| i % 77).collect();
        let bm = WahBitmap::build(&col);
        let total: u64 = (0..bm.bin_count()).map(|i| bm.bin_vector(i).count_ones()).sum();
        assert_eq!(total, 5000);
        for i in 0..bm.bin_count() {
            assert_eq!(bm.bin_vector(i).len(), 5000);
        }
    }

    #[test]
    fn matches_oracle_many_predicates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let col: Column<i64> = (0..20_000).map(|_| rng.gen_range(0..3000)).collect();
        let bm = WahBitmap::build(&col);
        for _ in 0..25 {
            let a = rng.gen_range(-100..3100);
            let b = rng.gen_range(-100..3100);
            let pred = RangePredicate::between(a.min(b), a.max(b));
            assert_eq!(bm.evaluate(&col, &pred).as_slice(), oracle(&col, &pred), "{pred}");
        }
        for pred in [
            RangePredicate::all(),
            RangePredicate::less_than(500),
            RangePredicate::at_least(2999),
            RangePredicate::equals(1234),
            RangePredicate::between(7, 3),
        ] {
            assert_eq!(bm.evaluate(&col, &pred).as_slice(), oracle(&col, &pred), "{pred}");
        }
    }

    #[test]
    fn float_bitmap_with_specials() {
        let mut vals: Vec<f64> = (0..4000).map(|i| (i as f64).sqrt()).collect();
        vals[7] = f64::NAN;
        vals[8] = f64::NEG_INFINITY;
        let col: Column<f64> = Column::from(vals);
        let bm = WahBitmap::build(&col);
        for pred in [
            RangePredicate::between(10.0, 30.0),
            RangePredicate::less_than(1.0),
            RangePredicate::all(),
        ] {
            assert_eq!(bm.evaluate(&col, &pred).as_slice(), oracle(&col, &pred));
        }
    }

    #[test]
    fn low_cardinality_compresses_well() {
        // Two distinct values in long runs: WAH at its best.
        let col: Column<u8> = (0..100_000).map(|i| (i / 50_000) as u8).collect();
        let bm = WahBitmap::build(&col);
        assert!(
            bm.size_bytes() < 2000,
            "two-value clustered column should compress to almost nothing, got {}",
            bm.size_bytes()
        );
    }

    #[test]
    fn random_data_defeats_wah() {
        // Uniform random doubles: literals everywhere, ~64 bits per value
        // across the bin vectors (the paper's §6.2 WAH pathology).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let col: Column<f64> = (0..50_000).map(|_| rng.gen::<f64>()).collect();
        let bm = WahBitmap::build(&col);
        let column_bytes = col.data_bytes();
        assert!(
            bm.size_bytes() > column_bytes / 4,
            "uniform data should make WAH large: {} vs column {}",
            bm.size_bytes(),
            column_bytes
        );
    }

    #[test]
    fn inner_bins_need_no_comparisons() {
        let col: Column<i32> = (0..50_000).map(|i| i % 1000).collect();
        let bm = WahBitmap::build(&col);
        // A range spanning the full domain: everything inner.
        let (ids, stats) = bm.evaluate_with_stats(&col, &RangePredicate::all());
        assert_eq!(ids.len(), 50_000);
        assert_eq!(stats.value_comparisons, 0);
    }

    #[test]
    fn shares_binning_with_imprints() {
        let col: Column<i32> = (0..30_000).map(|i| (i * 7) % 900).collect();
        let idx = imprints::ColumnImprints::build(&col);
        let bm = WahBitmap::build_with_binning(&col, idx.binning().clone());
        assert_eq!(bm.binning().borders(), idx.binning().borders());
        let pred = RangePredicate::between(100, 200);
        assert_eq!(bm.evaluate(&col, &pred), idx.evaluate(&col, &pred));
    }

    #[test]
    fn empty_column() {
        let col: Column<i16> = Column::new();
        let bm = WahBitmap::build(&col);
        assert!(bm.evaluate(&col, &RangePredicate::all()).is_empty());
    }

    #[test]
    fn probes_exceed_zonemap_style_probes() {
        // WAH probes count decoded words across all relevant bins: for a
        // mid-selectivity query this is far more than one probe per line.
        let col: Column<i32> = (0..64_000).map(|i| (i * 31) % 4096).collect();
        let bm = WahBitmap::build(&col);
        let (_, stats) = bm.evaluate_with_stats(&col, &RangePredicate::between(1000, 3000));
        let lines = colstore::cacheline_count::<i32>(col.len()) as u64;
        assert!(
            stats.index_probes > lines,
            "WAH probes {} should exceed the {} cachelines",
            stats.index_probes,
            lines
        );
    }
}
