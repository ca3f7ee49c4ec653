//! Sequential scan baseline (§6).
//!
//! The absolute reference point of the evaluation: check every value,
//! materialize every qualifying id. Zero index storage, zero index probes,
//! one comparison per row. Modern optimizers fall back to this plan for
//! low-selectivity predicates — exactly the crossover Figures 8–10 chart.
//!
//! The full-column value check routes through the shared refinement
//! kernels of [`imprints::simd`]: [`SeqScan::run`] takes one compiled
//! [`PredicateKernel`] (vector or the scalar oracle loop) and a [`Hits`]
//! sink, so materializing and counting are the same pass. A predicate that
//! can match nothing examines no data and reports zero
//! comparisons/fetches.

use colstore::{AccessStats, Column, IdList, RangeIndex, RangePredicate, Scalar};
use imprints::simd::{Hits, PredicateKernel};

/// The sequential-scan pseudo-index.
///
/// # Examples
///
/// ```
/// use colstore::{Column, RangeIndex, RangePredicate};
/// use baselines::SeqScan;
///
/// let col: Column<i32> = (0..100).collect();
/// let ids = SeqScan::new(&col).evaluate(&col, &RangePredicate::less_than(3));
/// assert_eq!(ids.as_slice(), &[0, 1, 2]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SeqScan {
    rows: usize,
}

impl SeqScan {
    /// Creates the scan "index" for a column (records only the row count,
    /// used for the coverage assertion).
    pub fn new<T: Scalar>(col: &Column<T>) -> Self {
        SeqScan { rows: col.len() }
    }

    /// The scan: value-checks every row of `col` with `kernel` into `hits`.
    pub fn run<T: Scalar>(
        &self,
        col: &Column<T>,
        kernel: &PredicateKernel<T>,
        mut hits: Hits,
    ) -> (Hits, AccessStats) {
        assert_eq!(col.len(), self.rows, "scan bound to a different column");
        let mut stats = AccessStats::default();
        kernel.check(col.values(), 0..col.len() as u64, &mut hits, &mut stats.value_comparisons);
        if stats.value_comparisons > 0 {
            stats.lines_fetched = col.cacheline_count() as u64;
        }
        (hits, stats)
    }

    /// Counts matching rows without materializing ids: [`SeqScan::run`]
    /// into a counting sink, so the [`AccessStats`] are exactly those of
    /// [`RangeIndex::evaluate_with_stats`].
    pub fn count_with_stats<T: Scalar>(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (u64, AccessStats) {
        let (hits, stats) = self.run(col, &PredicateKernel::new(pred), Hits::new(true));
        (hits.len(), stats)
    }
}

impl<T: Scalar> RangeIndex<T> for SeqScan {
    fn name(&self) -> &'static str {
        "scan"
    }

    fn size_bytes(&self) -> usize {
        0
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
    use imprints::simd::RefineKernel;

    #[test]
    fn scan_finds_everything() {
        let col: Column<i32> = (0..1000).map(|i| i % 10).collect();
        let scan = SeqScan::new(&col);
        let (ids, stats) = scan.evaluate_with_stats(&col, &RangePredicate::equals(3));
        assert_eq!(ids.len(), 100);
        assert_eq!(stats.value_comparisons, 1000);
        assert_eq!(stats.index_probes, 0);
        assert_eq!(<SeqScan as RangeIndex<i32>>::size_bytes(&scan), 0);
    }

    #[test]
    fn scan_empty_predicate() {
        let col: Column<f32> = (0..100).map(|i| i as f32).collect();
        let scan = SeqScan::new(&col);
        assert!(scan.evaluate(&col, &RangePredicate::between(5.0, 1.0)).is_empty());
    }

    /// Satellite regression: a predicate that can match nothing examines
    /// no values, so the scan bills zero comparisons and zero fetched
    /// lines instead of a full column's worth of phantom work.
    #[test]
    fn scan_empty_predicate_reports_zero_comparisons() {
        let col: Column<i64> = (0..1000).collect();
        let scan = SeqScan::new(&col);
        for flavour in [RefineKernel::Scalar, RefineKernel::Swar] {
            let kernel = PredicateKernel::with_kernel(&RangePredicate::between(5, 1), flavour);
            for count_only in [false, true] {
                let (hits, stats) = scan.run(&col, &kernel, Hits::new(count_only));
                assert!(hits.is_empty());
                assert_eq!(stats, AccessStats::default(), "{flavour:?}");
            }
        }
    }

    /// Scalar and SWAR scans agree byte-for-byte on ids, counts and
    /// statistics, and both agree with the row-at-a-time oracle.
    #[test]
    fn scan_kernels_agree() {
        let col: Column<i16> = (0..5003).map(|i| (i % 300) as i16 - 150).collect();
        let scan = SeqScan::new(&col);
        for pred in [
            RangePredicate::between(-20, 20),
            RangePredicate::equals(0),
            RangePredicate::all(),
            RangePredicate::less_than(i16::MIN + 1),
        ] {
            let expect = col.values().iter().filter(|v| pred.matches(v)).count() as u64;
            let scalar = PredicateKernel::with_kernel(&pred, RefineKernel::Scalar);
            let swar = PredicateKernel::with_kernel(&pred, RefineKernel::Swar);
            for count_only in [false, true] {
                let s = scan.run(&col, &scalar, Hits::new(count_only));
                assert_eq!(s, scan.run(&col, &swar, Hits::new(count_only)), "{pred}");
                assert_eq!(s.0.len(), expect, "{pred}");
            }
        }
    }

    #[test]
    fn scan_name() {
        let col: Column<u8> = Column::new();
        let scan = SeqScan::new(&col);
        assert_eq!(<SeqScan as RangeIndex<u8>>::name(&scan), "scan");
    }
}
