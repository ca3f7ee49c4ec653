//! The common interface all secondary indexes implement.
//!
//! The paper's evaluation (§6) compares column imprints, zonemaps, WAH
//! bitmaps and a sequential scan "coded with the same rigidity": every
//! approach answers the same [`RangePredicate`] over the same
//! [`Column`] and returns the same materialized, ordered
//! [`IdList`]. [`RangeIndex`] pins down that contract, plus the
//! implementation-independent statistics of Figure 11 (index probes and
//! value comparisons) via [`AccessStats`].

use crate::column::Column;
use crate::idlist::IdList;
use crate::predicate::RangePredicate;
use crate::types::Scalar;

/// Implementation-independent cost counters (paper §6.3, Figure 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Number of index entries inspected: imprint vectors ANDed, zones
    /// min/max-compared, or WAH words decoded.
    pub index_probes: u64,
    /// Number of column values compared against the predicate (false
    /// positive weeding; for the scan this is every value).
    pub value_comparisons: u64,
    /// Cachelines whose data was actually touched.
    pub lines_fetched: u64,
    /// Cachelines skipped entirely thanks to the index.
    pub lines_skipped: u64,
}

impl AccessStats {
    /// Probes normalized by the number of rows (the y-axis of Fig. 11 top).
    pub fn probes_per_row(&self, rows: usize) -> f64 {
        if rows == 0 {
            0.0
        } else {
            self.index_probes as f64 / rows as f64
        }
    }

    /// Comparisons normalized by the number of rows (Fig. 11 bottom).
    pub fn comparisons_per_row(&self, rows: usize) -> f64 {
        if rows == 0 {
            0.0
        } else {
            self.value_comparisons as f64 / rows as f64
        }
    }

    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.index_probes += other.index_probes;
        self.value_comparisons += other.value_comparisons;
        self.lines_fetched += other.lines_fetched;
        self.lines_skipped += other.lines_skipped;
    }
}

/// A secondary index (or pseudo-index, for the scan baseline) answering
/// range queries over one column with materialized id lists.
pub trait RangeIndex<T: Scalar> {
    /// Short name used in benchmark reports ("imprints", "zonemap", …).
    fn name(&self) -> &'static str;

    /// Bytes occupied by the index structure itself (the storage-overhead
    /// metric of Figures 5–7). Excludes the column data.
    fn size_bytes(&self) -> usize;

    /// Evaluates `pred`, returning the ordered ids of qualifying rows and
    /// the access statistics of the evaluation.
    fn evaluate_with_stats(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (IdList, AccessStats);

    /// Evaluates `pred`, returning only the ordered id list.
    fn evaluate(&self, col: &Column<T>, pred: &RangePredicate<T>) -> IdList {
        self.evaluate_with_stats(col, pred).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_normalization() {
        let s = AccessStats {
            index_probes: 50,
            value_comparisons: 200,
            lines_fetched: 10,
            lines_skipped: 90,
        };
        assert_eq!(s.probes_per_row(100), 0.5);
        assert_eq!(s.comparisons_per_row(100), 2.0);
        assert_eq!(s.probes_per_row(0), 0.0);
        assert_eq!(s.comparisons_per_row(0), 0.0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = AccessStats {
            index_probes: 1,
            value_comparisons: 2,
            lines_fetched: 3,
            lines_skipped: 4,
        };
        let b = AccessStats {
            index_probes: 10,
            value_comparisons: 20,
            lines_fetched: 30,
            lines_skipped: 40,
        };
        a.merge(&b);
        assert_eq!(a.index_probes, 11);
        assert_eq!(a.value_comparisons, 22);
        assert_eq!(a.lines_fetched, 33);
        assert_eq!(a.lines_skipped, 44);
    }
}
