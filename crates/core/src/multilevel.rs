//! Multi-level imprints (§7 future work).
//!
//! "Akin to prevailing techniques … a multi-level imprints organization may
//! lead to further improvements." This module adds a second level on top of
//! [`ColumnImprints`]: the column's cachelines are grouped into *blocks* of
//! `fanout` lines, and each block stores the OR of its line imprints. A
//! query first ANDs its mask against the level-2 vector; only blocks that
//! may contain matches descend into the level-1 dictionary walk, resumed
//! from a precomputed per-block cursor.
//!
//! The second level is a *run source*, not an evaluator: it decides, per
//! block, which runs Algorithm 3's one walk ([`crate::query::probe`]) gets
//! to see — the block's level-2 vector as a single run the probe skips
//! whole, or the block's level-1 runs ([`ColumnImprints::runs_at`]) — and
//! the skip / emit / value-check decision, the refinement kernel, the
//! result sink and the accounting are the base index's own.
//!
//! For selective queries over large columns this cuts level-1 probes by up
//! to `fanout×`, at a storage cost of `8 + 12` bytes per block (vector +
//! cursor). At the default fanout of 64 a block spans 64 cachelines, 4,096
//! bytes of column data, so the second level adds 20 / 4,096 ≈ 0.49% of
//! the column's data size.

use colstore::{AccessStats, Column, IdList, RangeIndex, RangePredicate, Scalar};

use crate::index::{ColumnImprints, Run, RunCursor};
use crate::masks;
use crate::query::{self, ImprintStats};
use crate::simd::{Hits, PredicateKernel};

/// Default number of cachelines per level-2 block.
pub const DEFAULT_FANOUT: u64 = 64;

/// A two-level column imprints index.
///
/// # Examples
///
/// ```
/// use colstore::{Column, RangeIndex, RangePredicate};
/// use imprints::multilevel::MultiLevelImprints;
///
/// let col: Column<i64> = (0..1_000_000).map(|i| i / 8).collect();
/// let idx = MultiLevelImprints::build(&col);
/// let ids = idx.evaluate(&col, &RangePredicate::between(100, 200));
/// assert_eq!(ids.len(), 808);
/// ```
#[derive(Debug, Clone)]
pub struct MultiLevelImprints<T: Scalar> {
    base: ColumnImprints<T>,
    fanout: u64,
    level2: Vec<u64>,
    /// Where in the level-1 structure each block's first line lives.
    cursors: Vec<RunCursor>,
}

impl<T: Scalar> MultiLevelImprints<T> {
    /// Builds base imprints plus the level-2 structure with the default
    /// fanout.
    pub fn build(col: &Column<T>) -> Self {
        Self::from_base(ColumnImprints::build(col), DEFAULT_FANOUT)
    }

    /// Wraps an existing level-1 index with a level-2 of `fanout` lines per
    /// block.
    ///
    /// # Panics
    /// Panics if `fanout == 0`.
    pub fn from_base(base: ColumnImprints<T>, fanout: u64) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        let total_lines = base.line_count();
        let n_blocks = total_lines.div_ceil(fanout) as usize;
        let mut level2 = vec![0u64; n_blocks];
        let mut cursors = Vec::with_capacity(n_blocks);
        // One level-1 walk, cut at every block boundary: the cursor there
        // is the block's entry point, the runs up to the next boundary OR
        // into its vector.
        let mut runs = base.runs();
        for (b, vector) in level2.iter_mut().enumerate() {
            cursors.push(runs.cursor());
            let block_end = (b as u64 + 1) * fanout;
            while let Some(run) = runs.next_before(block_end) {
                for v in run.vectors() {
                    *vector |= v;
                }
            }
        }
        MultiLevelImprints { base, fanout, level2, cursors }
    }

    /// The wrapped level-1 index.
    pub fn base(&self) -> &ColumnImprints<T> {
        &self.base
    }

    /// Cachelines per level-2 block.
    pub fn fanout(&self) -> u64 {
        self.fanout
    }

    /// Number of level-2 blocks.
    pub fn block_count(&self) -> usize {
        self.level2.len()
    }

    /// The level-2 vector of block `b` (OR of its line imprints).
    pub fn block_vector(&self, b: usize) -> u64 {
        self.level2[b]
    }

    /// Block `b` as the probe sees it: descended into, its level-1 runs —
    /// resumed from the block's cursor, cut at the block's end; otherwise
    /// one run carrying its level-2 vector.
    fn block_runs(&self, b: usize, descend: bool) -> impl Iterator<Item = Run<'_>> + '_ {
        let first_line = b as u64 * self.fanout;
        let end = (first_line + self.fanout).min(self.base.line_count());
        let mut level1 = self.base.runs_at(self.cursors[b], first_line);
        let mut whole =
            Some(Run::Repeat { imprint: self.level2[b], first_line, line_count: end - first_line });
        std::iter::from_fn(move || if descend { level1.next_before(end) } else { whole.take() })
    }

    /// Algorithm 3 through both levels into `hits`: the one imprint walk
    /// ([`query::probe`]) fed, block by block, with either a single run
    /// carrying the level-2 vector — no bit in common with `mask`, so the
    /// probe skips the whole block at once — or the block's level-1 runs,
    /// resumed from its cursor and cut at its end. Level-2 probes are
    /// counted in `access.index_probes` together with the level-1 probes.
    ///
    /// # Panics
    /// Panics if `col` does not have the indexed column's length.
    pub fn run(
        &self,
        col: &Column<T>,
        kernel: &PredicateKernel<T>,
        hits: Hits,
    ) -> (Hits, ImprintStats) {
        let masks = masks::make_masks(self.base.binning(), kernel.predicate());
        let mut descents = 0u64;
        let runs = (0..self.level2.len()).flat_map(|b| {
            let descend = self.level2[b] & masks.mask != 0;
            descents += u64::from(descend);
            self.block_runs(b, descend)
        });
        let (hits, mut stats) = query::walk(&self.base, runs, col, kernel, masks, hits);
        // The walk billed the level-2 probes that skipped their block; the
        // ones that chose to descend were probes too.
        stats.access.index_probes += descents;
        (hits, stats)
    }

    /// Evaluates a range predicate, returning ids and statistics. Identical
    /// answers to the level-1 [`crate::query::evaluate`].
    pub fn evaluate_with_imprint_stats(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (IdList, ImprintStats) {
        let (hits, stats) = self.run(col, &PredicateKernel::new(pred), Hits::new(false));
        (hits.into_ids(), stats)
    }

    /// Bytes of the two-level structure: level-1 plus block vectors and
    /// cursors.
    pub fn size_bytes(&self) -> usize {
        RangeIndex::size_bytes(&self.base)
            + self.level2.len() * 8
            + self.cursors.len() * std::mem::size_of::<RunCursor>()
    }
}

impl<T: Scalar> RangeIndex<T> for MultiLevelImprints<T> {
    fn name(&self) -> &'static str {
        "imprints-2level"
    }

    fn size_bytes(&self) -> usize {
        MultiLevelImprints::size_bytes(self)
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
    use crate::query;

    fn oracle<T: Scalar>(col: &Column<T>, pred: &RangePredicate<T>) -> Vec<u64> {
        col.values()
            .iter()
            .enumerate()
            .filter(|(_, v)| pred.matches(v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    #[test]
    fn block_vectors_are_or_of_lines() {
        let col: Column<i32> = (0..10_000).map(|i| (i * 13) % 777).collect();
        let ml = MultiLevelImprints::from_base(ColumnImprints::build(&col), 16);
        let lines: Vec<u64> = ml.base().line_imprints().collect();
        for (b, chunk) in lines.chunks(16).enumerate() {
            let expect = chunk.iter().fold(0u64, |a, &v| a | v);
            assert_eq!(ml.block_vector(b), expect, "block {b}");
        }
        assert_eq!(ml.block_count(), lines.len().div_ceil(16));
    }

    #[test]
    fn answers_identical_to_level1() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..10 {
            let n = rng.gen_range(1..40_000);
            let card = rng.gen_range(1..3000);
            let col: Column<i64> = (0..n).map(|_| rng.gen_range(0..card)).collect();
            let base = ColumnImprints::build(&col);
            for fanout in [1u64, 7, 64, 1000] {
                let ml = MultiLevelImprints::from_base(base.clone(), fanout);
                for _ in 0..5 {
                    let a = rng.gen_range(0..card);
                    let b = rng.gen_range(0..card);
                    let pred = RangePredicate::between(a.min(b), a.max(b));
                    let (l1, _) = query::evaluate(&base, &col, &pred);
                    let (l2, _) = ml.evaluate_with_imprint_stats(&col, &pred);
                    assert_eq!(l1, l2, "fanout {fanout}, pred {pred}");
                    assert_eq!(l2.as_slice(), oracle(&col, &pred));
                }
            }
        }
    }

    #[test]
    fn level2_probe_overhead_is_bounded() {
        // On perfectly RLE-compressed data level-2 cannot help (level-1
        // already probes once per long run), but its overhead is bounded by
        // one probe per block.
        let col: Column<u8> = (0..64 * 65_536).map(|i| (i / 65_536) as u8).collect();
        let base = ColumnImprints::build(&col);
        let ml = MultiLevelImprints::from_base(base.clone(), 64);
        let pred = RangePredicate::equals(3);
        let (r1, s1) = query::evaluate(&base, &col, &pred);
        let (r2, s2) = ml.evaluate_with_imprint_stats(&col, &pred);
        assert_eq!(r1, r2);
        assert!(
            s2.access.index_probes <= s1.access.index_probes + ml.block_count() as u64,
            "2-level probes {} vs flat {} + {} blocks",
            s2.access.index_probes,
            s1.access.index_probes,
            ml.block_count()
        );
    }

    #[test]
    fn level2_cuts_probes_when_rle_is_poor() {
        // Locally clustered data whose per-line noise defeats the RLE:
        // values drift slowly (locality spans a couple of bins) but
        // neighbouring lines have distinct imprints, so level-1 stores
        // nearly every line. Level-2 then skips whole blocks with one probe.
        // Domain ~0..62k (bin width ~1k); a slow full-domain sweep plus
        // ~2.5-bin noise per row.
        let n = 400_000u64;
        let col: Column<i64> = (0..n)
            .map(|i| {
                let base = i * 59_500 / n;
                let noise = i.wrapping_mul(2_654_435_761) % 2_500;
                (base + noise) as i64
            })
            .collect();
        let base = ColumnImprints::build(&col);
        let ml = MultiLevelImprints::from_base(base.clone(), 64);
        assert!(
            base.compression_ratio() > 0.3,
            "data must defeat the RLE, ratio {}",
            base.compression_ratio()
        );
        // A selective query at one end of the domain.
        let pred = RangePredicate::between(0, 3_000);
        let (r1, s1) = query::evaluate(&base, &col, &pred);
        let (r2, s2) = ml.evaluate_with_imprint_stats(&col, &pred);
        assert_eq!(r1, r2);
        assert!(
            s2.access.index_probes * 2 < s1.access.index_probes,
            "expected ≥2x probe cut: 2-level {} vs flat {}",
            s2.access.index_probes,
            s1.access.index_probes
        );
    }

    #[test]
    fn partial_tail_and_odd_fanout() {
        let col: Column<i32> = (0..1003).collect(); // 62 lines + 11-value tail
        let ml = MultiLevelImprints::from_base(ColumnImprints::build(&col), 7);
        let pred = RangePredicate::at_least(1000);
        let (ids, _) = ml.evaluate_with_imprint_stats(&col, &pred);
        assert_eq!(ids.as_slice(), &[1000, 1001, 1002]);
        assert_eq!(ml.block_count(), 63usize.div_ceil(7));
    }

    #[test]
    fn empty_column() {
        let col: Column<i32> = Column::new();
        let ml = MultiLevelImprints::build(&col);
        assert_eq!(ml.block_count(), 0);
        let (ids, _) = ml.evaluate_with_imprint_stats(&col, &RangePredicate::all());
        assert!(ids.is_empty());
    }

    #[test]
    fn size_overhead_is_tiny() {
        let col: Column<i64> = (0..1_000_000).map(|i| i % 50_000).collect();
        let base = ColumnImprints::build(&col);
        let ml = MultiLevelImprints::from_base(base.clone(), 64);
        let extra = ml.size_bytes() - RangeIndex::size_bytes(&base);
        assert!(extra < col.data_bytes() / 200, "level-2 overhead {extra} too large");
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn zero_fanout_rejected() {
        let col: Column<i32> = (0..100).collect();
        let _ = MultiLevelImprints::from_base(ColumnImprints::build(&col), 0);
    }
}
