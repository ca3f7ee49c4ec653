//! Incremental tail imprints over the open write head.
//!
//! Sealed segments carry full secondary indexes, but the *open* segment —
//! the write head — historically answered queries by scanning its buffers
//! linearly under the open read lock, up to a whole segment of rows per
//! predicate. This module gives each open column buffer an **updatable
//! imprint** built on the §4.1 append support of
//! [`ColumnImprints::append`](imprints::ColumnImprints::append): appends
//! extend the imprint vectors without readjusting bin borders, so the
//! index grows in O(new rows) while the open write lock is already held,
//! and queries skip non-qualifying cachelines of the write head exactly
//! like they do on sealed segments.
//!
//! Lifecycle (driven by [`Table`](crate::table::Table)):
//!
//! 1. Below [`EngineConfig::tail_index_min_rows`](crate::EngineConfig)
//!    open rows, no tail index exists — a tiny head is cheaper to scan
//!    than to index, and the bin sample would be too thin to
//!    discriminate.
//! 2. Crossing the threshold, [`AnyTailIndex::build`] samples the rows
//!    accumulated so far — real data, not guesses — and every subsequent
//!    append goes through [`AnyTailIndex::extend`].
//! 3. When appended data drifts off the sampled domain or saturates the
//!    vectors ([`AnyTailIndex::needs_rebuild`], the paper's §4.1 drift
//!    signal), [`AnyTailIndex::rebuild`] re-samples over the current
//!    buffer — bounded work, at most one segment of rows.
//! 4. At seal the tail index is discarded: the sealed segment builds its
//!    real per-segment imprint, binned from a fresh sample of the full
//!    segment's rows, which the tail index never tries to replace.
//!
//! Unlike sealed segment columns — whose selectivity-bucketed
//! [`PathChooser`](crate::paths::PathChooser) arbitrates between imprint,
//! zonemap and scan — the write head deliberately stays imprint-only: its
//! buffer mutates under the open write lock on every append, so any
//! additional per-head structure (a zonemap, say) would need the same
//! incremental-extend treatment for marginal gain on at most one segment
//! of rows, and cost-model state learned on a buffer that is discarded at
//! seal would never amortize.

use colstore::relation::AnyColumn;
use colstore::{AccessStats, IdList};
use imprints::relation_index::ValueSet;
use imprints::simd::{Hits, PredicateKernel, RefineKernel};
use imprints::{query, ColumnImprints};

/// The tail imprint of one open column buffer, of whichever scalar type
/// the buffer holds (mirrors [`AnyColumn`]'s variants).
#[derive(Debug, Clone)]
pub enum AnyTailIndex {
    /// Tail imprint over an `i8` buffer.
    I8(ColumnImprints<i8>),
    /// Tail imprint over a `u8` buffer.
    U8(ColumnImprints<u8>),
    /// Tail imprint over an `i16` buffer.
    I16(ColumnImprints<i16>),
    /// Tail imprint over a `u16` buffer.
    U16(ColumnImprints<u16>),
    /// Tail imprint over an `i32` buffer.
    I32(ColumnImprints<i32>),
    /// Tail imprint over a `u32` buffer.
    U32(ColumnImprints<u32>),
    /// Tail imprint over an `i64` buffer.
    I64(ColumnImprints<i64>),
    /// Tail imprint over a `u64` buffer.
    U64(ColumnImprints<u64>),
    /// Tail imprint over an `f32` buffer.
    F32(ColumnImprints<f32>),
    /// Tail imprint over an `f64` buffer.
    F64(ColumnImprints<f64>),
}

/// Dispatches on the (tail index, column buffer) pair, which are the same
/// variant by construction — the table builds each tail from its own
/// buffer and never mixes columns.
macro_rules! tail_pair {
    ($idx:expr, $buf:expr, ($i:ident, $c:ident) => $body:expr) => {
        match ($idx, $buf) {
            (AnyTailIndex::I8($i), AnyColumn::I8($c)) => $body,
            (AnyTailIndex::U8($i), AnyColumn::U8($c)) => $body,
            (AnyTailIndex::I16($i), AnyColumn::I16($c)) => $body,
            (AnyTailIndex::U16($i), AnyColumn::U16($c)) => $body,
            (AnyTailIndex::I32($i), AnyColumn::I32($c)) => $body,
            (AnyTailIndex::U32($i), AnyColumn::U32($c)) => $body,
            (AnyTailIndex::I64($i), AnyColumn::I64($c)) => $body,
            (AnyTailIndex::U64($i), AnyColumn::U64($c)) => $body,
            (AnyTailIndex::F32($i), AnyColumn::F32($c)) => $body,
            (AnyTailIndex::F64($i), AnyColumn::F64($c)) => $body,
            _ => unreachable!("tail index type mismatch with its column buffer"),
        }
    };
}

macro_rules! tail_dispatch {
    ($any:expr, $i:ident => $body:expr) => {
        match $any {
            AnyTailIndex::I8($i) => $body,
            AnyTailIndex::U8($i) => $body,
            AnyTailIndex::I16($i) => $body,
            AnyTailIndex::U16($i) => $body,
            AnyTailIndex::I32($i) => $body,
            AnyTailIndex::U32($i) => $body,
            AnyTailIndex::I64($i) => $body,
            AnyTailIndex::U64($i) => $body,
            AnyTailIndex::F32($i) => $body,
            AnyTailIndex::F64($i) => $body,
        }
    };
}

impl AnyTailIndex {
    /// Builds a tail imprint over `buf`'s current contents, sampling bin
    /// borders from the rows the head has actually accumulated.
    pub fn build(buf: &AnyColumn) -> AnyTailIndex {
        macro_rules! arm {
            ($($v:ident),+) => {
                match buf {
                    $(AnyColumn::$v(c) => AnyTailIndex::$v(ColumnImprints::build(c)),)+
                }
            };
        }
        arm!(I8, U8, I16, U16, I32, U32, I64, U64, F32, F64)
    }

    /// Extends the imprint for the rows `from..buf.len()` that the caller
    /// just appended to `buf` (§4.1: existing vectors are never touched).
    /// Must run under the same open write lock as the buffer append so
    /// readers never observe index and buffer out of sync.
    pub fn extend(&mut self, buf: &AnyColumn, from: usize) {
        tail_pair!(self, buf, (i, c) => {
            i.append(&c.values()[from..]);
        });
    }

    /// Rows covered by the tail imprint (must equal the buffer length
    /// outside the open write critical section).
    pub fn rows(&self) -> usize {
        tail_dispatch!(self, i => i.rows())
    }

    /// Whether appended rows drifted off the sampled domain enough that
    /// the imprint stopped discriminating — the O(1) §4.1 overflow-drift
    /// half of core's rebuild heuristic only. The saturation sweep of
    /// [`ColumnImprints::needs_rebuild`] is deliberately *not* consulted:
    /// this check runs once per append batch under the open write lock,
    /// where an O(stored vectors) popcount per chunk would make trickle
    /// appends quadratic in head size and stall concurrent readers.
    pub fn needs_rebuild(&self) -> bool {
        tail_dispatch!(self, i => i.append_drift_excessive())
    }

    /// Re-samples bin borders over the buffer's current contents —
    /// bounded by one segment of rows, run under the open write lock.
    pub fn rebuild(&mut self, buf: &AnyColumn) {
        tail_pair!(self, buf, (i, c) => {
            *i = i.rebuild(c);
        });
    }

    /// Index bytes of the tail imprint (storage accounting).
    pub fn size_bytes(&self) -> usize {
        tail_dispatch!(self, i => i.size_bytes())
    }

    /// Evaluates a whole [`ValueSet`] over the write head through the
    /// imprint, returning matching buffer-local row ids: the union of each
    /// term's Algorithm 3 walk ([`query::run`]). IN-lists and OR arms ride
    /// the tail imprint term by term, so the head path never falls back to
    /// a linear scan just because a predicate has more than one interval.
    /// Checked head cachelines are weeded by the table's refinement kernel
    /// ([`imprints::simd`]) exactly like sealed-segment lines, so the tail
    /// path's false-positive cost rides the same SWAR/scalar switch.
    pub fn evaluate_set(
        &self,
        buf: &AnyColumn,
        set: &ValueSet,
        kernel: RefineKernel,
    ) -> (IdList, AccessStats) {
        let mut stats = AccessStats::default();
        let mut acc = IdList::new();
        for term in &set.terms {
            let ids = tail_pair!(self, buf, (i, c) => {
                let pred = term.to_predicate().expect("predicate validated against schema");
                let kernel = PredicateKernel::with_kernel(&pred, kernel);
                let (hits, s) = query::run(i, c, &kernel, Hits::new(false));
                stats.merge(&s.access);
                hits.into_ids()
            });
            acc = acc.union(&ids);
        }
        (acc, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::Value;
    use imprints::relation_index::ValueRange;

    fn oracle(values: &[i64], lo: i64, hi: i64) -> Vec<u64> {
        values
            .iter()
            .enumerate()
            .filter(|(_, v)| (lo..=hi).contains(*v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    #[test]
    fn build_extend_evaluate_matches_oracle() {
        let mut values: Vec<i64> = (0..3000).map(|i| (i * 17) % 900).collect();
        let buf = AnyColumn::I64(values.iter().copied().collect());
        let mut tail = AnyTailIndex::build(&buf);
        assert_eq!(tail.rows(), 3000);
        // Append in odd-sized batches, extending the tail index like the
        // table's append path does.
        let mut buf = buf;
        for batch in [7usize, 501, 64] {
            let from = values.len();
            let extra: Vec<i64> = (0..batch).map(|i| ((from + i) as i64 * 13) % 900).collect();
            values.extend_from_slice(&extra);
            buf.extend_from_range(&AnyColumn::I64(extra.into_iter().collect()), 0..batch).unwrap();
            tail.extend(&buf, from);
            assert_eq!(tail.rows(), values.len());
        }
        for (lo, hi) in [(0, 50), (100, 899), (890, 2000), (-5, -1)] {
            let range = ValueRange::between(Value::I64(lo), Value::I64(hi));
            let (ids, _) = tail.evaluate_set(&buf, &ValueSet::range(range), RefineKernel::Auto);
            assert_eq!(ids.as_slice(), oracle(&values, lo, hi).as_slice(), "[{lo}, {hi}]");
        }
    }

    #[test]
    fn drifted_appends_trigger_rebuild_and_stay_correct() {
        let base: Vec<i64> = (0..2048).collect();
        let mut buf = AnyColumn::I64(base.iter().copied().collect());
        let mut tail = AnyTailIndex::build(&buf);
        // Appends far outside the sampled domain: overflow drift.
        let shifted: Vec<i64> = (0..2048).map(|i| 1_000_000 + i).collect();
        let from = buf.len();
        buf.extend_from_range(&AnyColumn::I64(shifted.iter().copied().collect()), 0..shifted.len())
            .unwrap();
        tail.extend(&buf, from);
        assert!(tail.needs_rebuild(), "wholesale domain shift must trip the drift heuristic");
        tail.rebuild(&buf);
        assert!(!tail.needs_rebuild());
        let all: Vec<i64> = base.iter().chain(&shifted).copied().collect();
        let range = ValueRange::between(Value::I64(1_000_100), Value::I64(1_000_200));
        let (ids, stats) = tail.evaluate_set(&buf, &ValueSet::range(range), RefineKernel::Auto);
        assert_eq!(ids.as_slice(), oracle(&all, 1_000_100, 1_000_200).as_slice());
        assert!(stats.lines_skipped > 0, "rebuilt borders must let the head skip lines");
    }

    #[test]
    fn skips_cachelines_on_clustered_head() {
        let values: Vec<i64> = (0..32_768).collect();
        let buf = AnyColumn::I64(values.iter().copied().collect());
        let tail = AnyTailIndex::build(&buf);
        let range = ValueRange::between(Value::I64(100), Value::I64(200));
        let (ids, stats) = tail.evaluate_set(&buf, &ValueSet::range(range), RefineKernel::Auto);
        assert_eq!(ids.as_slice(), oracle(&values, 100, 200).as_slice());
        assert!(
            stats.value_comparisons < values.len() as u64 / 10,
            "tail imprint must not degenerate into a scan ({} comparisons)",
            stats.value_comparisons
        );
    }
}
