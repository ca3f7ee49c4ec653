//! Query bit masks (§3).
//!
//! A range query is translated into two 64-bit vectors before touching any
//! imprint:
//!
//! * **`mask`** — every bin whose range *overlaps* the query. One common
//!   bit with an imprint vector means the cacheline may hold matches.
//! * **`innermask`** — the bins whose entire range lies *inside* the query
//!   ("if a bin range contains one of the borders of the query range, the
//!   corresponding bit is not set"). If an imprint has no bits outside the
//!   `innermask`, every value of the cacheline qualifies and the
//!   false-positive check is skipped wholesale.

use colstore::{RangePredicate, Scalar};

use crate::binning::Binning;

/// The `mask` / `innermask` pair of Algorithm 3's `make_masks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMasks {
    /// Bins overlapping the query range.
    pub mask: u64,
    /// Bins fully contained in the query range (`innermask ⊆ mask`).
    pub innermask: u64,
}

impl QueryMasks {
    /// No bin can match (empty predicate range).
    pub const EMPTY: QueryMasks = QueryMasks { mask: 0, innermask: 0 };

    /// Whether an imprint vector intersects the query at all.
    #[inline]
    pub fn may_match(&self, imprint: u64) -> bool {
        imprint & self.mask != 0
    }

    /// Whether an imprint vector is fully covered by inner bins — i.e.
    /// every value in the cacheline is guaranteed to qualify.
    #[inline]
    pub fn fully_covered(&self, imprint: u64) -> bool {
        imprint & !self.innermask == 0
    }
}

/// Sets bits `lo..=hi` of a `u64`.
#[inline]
fn bit_span(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi && hi < 64);
    let width = hi - lo + 1;
    if width == 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << lo
    }
}

/// Builds the masks for `pred` against `binning`.
pub fn make_masks<T: Scalar>(binning: &Binning<T>, pred: &RangePredicate<T>) -> QueryMasks {
    if pred.is_empty_range() {
        return QueryMasks::EMPTY;
    }
    let (bin_lo, bin_hi) = binning.bin_span(pred);
    debug_assert!(bin_lo <= bin_hi);
    let mask = bit_span(bin_lo, bin_hi);
    let mut innermask = 0u64;
    for i in bin_lo..=bin_hi {
        if binning.bin_fully_inside(i, pred.low(), pred.high()) {
            innermask |= 1 << i;
        }
    }
    QueryMasks { mask, innermask }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binning_1_to_7() -> Binning<i32> {
        // Bins: 0:(..1) 1:[1,2) 2:[2,3) ... 7:[7,..)
        let s: Vec<i32> = (1..=7).collect();
        Binning::from_sorted_sample(&s)
    }

    #[test]
    fn bit_span_widths() {
        assert_eq!(bit_span(0, 0), 1);
        assert_eq!(bit_span(0, 63), u64::MAX);
        assert_eq!(bit_span(3, 5), 0b111000);
        assert_eq!(bit_span(63, 63), 1 << 63);
    }

    #[test]
    fn closed_range_masks() {
        let b = binning_1_to_7();
        // 2 <= v <= 4 touches bins 2,3,4 (value 4 is in bin 4 = [4,5)).
        let m = make_masks(&b, &RangePredicate::between(2, 4));
        assert_eq!(m.mask, 0b11100);
        // Bins 2 and 3 are fully inside ([2,3) and [3,4) ⊆ [2,4]); bin 4 =
        // [4,5) is not (holds 4.x conceptually; ints make it exact but the
        // check is conservative on the border-vs-bound comparison).
        assert_eq!(m.innermask & 0b1100, 0b1100);
        assert!(m.innermask & !m.mask == 0, "innermask ⊆ mask");
    }

    #[test]
    fn half_open_range_masks() {
        let b = binning_1_to_7();
        // 2 <= v < 4: bins 2,3 overlap AND are fully inside.
        let m = make_masks(&b, &RangePredicate::half_open(2, 4));
        assert_eq!(m.mask, 0b11100, "bin_of(4) = 4 is still probed (conservative)");
        assert_eq!(m.innermask, 0b01100);
    }

    #[test]
    fn unbounded_predicates() {
        let b = binning_1_to_7();
        let m = make_masks(&b, &RangePredicate::all());
        assert_eq!(m.mask, 0xFF, "all 8 bins");
        assert_eq!(m.innermask, 0xFF, "every bin fully inside an unbounded query");

        let m = make_masks(&b, &RangePredicate::at_least(3));
        assert_eq!(m.mask, 0xF8);
        assert_eq!(m.innermask, 0xF8);

        let m = make_masks(&b, &RangePredicate::less_than(3));
        assert_eq!(m.mask, 0b1111, "bins 0..=3 probed; bin 3 holds the border");
        assert_eq!(m.innermask, 0b0111);
    }

    #[test]
    fn empty_range_is_empty_masks() {
        let b = binning_1_to_7();
        let m = make_masks(&b, &RangePredicate::between(5, 2));
        assert_eq!(m, QueryMasks::EMPTY);
        assert!(!m.may_match(u64::MAX));
    }

    #[test]
    fn point_query_single_bin() {
        let b = binning_1_to_7();
        let m = make_masks(&b, &RangePredicate::equals(5));
        assert_eq!(m.mask, 1 << 5);
        // Bin 5 = [5,6): ints make [5,5] cover it logically, but the bin
        // range extends beyond the point, so it is not "fully inside".
        assert_eq!(m.innermask, 0);
    }

    #[test]
    fn covered_and_match_helpers() {
        let m = QueryMasks { mask: 0b1110, innermask: 0b0110 };
        assert!(m.may_match(0b0010));
        assert!(!m.may_match(0b0001));
        assert!(m.fully_covered(0b0110));
        assert!(m.fully_covered(0b0010));
        assert!(!m.fully_covered(0b1010), "bit 3 is in mask but not inner");
        assert!(!m.fully_covered(0b10000), "bit outside mask entirely");
    }

    #[test]
    fn high_cardinality_masks_are_consistent() {
        let s: Vec<i64> = (0..10_000).collect();
        let b = Binning::from_sorted_sample(&s);
        for (lo, hi) in [(0i64, 100), (50, 5000), (9000, 20_000), (-50, 2), (4000, 4000)] {
            let pred = RangePredicate::between(lo, hi);
            let m = make_masks(&b, &pred);
            assert!(m.innermask & !m.mask == 0);
            // Every value inside the range maps to a masked bin.
            for v in [lo, (lo + hi) / 2, hi] {
                if pred.matches(&v) {
                    assert!(m.mask & (1 << b.bin_of(v)) != 0, "v={v} lost by mask");
                }
            }
            // Every bin in the innermask only contains matching values:
            // sample bin borders to spot-check.
            for i in 0..b.bins() {
                if m.innermask & (1 << i) != 0 {
                    let (blo, bhi) = b.bin_range(i);
                    if let Some(x) = blo {
                        assert!(pred.matches(&x), "bin {i} lower border {x} not matching");
                    }
                    if let Some(x) = bhi {
                        // bhi is exclusive: check the value just below via
                        // integer decrement.
                        assert!(pred.matches(&(x - 1)), "bin {i} upper side broken");
                    }
                }
            }
        }
    }
}
