//! Row-id result lists and candidate row runs.
//!
//! Range queries over a column store return "the id list of the qualifying
//! values" (paper §3). [`IdList`] is that materialized, ordered list. For
//! multi-attribute queries the paper postpones materialization: each
//! per-column query instead returns its qualifying *cachelines*, as runs
//! of the row ids they hold ([`RowRuns`]), the sets are merge-joined, and
//! only ids surviving the intersection are checked for false positives.
//! Both structures live here.

use std::ops::Range;

/// A sorted, duplicate-free list of qualifying row ids.
///
/// Sequential scan, zonemaps and imprints all naturally produce ids in
/// ascending order; the WAH bitmap path produces them via an id-aligned
/// result bitvector (paper §6.3), which is also ascending. The invariant is
/// enforced in debug builds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdList {
    ids: Vec<u64>,
}

impl IdList {
    /// Creates an empty list.
    pub fn new() -> Self {
        IdList { ids: Vec::new() }
    }

    /// Creates an empty list with capacity for `cap` ids.
    pub fn with_capacity(cap: usize) -> Self {
        IdList { ids: Vec::with_capacity(cap) }
    }

    /// Wraps an already-sorted vector of ids.
    ///
    /// # Panics
    /// Panics (in debug builds) if `ids` is not strictly ascending.
    pub fn from_sorted(ids: Vec<u64>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly ascending");
        IdList { ids }
    }

    /// Appends an id; must be greater than the last one.
    #[inline]
    pub fn push(&mut self, id: u64) {
        debug_assert!(self.ids.last().is_none_or(|&last| last < id));
        self.ids.push(id);
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.ids
    }

    /// Whether `id` is in the list (binary search).
    pub fn contains(&self, id: u64) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Merge-join intersection with another list.
    pub fn intersect(&self, other: &IdList) -> IdList {
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        IdList { ids: out }
    }

    /// Merge union with another list.
    pub fn union(&self, other: &IdList) -> IdList {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.ids[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.ids[i..]);
        out.extend_from_slice(&other.ids[j..]);
        IdList { ids: out }
    }

    /// Consumes the list, returning the underlying vector.
    pub fn into_vec(self) -> Vec<u64> {
        self.ids
    }

    /// Iterator over the ids.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.ids.iter().copied()
    }
}

impl From<Vec<u64>> for IdList {
    fn from(mut ids: Vec<u64>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        IdList { ids }
    }
}

impl FromIterator<u64> for IdList {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        IdList::from(iter.into_iter().collect::<Vec<_>>())
    }
}

/// The rows an index deems *possibly* relevant to a query — the
/// late-materialization intermediate of paper §3: the row ids of the
/// candidate cachelines (`imprints::query::candidate_id_ranges`).
///
/// Stored as sorted, coalesced `[start, end)` ranges, which is compact when
/// data is clustered (long qualifying runs) and still cheap when it is not.
/// The numbers are row ids, so that the sets of columns of different
/// widths merge-join: every count below is of rows, and a column's lines
/// are rows ÷ the values a line holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowRuns {
    ranges: Vec<Range<u64>>,
}

impl RowRuns {
    /// Creates an empty set.
    pub fn new() -> Self {
        RowRuns { ranges: Vec::new() }
    }

    /// Adds the run of rows `[start, end)`, coalescing it with the previous
    /// run when adjacent. Runs must be added in ascending order.
    pub fn push_run(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        if let Some(last) = self.ranges.last_mut() {
            debug_assert!(last.end <= start, "runs must be added in ascending order");
            if last.end == start {
                last.end = end;
                return;
            }
        }
        self.ranges.push(start..end);
    }

    /// Number of rows in the set.
    pub fn row_count(&self) -> u64 {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }

    /// Number of stored ranges (compactness measure).
    pub fn run_count(&self) -> usize {
        self.ranges.len()
    }

    /// Whether no row qualifies.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Whether row `row` is in the set (binary search over runs).
    pub fn contains(&self, row: u64) -> bool {
        self.ranges
            .binary_search_by(|r| {
                if r.end <= row {
                    std::cmp::Ordering::Less
                } else if r.start > row {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Iterator over the coalesced runs.
    pub fn runs(&self) -> impl Iterator<Item = Range<u64>> + '_ {
        self.ranges.iter().cloned()
    }

    /// Merge-join intersection of two candidate sets: the core of the
    /// multi-attribute conjunctive query plan ("the lists of cachelines are
    /// merge-joined", §3).
    pub fn intersect(&self, other: &RowRuns) -> RowRuns {
        let mut out = RowRuns::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let a = &self.ranges[i];
            let b = &other.ranges[j];
            let start = a.start.max(b.start);
            let end = a.end.min(b.end);
            if start < end {
                out.push_run(start, end);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Union of two candidate sets.
    pub fn union(&self, other: &RowRuns) -> RowRuns {
        let mut out = RowRuns::new();
        let (mut i, mut j) = (0, 0);
        let mut pending: Option<Range<u64>> = None;
        let add = |pending: &mut Option<Range<u64>>, r: Range<u64>, out: &mut RowRuns| match pending
        {
            Some(p) if r.start <= p.end => p.end = p.end.max(r.end),
            Some(p) => {
                out.push_run(p.start, p.end);
                *pending = Some(r);
            }
            None => *pending = Some(r),
        };
        while i < self.ranges.len() || j < other.ranges.len() {
            let take_a = j >= other.ranges.len()
                || (i < self.ranges.len() && self.ranges[i].start <= other.ranges[j].start);
            if take_a {
                add(&mut pending, self.ranges[i].clone(), &mut out);
                i += 1;
            } else {
                add(&mut pending, other.ranges[j].clone(), &mut out);
                j += 1;
            }
        }
        if let Some(p) = pending {
            out.push_run(p.start, p.end);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idlist_push_and_contains() {
        let mut l = IdList::new();
        l.push(3);
        l.push(5);
        assert_eq!(l.as_slice(), &[3, 5]);
        assert_eq!(l.len(), 2);
        assert!(l.contains(5));
        assert!(!l.contains(4));
    }

    #[test]
    fn idlist_intersect_merge_join() {
        let a = IdList::from_sorted(vec![1, 3, 5, 7, 9]);
        let b = IdList::from_sorted(vec![3, 4, 5, 9, 10]);
        assert_eq!(a.intersect(&b).as_slice(), &[3, 5, 9]);
        assert_eq!(b.intersect(&a).as_slice(), &[3, 5, 9]);
        assert!(a.intersect(&IdList::new()).is_empty());
    }

    #[test]
    fn idlist_union() {
        let a = IdList::from_sorted(vec![1, 3, 5]);
        let b = IdList::from_sorted(vec![2, 3, 6]);
        assert_eq!(a.union(&b).as_slice(), &[1, 2, 3, 5, 6]);
        assert_eq!(a.union(&IdList::new()), a);
    }

    #[test]
    fn idlist_from_unsorted_vec_sorts_and_dedups() {
        let l = IdList::from(vec![5, 1, 5, 3, 1]);
        assert_eq!(l.as_slice(), &[1, 3, 5]);
    }

    #[test]
    fn row_runs_coalesce_adjacent() {
        let mut s = RowRuns::new();
        s.push_run(0, 1);
        s.push_run(1, 3);
        s.push_run(10, 11);
        assert_eq!(s.run_count(), 2);
        assert_eq!(s.row_count(), 4);
        assert!(s.contains(1));
        assert!(s.contains(10));
        assert!(!s.contains(3));
        assert_eq!(s.runs().collect::<Vec<_>>(), vec![0..3, 10..11]);
    }

    #[test]
    fn row_runs_intersect() {
        let mut a = RowRuns::new();
        a.push_run(0, 10);
        a.push_run(20, 30);
        let mut b = RowRuns::new();
        b.push_run(5, 25);
        let c = a.intersect(&b);
        assert_eq!(c.runs().collect::<Vec<_>>(), vec![5..10, 20..25]);
        assert!(a.intersect(&RowRuns::new()).is_empty());
    }

    #[test]
    fn row_runs_union_merges_overlaps() {
        let mut a = RowRuns::new();
        a.push_run(0, 3);
        a.push_run(8, 10);
        let mut b = RowRuns::new();
        b.push_run(2, 5);
        b.push_run(10, 12);
        let u = a.union(&b);
        assert_eq!(u.runs().collect::<Vec<_>>(), vec![0..5, 8..12]);
    }

    #[test]
    fn row_runs_empty_run_ignored() {
        let mut s = RowRuns::new();
        s.push_run(5, 5);
        assert!(s.is_empty());
    }
}
