//! Range-query evaluation over the imprints index (Algorithm 3).
//!
//! The evaluator walks the cacheline dictionary. A *distinct* entry's `cnt`
//! imprint vectors are probed one cacheline each; a *repeat* entry's one
//! probe decides the fate of all `cnt` cachelines at once. Each probed
//! vector falls into one of three cases:
//!
//! 1. `imprint & mask == 0` — no value can match, the cacheline(s) are
//!    skipped without being read;
//! 2. `imprint & !innermask == 0` — every set bit is an inner bin, so every
//!    value matches: ids are emitted without reading the data;
//! 3. otherwise the cacheline is fetched and each value is compared against
//!    the predicate to weed out false positives.
//!
//! That decision is written once, in [`probe`], which bills the probe and
//! the skipped lines and hands every candidate to a *visitor*. It is made
//! at lane width: the stored vectors are read 64 at a time, a chunk
//! in which no vector meets the `mask` costs an OR and an AND per eight
//! vectors, a chunk with candidates becomes a bitmask of them and one of
//! those the `innermask` covers, and the stretches of adjacent candidates
//! of one kind come out of the two masks by bit arithmetic. The
//! dictionary is read only where a stretch starts or ends: a forward-only
//! cursor jumps to the entry holding that vector, summing the vector and
//! line counts of eight entries at a time, and inside one distinct entry
//! a vector's line is plain arithmetic. The entry
//! points are its visitors: [`run`] (and [`evaluate`], [`count`],
//! [`evaluate_no_innermask`] over it) emits case 2 into a [`Hits`] sink
//! and value-checks case 3; the late-materialization path of §3 —
//! [`candidate_id_ranges`] — collects both cases as a [`RowRuns`] of
//! row ids (to be merge-joined across attributes, [`refine`] applying the
//! false-positive check afterwards); [`count_covered`] adds up case 2 and
//! stops at the first case 3. The one index variant,
//! [`crate::OverlayImprints`] (§4.2), is a *run source*: it changes which
//! runs the probe sees, not what it does with them.
//!
//! The false-positive check itself — case 3's per-value compare — routes
//! through the [`crate::simd`] refinement kernels: the predicate is
//! compiled once per evaluation into a [`PredicateKernel`] and each
//! stretch of adjacent fetched cachelines is weeded in one call, either
//! by the lane-width vector kernel or by the scalar oracle loop. Every
//! value check — the walk's, [`refine`]'s and the §3 plan's — takes its
//! candidate stretches through one batch, `CheckAhead`, which reads the
//! first value of 64 of them before checking any. [`run`]
//! takes the compiled kernel and a [`Hits`] sink, so materializing ids
//! ([`evaluate`]) and counting ([`count`]) are the same traversal with a
//! different sink. The `value_comparisons` statistic counts values the
//! kernel actually examined, identically under both kernels and on every
//! variant — a predicate that can match nothing examines none.

use std::ops::{ControlFlow, Range};

use colstore::{AccessStats, Column, IdList, RangePredicate, RowRuns, Scalar, CACHELINE_BYTES};

use crate::index::{ColumnImprints, Consecutive, DictCursor, Run, VectorLines};
use crate::masks::{self, QueryMasks};
use crate::simd::{Hits, PredicateKernel};

/// Evaluation statistics: the generic [`AccessStats`] plus imprint-specific
/// breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImprintStats {
    /// The implementation-independent counters (Fig. 11).
    pub access: AccessStats,
    /// Cachelines emitted wholesale through the `innermask` fast path — no
    /// value of these lines was ever compared.
    pub lines_full: u64,
    /// Row ids emitted through that fast path, counted exactly. A partial
    /// tail cacheline emitted wholesale contributes fewer than
    /// `values_per_block` ids, so `lines_full * values_per_block` would
    /// overestimate — consumers reconstructing "ids that went through the
    /// value check" must subtract this counter, not a product.
    pub ids_via_full_lines: u64,
    /// Cachelines fetched and checked value-by-value.
    pub lines_checked: u64,
}

impl ImprintStats {
    /// Bills the cachelines `lines` as emitted wholesale with the row ids
    /// `ids`.
    fn note_full(&mut self, lines: &Range<u64>, ids: &Range<u64>) {
        self.lines_full += lines.end - lines.start;
        self.ids_via_full_lines += ids.end - ids.start;
    }
}

/// Algorithm 3's probe, the one place the three-case decision is made.
/// Each stored vector of `runs` — `idx.runs()`, or a variant's view of
/// them — costs one index probe; a repeat run's one vector decides all its
/// cachelines at once. Lines the query `masks` rule out are billed as
/// skipped. Candidate lines go to `visit` in *stretches*: adjacent
/// candidates of one kind, across vectors and runs, are one call, with the
/// stretch's cachelines, its row ids (clamped to the column) and whether
/// it is *full*, i.e. covered by the `innermask`, so that every one of its
/// values qualifies unread. What happens to a stretch — emit or
/// value-check it, collect it, count it — and how that is billed is the
/// visitor's business; it may stop the walk with [`ControlFlow::Break`],
/// which `probe` hands back. A stop bills the probes of every dictionary
/// entry up to the one whose vector opened the next stretch, as a walk
/// one entry at a time would have.
///
/// A run of vectors is read 64 at a time: a chunk none of whose vectors
/// meets the `mask` is passed over with an OR and an AND per eight
/// vectors; a chunk with candidates becomes two bitmasks, and its
/// stretches come out of them by bit arithmetic. Only where a
/// stretch starts or ends is the cacheline dictionary consulted, and it
/// advances to there in bulk.
#[inline]
pub fn probe<'a, T: Scalar, B>(
    idx: &ColumnImprints<T>,
    runs: impl Iterator<Item = Run<'a>>,
    masks: QueryMasks,
    stats: &mut ImprintStats,
    mut visit: impl FnMut(&mut ImprintStats, Range<u64>, Range<u64>, bool) -> ControlFlow<B>,
) -> ControlFlow<B> {
    if masks.mask == 0 {
        stats.access.lines_skipped = idx.line_count();
        return ControlFlow::Continue(());
    }
    let vpb = idx.values_per_block() as u64;
    let rows = idx.rows() as u64;
    let mut stretches = Stretches {
        pending: 0..0,
        full: false,
        visit: |stats: &mut ImprintStats, lines: Range<u64>, full| {
            let ids = lines.start * vpb..(lines.end * vpb).min(rows);
            visit(stats, lines, ids, full)
        },
    };
    for run in runs {
        match run {
            Run::Repeat { imprint, first_line, line_count } => {
                stats.access.index_probes += 1;
                if masks.may_match(imprint) {
                    stretches.open(stats, first_line, masks.fully_covered(imprint))?;
                    stretches.pending.end = first_line + line_count;
                } else {
                    stats.access.lines_skipped += line_count;
                }
            }
            Run::Distinct { imprints, first_line } => {
                let mut lines = Consecutive { first_line, vectors: imprints.len() as u64 };
                probe_vectors(imprints, &mut lines, masks, stats, &mut stretches)?;
            }
            Run::Entries { imprints, dict, first_line } => {
                let mut lines = DictCursor::new(dict, first_line);
                probe_vectors(imprints, &mut lines, masks, stats, &mut stretches)?;
            }
        }
    }
    let Stretches { pending, full, mut visit } = stretches;
    if pending.is_empty() {
        return ControlFlow::Continue(());
    }
    visit(stats, pending, full)
}

/// Stored vectors the probe tests at once, one bit each of a `u64`.
const CHUNK: usize = 64;

/// The stretch of adjacent candidate lines of one kind the probe has not
/// visited yet, and the visitor it goes to.
struct Stretches<V> {
    pending: Range<u64>,
    full: bool,
    visit: V,
}

impl<B, V: FnMut(&mut ImprintStats, Range<u64>, bool) -> ControlFlow<B>> Stretches<V> {
    /// Opens a stretch at cacheline `line` — or goes on with the pending
    /// one, if it ends there and is of the same kind — visiting the one it
    /// closes. The caller then sets where the stretch ends.
    #[inline]
    fn open(&mut self, stats: &mut ImprintStats, line: u64, full: bool) -> ControlFlow<B> {
        if self.pending.end == line && self.full == full {
            return ControlFlow::Continue(());
        }
        let done = std::mem::replace(&mut self.pending, line..line);
        let done_full = std::mem::replace(&mut self.full, full);
        if done.is_empty() {
            return ControlFlow::Continue(());
        }
        (self.visit)(stats, done, done_full)
    }
}

/// Probes one run's stored `imprints`, whose cachelines `lines` maps,
/// [`CHUNK`] vectors at a time. Every vector is billed up front; a stop
/// takes back the ones past the dictionary entry it happened in.
#[inline]
fn probe_vectors<B, V: FnMut(&mut ImprintStats, Range<u64>, bool) -> ControlFlow<B>>(
    imprints: &[u64],
    lines: &mut impl VectorLines,
    masks: QueryMasks,
    stats: &mut ImprintStats,
    stretches: &mut Stretches<V>,
) -> ControlFlow<B> {
    let n = imprints.len() as u64;
    if n == 0 {
        return ControlFlow::Continue(());
    }
    stats.access.index_probes += n;
    // The first line not yet billed as skipped or handed to a stretch.
    let mut at = lines.lines_of(0).start;
    for (c, chunk) in imprints.chunks(CHUNK).enumerate() {
        let (live, full) = chunk_kinds(chunk, masks);
        if live == 0 {
            continue;
        }
        let base = (c * CHUNK) as u64;
        // From the first candidate to the chunk's end inside one distinct
        // entry, a vector's line is arithmetic.
        let lowest = base + u64::from(live.trailing_zeros());
        let flat = lines.one_line_each(lowest, base + chunk.len() as u64 - lowest);
        // The candidates of each kind not yet handed on. Adding a run's
        // lowest bit to its mask carries through the run: the sum's new
        // bit ends it, and ANDing the sum in clears it.
        let (mut part, mut covered) = (live & !full, full);
        while part | covered != 0 {
            let low = (part | covered) & (part | covered).wrapping_neg();
            let is_full = covered & low != 0;
            let kind = if is_full { &mut covered } else { &mut part };
            let carried = kind.wrapping_add(low);
            let end = (carried & !*kind).trailing_zeros();
            *kind &= carried;
            let first = base + u64::from(low.trailing_zeros());
            let last = base + u64::from(end) - 1;
            let start =
                flat.map_or_else(|| lines.lines_of(first).start, |line| line + first - lowest);
            stats.access.lines_skipped += start - at;
            if let ControlFlow::Break(b) = stretches.open(stats, start, is_full) {
                stats.access.index_probes -= n - lines.entry_end();
                return ControlFlow::Break(b);
            }
            at = flat.map_or_else(|| lines.lines_of(last).end, |line| line + last - lowest + 1);
            stretches.pending.end = at;
        }
    }
    stats.access.lines_skipped += lines.lines_of(n - 1).end - at;
    ControlFlow::Continue(())
}

/// A chunk's candidates as two bitmasks, bit `i` for vector `i`: those that
/// meet the `mask`, and those of them the `innermask` covers (none, when it
/// is empty: every stored vector has a bit). Eight vectors at a time, so
/// that the compiler keeps a group's bits in registers, and only the
/// groups with a candidate.
#[inline]
fn chunk_kinds(chunk: &[u64], masks: QueryMasks) -> (u64, u64) {
    let inner = masks.innermask != 0;
    let kinds = |group: &[u64]| {
        let (mut live, mut full) = (0u64, 0u64);
        for (i, &v) in group.iter().enumerate() {
            live |= u64::from(masks.may_match(v)) << i;
            full |= u64::from(inner && masks.fully_covered(v)) << i;
        }
        (live, full)
    };
    let (groups, rest) = chunk.as_chunks::<8>();
    let mut todo = groups.iter().enumerate().fold(0u8, |todo, (g, group)| {
        todo | u8::from(group.iter().fold(0, |any, &v| any | v) & masks.mask != 0) << g
    });
    // A short last chunk's vectors past its last whole group.
    let (rest_live, rest_full) = kinds(rest);
    let at = 8 * groups.len() as u32;
    let (mut live, mut full) = (rest_live.unbounded_shl(at), rest_full.unbounded_shl(at));
    while todo != 0 {
        let g = todo.trailing_zeros() as usize;
        todo &= todo - 1;
        let (l, f) = kinds(&groups[g]);
        live |= l << (8 * g);
        full |= f << (8 * g);
    }
    (live, full & live)
}

/// Algorithm 3: evaluates the kernel's predicate over `col` through the
/// index into `hits` — the one imprint walk every entry point reaches.
/// The kernel carries both the predicate and the refinement flavour
/// ([`PredicateKernel::with_kernel`] pins one; the differential harness
/// races the vector kernel against the scalar oracle through here).
///
/// # Panics
/// Panics if `col` is not the column the index was built on (length
/// mismatch).
pub fn run<T: Scalar>(
    idx: &ColumnImprints<T>,
    col: &Column<T>,
    kernel: &PredicateKernel<T>,
    hits: Hits,
) -> (Hits, ImprintStats) {
    walk(idx, idx.runs(), col, kernel, masks::make_masks(idx.binning(), kernel.predicate()), hits)
}

/// The evaluating visitor of [`probe`]: full stretches are emitted into
/// `hits` unread, the others fetched and value-checked by `kernel`, a
/// stretch of adjacent lines in one call, through [`CheckAhead`]. `runs`
/// is the index's own ([`run`]) or the §4.2 overlay's view of them.
pub(crate) fn walk<'a, T: Scalar>(
    idx: &ColumnImprints<T>,
    runs: impl Iterator<Item = Run<'a>>,
    col: &Column<T>,
    kernel: &PredicateKernel<T>,
    masks: QueryMasks,
    mut hits: Hits,
) -> (Hits, ImprintStats) {
    assert_eq!(col.len(), idx.rows(), "index does not cover this column");
    let mut stats = ImprintStats::default();
    let values = col.values();
    let mut comparisons = 0;
    let mut ahead = CheckAhead::new(values, |ids: Range<u64>, full| {
        if full {
            hits.emit(ids);
        } else {
            kernel.check(values, ids, &mut hits, &mut comparisons);
        }
    });
    let _ = probe(idx, runs, masks, &mut stats, |stats, lines, ids, full| {
        if full {
            stats.note_full(&lines, &ids);
        } else {
            stats.lines_checked += lines.end - lines.start;
            stats.access.lines_fetched += lines.end - lines.start;
        }
        ahead.push(ids, full);
        ControlFlow::<()>::Continue(())
    });
    ahead.finish();
    stats.access.value_comparisons = comparisons;
    (hits, stats)
}

/// Candidate stretches [`CheckAhead`] holds back before settling them.
const CHECK_BATCH: usize = 64;

/// The one batched value check. Candidate stretches of row ids into
/// `values` come in order, each *full* (every value qualifies, so it is
/// emitted unread) or to be checked; they are held [`CHECK_BATCH`] at a
/// time, and a batch is settled — each stretch handed to `settle`, in
/// order — only after the first value of every stretch in it to be
/// checked has been read. Read one at a time between the checks,
/// scattered candidate lines each cost a full cache miss; read together,
/// their misses overlap. `settle` emits or checks a stretch with whatever
/// kernel its caller compiled ([`walk`], [`refine`], and the §3 plan's
/// check in [`crate::relation_index`]); what is billed is the caller's.
pub(crate) struct CheckAhead<'v, T, F> {
    values: &'v [T],
    settle: F,
    /// The held stretches: first and end row id, whether full.
    held: [(u64, u64, bool); CHECK_BATCH],
    len: usize,
}

impl<'v, T: Scalar, F: FnMut(Range<u64>, bool)> CheckAhead<'v, T, F> {
    pub(crate) fn new(values: &'v [T], settle: F) -> Self {
        CheckAhead { values, settle, held: [(0, 0, false); CHECK_BATCH], len: 0 }
    }

    /// Holds the non-empty stretch `ids`, settling the batch once it is
    /// full.
    #[inline]
    pub(crate) fn push(&mut self, ids: Range<u64>, full: bool) {
        self.held[self.len] = (ids.start, ids.end, full);
        self.len += 1;
        if self.len == CHECK_BATCH {
            self.settle_held();
        }
    }

    /// Settles the stretches still held.
    pub(crate) fn finish(mut self) {
        self.settle_held();
    }

    /// Reads the first value of every held stretch to be checked, then
    /// settles them all in order.
    fn settle_held(&mut self) {
        let held = &self.held[..self.len];
        let first_values =
            held.iter().filter(|s| !s.2).map(|s| self.values[s.0 as usize].sort_key());
        std::hint::black_box(first_values.fold(0, |acc, key| acc ^ key));
        for &(start, end, full) in held {
            (self.settle)(start..end, full);
        }
        self.len = 0;
    }
}

/// Value-checks every run of the row-id set `ranges` over `values` with
/// `check`, through [`CheckAhead`].
pub(crate) fn check_runs<T: Scalar>(
    values: &[T],
    ranges: &RowRuns,
    mut check: impl FnMut(Range<u64>),
) {
    let mut ahead = CheckAhead::new(values, |ids, _| check(ids));
    for ids in ranges.runs() {
        ahead.push(ids, false);
    }
    ahead.finish();
}

/// The distinct cachelines of a column of `T` that the ascending,
/// non-overlapping row-id ranges `runs` touch; neighbouring runs may share
/// a line, which counts once.
pub(crate) fn lines_touched<T: Scalar>(runs: impl Iterator<Item = Range<u64>>) -> u64 {
    let per_line = (CACHELINE_BYTES / std::mem::size_of::<T>()) as u64;
    let (mut lines, mut counted_to) = (0, 0);
    for ids in runs.filter(|ids| !ids.is_empty()) {
        let end = (ids.end - 1) / per_line + 1;
        lines += end - (ids.start / per_line).max(counted_to);
        counted_to = end;
    }
    lines
}

/// Evaluates `pred` over `col` through the index, returning the
/// materialized ordered id list plus statistics.
///
/// # Panics
/// Panics if `col` is not the column the index was built on.
pub fn evaluate<T: Scalar>(
    idx: &ColumnImprints<T>,
    col: &Column<T>,
    pred: &RangePredicate<T>,
) -> (IdList, ImprintStats) {
    let (hits, stats) = run(idx, col, &PredicateKernel::new(pred), Hits::new(false));
    (hits.into_ids(), stats)
}

/// [`evaluate`] with the `innermask` fast path disabled: every matching
/// cacheline takes the value-check route. Exists for the ablation
/// benchmark quantifying what the fast path buys (design choice 4 of
/// DESIGN.md §7). Results are identical, only costs differ.
pub fn evaluate_no_innermask<T: Scalar>(
    idx: &ColumnImprints<T>,
    col: &Column<T>,
    pred: &RangePredicate<T>,
) -> (IdList, ImprintStats) {
    let masks = QueryMasks { innermask: 0, ..masks::make_masks(idx.binning(), pred) };
    let kernel = PredicateKernel::new(pred);
    let (hits, stats) = walk(idx, idx.runs(), col, &kernel, masks, Hits::new(false));
    (hits.into_ids(), stats)
}

/// Counts qualifying rows without materializing ids: [`run`] into a
/// counting sink, so fully-covered lines contribute their cardinality
/// directly.
pub fn count<T: Scalar>(
    idx: &ColumnImprints<T>,
    col: &Column<T>,
    pred: &RangePredicate<T>,
) -> (u64, ImprintStats) {
    let (hits, stats) = run(idx, col, &PredicateKernel::new(pred), Hits::new(true));
    (hits.len(), stats)
}

/// Late materialization, step 1 (§3): the row ids that *may* match — the
/// collecting visitor of [`probe`], every candidate stretch, full or not,
/// joining a coalesced [`RowRuns`] — so that candidate sets of
/// columns with different value widths (hence different cacheline
/// geometry) can be merge-joined with [`RowRuns::intersect`].
pub fn candidate_id_ranges<T: Scalar>(
    idx: &ColumnImprints<T>,
    pred: &RangePredicate<T>,
) -> (RowRuns, ImprintStats) {
    let mut stats = ImprintStats::default();
    let mut set = RowRuns::new();
    let masks = masks::make_masks(idx.binning(), pred);
    let _ = probe(idx, idx.runs(), masks, &mut stats, |_, _, ids, _| {
        set.push_run(ids.start, ids.end);
        ControlFlow::<()>::Continue(())
    });
    (set, stats)
}

/// Counts qualifying rows from the index alone, when it can: `Some`
/// exactly when every candidate run is fully covered by the predicate's
/// `innermask`, so the count is exact with no value ever read; `None` at
/// the first candidate run that would need a value check. The counting
/// visitor of [`probe`]: one pass over the runs, no allocation, the same
/// probe/skip accounting as [`run`] — what lets a column whose data is not
/// in memory answer a covered `COUNT` without fetching it.
pub fn count_covered<T: Scalar>(
    idx: &ColumnImprints<T>,
    pred: &RangePredicate<T>,
) -> Option<(u64, ImprintStats)> {
    let mut stats = ImprintStats::default();
    let mut n = 0u64;
    let masks = masks::make_masks(idx.binning(), pred);
    let walked = probe(idx, idx.runs(), masks, &mut stats, |stats, lines, ids, full| {
        if !full {
            return ControlFlow::Break(());
        }
        stats.note_full(&lines, &ids);
        n += ids.end - ids.start;
        ControlFlow::Continue(())
    });
    walked.is_continue().then_some((n, stats))
}

/// Late materialization, step 2: weeds out false positives from an
/// *id-space* candidate set (as produced by [`candidate_id_ranges`],
/// possibly intersected across attributes) with the compiled `kernel`
/// through `CheckAhead`, and materializes the final ids. The cachelines
/// the candidates touch are billed as fetched, unless the kernel can match
/// nothing and reads no value — as the §3 plan bills its check.
///
/// # Panics
/// Panics on candidates beyond `col`.
pub fn refine<T: Scalar>(
    col: &Column<T>,
    kernel: &PredicateKernel<T>,
    id_candidates: &RowRuns,
    stats: &mut ImprintStats,
) -> IdList {
    if !kernel.is_empty() {
        stats.access.lines_fetched += lines_touched::<T>(id_candidates.runs());
    }
    let values = col.values();
    let mut hits = Hits::new(false);
    check_runs(values, id_candidates, |ids| {
        kernel.check(values, ids, &mut hits, &mut stats.access.value_comparisons);
    });
    hits.into_ids()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BuildOptions;
    use crate::simd::RefineKernel;

    /// Oracle: brute-force scan.
    fn oracle<T: Scalar>(col: &Column<T>, pred: &RangePredicate<T>) -> Vec<u64> {
        col.values()
            .iter()
            .enumerate()
            .filter(|(_, v)| pred.matches(v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    fn check<T: Scalar>(col: &Column<T>, idx: &ColumnImprints<T>, pred: &RangePredicate<T>) {
        let (ids, _) = evaluate(idx, col, pred);
        assert_eq!(ids.as_slice(), oracle(col, pred), "predicate {pred}");
        let (n, _) = count(idx, col, pred);
        assert_eq!(n as usize, ids.len());
    }

    #[test]
    fn clustered_int_column_all_selectivities() {
        let col: Column<i32> = (0..20_000).map(|i| i / 20).collect();
        let idx = ColumnImprints::build(&col);
        for (lo, hi) in [(0, 0), (0, 100), (100, 900), (500, 501), (999, 2000), (-10, -1)] {
            check(&col, &idx, &RangePredicate::between(lo, hi));
            check(&col, &idx, &RangePredicate::half_open(lo, hi));
        }
        check(&col, &idx, &RangePredicate::all());
        check(&col, &idx, &RangePredicate::less_than(250));
        check(&col, &idx, &RangePredicate::at_least(750));
    }

    #[test]
    fn random_column_matches_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let col: Column<i64> = (0..30_000).map(|_| rng.gen_range(-1000..1000)).collect();
        let idx = ColumnImprints::build(&col);
        idx.verify(&col).unwrap();
        for _ in 0..30 {
            let a = rng.gen_range(-1100..1100);
            let b = rng.gen_range(-1100..1100);
            check(&col, &idx, &RangePredicate::between(a.min(b), a.max(b)));
        }
    }

    #[test]
    fn float_column_with_nan() {
        let mut vals: Vec<f64> = (0..5000).map(|i| (i as f64) / 10.0).collect();
        vals[1234] = f64::NAN;
        vals[77] = f64::NEG_INFINITY;
        let col: Column<f64> = Column::from(vals);
        let idx = ColumnImprints::build(&col);
        idx.verify(&col).unwrap();
        for pred in [
            RangePredicate::between(10.0, 20.0),
            RangePredicate::less_than(1.0),
            RangePredicate::at_least(400.0),
            RangePredicate::all(),
        ] {
            check(&col, &idx, &pred);
        }
    }

    #[test]
    fn innermask_fast_path_emits_without_comparisons() {
        // A sorted column: mid-range queries fully cover interior lines.
        let col: Column<i32> = (0..64_000).collect();
        let idx = ColumnImprints::build(&col);
        let pred = RangePredicate::between(10_000, 50_000);
        let (ids, stats) = evaluate(&idx, &col, &pred);
        assert_eq!(ids.as_slice(), oracle(&col, &pred));
        assert!(stats.lines_full > 0, "expected innermask fast path to fire");
        // Only border lines need value checks: comparisons ≪ result size.
        assert!(
            stats.access.value_comparisons < ids.len() as u64 / 10,
            "comparisons {} too high for {} results",
            stats.access.value_comparisons,
            ids.len()
        );
    }

    #[test]
    fn skipping_works_on_clustered_data() {
        let col: Column<i32> = (0..64_000).map(|i| i / 1000).collect();
        let idx = ColumnImprints::build(&col);
        let (_, stats) = evaluate(&idx, &col, &RangePredicate::between(10, 11));
        assert!(
            stats.access.lines_skipped > idx.line_count() * 8 / 10,
            "most lines should be skipped, skipped {} of {}",
            stats.access.lines_skipped,
            idx.line_count()
        );
    }

    #[test]
    fn empty_predicate_skips_everything() {
        let col: Column<i32> = (0..1000).collect();
        let idx = ColumnImprints::build(&col);
        let (ids, stats) = evaluate(&idx, &col, &RangePredicate::between(10, 5));
        assert!(ids.is_empty());
        assert_eq!(stats.access.index_probes, 0);
        assert_eq!(stats.access.lines_skipped, idx.line_count());
    }

    #[test]
    fn partial_tail_line_included() {
        // 1003 values: 62 full lines + 11-value tail; query the tail.
        let col: Column<i32> = (0..1003).collect();
        let idx = ColumnImprints::build(&col);
        let pred = RangePredicate::at_least(1000);
        let (ids, _) = evaluate(&idx, &col, &pred);
        assert_eq!(ids.as_slice(), &[1000, 1001, 1002]);
    }

    /// `ids_via_full_lines` is a count, not `lines_full * values_per_block`:
    /// a partial tail cacheline emitted wholesale contributes only the ids
    /// it holds. Here every compared value matches, so the ids that did
    /// not come through a full line are exactly the comparisons.
    #[test]
    fn ids_via_full_lines_exact_with_partial_tail_emitted_wholesale() {
        // 1000 i32 rows, 16 per line: 62 full lines + an 8-value tail. 41
        // distinct values (< 64) give one bin per value, so the tail
        // values 18..=25 sit strictly inside [10, 50] and the tail line is
        // emitted via the innermask, while lines holding a 10 or a 50
        // (border bins) take the value check — and every check matches.
        let col: Column<i32> = (0..1000).map(|i| 10 + (i % 41)).collect();
        let idx = ColumnImprints::build(&col);
        let (ids, stats) = evaluate(&idx, &col, &RangePredicate::between(10, 50));
        assert_eq!(ids.len(), 1000);
        assert!(stats.access.value_comparisons > 0, "a border line must take the check path");
        assert_eq!(ids.len() as u64 - stats.ids_via_full_lines, stats.access.value_comparisons);
    }

    #[test]
    fn repeat_runs_probed_once() {
        // Constant column: one repeat run; matching query probes once.
        let col: Column<u8> = std::iter::repeat_n(5u8, 6400).collect();
        let idx = ColumnImprints::build(&col);
        assert_eq!(idx.dict_len(), 1);
        let (ids, stats) = evaluate(&idx, &col, &RangePredicate::equals(5));
        assert_eq!(ids.len(), 6400);
        assert_eq!(stats.access.index_probes, 1);
        // A value below every border maps to bin 0, which the constant
        // column's imprint never sets: all 100 lines skip on one probe.
        let (ids, stats) = evaluate(&idx, &col, &RangePredicate::equals(3));
        assert!(ids.is_empty());
        assert_eq!(stats.access.index_probes, 1);
        assert_eq!(stats.access.lines_skipped, 100);
    }

    #[test]
    fn candidates_cover_all_matches() {
        let col: Column<i32> = (0..10_000).map(|i| (i * 17) % 500).collect();
        let idx = ColumnImprints::build(&col);
        let pred = RangePredicate::between(100, 120);
        let (cands, _) = candidate_id_ranges(&idx, &pred);
        for id in oracle(&col, &pred) {
            assert!(cands.contains(id), "matching id {id} not in the candidates");
        }
    }

    #[test]
    fn refine_after_candidates_equals_evaluate() {
        let col: Column<i32> = (0..10_000).map(|i| (i * 13) % 700).collect();
        let idx = ColumnImprints::build(&col);
        let pred = RangePredicate::between(50, 200);
        let (idr, mut stats) = candidate_id_ranges(&idx, &pred);
        let refined = refine(&col, &PredicateKernel::new(&pred), &idr, &mut stats);
        let (direct, _) = evaluate(&idx, &col, &pred);
        assert_eq!(refined, direct);
    }

    #[test]
    fn non_default_block_size_correctness() {
        let col: Column<i32> = (0..9999).map(|i| (i * 31) % 444).collect();
        for block in [64usize, 128, 256, 512] {
            let idx = ColumnImprints::build_with(
                &col,
                BuildOptions { block_bytes: block, ..Default::default() },
            );
            let pred = RangePredicate::between(100, 200);
            let (ids, _) = evaluate(&idx, &col, &pred);
            assert_eq!(ids.as_slice(), oracle(&col, &pred), "block={block}");
        }
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn wrong_column_length_panics() {
        let col: Column<i32> = (0..100).collect();
        let idx = ColumnImprints::build(&col);
        let other: Column<i32> = (0..50).collect();
        let _ = evaluate(&idx, &other, &RangePredicate::all());
    }

    #[test]
    fn no_innermask_same_results_more_comparisons() {
        let col: Column<i32> = (0..64_000).collect();
        let idx = ColumnImprints::build(&col);
        let pred = RangePredicate::between(10_000, 50_000);
        let (fast, s_fast) = evaluate(&idx, &col, &pred);
        let (slow, s_slow) = evaluate_no_innermask(&idx, &col, &pred);
        assert_eq!(fast, slow, "ablation must not change answers");
        assert!(s_slow.access.value_comparisons > s_fast.access.value_comparisons * 10);
        assert_eq!(s_slow.lines_full, 0);
    }

    /// Satellite regression: the value check used to bump `comparisons` by
    /// the full range even when the kernel early-outs without examining a
    /// value — an empty predicate refining a candidate set must report
    /// zero comparisons (phantom comparisons with zero matches read as a
    /// 100% false-positive rate upstream and trigger spurious rebuilds).
    #[test]
    fn refine_with_empty_predicate_reports_zero_comparisons() {
        let col: Column<i32> = (0..4096).collect();
        let mut cands = RowRuns::new();
        cands.push_run(0, 4096);
        for flavour in [RefineKernel::Scalar, RefineKernel::Swar] {
            let kernel = PredicateKernel::with_kernel(&RangePredicate::between(10, 5), flavour);
            let mut stats = ImprintStats::default();
            let ids = refine(&col, &kernel, &cands, &mut stats);
            assert!(ids.is_empty());
            assert_eq!(
                stats.access.value_comparisons, 0,
                "{flavour:?}: an empty predicate examines no values"
            );
            // A non-empty predicate over the same candidates is billed in
            // full — the counter reflects values actually compared.
            let kernel = PredicateKernel::with_kernel(&RangePredicate::between(5, 10), flavour);
            let mut stats = ImprintStats::default();
            let ids = refine(&col, &kernel, &cands, &mut stats);
            assert_eq!(ids.len(), 6);
            assert_eq!(stats.access.value_comparisons, 4096);
        }
    }

    /// "A predicate that can match nothing examines no data" holds on
    /// every imprint variant, also for predicates whose bounds are in order
    /// — so the masks are not empty and lines are fetched — but whose key
    /// interval is empty: the overlay feeds the same walk, kernel and
    /// accounting as the base index.
    #[test]
    fn impossible_predicates_bill_nothing_on_every_variant() {
        use crate::OverlayImprints;
        use colstore::Bound::{Exclusive, Unbounded};
        // Eight values, one bin each, all eight in every cacheline.
        let col: Column<i64> = (0..4096).map(|i| i % 8).collect();
        let idx = ColumnImprints::build(&col);
        let clean = OverlayImprints::new(idx.clone());
        let mut updated = OverlayImprints::new(idx.clone());
        for id in [8u64, 1001, 4095] {
            updated.note_update(id, col.values()[id as usize]);
        }
        for pred in [
            RangePredicate::with_bounds(Exclusive(3), Exclusive(4)),
            RangePredicate::with_bounds(Exclusive(i64::MAX), Unbounded),
            RangePredicate::with_bounds(Unbounded, Exclusive(i64::MIN)),
        ] {
            let (base_ids, base) = evaluate(&idx, &col, &pred);
            assert!(base_ids.is_empty(), "{pred}");
            assert_eq!(base.access.value_comparisons, 0, "base: {pred}");
            let variants = [
                ("overlay", clean.evaluate_with_imprint_stats(&col, &pred)),
                ("overlay with updates", updated.evaluate_with_imprint_stats(&col, &pred)),
            ];
            for (name, (ids, stats)) in variants {
                assert_eq!(ids, base_ids, "{name}: {pred}");
                assert_eq!(stats.access.value_comparisons, 0, "{name}: {pred}");
                assert_eq!(stats.access.lines_fetched, base.access.lines_fetched, "{name}: {pred}");
            }
        }
    }

    /// Both refinement kernels must agree byte-for-byte — ids *and*
    /// statistics — in both sink modes (the module-level differential
    /// harness in `tests/kernel_differential.rs` proptests this broadly;
    /// this is the fast in-crate smoke version).
    #[test]
    fn swar_and_scalar_kernels_agree_end_to_end() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        // 30013 rows: not a multiple of any values_per_block.
        let col: Column<i64> = (0..30_013).map(|_| rng.gen_range(-1000..1000)).collect();
        let idx = ColumnImprints::build(&col);
        for _ in 0..20 {
            let a = rng.gen_range(-1100..1100);
            let b = rng.gen_range(-1100..1100);
            let pred = RangePredicate::between(a.min(b), a.max(b));
            let scalar = PredicateKernel::with_kernel(&pred, RefineKernel::Scalar);
            let swar = PredicateKernel::with_kernel(&pred, RefineKernel::Swar);
            for count_only in [false, true] {
                let s = run(&idx, &col, &scalar, Hits::new(count_only));
                let v = run(&idx, &col, &swar, Hits::new(count_only));
                assert_eq!(s, v, "answer and stats must not depend on the kernel: {pred}");
                assert_eq!(s.0.len() as usize, oracle(&col, &pred).len(), "{pred}");
            }
        }
    }

    #[test]
    fn count_covered_is_exact_or_none() {
        // A sorted column: one bin per 1,000 values, 16 values per line.
        let col: Column<i32> = (0..64_000).collect();
        let idx = ColumnImprints::build(&col);
        // A span whose every candidate line is covered: count's answer,
        // count's index-side accounting, and not one value compared.
        let covered = RangePredicate::all();
        let (n, stats) = count_covered(&idx, &covered).expect("every line is covered");
        let (expect, estats) = count(&idx, &col, &covered);
        assert_eq!(n, expect);
        assert_eq!(stats, estats);
        assert_eq!(stats.access.value_comparisons, 0);
        // One straddling line — the query's border falls inside it.
        assert_eq!(count_covered(&idx, &RangePredicate::at_least(32_005)), None);
        // An impossible predicate is covered vacuously.
        let (n, stats) = count_covered(&idx, &RangePredicate::between(10, 5)).unwrap();
        assert_eq!((n, stats.access.index_probes), (0, 0));
        assert_eq!(stats.access.lines_skipped, idx.line_count());
        // A partial tail line counts the rows it holds, not a full line.
        let col: Column<i32> = std::iter::repeat_n(7, 1003).collect();
        let idx = ColumnImprints::build(&col);
        assert_eq!(count_covered(&idx, &RangePredicate::all()).map(|(n, _)| n), Some(1003));
    }

    #[test]
    fn probes_accounting_matches_structure() {
        let col: Column<i32> = (0..16_000).map(|i| i % 4).collect();
        let idx = ColumnImprints::build(&col);
        let (_, stats) = evaluate(&idx, &col, &RangePredicate::all());
        // One probe per stored imprint (plus tail if present).
        assert_eq!(stats.access.index_probes as usize, idx.imprint_count());
    }

    /// The statistics of one evaluation recomputed a cacheline at a time:
    /// `lines[l]` is the imprint line `l` is probed with, `probes` the
    /// vectors the index variant stores for them.
    fn per_line_reference<T: Scalar>(
        idx: &ColumnImprints<T>,
        lines: &[u64],
        pred: &RangePredicate<T>,
        probes: u64,
    ) -> ImprintStats {
        let masks = masks::make_masks(idx.binning(), pred);
        let mut s = ImprintStats::default();
        if masks.mask == 0 {
            s.access.lines_skipped = lines.len() as u64;
            return s;
        }
        s.access.index_probes = probes;
        let (vpb, n) = (idx.values_per_block() as u64, idx.rows() as u64);
        let compares = !PredicateKernel::new(pred).is_empty();
        for (l, &v) in (0u64..).zip(lines) {
            let rows = ((l + 1) * vpb).min(n) - l * vpb;
            if !masks.may_match(v) {
                s.access.lines_skipped += 1;
            } else if masks.fully_covered(v) {
                s.lines_full += 1;
                s.ids_via_full_lines += rows;
            } else {
                s.lines_checked += 1;
                s.access.lines_fetched += 1;
                s.access.value_comparisons += if compares { rows } else { 0 };
            }
        }
        s
    }

    /// Runs `run` into both sinks and checks each against the oracle's
    /// answer and the per-line reference's statistics.
    fn assert_runs_like_reference<T: Scalar>(
        name: &str,
        col: &Column<T>,
        pred: &RangePredicate<T>,
        expect: &ImprintStats,
        run: impl Fn(Hits) -> (Hits, ImprintStats),
    ) {
        let answer = oracle(col, pred);
        let (ids, stats) = run(Hits::new(false));
        assert_eq!(ids, Hits::Ids(answer.clone()), "{name}: {pred}");
        assert_eq!(&stats, expect, "{name}: {pred}");
        let (n, stats) = run(Hits::new(true));
        assert_eq!(n, Hits::Count(answer.len() as u64), "{name}: {pred}");
        assert_eq!(&stats, expect, "{name}: {pred} (counted)");
    }

    /// The probe walks dictionary entries, a distinct entry's vectors as one
    /// slice, and the walk checks adjacent lines in stretches; none of that
    /// may show in what a query answers or bills. The base index and an
    /// overlay with updates (§4.2) are held to statistics recomputed line
    /// by line from `line_imprints()`, in both sink modes, as is
    /// `candidate_id_ranges`.
    fn check_probe_per_line<T: Scalar>(
        col: &Column<T>,
        preds: &[RangePredicate<T>],
        updates: &[(u64, T)],
    ) {
        use crate::OverlayImprints;
        let idx = ColumnImprints::build(col);
        let lines: Vec<u64> = idx.line_imprints().collect();
        let runs: Vec<(u64, u64, u64)> = idx
            .runs()
            .flat_map(Run::entries)
            .map(|r| (r.first_line(), r.line_count(), r.vectors().len() as u64))
            .collect();
        let stored: u64 = runs.iter().map(|&(_, _, vectors)| vectors).sum();
        let vpb = idx.values_per_block() as u64;

        let mut updated = col.clone();
        let mut overlay = OverlayImprints::new(idx.clone());
        let mut dirty = lines.clone();
        for &(id, v) in updates {
            updated.values_mut()[id as usize] = v;
            overlay.note_update(id, v);
            dirty[(id / vpb) as usize] |= 1 << idx.binning().bin_of(v);
        }
        // The overlay probes each dirty line alone and splits a repeat run
        // around them: one probe per clean stretch left of it.
        let is_dirty = |l: u64| updates.iter().any(|&(id, _)| id / vpb == l);
        let overlay_probes: u64 = runs
            .iter()
            .map(|&(first, count, vectors)| {
                let range = first..first + count;
                if vectors == count {
                    return vectors;
                }
                let dirty = range.clone().filter(|&l| is_dirty(l)).count() as u64;
                let stretches =
                    range.filter(|&l| !is_dirty(l) && (l == first || is_dirty(l - 1))).count();
                dirty + stretches as u64
            })
            .sum();

        for pred in preds {
            let kernel = PredicateKernel::new(pred);
            let expect = per_line_reference(&idx, &lines, pred, stored);
            assert_runs_like_reference("base", col, pred, &expect, |h| run(&idx, col, &kernel, h));

            let (cands, stats) = candidate_id_ranges(&idx, pred);
            let skipped = ImprintStats {
                access: AccessStats {
                    index_probes: expect.access.index_probes,
                    lines_skipped: expect.access.lines_skipped,
                    ..AccessStats::default()
                },
                ..ImprintStats::default()
            };
            assert_eq!(stats, skipped, "candidates: {pred}");
            let masks = masks::make_masks(idx.binning(), pred);
            let mut want = RowRuns::new();
            for (l, &v) in (0u64..).zip(&lines) {
                if masks.may_match(v) {
                    want.push_run(l * vpb, ((l + 1) * vpb).min(col.len() as u64));
                }
            }
            assert_eq!(cands.runs().collect::<Vec<_>>(), want.runs().collect::<Vec<_>>());

            let expect = per_line_reference(&idx, &dirty, pred, overlay_probes);
            assert_runs_like_reference("overlay", &updated, pred, &expect, |h| {
                overlay.run(&updated, &kernel, h)
            });
        }
    }

    #[test]
    fn probe_matches_a_per_line_reference() {
        use colstore::Bound::Exclusive;
        // i32, 16 to a line, 203 lines and a 5-row tail: lines 2..=4 of
        // every five hold a constant (repeat entries of three lines), the
        // others distinct values.
        let mixed: Column<i32> = (0..16 * 203 + 5)
            .map(|i| if (i / 16) % 5 < 2 { (i * 37) % 3000 } else { 1500 })
            .collect();
        // Sorted runs of 200: long repeat entries and full lines.
        let sorted: Column<i32> = (0..16 * 203 + 5).map(|i| i / 200).collect();
        let preds = [
            RangePredicate::between(10, 400),
            RangePredicate::equals(1500),
            RangePredicate::between(100, 2500),
            RangePredicate::between(5, 9),
            RangePredicate::at_least(2900),
            RangePredicate::all(),
            RangePredicate::between(5000, 6000),
            RangePredicate::with_bounds(Exclusive(3), Exclusive(4)),
        ];
        let updates = [(5, 2999), (100, -5), (40, 1500), (1000, 7), (3251, 50), (3252, 12)];
        check_probe_per_line(&mixed, &preds, &updates);
        check_probe_per_line(&sorted, &preds, &updates);
        // u8, 64 to a line, and a 13-row tail.
        let bytes: Column<u8> =
            (0..64 * 50 + 13).map(|i| if i / 64 % 4 == 0 { (i % 200) as u8 } else { 9 }).collect();
        let preds = [
            RangePredicate::between(0u8, 50),
            RangePredicate::equals(9),
            RangePredicate::at_least(190),
            RangePredicate::with_bounds(Exclusive(9), Exclusive(10)),
        ];
        check_probe_per_line(&bytes, &preds, &[(3, 255), (700, 9), (3212, 0)]);
        // The walk's batch boundary: 0, 1, 63, 64, 65 and 129 stretches,
        // each one line of 20s and 25s to check, scattered between lines
        // of 40s the probe skips, or adjacent, every other one a line of
        // 20s emitted whole; a line to skip ends the column.
        let (check, full, skip) = ([20, 25], [20, 20], [40, 40]);
        let pred = RangePredicate::between(20, 30);
        for n in [0usize, 1, 63, 64, 65, 129] {
            for adjacent in [false, true] {
                let pattern = |k: usize| match (adjacent, k % 2) {
                    (false, 1) => skip,
                    (true, 1) => full,
                    _ => check,
                };
                let lines: Vec<[i32; 2]> = if adjacent {
                    (0..n).map(pattern).chain([skip]).collect()
                } else {
                    (0..2 * n).map(pattern).chain([skip]).collect()
                };
                let col: Column<i32> = lines.iter().flat_map(|l| l.repeat(8)).collect();
                let idx = ColumnImprints::build(&col);
                let expect = per_line_reference(
                    &idx,
                    &idx.line_imprints().collect::<Vec<_>>(),
                    &pred,
                    idx.imprint_count() as u64,
                );
                let full = if adjacent { n as u64 / 2 } else { 0 };
                assert_eq!((expect.lines_checked, expect.lines_full), (n as u64 - full, full));
                check_probe_per_line(&col, std::slice::from_ref(&pred), &[]);
            }
        }
    }

    /// The per-run probe loop the chunked walk replaced, kept as the
    /// reference it is held to: one run at a time, a distinct run's vectors
    /// billed as the run is entered, each vector extending the pending
    /// stretch or closing it.
    fn per_run_reference<'a, T: Scalar, B>(
        idx: &ColumnImprints<T>,
        runs: impl Iterator<Item = Run<'a>>,
        masks: QueryMasks,
        stats: &mut ImprintStats,
        mut visit: impl FnMut(&mut ImprintStats, Range<u64>, Range<u64>, bool) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if masks.mask == 0 {
            stats.access.lines_skipped = idx.line_count();
            return ControlFlow::Continue(());
        }
        let vpb = idx.values_per_block() as u64;
        let rows = idx.rows() as u64;
        let mut visit_lines = |stats: &mut ImprintStats, lines: Range<u64>, full| {
            if lines.is_empty() {
                return ControlFlow::Continue(());
            }
            let ids = lines.start * vpb..(lines.end * vpb).min(rows);
            visit(stats, lines, ids, full)
        };
        let (mut stretch, mut full) = (0..0, false);
        {
            let mut probe_vector = |stats: &mut ImprintStats, v: u64, line: u64, span: u64| {
                if !masks.may_match(v) {
                    stats.access.lines_skipped += span;
                } else if stretch.end == line && masks.fully_covered(v) == full {
                    stretch.end += span;
                } else {
                    visit_lines(stats, std::mem::replace(&mut stretch, line..line + span), full)?;
                    full = masks.fully_covered(v);
                }
                ControlFlow::Continue(())
            };
            for run in runs {
                match run {
                    Run::Repeat { imprint, first_line, line_count } => {
                        stats.access.index_probes += 1;
                        probe_vector(stats, imprint, first_line, line_count)?;
                    }
                    Run::Distinct { imprints, first_line } => {
                        stats.access.index_probes += imprints.len() as u64;
                        for (line, &v) in (first_line..).zip(imprints) {
                            probe_vector(stats, v, line, 1)?;
                        }
                    }
                    Run::Entries { .. } => unreachable!("the reference walks one entry at a time"),
                }
            }
        }
        visit_lines(stats, stretch, full)
    }

    /// One probe's visits — `(lines, ids, full)` per stretch — with the
    /// walk stopped at visit `stop` (never, if there are fewer), and the
    /// statistics it billed up to there.
    type Visits = (bool, Vec<(Range<u64>, Range<u64>, bool)>, ImprintStats);

    fn visits_until(
        stop: usize,
        walk: impl FnOnce(
            &mut ImprintStats,
            &mut dyn FnMut(&mut ImprintStats, Range<u64>, Range<u64>, bool) -> ControlFlow<()>,
        ) -> ControlFlow<()>,
    ) -> Visits {
        let mut seen = Vec::new();
        let mut stats = ImprintStats::default();
        let walked = walk(&mut stats, &mut |_, lines, ids, full| {
            if seen.len() == stop {
                return ControlFlow::Break(());
            }
            seen.push((lines, ids, full));
            ControlFlow::Continue(())
        });
        (walked.is_break(), seen, stats)
    }

    /// A column laid out piece by piece in cachelines: a `(repeat, lines,
    /// level, wide)` piece is `lines` lines that all hold one value
    /// pattern (one repeat entry) or change pattern every line (distinct
    /// vectors), then `tail` rows of a partial line. A pattern is one of 48
    /// levels, or two levels apart when `wide`, so that a query can cover
    /// a line in part; `level` maps a level to a value of `T`.
    fn shaped_column<T: Scalar>(
        pieces: &[(bool, usize, u32, bool)],
        tail: usize,
        level: fn(u32) -> T,
    ) -> Column<T> {
        let vpb = BuildOptions::default().values_per_block::<T>();
        let line = |l: u32, wide: bool| {
            (0..vpb).map(move |i| level(if wide && i % 2 == 1 { (l + 17) % 48 } else { l }))
        };
        let mut values = Vec::new();
        for &(repeat, lines, l, wide) in pieces {
            for i in 0..lines as u32 {
                let l = if repeat { l } else { (l + 5 * i) % 48 };
                values.extend(line(l, wide));
            }
        }
        values.extend(line(pieces[0].2, false).take(tail % vpb));
        Column::from(values)
    }

    /// Everything a probe answers or bills on one shaped column, against
    /// the per-line reference and the per-run reference loop: `run` into
    /// both sinks, `candidate_id_ranges`, `count_covered`, and the probe's
    /// own visits and statistics when its visitor stops it at every visit
    /// in turn (a sample of them on long walks) — including a stop whose
    /// trigger sits in the middle of a distinct entry, which bills that
    /// whole entry's probes.
    fn check_shaped<T: Scalar>(col: &Column<T>, level: fn(u32) -> T, a: u32, b: u32) {
        let idx = ColumnImprints::build(col);
        let lines: Vec<u64> = idx.line_imprints().collect();
        let vpb = idx.values_per_block() as u64;
        let (a, b) = (a.min(b), a.max(b));
        let preds = [
            RangePredicate::between(level(30), level(10)),
            RangePredicate::all(),
            RangePredicate::equals(level(a)),
            RangePredicate::between(level(a), level(b)),
            RangePredicate::half_open(level(a), level(b)),
            RangePredicate::at_least(level(b)),
        ];
        for pred in &preds {
            let kernel = PredicateKernel::new(pred);
            let expect = per_line_reference(&idx, &lines, pred, idx.imprint_count() as u64);
            assert_runs_like_reference("base", col, pred, &expect, |h| run(&idx, col, &kernel, h));

            let (cands, stats) = candidate_id_ranges(&idx, pred);
            assert_eq!(stats.access.index_probes, expect.access.index_probes, "{pred}");
            assert_eq!(stats.access.lines_skipped, expect.access.lines_skipped, "{pred}");
            let masks = masks::make_masks(idx.binning(), pred);
            let mut want = RowRuns::new();
            for (l, &v) in (0u64..).zip(&lines) {
                if masks.may_match(v) {
                    want.push_run(l * vpb, ((l + 1) * vpb).min(col.len() as u64));
                }
            }
            assert_eq!(cands.runs().collect::<Vec<_>>(), want.runs().collect::<Vec<_>>());

            let covered = count_covered(&idx, pred);
            if expect.lines_checked == 0 {
                let n = oracle(col, pred).len() as u64;
                assert_eq!(covered, Some((n, expect)), "covered: {pred}");
            } else {
                assert_eq!(covered, None, "straddled: {pred}");
            }

            let all = visits_until(usize::MAX, |stats, visit| {
                probe(&idx, idx.runs(), masks, stats, visit)
            });
            let step = (all.1.len() / 12).max(1);
            for stop in (0..=all.1.len()).step_by(step).chain([all.1.len()]) {
                let got =
                    visits_until(stop, |stats, visit| probe(&idx, idx.runs(), masks, stats, visit));
                let want = visits_until(stop, |stats, visit| {
                    per_run_reference(&idx, idx.runs().flat_map(Run::entries), masks, stats, visit)
                });
                assert_eq!(got, want, "{pred}, stopped at visit {stop}");
            }
        }
    }

    /// Piece lengths shorter than, straddling and longer than the walk's
    /// 64-vector chunk.
    fn arb_pieces() -> impl Strategy<Value = Vec<(bool, usize, u32, bool)>> {
        let lines = prop_oneof![6 => 1usize..5, 1 => 60usize..70, 1 => 120usize..140];
        proptest::collection::vec((any::<bool>(), lines, 0u32..48, any::<bool>()), 1..40)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn probe_walk_matches_the_references_u8(
            pieces in arb_pieces(), tail in 0usize..64, a in 0u32..48, b in 0u32..48,
        ) {
            let level = |l: u32| (l * 5) as u8;
            check_shaped(&shaped_column(&pieces, tail, level), level, a, b);
        }

        #[test]
        fn probe_walk_matches_the_references_i32(
            pieces in arb_pieces(), tail in 0usize..64, a in 0u32..48, b in 0u32..48,
        ) {
            let level = |l: u32| (l as i32 - 24) * 1000;
            check_shaped(&shaped_column(&pieces, tail, level), level, a, b);
        }

        #[test]
        fn probe_walk_matches_the_references_i64(
            pieces in arb_pieces(), tail in 0usize..64, a in 0u32..48, b in 0u32..48,
        ) {
            let level = |l: u32| (i64::from(l) - 24) * 1_000_000_007;
            check_shaped(&shaped_column(&pieces, tail, level), level, a, b);
        }

        #[test]
        fn probe_walk_matches_the_references_f64(
            pieces in arb_pieces(), tail in 0usize..64, a in 0u32..48, b in 0u32..48,
        ) {
            let level = |l: u32| f64::from(l) * 0.25 - 6.0;
            check_shaped(&shaped_column(&pieces, tail, level), level, a, b);
        }
    }
}
