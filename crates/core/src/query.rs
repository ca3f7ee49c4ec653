//! Range-query evaluation over the imprints index (Algorithm 3).
//!
//! The evaluator walks the cacheline dictionary. For a *distinct* run it
//! probes `cnt` imprint vectors, one cacheline each; for a *repeat* run one
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
//! Besides materialized evaluation the module offers the
//! late-materialization path of §3: [`candidates`] returns the qualifying
//! cachelines as a [`CachelineSet`] (to be merge-joined across attributes)
//! and [`refine`] applies the false-positive check afterwards.
//!
//! The false-positive check itself — case 3's per-value compare — routes
//! through the [`crate::simd`] refinement kernels: the predicate is
//! compiled once per evaluation into a [`PredicateKernel`] and each
//! fetched cacheline is weeded either by the `u64`-word SWAR kernel or by
//! the scalar oracle loop. The walk is written once, in [`run`]: it takes
//! the compiled kernel and a [`Hits`] sink, so materializing ids
//! ([`evaluate`]) and counting ([`count`]) are the same traversal with a
//! different sink. The `value_comparisons` statistic counts values the
//! kernel actually examined, identically under both kernels — a predicate
//! that can match nothing examines none.

use colstore::{AccessStats, CachelineSet, Column, IdList, RangePredicate, Scalar};

use crate::index::ColumnImprints;
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

/// Algorithm 3: evaluates the kernel's predicate over `col` through the
/// index into `hits` — the one imprint walk every entry point reaches.
/// The kernel carries both the predicate and the refinement flavour
/// ([`PredicateKernel::with_kernel`] pins one; the differential harness
/// races SWAR against the scalar oracle through here).
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
    walk(idx, col, kernel, masks::make_masks(idx.binning(), kernel.predicate()), hits)
}

fn walk<T: Scalar>(
    idx: &ColumnImprints<T>,
    col: &Column<T>,
    kernel: &PredicateKernel<T>,
    masks: QueryMasks,
    mut hits: Hits,
) -> (Hits, ImprintStats) {
    assert_eq!(col.len(), idx.rows(), "index does not cover this column");
    let mut stats = ImprintStats::default();
    if masks.mask == 0 {
        stats.access.lines_skipped = idx.line_count();
        return (hits, stats);
    }
    let values = col.values();
    let vpb = idx.values_per_block() as u64;
    let rows = idx.rows() as u64;
    let not_inner = !masks.innermask;
    // A distinct run is one cacheline per probe; a repeat run (and the
    // partial tail) lets one probe decide `line_count` cachelines at once.
    for run in idx.runs() {
        stats.access.index_probes += 1;
        if run.imprint & masks.mask == 0 {
            stats.access.lines_skipped += run.line_count;
            continue;
        }
        let ids = run.first_line * vpb..((run.first_line + run.line_count) * vpb).min(rows);
        if run.imprint & not_inner == 0 {
            stats.lines_full += run.line_count;
            stats.ids_via_full_lines += ids.end - ids.start;
            hits.emit(ids);
        } else {
            stats.lines_checked += run.line_count;
            stats.access.lines_fetched += run.line_count;
            kernel.check(values, ids, &mut hits, &mut stats.access.value_comparisons);
        }
    }
    (hits, stats)
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
    let (hits, stats) = walk(idx, col, &PredicateKernel::new(pred), masks, Hits::new(false));
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

/// Late materialization, step 1 (§3): the cachelines that *may* contain
/// matches, as a coalesced [`CachelineSet`] in cacheline space.
pub fn candidates<T: Scalar>(
    idx: &ColumnImprints<T>,
    pred: &RangePredicate<T>,
) -> (CachelineSet, ImprintStats) {
    let mut stats = ImprintStats::default();
    let masks = masks::make_masks(idx.binning(), pred);
    let mut set = CachelineSet::new();
    if masks.mask == 0 {
        stats.access.lines_skipped = idx.line_count();
        return (set, stats);
    }
    for run in idx.runs() {
        stats.access.index_probes += 1;
        if run.imprint & masks.mask != 0 {
            set.push_run(run.first_line, run.first_line + run.line_count);
        } else {
            stats.access.lines_skipped += run.line_count;
        }
    }
    (set, stats)
}

/// Like [`candidates`], but expressed as *row-id* ranges, so candidate sets
/// of columns with different value widths (hence different cacheline
/// geometry) can be merge-joined with [`CachelineSet::intersect`].
pub fn candidate_id_ranges<T: Scalar>(
    idx: &ColumnImprints<T>,
    pred: &RangePredicate<T>,
) -> (CachelineSet, ImprintStats) {
    let (lines, stats) = candidates(idx, pred);
    let vpb = idx.values_per_block() as u64;
    let rows = idx.rows() as u64;
    let mut ids = CachelineSet::new();
    for r in lines.runs() {
        let start = r.start * vpb;
        let end = (r.end * vpb).min(rows);
        if start < end {
            ids.push_run(start, end);
        }
    }
    (ids, stats)
}

/// Sets row bits `start..end` in a row-space bitvec (`words[i]` covers rows
/// `64*i..64*i+64`, row `r` = bit `r % 64` of word `r / 64`).
fn set_row_bits(words: &mut [u64], start: u64, end: u64) {
    if start >= end {
        return;
    }
    let (sw, sb) = ((start / 64) as usize, start % 64);
    let (ew, eb) = ((end / 64) as usize, end % 64);
    if sw == ew {
        words[sw] |= ((1u64 << (end - start)) - 1) << sb;
        return;
    }
    words[sw] |= u64::MAX << sb;
    for w in &mut words[sw + 1..ew] {
        *w = u64::MAX;
    }
    if eb > 0 {
        words[ew] |= (1u64 << eb) - 1;
    }
}

/// Classifies every row of the column into the three outcomes of
/// Algorithm 3, expressed as **row-space bitvecs** so classifications of
/// columns with different value widths (hence different cacheline
/// geometry) can be ANDed word-wise by a multi-predicate plan:
///
/// * bit set in `cand` — the row's cacheline imprint overlaps `masks.mask`
///   (the row may match);
/// * bit set in `full` — additionally every set imprint bit is an inner
///   bin (the row *does* match, no value check needed). `full ⊆ cand`.
///
/// Rows in neither vector are guaranteed non-matching. Both slices must
/// hold `rows.div_ceil(64)` words and arrive zeroed (bits are only ever
/// set). The partial tail line, when present, is classified like any other
/// run ([`ColumnImprints::runs`] yields it). Returns the index-side costs:
/// one probe per imprint run, skips counted in cachelines.
///
/// # Panics
/// Panics if the slices are shorter than the column's row count requires.
pub fn classify_rows<T: Scalar>(
    idx: &ColumnImprints<T>,
    masks: &QueryMasks,
    cand: &mut [u64],
    full: &mut [u64],
) -> ImprintStats {
    let mut stats = ImprintStats::default();
    if masks.mask == 0 {
        stats.access.lines_skipped = idx.line_count();
        return stats;
    }
    let vpb = idx.values_per_block() as u64;
    let rows = idx.rows() as u64;
    let words = rows.div_ceil(64) as usize;
    assert!(cand.len() >= words && full.len() >= words, "bitvecs shorter than the column");
    let not_inner = !masks.innermask;
    for run in idx.runs() {
        stats.access.index_probes += 1;
        if run.imprint & masks.mask == 0 {
            stats.access.lines_skipped += run.line_count;
            continue;
        }
        let start = run.first_line * vpb;
        let end = ((run.first_line + run.line_count) * vpb).min(rows);
        set_row_bits(cand, start, end);
        if run.imprint & not_inner == 0 {
            // Whether the line is *emitted* wholesale is the plan's call
            // (another predicate may still need a check), so lines_full /
            // fetch costs are billed by the consumer, not here.
            set_row_bits(full, start, end);
        }
    }
    stats
}

/// Late materialization, step 2: weeds out false positives from an
/// *id-space* candidate set (as produced by [`candidate_id_ranges`],
/// possibly intersected across attributes) with the compiled `kernel` and
/// materializes the final ids.
pub fn refine<T: Scalar>(
    col: &Column<T>,
    kernel: &PredicateKernel<T>,
    id_candidates: &CachelineSet,
    stats: &mut ImprintStats,
) -> IdList {
    let values = col.values();
    let mut hits = Hits::new(false);
    for r in id_candidates.runs() {
        kernel.check(values, r, &mut hits, &mut stats.access.value_comparisons);
    }
    hits.into_ids()
}

/// Full multi-attribute conjunction over two columns of possibly different
/// types: per-column candidate generation, id-space merge-join, then one
/// refinement pass per column — the query plan sketched at the end of §3.
pub fn conjunction2<A: Scalar, B: Scalar>(
    (idx_a, col_a, pred_a): (&ColumnImprints<A>, &Column<A>, &RangePredicate<A>),
    (idx_b, col_b, pred_b): (&ColumnImprints<B>, &Column<B>, &RangePredicate<B>),
) -> (IdList, ImprintStats) {
    assert_eq!(col_a.len(), col_b.len(), "conjunction requires one relation");
    let mut stats = ImprintStats::default();
    let (ca, sa) = candidate_id_ranges(idx_a, pred_a);
    let (cb, sb) = candidate_id_ranges(idx_b, pred_b);
    stats.access.merge(&sa.access);
    stats.access.merge(&sb.access);
    let joint = ca.intersect(&cb);
    let a_ids = refine(col_a, &PredicateKernel::new(pred_a), &joint, &mut stats);
    // Refine B only on ids that survived A (the increasing-selectivity
    // expectation of §3). Survivors are scattered ids, so the per-value
    // kernel check applies, not the chunked one.
    let values_b = col_b.values();
    let kernel_b = PredicateKernel::new(pred_b);
    let mut out = Vec::with_capacity(a_ids.len());
    for id in a_ids.iter() {
        stats.access.value_comparisons += 1;
        if kernel_b.matches(&values_b[id as usize]) {
            out.push(id);
        }
    }
    (IdList::from_sorted(out), stats)
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
        let (cands, _) = candidates(&idx, &pred);
        let vpb = idx.values_per_block() as u64;
        for id in oracle(&col, &pred) {
            assert!(cands.contains(id / vpb), "matching id {id} not in candidate lines");
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
    fn conjunction_two_attributes() {
        // Same relation, different widths: i32 and f64.
        let n = 8000usize;
        let a: Column<i32> = (0..n as i32).map(|i| i % 100).collect();
        let b: Column<f64> = (0..n).map(|i| (i % 37) as f64).collect();
        let ia = ColumnImprints::build(&a);
        let ib = ColumnImprints::build(&b);
        let pa = RangePredicate::between(10, 20);
        let pb = RangePredicate::between(5.0, 9.0);
        let (ids, _) = conjunction2((&ia, &a, &pa), (&ib, &b, &pb));
        let expect: Vec<u64> = (0..n as u64)
            .filter(|&i| {
                let va = a.get(i as usize).unwrap();
                let vb = b.get(i as usize).unwrap();
                (10..=20).contains(&va) && (5.0..=9.0).contains(&vb)
            })
            .collect();
        assert_eq!(ids.as_slice(), expect.as_slice());
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
        let mut cands = CachelineSet::new();
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
    fn set_row_bits_spans_word_boundaries() {
        let mut w = vec![0u64; 4];
        set_row_bits(&mut w, 3, 3); // empty span is a no-op
        assert_eq!(w, [0, 0, 0, 0]);
        set_row_bits(&mut w, 2, 5);
        assert_eq!(w[0], 0b11100);
        set_row_bits(&mut w, 60, 130);
        assert_eq!(w[0], 0b11100 | (0b1111 << 60));
        assert_eq!(w[1], u64::MAX);
        assert_eq!(w[2], 0b11);
        let mut w = vec![0u64; 2];
        set_row_bits(&mut w, 0, 128); // exact word multiples: no partial tail word
        assert_eq!(w, [u64::MAX, u64::MAX]);
    }

    #[test]
    fn classify_rows_brackets_evaluate() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        // 10_007 rows: forces a partial tail line and a ragged last word.
        let col: Column<i64> = (0..10_007).map(|_| rng.gen_range(-500..500)).collect();
        let idx = ColumnImprints::build(&col);
        let words = col.len().div_ceil(64);
        for pred in [
            RangePredicate::between(-50, 50),
            RangePredicate::at_least(400),
            RangePredicate::all(),
            RangePredicate::between(10, 5),
        ] {
            let masks = masks::make_masks(idx.binning(), &pred);
            let mut cand = vec![0u64; words];
            let mut full = vec![0u64; words];
            let stats = classify_rows(&idx, &masks, &mut cand, &mut full);
            let bit = |w: &[u64], r: u64| w[(r / 64) as usize] >> (r % 64) & 1 == 1;
            for r in 0..col.len() as u64 {
                assert!(!bit(&full, r) || bit(&cand, r), "full ⊆ cand violated at {r}");
                let matches = pred.matches(&col.values()[r as usize]);
                if matches {
                    assert!(bit(&cand, r), "{pred}: matching row {r} not a candidate");
                }
                if bit(&full, r) {
                    assert!(matches, "{pred}: fully-covered row {r} does not match");
                }
            }
            // No bits beyond the last row.
            let tail_bits = col.len() as u64 % 64;
            if tail_bits > 0 {
                assert_eq!(cand[words - 1] >> tail_bits, 0, "{pred}: ghost rows set");
            }
            // Probe accounting mirrors the other entry points.
            let (_, estats) = evaluate(&idx, &col, &pred);
            assert_eq!(stats.access.index_probes, estats.access.index_probes, "{pred}");
        }
    }

    #[test]
    fn probes_accounting_matches_structure() {
        let col: Column<i32> = (0..16_000).map(|i| i % 4).collect();
        let idx = ColumnImprints::build(&col);
        let (_, stats) = evaluate(&idx, &col, &RangePredicate::all());
        // One probe per stored imprint (plus tail if present).
        assert_eq!(stats.access.index_probes as usize, idx.imprint_count());
    }
}
