//! Vectorized false-positive refinement: lane-width predicate kernels.
//!
//! Algorithm 3 spends its residual cost weeding false positives out of
//! candidate cachelines — the value-check step of [`crate::query`], and
//! its siblings in the zonemap/scan baselines and the engine's write-head
//! path. Once imprint pruning is cheap, that refinement loop is where a
//! secondary index wins or loses (the BitWeaving/Hermit/LSI observation),
//! so this module evaluates a [`RangePredicate`] over 64 values at once
//! with a **portable, safe loop the compiler vectorizes** — no `unsafe`,
//! no target intrinsics, no runtime detection — and keeps the classic
//! one-value-at-a-time loop as a selectable oracle.
//!
//! ## How the vector kernel works
//!
//! 1. **Key reduction.** Every value maps to an order-preserving unsigned
//!    key of its own width ([`Scalar::sort_key`]): identity for unsigned
//!    integers, a sign-bit flip for signed ones, the IEEE-754 `totalOrder`
//!    rank for floats. Because the map is a monotone *bijection* onto
//!    `0..2^w`, any predicate — inclusive/exclusive/unbounded on either
//!    side — reduces to one **inclusive** key interval `[lo, hi]`
//!    (exclusive bounds step to the key-space neighbour; an impossible
//!    step means the predicate matches nothing and the kernel answers
//!    without touching data).
//! 2. **Lane-width compare.** In the key's own width `w`, `k` lies in
//!    `[lo, hi]` exactly when `(k − lo) mod 2^w ≤ hi − lo`: one wrapping
//!    subtraction and one unsigned compare per value, no branch. Both
//!    sides are cut to `w` bits, which is what lets the compiler keep
//!    `w`-bit lanes (four `i32` per 128-bit register) instead of widening
//!    every key to 64 bits.
//! 3. **Bitmask results.** Per 64-value chunk the compares land in 64
//!    bytes, packed eight at a time into a `u64` bitmask (bit *i* = value
//!    *i* matches) by one multiply each. Materialization iterates set bits
//!    (cheap when matches are sparse — exactly the false-positive-heavy
//!    regime). Counting one range needs no mask: the compares are summed
//!    as they come; a set of ranges popcounts the union of its masks.
//!
//! ## Kernel selection
//!
//! [`RefineKernel`] picks the kernel: `Auto` (currently the vector kernel),
//! `Scalar` (the original loop, kept as the **differential oracle** — the
//! two kernels must return byte-identical ids and identical statistics,
//! which `tests/kernel_differential.rs` proptests across all scalar
//! types, partial-tail geometries and all four access paths), or `Swar`
//! (the vector kernel, under its historical name).
//! There is one configured selection, the engine's per-table
//! `EngineConfig::refine_kernel`; it resolves through
//! [`effective_kernel`] and is compiled into each query when the query is
//! resolved ([`crate::relation_index::resolve_sets`]). Bare entry points
//! without a kernel argument run under [`ambient_kernel`], which is `Auto`.
//! In both cases the `IMPRINTS_REFINE_KERNEL` environment variable
//! (`auto`/`scalar`/`swar`) overrides, which is how CI forces the scalar
//! fallback through the whole test suite so it can never rot
//! unexercised. A kernel compiled with an explicit selection
//! ([`PredicateKernel::with_kernel`]) bypasses everything, which is how
//! differential tests and benchmarks race the two.
//!
//! ## The result sink
//!
//! Every evaluation — whichever access path walks the column — does one of
//! two things to a stretch of rows: emit it wholesale, or value-check it
//! with a compiled kernel. [`Hits`] is the one sink both land in, as
//! materialized ids or as a bare count, so each walk is written once and
//! counting is that walk with [`Hits::Count`] plugged in.
//!
//! The refinement loops are written once too. A single range
//! ([`PredicateKernel`]) and a set of ranges ([`SetKernel`]) differ only
//! in how the match bitmask of one ≤64-value chunk is computed; the walk
//! over contiguous rows into the sink (`check_chunks`) and the gather walk
//! over scattered ids (`gather_chunks`) take that as a closure; only a
//! single range counting into a [`Hits::Count`] skips the mask. The scalar
//! flavour stays outside them: it is the oracle, and keeps its straight
//! `for v in values` loops.

use std::ops::Range;
use std::str::FromStr;
use std::sync::OnceLock;

use colstore::{Bound, IdList, RangePredicate, Scalar};

/// Which kernel weeds false positives out of fetched cachelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefineKernel {
    /// Resolve automatically. Currently the vector kernel, for every type:
    /// the benchmark measures both kernels on every workload
    /// (`core.refine_gbps` beside `core.refine_scalar_gbps`) and the
    /// vector kernel reads at least as fast on each. The variant exists so
    /// the resolution policy can follow those rows (e.g. per-type choices)
    /// without an API change.
    #[default]
    Auto,
    /// The branchy one-value-at-a-time loop — the differential oracle.
    Scalar,
    /// The vector kernel: a lane-width compare of 64 values at a time
    /// into a bitmask. The name is historical (it was a `u64`-word SWAR
    /// kernel once) and stays, with its `swar` spelling, for the callers
    /// and environments that select it.
    Swar,
}

impl RefineKernel {
    /// Whether this selection resolves to the vector kernel.
    fn use_vector(self) -> bool {
        !matches!(self, RefineKernel::Scalar)
    }

    /// Short name (`auto`/`scalar`/`swar`).
    pub fn name(self) -> &'static str {
        match self {
            RefineKernel::Auto => "auto",
            RefineKernel::Scalar => "scalar",
            RefineKernel::Swar => "swar",
        }
    }
}

impl FromStr for RefineKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(RefineKernel::Auto),
            "scalar" => Ok(RefineKernel::Scalar),
            "swar" | "simd" => Ok(RefineKernel::Swar),
            other => Err(format!("unknown refine kernel {other:?} (auto|scalar|swar)")),
        }
    }
}

impl std::fmt::Display for RefineKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Environment variable overriding the ambient kernel selection.
pub const KERNEL_ENV_VAR: &str = "IMPRINTS_REFINE_KERNEL";

/// The env override, parsed once. A malformed value is reported to stderr
/// once and ignored rather than panicking inside arbitrary query paths.
fn env_kernel() -> Option<RefineKernel> {
    static ENV: OnceLock<Option<RefineKernel>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var(KERNEL_ENV_VAR).ok()?;
        match raw.parse() {
            Ok(k) => Some(k),
            Err(e) => {
                eprintln!("[imprints] ignoring {KERNEL_ENV_VAR}: {e}");
                None
            }
        }
    })
}

/// The selection bare entry points without a kernel argument run under:
/// the env override if present, else [`RefineKernel::Auto`].
pub fn ambient_kernel() -> RefineKernel {
    env_kernel().unwrap_or(RefineKernel::Auto)
}

/// Resolves a *configured* selection (e.g. a per-table
/// `EngineConfig::refine_kernel`) against the environment: the
/// [`KERNEL_ENV_VAR`] override wins when set to a valid value, otherwise
/// the configuration applies as-is. This is how scoped configuration
/// coexists with the CI-wide forcing knob without any process-global
/// state.
pub fn effective_kernel(configured: RefineKernel) -> RefineKernel {
    env_kernel().unwrap_or(configured)
}

/// The result sink of an evaluation: matching row ids in ascending order,
/// or only their number. An access path feeds it through the two
/// operations Algorithm 3 consists of — [`Hits::emit`] ("these ids all
/// match") and a kernel's `check` ("value-check this range") — and never
/// learns which of the two modes it is serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hits {
    /// Materialized ids, ascending.
    Ids(Vec<u64>),
    /// Number of matching rows.
    Count(u64),
}

impl Hits {
    /// An empty sink: counting when `count_only`, materializing otherwise.
    pub fn new(count_only: bool) -> Hits {
        if count_only {
            Hits::Count(0)
        } else {
            Hits::Ids(Vec::new())
        }
    }

    /// Wraps already-materialized ids in the requested mode.
    pub fn from_ids(ids: Vec<u64>, count_only: bool) -> Hits {
        if count_only {
            Hits::Count(ids.len() as u64)
        } else {
            Hits::Ids(ids)
        }
    }

    /// Matching rows recorded so far.
    pub fn len(&self) -> u64 {
        match self {
            Hits::Ids(ids) => ids.len() as u64,
            Hits::Count(n) => *n,
        }
    }

    /// Whether no row matched so far.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every id of `ids` matches — no value was looked at.
    #[inline]
    pub fn emit(&mut self, ids: Range<u64>) {
        match self {
            Hits::Ids(out) => out.extend(ids),
            Hits::Count(n) => *n += ids.end.saturating_sub(ids.start),
        }
    }

    /// [`Hits::emit`] for a 64-row bit word: bit `i` of `mask` set means
    /// row `base + i` matches (the shape bitmap and fused-mask plans
    /// produce). Counting popcounts the word instead of walking its bits.
    #[inline]
    pub fn emit_mask(&mut self, base: u64, mut mask: u64) {
        match self {
            Hits::Ids(out) => {
                while mask != 0 {
                    out.push(base + u64::from(mask.trailing_zeros()));
                    mask &= mask - 1;
                }
            }
            Hits::Count(n) => *n += u64::from(mask.count_ones()),
        }
    }

    /// Folds in `part`, the result of the same query over a later stretch
    /// of rows numbered from `base` (a segment, the write head).
    ///
    /// # Panics
    /// Panics if an id sink is handed a counted part — the ids are gone.
    pub fn absorb(&mut self, part: Hits, base: u64) {
        match (self, part) {
            (Hits::Ids(out), Hits::Ids(ids)) => out.extend(ids.into_iter().map(|id| id + base)),
            (Hits::Count(n), part) => *n += part.len(),
            (Hits::Ids(_), Hits::Count(_)) => panic!("an id sink cannot absorb a counted part"),
        }
    }

    /// The materialized ids.
    ///
    /// # Panics
    /// Panics on a counting sink.
    pub fn into_ids(self) -> IdList {
        match self {
            Hits::Ids(ids) => IdList::from_sorted(ids),
            Hits::Count(_) => panic!("a counting sink holds no ids"),
        }
    }
}

/// A [`RangePredicate`] compiled for repeated evaluation over cachelines:
/// the key-range reduction and kernel choice happen **once** per query,
/// not once per line. Both kernels share the compiled empty-range
/// early-out, so the `value_comparisons` statistic counts *values actually
/// compared* identically under either kernel — a predicate that can match
/// nothing examines no data and reports zero comparisons.
#[derive(Debug, Clone, Copy)]
pub struct PredicateKernel<T: Scalar> {
    pred: RangePredicate<T>,
    /// The inclusive sort-key interval `[lo, hi]` as `(lo, hi - lo)`;
    /// `None` = matches nothing.
    keys: Option<(u64, u64)>,
    vector: bool,
}

impl<T: Scalar> PredicateKernel<T> {
    /// Compiles `pred` under the ambient kernel selection.
    pub fn new(pred: &RangePredicate<T>) -> Self {
        Self::with_kernel(pred, ambient_kernel())
    }

    /// Compiles `pred` under an explicit kernel (differential testing).
    pub fn with_kernel(pred: &RangePredicate<T>, kernel: RefineKernel) -> Self {
        let keys = key_bounds(pred).map(|(lo, hi)| (lo, hi - lo));
        PredicateKernel { pred: *pred, keys, vector: kernel.use_vector() }
    }

    /// The predicate this kernel was compiled from.
    pub fn predicate(&self) -> &RangePredicate<T> {
        &self.pred
    }

    /// Whether the predicate can match no value at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_none()
    }

    /// Value-checks `values[ids]` into `hits` — the false-positive weeding
    /// step of every access path — bumping `comparisons` by the values
    /// actually examined (zero when the predicate can match nothing). The
    /// scalar flavour is the oracle and keeps its straight
    /// one-value-at-a-time loops; the vector flavour sums its lane compare
    /// straight into a counting sink, and walks `check_chunks` for ids.
    ///
    /// # Panics
    /// Panics if `ids` is out of bounds for `values`.
    #[inline]
    pub fn check(&self, values: &[T], ids: Range<u64>, hits: &mut Hits, comparisons: &mut u64) {
        let Some((lo, span)) = self.keys else { return };
        let slice = &values[ids.start as usize..ids.end as usize];
        *comparisons += slice.len() as u64;
        match (self.vector, hits) {
            (true, Hits::Count(n)) => {
                *n += slice.iter().filter(|v| in_span::<T>(v.sort_key(), lo, span)).count() as u64;
            }
            (true, hits) => {
                check_chunks(slice, ids.start, hits, |chunk| lane_mask(chunk, lo, span))
            }
            (false, hits) => check_scalar(&self.pred, slice, ids.start, hits),
        }
    }

    /// Counts matching values in `values[ids]` without materializing ids:
    /// [`PredicateKernel::check`] into a counting sink.
    ///
    /// # Panics
    /// Panics if `ids` is out of bounds for `values`.
    pub fn count_matches(&self, values: &[T], ids: Range<u64>, comparisons: &mut u64) -> u64 {
        let mut hits = Hits::Count(0);
        self.check(values, ids, &mut hits, comparisons);
        hits.len()
    }

    /// Whether one value matches — the single-survivor check used by
    /// conjunction refinement, WAH edge bins and the open write head. The
    /// vector flavour is its lane compare on one sort key; the scalar
    /// flavour is the original short-circuit `matches`.
    #[inline]
    pub fn matches(&self, v: &T) -> bool {
        let Some((lo, span)) = self.keys else { return false };
        if self.vector {
            in_span::<T>(v.sort_key(), lo, span)
        } else {
            self.pred.matches(v)
        }
    }

    /// Match bitmask of one chunk of up to 64 values: bit `i` set iff
    /// `chunk[i]` matches. Exposed for the per-lane boundary tests.
    ///
    /// # Panics
    /// Panics if `chunk.len() > 64`.
    pub fn match_mask(&self, chunk: &[T]) -> u64 {
        assert!(chunk.len() <= 64, "a chunk is at most 64 values");
        let Some((lo, span)) = self.keys else { return 0 };
        if self.vector {
            lane_mask(chunk, lo, span)
        } else {
            let mut mask = 0u64;
            for (i, v) in chunk.iter().enumerate() {
                mask |= (self.pred.matches(v) as u64) << i;
            }
            mask
        }
    }

    /// Keeps only the ids whose value matches — the **gather-style kernel
    /// over scattered ids** used when a conjunction weeds survivors that no
    /// longer form contiguous runs. The vector flavour gathers up to 64
    /// values into one stack chunk, evaluates the whole chunk branch-free,
    /// and compacts survivors in place; the scalar flavour is the oracle
    /// loop. An empty predicate clears the list and bills zero comparisons.
    ///
    /// # Panics
    /// Panics if any id is out of bounds for `values`.
    pub fn filter_ids(&self, values: &[T], ids: &mut Vec<u64>, comparisons: &mut u64) {
        let Some((lo, span)) = self.keys else {
            ids.clear();
            return;
        };
        *comparisons += ids.len() as u64;
        if self.vector {
            gather_chunks(values, ids, |chunk| lane_mask(chunk, lo, span));
        } else {
            ids.retain(|&id| self.pred.matches(&values[id as usize]));
        }
    }
}

/// The oracle's walk: `slice`, whose first value is row `base`, one value
/// at a time through [`RangePredicate::matches`]. Deliberately not built
/// on a per-chunk mask like [`check_chunks`]: these straight loops are
/// what the vector kernel is checked against, and `core.refine_scalar_gbps`
/// is a ledger row that the detour through a mask costs a third of.
fn check_scalar<T: Scalar>(pred: &RangePredicate<T>, slice: &[T], base: u64, hits: &mut Hits) {
    match hits {
        Hits::Ids(out) => {
            for (i, v) in slice.iter().enumerate() {
                if pred.matches(v) {
                    out.push(base + i as u64);
                }
            }
        }
        Hits::Count(n) => *n += slice.iter().filter(|v| pred.matches(v)).count() as u64,
    }
}

/// The chunk walk: value-checks `slice`, whose first value is row `base`,
/// 64 values at a time — `mask_of` turns a chunk into its match bitmask,
/// which lands in `hits` as set-bit ids or a popcount. What a single range
/// and a set of ranges differ in is `mask_of`; the walk is this one.
#[inline]
fn check_chunks<T>(slice: &[T], base: u64, hits: &mut Hits, mask_of: impl Fn(&[T]) -> u64) {
    for (c, chunk) in slice.chunks(64).enumerate() {
        hits.emit_mask(base + c as u64 * 64, mask_of(chunk));
    }
}

/// The gather walk over scattered ids: up to 64 values are gathered into
/// one stack chunk, `mask_of` evaluates the whole chunk branch-free, and
/// the survivors are compacted in place.
fn gather_chunks<T: Scalar>(values: &[T], ids: &mut Vec<u64>, mask_of: impl Fn(&[T]) -> u64) {
    let n = ids.len();
    let (mut read, mut write) = (0usize, 0usize);
    let mut buf = [T::MIN_VALUE; 64];
    while read < n {
        let k = (n - read).min(64);
        for (slot, &id) in buf.iter_mut().zip(&ids[read..read + k]) {
            *slot = values[id as usize];
        }
        let mut mask = mask_of(&buf[..k]);
        while mask != 0 {
            ids[write] = ids[read + mask.trailing_zeros() as usize];
            write += 1;
            mask &= mask - 1;
        }
        read += k;
    }
    ids.truncate(write);
}

/// A compiled disjunction of range predicates on one column — the kernel
/// form of a [`crate::relation_index::ValueSet`] (IN-lists, OR terms). It
/// keeps one [`PredicateKernel`] per term, impossible ones included, so the
/// plan sees the set's terms as the query wrote them ([`SetKernel::terms`]).
/// A value matches when any term matches; the value checks skip impossible
/// terms, so an all-empty set examines no data and bills zero comparisons,
/// exactly like an empty [`PredicateKernel`]. Comparison accounting counts
/// each value examined **once**, regardless of how many terms it is tested
/// against — the statistic tracks data touched, not arithmetic.
#[derive(Debug, Clone)]
pub struct SetKernel<T: Scalar> {
    kernels: Vec<PredicateKernel<T>>,
}

impl<T: Scalar> SetKernel<T> {
    /// Compiles `terms` under an explicit kernel.
    pub fn with_kernel(terms: &[RangePredicate<T>], kernel: RefineKernel) -> Self {
        SetKernel {
            kernels: terms.iter().map(|p| PredicateKernel::with_kernel(p, kernel)).collect(),
        }
    }

    /// One compiled kernel per term, in query order.
    pub(crate) fn terms(&self) -> &[PredicateKernel<T>] {
        &self.kernels
    }

    /// Whether no value can match (every term is impossible).
    pub fn is_empty(&self) -> bool {
        self.kernels.iter().all(PredicateKernel::is_empty)
    }

    /// The first two terms that can match a value: with none, nothing is
    /// examined; with exactly one, its own kernel runs.
    fn live(&self) -> (Option<&PredicateKernel<T>>, Option<&PredicateKernel<T>>) {
        let mut live = self.kernels.iter().filter(|k| !k.is_empty());
        (live.next(), live.next())
    }

    /// Value-checks `values[ids]` into `hits`, with single-visit comparison
    /// accounting ([`PredicateKernel::check`] for set predicates).
    ///
    /// # Panics
    /// Panics if `ids` is out of bounds for `values`.
    pub fn check(&self, values: &[T], ids: Range<u64>, hits: &mut Hits, comparisons: &mut u64) {
        match self.live() {
            (None, _) => {}
            (Some(one), None) => one.check(values, ids, hits, comparisons),
            _ => {
                let slice = &values[ids.start as usize..ids.end as usize];
                *comparisons += slice.len() as u64;
                check_chunks(slice, ids.start, hits, |chunk| self.union_mask(chunk));
            }
        }
    }

    /// Whether one value matches any term.
    #[inline]
    pub fn matches(&self, v: &T) -> bool {
        self.kernels.iter().any(|k| k.matches(v))
    }

    /// Match bitmask of one chunk of up to 64 values — the OR of the term
    /// masks (an impossible term's is 0).
    fn union_mask(&self, chunk: &[T]) -> u64 {
        self.kernels.iter().fold(0u64, |m, k| m | k.match_mask(chunk))
    }

    /// Keeps only the ids whose value matches any term — the scattered-id
    /// gather filter ([`PredicateKernel::filter_ids`]) for set predicates.
    ///
    /// # Panics
    /// Panics if any id is out of bounds for `values`.
    pub fn filter_ids(&self, values: &[T], ids: &mut Vec<u64>, comparisons: &mut u64) {
        match self.live() {
            (None, _) => ids.clear(),
            (Some(one), None) => one.filter_ids(values, ids, comparisons),
            _ => {
                *comparisons += ids.len() as u64;
                gather_chunks(values, ids, |chunk| self.union_mask(chunk));
            }
        }
    }
}

/// Reduces `pred` to an inclusive sort-key interval; `None` when no value
/// can match. Exact because [`Scalar::sort_key`] is a monotone bijection
/// onto the full `0..2^LANE_BITS` key space: stepping a key is stepping
/// the value in total order.
fn key_bounds<T: Scalar>(pred: &RangePredicate<T>) -> Option<(u64, u64)> {
    let max = max_key::<T>();
    let lo = match pred.low() {
        Bound::Unbounded => 0,
        Bound::Inclusive(l) => l.sort_key(),
        Bound::Exclusive(l) => {
            let k = l.sort_key();
            if k == max {
                return None; // nothing above the total-order maximum
            }
            k + 1
        }
    };
    let hi = match pred.high() {
        Bound::Unbounded => max,
        Bound::Inclusive(h) => h.sort_key(),
        Bound::Exclusive(h) => {
            let k = h.sort_key();
            if k == 0 {
                return None; // nothing below the total-order minimum
            }
            k - 1
        }
    };
    (lo <= hi).then_some((lo, hi))
}

/// Largest sort key of `T` (`2^LANE_BITS - 1`).
#[inline]
fn max_key<T: Scalar>() -> u64 {
    if T::LANE_BITS == 64 {
        u64::MAX
    } else {
        (1u64 << T::LANE_BITS) - 1
    }
}

/// Whether key `k` of a `T` lies in the `span + 1` keys from `lo` on: one
/// wrapping subtraction and one unsigned compare, in `T`'s own key width.
/// Both sides are cut to that width (the `match` folds away per type), so
/// the compiler keeps a 32-bit key in a 32-bit lane; compared as `u64` —
/// even masked to [`max_key`] — every lane is widened to 64 bits.
#[inline(always)]
fn in_span<T: Scalar>(k: u64, lo: u64, span: u64) -> bool {
    let d = k.wrapping_sub(lo);
    match T::LANE_BITS {
        8 => d as u8 <= span as u8,
        16 => d as u16 <= span as u16,
        32 => d as u32 <= span as u32,
        _ => d <= span,
    }
}

/// The vector chunk kernel: the match bitmask of up to 64 values against
/// the key interval of `span + 1` keys from `lo`. Each value's compare
/// lands in one byte; each 8 bytes pack into 8 mask bits with one multiply
/// (byte `j`'s low bit is routed to bit `56 + j`, no partial products
/// collide). A short chunk packs only the words it reached; their unused
/// bytes stay 0.
#[inline]
fn lane_mask<T: Scalar>(chunk: &[T], lo: u64, span: u64) -> u64 {
    let mut hit = [0u8; 64];
    for (h, v) in hit.iter_mut().zip(chunk) {
        *h = u8::from(in_span::<T>(v.sort_key(), lo, span));
    }
    let used = &hit[..chunk.len().div_ceil(8) * 8];
    used.chunks_exact(8).enumerate().fold(0, |mask, (i, bytes)| {
        let word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
        mask | (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one kernel's `check` into an id sink (or a counting one),
    /// returning what matched and the comparisons billed.
    fn checked(count_only: bool, check: impl FnOnce(&mut Hits, &mut u64)) -> (Hits, u64) {
        let (mut hits, mut cmp) = (Hits::new(count_only), 0u64);
        check(&mut hits, &mut cmp);
        (hits, cmp)
    }

    fn both<T: Scalar>(pred: &RangePredicate<T>) -> [PredicateKernel<T>; 2] {
        [
            PredicateKernel::with_kernel(pred, RefineKernel::Scalar),
            PredicateKernel::with_kernel(pred, RefineKernel::Swar),
        ]
    }

    /// Per-lane boundary sweep: a 64-value chunk holding the probe value
    /// at every lane position in turn, checked against the brute-force
    /// oracle under both kernels. `filler` is a value outside the
    /// predicate whenever one exists, so lane cross-talk would be visible.
    fn assert_lane_exact<T: Scalar>(pred: &RangePredicate<T>, probe: T, filler: T) {
        for kernel in both(pred) {
            for lane in 0..64 {
                let mut chunk = vec![filler; 64];
                chunk[lane] = probe;
                let mask = kernel.match_mask(&chunk);
                for (i, v) in chunk.iter().enumerate() {
                    assert_eq!(
                        mask >> i & 1 == 1,
                        pred.matches(v),
                        "lane {i} of probe-at-{lane} (probe {probe:?}, {pred})"
                    );
                }
            }
        }
    }

    #[test]
    fn bounds_at_type_extremes_per_lane() {
        // T::MIN / T::MAX as predicate bounds, probed at the extremes.
        assert_lane_exact(&RangePredicate::between(u8::MIN, u8::MAX), u8::MAX, 7);
        assert_lane_exact(&RangePredicate::at_least(i8::MAX), i8::MAX, 0);
        assert_lane_exact(&RangePredicate::at_most(i8::MIN), i8::MIN, 0);
        assert_lane_exact(&RangePredicate::between(i16::MIN, i16::MIN), i16::MIN, 0);
        assert_lane_exact(&RangePredicate::at_least(u16::MAX), u16::MAX, 0);
        assert_lane_exact(&RangePredicate::between(i32::MIN, i32::MIN + 1), i32::MIN, 5);
        assert_lane_exact(&RangePredicate::at_least(i64::MAX - 1), i64::MAX, -3);
        assert_lane_exact(&RangePredicate::at_most(u64::MIN), u64::MIN, 9);
        // Exclusive bounds at the extremes can match nothing at all.
        let none = RangePredicate::with_bounds(Bound::Exclusive(u8::MAX), Bound::Unbounded);
        for k in both(&none) {
            assert!(k.is_empty());
            assert_eq!(k.match_mask(&[0u8, 128, 255]), 0);
        }
        let none = RangePredicate::with_bounds(Bound::Unbounded, Bound::Exclusive(i32::MIN));
        for k in both(&none) {
            assert!(k.is_empty());
        }
    }

    #[test]
    fn inclusive_exclusive_edges_per_lane() {
        for probe in [9i32, 10, 11, 19, 20, 21] {
            assert_lane_exact(&RangePredicate::between(10, 20), probe, -100);
            assert_lane_exact(&RangePredicate::half_open(10, 20), probe, -100);
            assert_lane_exact(
                &RangePredicate::with_bounds(Bound::Exclusive(10), Bound::Exclusive(20)),
                probe,
                -100,
            );
        }
        for probe in [4u16, 5, 6] {
            assert_lane_exact(&RangePredicate::greater_than(5), probe, 0);
            assert_lane_exact(&RangePredicate::less_than(5), probe, u16::MAX);
        }
    }

    #[test]
    fn point_predicate_per_lane() {
        assert_lane_exact(&RangePredicate::equals(42u8), 42, 41);
        assert_lane_exact(&RangePredicate::equals(-7i16), -7, -8);
        assert_lane_exact(&RangePredicate::equals(0i32), 0, 1);
        assert_lane_exact(&RangePredicate::equals(i64::MIN), i64::MIN, i64::MIN + 1);
        assert_lane_exact(&RangePredicate::equals(2.5f32), 2.5, 2.4999);
        assert_lane_exact(&RangePredicate::equals(-0.0f64), -0.0, 0.0);
    }

    #[test]
    fn float_ordering_per_lane_nan_free() {
        // NaN-free float ordering, negative zero and subnormals included.
        for probe in [-1.5f32, -0.0, 0.0, f32::MIN_POSITIVE / 2.0, 1.5] {
            assert_lane_exact(&RangePredicate::between(-1.0, 1.0), probe, 99.0);
            assert_lane_exact(&RangePredicate::less_than(0.0), probe, 99.0);
        }
        for probe in [f64::NEG_INFINITY, -2.0, 0.0, 2.0, f64::INFINITY] {
            assert_lane_exact(&RangePredicate::at_least(-2.0), probe, f64::NEG_INFINITY);
            assert_lane_exact(&RangePredicate::at_most(2.0), probe, f64::INFINITY);
        }
        // NaNs follow the documented totalOrder semantics under the vector
        // kernel too.
        let up = RangePredicate::at_least(0.0f64);
        let capped = RangePredicate::at_most(f64::INFINITY);
        for k in both(&up) {
            assert!(k.matches(&f64::NAN));
        }
        for k in both(&capped) {
            assert!(!k.matches(&f64::NAN));
        }
    }

    #[test]
    fn partial_chunks_mask_unused_lanes() {
        // Chunk lengths that are not multiples of the lane count: unused
        // lanes hold key 0, which *would* match this predicate.
        let pred = RangePredicate::at_most(100u8);
        for kernel in both(&pred) {
            for len in [1usize, 3, 7, 9, 15, 17, 63] {
                let chunk = vec![5u8; len];
                let mask = kernel.match_mask(&chunk);
                assert_eq!(mask, (1u64 << len) - 1, "len {len}");
            }
        }
        let pred = RangePredicate::at_most(-1i32);
        for kernel in both(&pred) {
            let mask = kernel.match_mask(&[-5i32, 3, -5]);
            assert_eq!(mask, 0b101);
        }
    }

    #[test]
    fn append_and_count_agree_with_oracle_across_kernels() {
        let values: Vec<i32> = (0..1000).map(|i| (i * 37) % 500 - 250).collect();
        for pred in [
            RangePredicate::between(-100, 100),
            RangePredicate::half_open(0, 1),
            RangePredicate::all(),
            RangePredicate::between(10, 5),
            RangePredicate::equals(-250),
        ] {
            let oracle: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|(_, v)| pred.matches(v))
                .map(|(i, _)| i as u64)
                .collect();
            let mut results = Vec::new();
            for kernel in both(&pred) {
                let all = 0..values.len() as u64;
                let (out, cmp) = checked(false, |h, c| kernel.check(&values, all.clone(), h, c));
                assert_eq!(out, Hits::Ids(oracle.clone()), "{pred}");
                let mut ccmp = 0u64;
                let n = kernel.count_matches(&values, all, &mut ccmp);
                assert_eq!(n as usize, oracle.len(), "{pred}");
                assert_eq!(cmp, ccmp, "{pred}");
                results.push((out, cmp));
            }
            assert_eq!(results[0], results[1], "kernels diverged on {pred}");
        }
    }

    /// The satellite comparison-accounting contract: an empty predicate
    /// examines no values under *either* kernel, so downstream cost
    /// observers (`AccessStats`, the planner's fp-rate) see zero work —
    /// not a full range's worth of phantom comparisons.
    #[test]
    fn empty_predicates_examine_nothing() {
        let values: Vec<i64> = (0..512).collect();
        for pred in [
            RangePredicate::between(10, 5),
            RangePredicate::half_open(7, 7),
            RangePredicate::with_bounds(Bound::Exclusive(i64::MAX), Bound::Unbounded),
        ] {
            for kernel in both(&pred) {
                assert!(kernel.is_empty(), "{pred}");
                let (out, mut cmp) = checked(false, |h, c| kernel.check(&values, 0..512, h, c));
                assert!(out.is_empty());
                assert_eq!(cmp, 0, "early-out must not be billed as comparisons: {pred}");
                let n = kernel.count_matches(&values, 100..300, &mut cmp);
                assert_eq!((n, cmp), (0, 0), "{pred}");
                assert!(!kernel.matches(&11));
            }
        }
    }

    #[test]
    fn subrange_ids_are_absolute() {
        let values: Vec<u8> = (0..200u16).map(|i| (i % 50) as u8).collect();
        let pred = RangePredicate::between(10u8, 12);
        for kernel in both(&pred) {
            let (out, cmp) = checked(false, |h, c| kernel.check(&values, 60..140, h, c));
            assert_eq!(cmp, 80);
            let expect: Vec<u64> =
                (60..140u64).filter(|&i| (10..=12).contains(&values[i as usize])).collect();
            assert_eq!(out, Hits::Ids(expect));
        }
    }

    #[test]
    fn kernel_selection_parsing_and_env_name() {
        assert_eq!("auto".parse(), Ok(RefineKernel::Auto));
        assert_eq!("Scalar".parse(), Ok(RefineKernel::Scalar));
        assert_eq!("SWAR".parse(), Ok(RefineKernel::Swar));
        assert!("mmx".parse::<RefineKernel>().is_err());
        assert_eq!(RefineKernel::Swar.to_string(), "swar");
        assert_eq!(KERNEL_ENV_VAR, "IMPRINTS_REFINE_KERNEL");
        // Auto resolves to the vector kernel; Scalar is the only
        // scalar-loop selection.
        assert!(RefineKernel::Auto.use_vector());
        assert!(!RefineKernel::Scalar.use_vector());
    }

    #[test]
    fn filter_ids_gathers_scattered_survivors() {
        let values: Vec<i32> = (0..1000).map(|i| (i * 37) % 500 - 250).collect();
        // A scattered, strictly-ascending id set: every third row plus a
        // ragged tail that is not a multiple of 64.
        let ids: Vec<u64> = (0..1000u64).filter(|i| i % 3 == 0 || *i > 970).collect();
        for pred in [
            RangePredicate::between(-100, 100),
            RangePredicate::equals(-213),
            RangePredicate::all(),
            RangePredicate::between(10, 5),
        ] {
            let oracle: Vec<u64> =
                ids.iter().copied().filter(|&i| pred.matches(&values[i as usize])).collect();
            let mut results = Vec::new();
            for kernel in both(&pred) {
                let mut survivors = ids.clone();
                let mut cmp = 0u64;
                kernel.filter_ids(&values, &mut survivors, &mut cmp);
                assert_eq!(survivors, oracle, "{pred}");
                let expect_cmp = if kernel.is_empty() { 0 } else { ids.len() as u64 };
                assert_eq!(cmp, expect_cmp, "{pred}");
                results.push(survivors);
            }
            assert_eq!(results[0], results[1], "kernels diverged on {pred}");
        }
    }

    #[test]
    fn set_kernel_matches_union_of_terms() {
        let values: Vec<i64> = (0..777).map(|i| (i * 13) % 300).collect();
        let terms = [
            RangePredicate::equals(5i64),
            RangePredicate::between(40, 60),
            RangePredicate::between(9, 2), // impossible term is kept, never checked
            RangePredicate::equals(250),
        ];
        let in_union = |v: &i64| terms.iter().any(|t| t.matches(v));
        let oracle: Vec<u64> = (0..777u64).filter(|&i| in_union(&values[i as usize])).collect();
        for sel in [RefineKernel::Scalar, RefineKernel::Swar] {
            let set = SetKernel::with_kernel(&terms, sel);
            assert!(!set.is_empty());
            assert_eq!(set.terms().len(), terms.len());
            assert!(set.matches(&50) && set.matches(&5) && !set.matches(&7));
            // One chunk's matches agree with the per-value oracle.
            let (chunk, _) = checked(false, |h, c| set.check(&values, 0..64, h, c));
            let chunk = chunk.into_ids();
            for (lane, v) in values[..64].iter().enumerate() {
                assert_eq!(chunk.contains(lane as u64), in_union(v), "lane {lane}");
            }
            // id sink / counting sink / filter bill each value once, not
            // per term.
            let (out, cmp) = checked(false, |h, c| set.check(&values, 0..777, h, c));
            assert_eq!(out, Hits::Ids(oracle.clone()));
            assert_eq!(cmp, 777);
            let (n, ccmp) = checked(true, |h, c| set.check(&values, 0..777, h, c));
            assert_eq!(n, Hits::Count(oracle.len() as u64));
            assert_eq!(ccmp, 777);
            let mut ids: Vec<u64> = (0..777u64).step_by(2).collect();
            let id_oracle: Vec<u64> =
                ids.iter().copied().filter(|&i| in_union(&values[i as usize])).collect();
            let (n, mut fcmp) = (ids.len() as u64, 0u64);
            set.filter_ids(&values, &mut ids, &mut fcmp);
            assert_eq!(ids, id_oracle);
            assert_eq!(fcmp, n);
        }
    }

    #[test]
    fn set_kernel_degenerate_shapes() {
        let values: Vec<u8> = (0..100u16).map(|i| (i % 20) as u8).collect();
        // All-empty set: matches nothing, bills nothing, clears id lists.
        let dead = SetKernel::with_kernel(
            &[RangePredicate::between(9u8, 2), RangePredicate::half_open(7, 7)],
            RefineKernel::Swar,
        );
        assert!(dead.is_empty());
        let (out, mut cmp) = checked(false, |h, c| dead.check(&values, 0..100, h, c));
        assert_eq!(checked(true, |h, c| dead.check(&values, 0..100, h, c)), (Hits::Count(0), 0));
        let mut ids = vec![1u64, 2, 3];
        dead.filter_ids(&values, &mut ids, &mut cmp);
        assert!(out.is_empty() && ids.is_empty() && cmp == 0);
        assert!(!values.iter().any(|v| dead.matches(v)));
        // Single-term set behaves exactly like the bare kernel.
        let pred = RangePredicate::between(3u8, 6);
        let single = SetKernel::with_kernel(&[pred], RefineKernel::Swar);
        let bare = PredicateKernel::with_kernel(&pred, RefineKernel::Swar);
        assert_eq!(
            checked(false, |h, c| single.check(&values, 0..100, h, c)),
            checked(false, |h, c| bare.check(&values, 0..100, h, c))
        );
    }

    /// Exhaustive 8-bit cross-check of the vector kernel: every `lo ≤ hi`
    /// pair of bounds against all 256 values, for `u8` and `i8`, mask for
    /// mask and value for value against the scalar oracle.
    #[test]
    fn vector_kernel_exhaustive_8_bit() {
        fn sweep<T: Scalar>(ascending: &[T]) {
            for (i, &lo) in ascending.iter().enumerate() {
                for &hi in &ascending[i..] {
                    let [scalar, vector] = both(&RangePredicate::between(lo, hi));
                    for chunk in ascending.chunks(64) {
                        let mask = vector.match_mask(chunk);
                        assert_eq!(mask, scalar.match_mask(chunk), "[{lo}, {hi}]");
                        for (bit, v) in chunk.iter().enumerate() {
                            assert_eq!(
                                vector.matches(v),
                                mask >> bit & 1 == 1,
                                "{v} in [{lo}, {hi}]"
                            );
                        }
                    }
                }
            }
        }
        sweep(&(0..=255u8).collect::<Vec<_>>());
        sweep(&(-128..=127i8).collect::<Vec<_>>());
    }
}
