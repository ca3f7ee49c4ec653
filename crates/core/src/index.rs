//! The column imprints index structure (§2).
//!
//! [`ColumnImprints`] bundles everything Algorithm 1 produces: the bin
//! borders ([`Binning`]), the compressed imprint vectors with their
//! cacheline dictionary ([`Compressor`]), and — a deliberate refinement —
//! the imprint of the trailing *partial* cacheline kept un-finalized, so
//! that appends (§4.1) can keep filling it without rewriting compressed
//! state — and one piece of derived planner metadata, the [`Census`] of
//! lines per bin, from which the §3 plan predicts what a probe will skip.

use std::ops::Range;

use colstore::{AccessStats, Column, IdList, RangeIndex, RangePredicate, Scalar};

use crate::binning::Binning;
use crate::builder::{self, BuildOptions, Compressor};
use crate::dict::DictEntry;
use crate::query;
use crate::MAX_BINS;

/// A column imprints secondary index over a [`Column<T>`].
///
/// The index does not own the column: like any secondary index it
/// references the base data by position. Callers must evaluate queries
/// against the same column (same length, same values) the index was built
/// on; [`ColumnImprints::verify`] checks that correspondence explicitly.
///
/// # Examples
///
/// ```
/// use colstore::{Column, RangePredicate, RangeIndex};
/// use imprints::ColumnImprints;
///
/// let col: Column<f64> = (0..4096).map(|i| ((i * 31) % 977) as f64).collect();
/// let idx = ColumnImprints::build(&col);
/// let ids = idx.evaluate(&col, &RangePredicate::between(10.0, 20.0));
/// assert!(!ids.is_empty());
/// assert!(idx.size_bytes() < col.data_bytes() / 4);
/// ```
#[derive(Debug, Clone)]
pub struct ColumnImprints<T: Scalar> {
    binning: Binning<T>,
    comp: Compressor,
    tail_imprint: u64,
    tail_len: usize,
    rows: usize,
    opts: BuildOptions,
    /// Lines per bin, derived from the vectors above: never stored, never
    /// counted in [`ColumnImprints::size_bytes`].
    census: Census,
    /// Rows appended since the initial build (update saturation tracking).
    pub(crate) appended_rows: u64,
    /// Appended rows that landed in the overflow bins (0 or bins−1):
    /// a drift signal for the binning (§4.1).
    pub(crate) appended_overflow: u64,
}

/// One run of the compressed index: consecutive cachelines from
/// `first_line` on, described by one shared vector, by one vector each, or
/// by a stretch of whole cacheline-dictionary entries. Produced by
/// [`ColumnImprints::runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run<'a> {
    /// `line_count` cachelines sharing `imprint`: a repeat entry or what is
    /// left of one, the partial tail line, or a run a variant synthesizes.
    Repeat {
        /// The shared imprint vector.
        imprint: u64,
        /// First cacheline covered.
        first_line: u64,
        /// Number of cachelines covered.
        line_count: u64,
    },
    /// A distinct entry or part of one: `imprints[i]` describes cacheline
    /// `first_line + i`.
    Distinct {
        /// One stored vector per cacheline, never empty.
        imprints: &'a [u64],
        /// First cacheline covered.
        first_line: u64,
    },
    /// Whole dictionary entries, in order: each repeat entry's one vector
    /// describes its `cnt` lines, each distinct entry's `cnt` vectors one
    /// line each. The probe walks such a run a chunk of vectors at a time.
    Entries {
        /// The entries' stored vectors, `Σ imprint_count` of them.
        imprints: &'a [u64],
        /// The entries, never empty.
        dict: &'a [DictEntry],
        /// First cacheline covered.
        first_line: u64,
    },
}

impl<'a> Run<'a> {
    /// First cacheline covered.
    pub fn first_line(&self) -> u64 {
        match *self {
            Run::Repeat { first_line, .. }
            | Run::Distinct { first_line, .. }
            | Run::Entries { first_line, .. } => first_line,
        }
    }

    /// Number of cachelines covered.
    pub fn line_count(&self) -> u64 {
        match *self {
            Run::Repeat { line_count, .. } => line_count,
            Run::Distinct { imprints, .. } => imprints.len() as u64,
            Run::Entries { dict, .. } => dict.iter().map(|e| u64::from(e.cnt())).sum(),
        }
    }

    /// The run's stored vectors, in line order: what a probe of it reads.
    pub fn vectors(&self) -> &[u64] {
        match self {
            Run::Repeat { imprint, .. } => std::slice::from_ref(imprint),
            Run::Distinct { imprints, .. } | Run::Entries { imprints, .. } => imprints,
        }
    }

    /// The run one dictionary entry at a time: an [`Run::Entries`] run as
    /// a repeat or distinct run per entry, any other run as itself.
    pub fn entries(self) -> impl Iterator<Item = Run<'a>> {
        let (one, mut entries) = match self {
            Run::Entries { imprints, dict, first_line } => {
                let lines = first_line + self.line_count();
                (None, Some(Runs::new(imprints, dict, None, first_line, lines)))
            }
            run => (Some(run), None),
        };
        one.into_iter().chain(std::iter::from_fn(move || entries.as_mut()?.next_entry(u64::MAX)))
    }
}

impl<T: Scalar> ColumnImprints<T> {
    /// Builds the index with default options (2048-value sample, 64-byte
    /// blocks).
    pub fn build(col: &Column<T>) -> Self {
        Self::build_with(col, BuildOptions::default())
    }

    /// Builds the index with explicit [`BuildOptions`].
    pub fn build_with(col: &Column<T>, opts: BuildOptions) -> Self {
        let binning =
            Binning::from_column_with_strategy(col, opts.sample_size, opts.seed, opts.strategy);
        Self::build_with_binning(col, binning, opts)
    }

    /// Builds the index reusing an existing binning (the rebuild path of
    /// §4.2 and the parallel builder both use this).
    pub fn build_with_binning(col: &Column<T>, binning: Binning<T>, opts: BuildOptions) -> Self {
        let (comp, tail_imprint, tail_len) = builder::build_compressed(col, &binning, &opts);
        Self::from_raw_parts(binning, comp, tail_imprint, tail_len, col.len(), opts)
    }

    /// (crate) Assembles an index from raw parts and takes its census;
    /// every build, the parallel builder and the storage layer end here.
    /// Invariants are the caller's burden (checked in debug builds).
    pub(crate) fn from_raw_parts(
        binning: Binning<T>,
        comp: Compressor,
        tail_imprint: u64,
        tail_len: usize,
        rows: usize,
        opts: BuildOptions,
    ) -> Self {
        let census = Census::of(&comp, (tail_len > 0).then_some(tail_imprint));
        let idx = ColumnImprints {
            binning,
            comp,
            tail_imprint,
            tail_len,
            rows,
            opts,
            census,
            appended_rows: 0,
            appended_overflow: 0,
        };
        debug_assert_eq!(
            idx.comp.lines() * idx.values_per_block() as u64 + idx.tail_len as u64,
            rows as u64
        );
        idx
    }

    /// The histogram binning in use.
    pub fn binning(&self) -> &Binning<T> {
        &self.binning
    }

    /// Number of histogram bins (8, 16, 32 or 64).
    pub fn bins(&self) -> usize {
        self.binning.bins()
    }

    /// Rows covered by the index.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Values per block (`vpc`): how many rows one imprint vector covers.
    pub fn values_per_block(&self) -> usize {
        self.opts.values_per_block::<T>()
    }

    /// The build options this index was constructed with.
    pub fn options(&self) -> &BuildOptions {
        &self.opts
    }

    /// Total cachelines covered, including the partial tail line.
    pub fn line_count(&self) -> u64 {
        self.comp.lines() + (self.tail_len > 0) as u64
    }

    /// Number of *stored* imprint vectors (after compression), including
    /// the tail.
    pub fn imprint_count(&self) -> usize {
        self.comp.imprints().len() + (self.tail_len > 0) as usize
    }

    /// Number of cacheline-dictionary entries.
    pub fn dict_len(&self) -> usize {
        self.comp.dict().len()
    }

    /// Compression ratio: stored imprints / covered cachelines (1.0 means
    /// no run was compressed; lower is better).
    pub fn compression_ratio(&self) -> f64 {
        let lines = self.line_count();
        if lines == 0 {
            return 1.0;
        }
        self.imprint_count() as f64 / lines as f64
    }

    /// Bytes occupied by the index: stored imprint vectors (8 B each),
    /// dictionary entries (4 B each), the 64 bin borders, and the fixed
    /// header fields. This is the storage-overhead metric of Figures 5–7.
    pub fn size_bytes(&self) -> usize {
        self.comp.imprints().len() * 8
            + self.comp.dict().len() * 4
            + self.binning.size_bytes()
            + 8 // tail imprint
            + 2 * std::mem::size_of::<usize>() // tail_len, rows
    }

    /// (crate) The compressed parts: `(imprints, dict)`.
    pub(crate) fn parts(&self) -> (&[u64], &[DictEntry]) {
        (self.comp.imprints(), self.comp.dict())
    }

    /// (crate) Mutable access for the append path, which keeps the census.
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (&mut Compressor, &mut u64, &mut usize, &mut usize, &mut Census) {
        (
            &mut self.comp,
            &mut self.tail_imprint,
            &mut self.tail_len,
            &mut self.rows,
            &mut self.census,
        )
    }

    /// How many lines set each bin ([`Census`]), the partial tail line
    /// included.
    pub fn census(&self) -> &Census {
        &self.census
    }

    /// The un-finalized imprint of the trailing partial cacheline, if any.
    pub fn tail(&self) -> Option<(u64, usize)> {
        (self.tail_len > 0).then_some((self.tail_imprint, self.tail_len))
    }

    /// Iterates over the compressed index as [`Run`]s: all of its
    /// dictionary entries as one [`Run::Entries`] run, then the tail (if
    /// present) as a final 1-line repeat run. [`Run::entries`] splits the
    /// first into one run per entry.
    pub fn runs(&self) -> Runs<'_> {
        let tail = self.tail().map(|(imprint, _)| imprint);
        Runs::new(self.comp.imprints(), self.comp.dict(), tail, 0, self.comp.lines())
    }

    /// Iterates over the *logical* (decompressed) per-cacheline imprint
    /// vectors — what Figure 3 prints and what the entropy metric reads:
    /// a repeat entry's one vector once per line, a distinct entry's
    /// vectors as stored.
    pub fn line_imprints(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs().flat_map(Run::entries).flat_map(|run| {
            // `Run::entries` yields no `Entries` run.
            let (repeated, stored) = match run {
                Run::Repeat { imprint, line_count, .. } => {
                    (std::iter::repeat_n(imprint, line_count as usize), &[][..])
                }
                Run::Distinct { imprints, .. } | Run::Entries { imprints, .. } => {
                    (std::iter::repeat_n(0, 0), imprints)
                }
            };
            repeated.chain(stored.iter().copied())
        })
    }

    /// Fully recomputes the imprint of every cacheline of `col` and checks
    /// it against the stored (compressed) state, plus all structural
    /// invariants. O(n); meant for tests and post-load validation.
    pub fn verify(&self, col: &Column<T>) -> Result<(), String> {
        if col.len() != self.rows {
            return Err(format!("column has {} rows, index covers {}", col.len(), self.rows));
        }
        self.comp.verify()?;
        let vpb = self.values_per_block();
        let mut lines = self.line_imprints();
        for (lineno, chunk) in col.values().chunks(vpb).enumerate() {
            let expect = builder::line_imprint(&self.binning, chunk);
            match lines.next() {
                Some(got) if got == expect => {}
                Some(got) => {
                    return Err(format!(
                        "line {lineno}: stored imprint {got:#b}, recomputed {expect:#b}"
                    ))
                }
                None => return Err(format!("index ran out of imprints at line {lineno}")),
            }
        }
        if lines.next().is_some() {
            return Err("index has more imprints than the column has cachelines".into());
        }
        Ok(())
    }
}

/// The census of an imprint index: for every bin, how many of its
/// cachelines (the partial tail line included) have that bin's bit set in
/// their vector. It is a function of the vectors, so a load recomputes it
/// and the file format does not carry it; a §4.1 append keeps it current.
///
/// It costs 256 bytes per index and is planner metadata, not index size:
/// the §3 plan reads it to predict, before probing, what fraction of the
/// lines a mask skips ([`Census::untouched`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Census([u32; MAX_BINS]);

impl Default for Census {
    fn default() -> Self {
        Census([0; MAX_BINS])
    }
}

impl Census {
    /// The census of the lines `comp` holds and the partial tail line
    /// with vector `tail`, if any.
    fn of(comp: &Compressor, tail: Option<u64>) -> Census {
        let mut census = Census::default();
        // Every stored vector describes one line, except that a repeat
        // entry's describes `cnt`: count each once, then the rest.
        let imprints = comp.imprints();
        census.add_lines(imprints);
        let mut at = 0;
        for e in comp.dict() {
            if e.repeat() {
                census.add(imprints[at], e.cnt() - 1);
            }
            at += e.imprint_count() as usize;
        }
        if let Some(v) = tail {
            census.add(v, 1);
        }
        census
    }

    /// Counts one line for each of `vectors` without a step per set bit:
    /// up to 248 at a time as eight bit planes, plane `k` holding bit `k`
    /// of every bin's count, which carry-save adders fill eight vectors at
    /// a time (Harley and Seal's positional population count).
    fn add_lines(&mut self, vectors: &[u64]) {
        /// Adds three planes of one weight: the plane of twice that weight
        /// and the plane of that weight.
        fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
            let u = a ^ b;
            ((a & b) | (u & c), u ^ c)
        }
        /// Adds `carry` to `planes[0]`, rippling into the planes above.
        fn ripple(planes: &mut [u64], mut carry: u64) {
            for plane in planes {
                let next = *plane & carry;
                *plane ^= carry;
                carry = next;
            }
        }
        for batch in vectors.chunks(248) {
            let mut planes = [0u64; 8];
            let mut groups = batch.chunks_exact(8);
            for v in &mut groups {
                let (twos_a, ones) = csa(planes[0], v[0], v[1]);
                let (twos_b, ones) = csa(ones, v[2], v[3]);
                let (fours_a, twos) = csa(planes[1], twos_a, twos_b);
                let (twos_a, ones) = csa(ones, v[4], v[5]);
                let (twos_b, ones) = csa(ones, v[6], v[7]);
                let (fours_b, twos) = csa(twos, twos_a, twos_b);
                let (eights, fours) = csa(planes[2], fours_a, fours_b);
                planes[..3].copy_from_slice(&[ones, twos, fours]);
                ripple(&mut planes[3..], eights);
            }
            for &v in groups.remainder() {
                ripple(&mut planes, v);
            }
            for (k, plane) in planes.into_iter().enumerate() {
                self.add(plane, 1 << k);
            }
        }
    }

    /// Counts `lines` more lines with vector `imprint`.
    fn add(&mut self, mut imprint: u64, lines: u32) {
        while imprint != 0 {
            self.0[imprint.trailing_zeros() as usize] += lines;
            imprint &= imprint - 1;
        }
    }

    /// Counts one more line with `bin` set: the tail line's vector gained
    /// that bit.
    pub(crate) fn add_bin(&mut self, bin: usize) {
        self.0[bin] += 1;
    }

    /// The lines whose vector has bin `bin` set.
    pub fn lines_with(&self, bin: usize) -> u64 {
        u64::from(self.0[bin])
    }

    /// The predicted fraction of `lines` lines whose vector has none of
    /// the bits of `bins`, were the bins set independently: Π over those
    /// bins of (1 − lines with the bin ÷ lines). With a query's mask that
    /// is the share of lines its probe skips; with the complement of its
    /// innermask, the share it emits without a value check. 1 for no
    /// lines.
    pub fn untouched(&self, bins: u64, lines: u64) -> f64 {
        if lines == 0 {
            return 1.0;
        }
        let (mut left, mut fraction) = (bins, 1.0);
        while left != 0 {
            let bin = left.trailing_zeros() as usize;
            fraction *= 1.0 - self.lines_with(bin) as f64 / lines as f64;
            left &= left - 1;
        }
        fraction
    }
}

impl<T: Scalar> RangeIndex<T> for ColumnImprints<T> {
    fn name(&self) -> &'static str {
        "imprints"
    }

    fn size_bytes(&self) -> usize {
        ColumnImprints::size_bytes(self)
    }

    fn evaluate_with_stats(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (IdList, AccessStats) {
        let (ids, stats) = query::evaluate(self, col, pred);
        (ids, stats.access)
    }
}

/// Iterator over the [`Run`]s of a [`ColumnImprints`]; see
/// [`ColumnImprints::runs`].
#[derive(Debug, Clone)]
pub struct Runs<'a> {
    imprints: &'a [u64],
    dict: &'a [DictEntry],
    /// The un-finalized tail line's imprint, until it has been yielded.
    tail: Option<u64>,
    /// The dictionary entry the next run comes from. An exhausted entry is
    /// stepped over as soon as its last line is yielded.
    entry: usize,
    /// Lines of that entry already yielded: nonzero only after a cut.
    within: u32,
    /// Where that entry's first vector not yet yielded sits.
    imp_pos: usize,
    line: u64,
    /// Cachelines the dictionary covers: where the tail line sits.
    lines: u64,
}

impl<'a> Runs<'a> {
    fn new(
        imprints: &'a [u64],
        dict: &'a [DictEntry],
        tail: Option<u64>,
        line: u64,
        lines: u64,
    ) -> Self {
        Runs { imprints, dict, tail, entry: 0, within: 0, imp_pos: 0, line, lines }
    }

    /// The next run, cut short at cacheline `end`; `None` once the walk
    /// has reached `end` (or the end of the index). From an entry boundary
    /// that is every whole entry ending by `end`, as one [`Run::Entries`];
    /// otherwise the rest of the current entry, or the tail. A cut entry is
    /// stepped back into: the walk stands mid-entry, past the repeat lines
    /// or the distinct vectors already yielded — which is how the §4.2
    /// overlay takes a dirty line out of the entry holding it.
    pub(crate) fn next_before(&mut self, end: u64) -> Option<Run<'a>> {
        if self.line >= end {
            return None;
        }
        let (entry, imp_pos, first_line) = (self.entry, self.imp_pos, self.line);
        if self.within == 0 {
            if end >= self.lines {
                // Nothing is cut: all that is left of the dictionary.
                self.entry = self.dict.len();
                self.imp_pos = self.imprints.len();
                self.line = self.lines;
            } else {
                while let Some(&e) = self.dict.get(self.entry) {
                    if self.line + u64::from(e.cnt()) > end {
                        break;
                    }
                    self.line += u64::from(e.cnt());
                    self.imp_pos += e.imprint_count() as usize;
                    self.entry += 1;
                }
            }
            if self.entry > entry {
                return Some(Run::Entries {
                    imprints: &self.imprints[imp_pos..self.imp_pos],
                    dict: &self.dict[entry..self.entry],
                    first_line,
                });
            }
        }
        self.next_entry(end)
    }

    /// The next run of at most one dictionary entry — the rest of the
    /// current one, or the tail — cut short at cacheline `end`.
    fn next_entry(&mut self, end: u64) -> Option<Run<'a>> {
        if self.line >= end {
            return None;
        }
        let Some(&e) = self.dict.get(self.entry) else {
            let imprint = self.tail.take()?;
            return Some(Run::Repeat { imprint, first_line: self.line, line_count: 1 });
        };
        // A distinct entry stores one vector per line, a repeat entry one
        // for all of them; a cut leaves the rest of either. No entry has a
        // zero count (`Compressor::verify`).
        let first_line = self.line;
        let pos = self.imp_pos;
        let left = e.cnt() - self.within;
        let kept = u64::from(left).min(end - first_line) as u32;
        let run = if e.repeat() {
            let imprint = self.imprints[pos];
            Run::Repeat { imprint, first_line, line_count: u64::from(kept) }
        } else {
            self.imp_pos += kept as usize;
            Run::Distinct { imprints: &self.imprints[pos..pos + kept as usize], first_line }
        };
        self.line += u64::from(kept);
        if kept == left {
            self.imp_pos += usize::from(e.repeat());
            self.entry += 1;
            self.within = 0;
        } else {
            self.within += kept;
        }
        Some(run)
    }
}

impl<'a> Iterator for Runs<'a> {
    type Item = Run<'a>;

    #[inline]
    fn next(&mut self) -> Option<Run<'a>> {
        self.next_before(u64::MAX)
    }
}

/// How the stored vectors of a run map to cachelines, for a walk that
/// reads them in order (every `q` at least the last one asked about).
pub(crate) trait VectorLines {
    /// The cachelines stored vector `q` describes.
    fn lines_of(&mut self, q: u64) -> Range<u64>;

    /// One past the last vector of the dictionary entry holding the vector
    /// last asked about: what Algorithm 3 has billed once it probed it.
    fn entry_end(&self) -> u64;

    /// The first cacheline of vector `q`, if vectors `q..q + n` all lie in
    /// one distinct entry, so that vector `q + k` describes the `k`-th line
    /// after it.
    fn one_line_each(&mut self, q: u64, n: u64) -> Option<u64>;
}

/// A distinct run's vectors: one cacheline each, from `first_line` on.
pub(crate) struct Consecutive {
    pub(crate) first_line: u64,
    pub(crate) vectors: u64,
}

impl VectorLines for Consecutive {
    #[inline]
    fn lines_of(&mut self, q: u64) -> Range<u64> {
        self.first_line + q..self.first_line + q + 1
    }

    fn entry_end(&self) -> u64 {
        self.vectors
    }

    fn one_line_each(&mut self, q: u64, _: u64) -> Option<u64> {
        Some(self.first_line + q)
    }
}

/// Entries advanced in bulk by the dictionary cursor.
const DICT_STRIDE: usize = 8;

/// A [`Run::Entries`] run's dictionary, walked forward only: the entry
/// holding the vector last asked about, with its first vector and line.
pub(crate) struct DictCursor<'a> {
    dict: &'a [DictEntry],
    entry: usize,
    vector: u64,
    line: u64,
}

impl<'a> DictCursor<'a> {
    pub(crate) fn new(dict: &'a [DictEntry], first_line: u64) -> Self {
        DictCursor { dict, entry: 0, vector: 0, line: first_line }
    }

    /// Whether vector `q` lies in the current entry. `q` is always a
    /// vector of the run, so the walk never steps past its last entry.
    #[inline]
    fn holds(&self, q: u64) -> bool {
        self.vector + u64::from(self.dict[self.entry].imprint_count()) > q
    }
}

impl VectorLines for DictCursor<'_> {
    /// Stays in the current entry when `q` is in it. Otherwise it steps
    /// over [`DICT_STRIDE`] entries at a time while all of them end at or
    /// before `q`, and then over the few that are left, summing vector and
    /// line counts without a branch per entry.
    #[inline]
    fn lines_of(&mut self, q: u64) -> Range<u64> {
        if !self.holds(q) {
            while let Some(block) = self.dict.get(self.entry..self.entry + DICT_STRIDE) {
                let vectors: u32 = block.iter().map(|e| e.imprint_count()).sum();
                if self.vector + u64::from(vectors) > q {
                    break;
                }
                self.vector += u64::from(vectors);
                self.line += u64::from(block.iter().map(|e| e.cnt()).sum::<u32>());
                self.entry += DICT_STRIDE;
            }
            // Fewer than a stride of entries end before `q`: count them
            // with running sums instead of a branch per entry.
            let end = self.dict.len().min(self.entry + DICT_STRIDE);
            let rel = q - self.vector;
            let (mut vectors, mut lines) = (0u64, 0u64);
            let (mut k, mut skip_vectors, mut skip_lines) = (0, 0, 0);
            for e in &self.dict[self.entry..end] {
                vectors += u64::from(e.imprint_count());
                lines += u64::from(e.cnt());
                let before = vectors <= rel;
                k += usize::from(before);
                skip_vectors = if before { vectors } else { skip_vectors };
                skip_lines = if before { lines } else { skip_lines };
            }
            self.entry += k;
            self.vector += skip_vectors;
            self.line += skip_lines;
        }
        // A repeat entry's one vector describes all its lines, a distinct
        // entry's `k`-th vector the `k`-th line.
        let e = self.dict[self.entry];
        let (offset, count) =
            if e.repeat() { (0, u64::from(e.cnt())) } else { (q - self.vector, 1) };
        self.line + offset..self.line + offset + count
    }

    fn entry_end(&self) -> u64 {
        self.vector + u64::from(self.dict[self.entry].imprint_count())
    }

    fn one_line_each(&mut self, q: u64, n: u64) -> Option<u64> {
        let start = self.lines_of(q).start;
        let e = self.dict[self.entry];
        (!e.repeat() && self.vector + u64::from(e.cnt()) >= q + n).then_some(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::RangePredicate;

    #[test]
    fn build_and_basic_geometry() {
        let col: Column<i32> = (0..1000).collect();
        let idx = ColumnImprints::build(&col);
        assert_eq!(idx.rows(), 1000);
        assert_eq!(idx.values_per_block(), 16);
        // 1000 / 16 = 62 full lines + tail of 8.
        assert_eq!(idx.line_count(), 63);
        assert_eq!(idx.tail().unwrap().1, 8);
        idx.verify(&col).unwrap();
    }

    #[test]
    fn runs_cover_all_lines_in_order() {
        let col: Column<u8> = (0..64 * 37 + 5).map(|i| (i % 13) as u8).collect();
        let idx = ColumnImprints::build(&col);
        let mut expected_line = 0u64;
        for run in idx.runs() {
            assert_eq!(run.first_line(), expected_line);
            assert!(run.line_count() >= 1);
            expected_line += run.line_count();
        }
        assert_eq!(expected_line, idx.line_count());
    }

    /// Cutting is invisible: one walk cut with `next_before(line + 1)` at
    /// every line — the middle of a repeat run, the middle of a distinct
    /// entry, and the tail included — yields each line alone, carrying the
    /// vector the uncut walk gives it, and nothing after the last.
    #[test]
    fn runs_cut_at_every_line() {
        let n = 16 * 203 + 5; // i32: 16 values per line, and a partial tail
        let columns: [Column<i32>; 4] = [
            (0..n).collect(),
            std::iter::repeat_n(7, n as usize).collect(),
            (0..n).map(|i| if (i / 16) % 5 < 2 { i % 3000 } else { 0 }).collect(),
            (0..n).map(|i| (i.wrapping_mul(2_654_435_761u32 as i32) >> 8) % 4000).collect(),
        ];
        for col in &columns {
            let idx = ColumnImprints::build(col);
            let all: Vec<Run> = idx.runs().flat_map(Run::entries).collect();
            let vector_at = |line: u64| {
                let run = all.iter().find(|r| r.first_line() + r.line_count() > line).unwrap();
                match *run {
                    Run::Distinct { imprints, first_line } => {
                        imprints[(line - first_line) as usize]
                    }
                    _ => run.vectors()[0],
                }
            };
            let mut walk = idx.runs();
            for line in 0..idx.line_count() {
                let step = walk.next_before(line + 1).expect("a line is left");
                assert_eq!((step.first_line(), step.line_count()), (line, 1), "line {line}");
                assert_eq!(step.vectors(), [vector_at(line)], "line {line}");
            }
            assert_eq!(walk.next(), None);
        }
    }

    #[test]
    fn line_imprints_match_recomputation() {
        let col: Column<i64> = (0..999).map(|i| (i * i) % 541).collect();
        let idx = ColumnImprints::build(&col);
        let vpb = idx.values_per_block();
        let logical: Vec<u64> = idx.line_imprints().collect();
        assert_eq!(logical.len() as u64, idx.line_count());
        for (lineno, chunk) in col.values().chunks(vpb).enumerate() {
            assert_eq!(logical[lineno], builder::line_imprint(idx.binning(), chunk));
        }
    }

    #[test]
    fn empty_column_index() {
        let col: Column<i32> = Column::new();
        let idx = ColumnImprints::build(&col);
        assert_eq!(idx.rows(), 0);
        assert_eq!(idx.line_count(), 0);
        assert_eq!(idx.imprint_count(), 0);
        assert_eq!(idx.compression_ratio(), 1.0);
        assert!(idx.tail().is_none());
        idx.verify(&col).unwrap();
        let ids = idx.evaluate(&col, &RangePredicate::all());
        assert!(ids.is_empty());
    }

    #[test]
    fn single_value_column() {
        let col: Column<i32> = Column::from(vec![42]);
        let idx = ColumnImprints::build(&col);
        assert_eq!(idx.line_count(), 1);
        assert_eq!(idx.tail().unwrap().1, 1);
        idx.verify(&col).unwrap();
        assert_eq!(idx.evaluate(&col, &RangePredicate::equals(42)).as_slice(), &[0]);
        assert!(idx.evaluate(&col, &RangePredicate::equals(41)).is_empty());
    }

    #[test]
    fn constant_column_compresses_to_one_imprint() {
        let col: Column<u16> = std::iter::repeat_n(7u16, 32 * 100).collect();
        let idx = ColumnImprints::build(&col);
        assert_eq!(idx.line_count(), 100);
        assert_eq!(idx.imprint_count(), 1);
        assert_eq!(idx.dict_len(), 1);
        assert!(idx.compression_ratio() < 0.02);
        idx.verify(&col).unwrap();
    }

    #[test]
    fn size_is_small_fraction_of_column() {
        let col: Column<f64> = (0..100_000).map(|i| (i % 1000) as f64).collect();
        let idx = ColumnImprints::build(&col);
        // Paper: storage overhead is "just a few percent"; worst case 12%.
        let overhead = idx.size_bytes() as f64 / col.data_bytes() as f64;
        assert!(overhead < 0.15, "overhead {overhead} too large");
    }

    #[test]
    fn verify_detects_column_change() {
        let mut col: Column<i32> = (0..10_000).map(|i| i % 100).collect();
        let idx = ColumnImprints::build(&col);
        idx.verify(&col).unwrap();
        // Tamper with a value so its bin changes.
        col.values_mut()[5000] = 1_000_000;
        assert!(idx.verify(&col).is_err());
    }

    #[test]
    fn verify_detects_length_change() {
        let col: Column<i32> = (0..100).collect();
        let idx = ColumnImprints::build(&col);
        let longer: Column<i32> = (0..101).collect();
        assert!(idx.verify(&longer).is_err());
    }

    #[test]
    fn figure_1_example() {
        // The running example of Figure 1: 15 values in 1..=8, cachelines
        // of 3 values (simulated with block_bytes = 3 * 4 = 12).
        let col: Column<i32> = Column::from(vec![1, 8, 4, 1, 6, 2, 3, 7, 2, 4, 5, 6, 8, 7, 1]);
        let opts = BuildOptions { block_bytes: 12, ..Default::default() };
        let idx = ColumnImprints::build_with(&col, opts);
        assert_eq!(idx.values_per_block(), 3);
        assert_eq!(idx.line_count(), 5);
        // 8 distinct values -> each value v maps to bin v (1..=8).
        let imprints: Vec<u64> = idx.line_imprints().collect();
        let expect = |vals: &[i32]| vals.iter().fold(0u64, |m, &v| m | 1 << v);
        assert_eq!(imprints[0], expect(&[1, 8, 4]));
        assert_eq!(imprints[1], expect(&[1, 6, 2]));
        assert_eq!(imprints[2], expect(&[3, 7, 2]));
        assert_eq!(imprints[3], expect(&[4, 5, 6]));
        assert_eq!(imprints[4], expect(&[8, 7, 1]));
        idx.verify(&col).unwrap();
    }

    #[test]
    fn block_size_ablation_geometry() {
        let col: Column<i32> = (0..4096).collect();
        for block in [64, 128, 256, 512] {
            let opts = BuildOptions { block_bytes: block, ..Default::default() };
            let idx = ColumnImprints::build_with(&col, opts);
            assert_eq!(idx.values_per_block(), block / 4);
            assert_eq!(idx.line_count() as usize, 4096 / (block / 4));
            idx.verify(&col).unwrap();
        }
    }

    /// The census counted the slow way: every logical line's vector, bit
    /// by bit.
    fn brute_census<T: Scalar>(idx: &ColumnImprints<T>) -> [u64; MAX_BINS] {
        let mut counts = [0; MAX_BINS];
        for v in idx.line_imprints() {
            for (bin, count) in counts.iter_mut().enumerate() {
                *count += v >> bin & 1;
            }
        }
        counts
    }

    fn assert_census<T: Scalar>(idx: &ColumnImprints<T>, stage: &str) {
        let census: Vec<u64> = (0..MAX_BINS).map(|b| idx.census().lines_with(b)).collect();
        assert_eq!(census, brute_census(idx), "{stage}");
    }

    /// Every way an index comes to be keeps its census equal to a count
    /// over its line vectors: a build, §4.1 appends in odd batches (a
    /// partial tail line growing, finalized, and started again), the
    /// parallel build that stitches per-chunk runs, and a load.
    fn check_census<T: Scalar>(values: Vec<T>, split: usize) {
        let col = Column::from(values);
        let idx = ColumnImprints::build(&col);
        assert_census(&idx, "build");
        let split = split.min(col.len());
        let mut grown = ColumnImprints::build(&Column::from(col.values()[..split].to_vec()));
        for batch in col.values()[split..].chunks(7) {
            grown.append(batch);
            assert_census(&grown, "append");
        }
        assert_eq!(grown.rows(), col.len());
        let stitched = crate::parallel::build_parallel(&col, BuildOptions::default(), 3);
        assert_census(&stitched, "parallel build");
        for (stage, idx) in [("load of a build", &idx), ("load of appends", &grown)] {
            let mut file = Vec::new();
            crate::storage::write_index(idx, &mut file).unwrap();
            let back = crate::storage::read_index::<T, _>(&mut file.as_slice()).unwrap();
            assert_eq!(back.census(), idx.census(), "{stage}");
            assert_census(&back, stage);
        }
    }

    /// Runs of `level`s with a little noise: repeat and distinct entries
    /// alike.
    fn shaped(pieces: &[(u32, usize)], noise: u64) -> Vec<u32> {
        let mut out = Vec::new();
        for (k, &(level, run)) in pieces.iter().enumerate() {
            for i in 0..run {
                let jitter = (k * 131 + i * 7919) as u64 % 100 < noise;
                out.push(if jitter { (i as u32 * 37) % 48 } else { level });
            }
        }
        out
    }

    /// The bit-plane count equals one step per set bit, across its
    /// eight-vector groups, their remainder and its 248-vector batches.
    #[test]
    fn add_lines_counts_every_set_bit() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let vectors: Vec<u64> = (0..1000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 5 == 0 {
                    u64::MAX
                } else {
                    x & x.rotate_left(i % 64)
                }
            })
            .collect();
        for n in [0, 1, 7, 8, 9, 247, 248, 249, 496, 1000] {
            let (mut fast, mut slow) = (Census::default(), Census::default());
            fast.add_lines(&vectors[..n]);
            vectors[..n].iter().for_each(|&v| slow.add(v, 1));
            assert_eq!(fast, slow, "{n} vectors");
        }
    }

    use proptest::prelude::*;

    fn arb_pieces() -> impl Strategy<Value = Vec<(u32, usize)>> {
        prop::collection::vec((0u32..48, 1usize..300), 0..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        #[test]
        fn census_counts_the_lines_of_every_bin_u8(
            pieces in arb_pieces(), noise in 0u64..30, split in 0usize..4000,
        ) {
            check_census(shaped(&pieces, noise).into_iter().map(|l| l as u8 * 5).collect(), split);
        }

        #[test]
        fn census_counts_the_lines_of_every_bin_i32(
            pieces in arb_pieces(), noise in 0u64..30, split in 0usize..4000,
        ) {
            let values = shaped(&pieces, noise).into_iter().map(|l| (l as i32 - 24) * 1000);
            check_census(values.collect(), split);
        }

        #[test]
        fn census_counts_the_lines_of_every_bin_i64(
            pieces in arb_pieces(), noise in 0u64..30, split in 0usize..4000,
        ) {
            let values = shaped(&pieces, noise).into_iter().map(|l| i64::from(l) << 40);
            check_census(values.collect(), split);
        }

        #[test]
        fn census_counts_the_lines_of_every_bin_f64(
            pieces in arb_pieces(), noise in 0u64..30, split in 0usize..4000,
        ) {
            check_census(shaped(&pieces, noise).into_iter().map(|l| l as f64 / 3.0).collect(), split);
        }
    }
}
