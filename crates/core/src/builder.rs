//! Imprint construction and row-wise compression (Algorithm 1).
//!
//! The column is scanned once. For each cacheline a ≤64-bit imprint vector
//! is accumulated by OR-ing `1 << bin(value)` over the cacheline's values.
//! Completed vectors stream into a [`Compressor`], which implements the
//! run-length scheme of §2.3: consecutive *identical* vectors are stored
//! once and accounted by a [`DictEntry`] with the `repeat` flag set, while
//! stretches of pairwise-distinct vectors share a single `repeat = 0` entry
//! counting them.
//!
//! This scan is the one build path. The compressor is exposed because
//! data appends reuse it verbatim (§4.1 — "data appends simply cause new
//! imprint vectors to be appended to the end of the existing ones").

use colstore::{Column, Scalar};

use crate::binning::{Binning, BinningStrategy};
use crate::dict::{DictEntry, MAX_CNT};

/// Construction parameters. The defaults mirror the paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Maximum number of sampled values for binning (default 2048).
    pub sample_size: usize,
    /// RNG seed for sampling, so builds are reproducible (default 2013).
    pub seed: u64,
    /// Bytes of column data covered by one imprint vector (default 64, the
    /// cacheline; §2.3 discusses matching the engine's access granularity,
    /// e.g. vector size in a vectorized engine — the block ablation bench
    /// sweeps this).
    pub block_bytes: usize,
    /// How bin borders are derived (default: the paper's equi-height).
    pub strategy: BinningStrategy,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            sample_size: crate::DEFAULT_SAMPLE_SIZE,
            seed: 2013,
            block_bytes: colstore::CACHELINE_BYTES,
            strategy: BinningStrategy::EquiHeight,
        }
    }
}

impl BuildOptions {
    /// Values per block for scalar type `T` (the paper's `vpc`).
    pub fn values_per_block<T: Scalar>(&self) -> usize {
        let vpb = self.block_bytes / std::mem::size_of::<T>();
        assert!(vpb > 0, "block must hold at least one value");
        vpb
    }
}

/// Streaming run-length compressor for imprint vectors.
///
/// Feed completed per-cacheline vectors with [`Compressor::push_line`];
/// read back the compressed form as the parallel arrays
/// [`Compressor::imprints`] / [`Compressor::dict`].
///
/// Invariants maintained (checked by [`Compressor::verify`]):
/// * `Σ entry.line_count() == lines_pushed`
/// * `Σ entry.imprint_count() == imprints.len()`
/// * a `repeat` entry always has `cnt ≥ 2`
/// * consecutive stored imprints inside a `repeat = 0` entry are pairwise
///   distinct at run boundaries (identical neighbours would have been
///   compressed).
#[derive(Debug, Clone, Default)]
pub struct Compressor {
    imprints: Vec<u64>,
    dict: Vec<DictEntry>,
    lines: u64,
}

impl Compressor {
    /// Creates an empty compressor.
    pub fn new() -> Self {
        Compressor::default()
    }

    /// The stored (compressed) imprint vectors.
    pub fn imprints(&self) -> &[u64] {
        &self.imprints
    }

    /// The cacheline dictionary.
    pub fn dict(&self) -> &[DictEntry] {
        &self.dict
    }

    /// Total cachelines accounted for.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Consumes the compressor, returning `(imprints, dict)`.
    pub fn into_parts(self) -> (Vec<u64>, Vec<DictEntry>) {
        (self.imprints, self.dict)
    }

    /// Rebuilds a compressor from stored parts (deserialization path).
    pub fn from_parts(imprints: Vec<u64>, dict: Vec<DictEntry>) -> Self {
        let lines = dict.iter().map(|e| e.line_count() as u64).sum();
        Compressor { imprints, dict, lines }
    }

    /// Appends the imprint vector of the next cacheline (Algorithm 1's
    /// per-line bookkeeping).
    pub fn push_line(&mut self, v: u64) {
        self.lines += 1;
        // "Same imprint as the previous stored one, and the counter has
        // room": extend or create a repeat run.
        if let (Some(&last_imp), Some(&last_entry)) = (self.imprints.last(), self.dict.last()) {
            if last_imp == v && last_entry.cnt() < MAX_CNT {
                let d = self.dict.len() - 1;
                if !last_entry.repeat() {
                    if last_entry.cnt() == 1 {
                        // The lone stored imprint becomes a repeat run.
                        self.dict[d] = last_entry.with_repeat(true).with_cnt(2);
                    } else {
                        // Carve the trailing imprint out of the distinct run
                        // and open a fresh repeat run for it.
                        self.dict[d] = last_entry.with_cnt(last_entry.cnt() - 1);
                        self.dict.push(DictEntry::new(2, true));
                    }
                } else {
                    self.dict[d] = last_entry.with_cnt(last_entry.cnt() + 1);
                }
                return;
            }
        }
        // Different imprint (or first line, or counter exhausted): store it.
        self.imprints.push(v);
        match self.dict.last().copied() {
            Some(e) if !e.repeat() && e.cnt() < MAX_CNT => {
                let d = self.dict.len() - 1;
                self.dict[d] = e.with_cnt(e.cnt() + 1);
            }
            _ => self.dict.push(DictEntry::new(1, false)),
        }
    }

    /// Checks the structural invariants; returns a description of the first
    /// violation, if any. O(dictionary).
    pub fn verify(&self) -> Result<(), String> {
        let mut line_sum = 0u64;
        let mut imp_sum = 0u64;
        for (i, e) in self.dict.iter().enumerate() {
            if e.cnt() == 0 {
                return Err(format!("dict[{i}] has zero count"));
            }
            if e.repeat() && e.cnt() < 2 {
                return Err(format!("dict[{i}] is a repeat run of length {}", e.cnt()));
            }
            line_sum += e.line_count() as u64;
            imp_sum += e.imprint_count() as u64;
        }
        if line_sum != self.lines {
            return Err(format!("dict covers {line_sum} lines, expected {}", self.lines));
        }
        if imp_sum != self.imprints.len() as u64 {
            return Err(format!(
                "dict accounts for {imp_sum} imprints, stored {}",
                self.imprints.len()
            ));
        }
        Ok(())
    }
}

/// Computes the imprint vector of one cacheline of values.
#[inline]
pub fn line_imprint<T: Scalar>(binning: &Binning<T>, values: &[T]) -> u64 {
    let mut v = 0u64;
    for &x in values {
        v |= 1u64 << binning.bin_of(x);
    }
    v
}

/// Scans `col` and produces its compressed imprints: the core of
/// Algorithm 1. The trailing *partial* cacheline (if any) is **not**
/// pushed into the compressor; its in-progress imprint and length are
/// returned separately so appends can keep extending it (§4.1).
///
/// Returns `(compressor, tail_imprint, tail_len)`.
pub fn build_compressed<T: Scalar>(
    col: &Column<T>,
    binning: &Binning<T>,
    opts: &BuildOptions,
) -> (Compressor, u64, usize) {
    let vpb = opts.values_per_block::<T>();
    let values = col.values();
    let mut comp = Compressor::new();
    let full_lines = values.len() / vpb;
    // chunks_exact: the hot loop sees fixed-size slices (no tail checks).
    for line in values.chunks_exact(vpb).take(full_lines) {
        comp.push_line(line_imprint(binning, line));
    }
    let tail = &values[full_lines * vpb..];
    let tail_imprint = line_imprint(binning, tail);
    (comp, tail_imprint, tail.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decompress(c: &Compressor) -> Vec<u64> {
        let mut out = Vec::new();
        let mut i = 0usize;
        for e in c.dict() {
            if e.repeat() {
                out.extend(std::iter::repeat_n(c.imprints()[i], e.cnt() as usize));
                i += 1;
            } else {
                for _ in 0..e.cnt() {
                    out.push(c.imprints()[i]);
                    i += 1;
                }
            }
        }
        assert_eq!(i, c.imprints().len());
        out
    }

    #[test]
    fn single_line() {
        let mut c = Compressor::new();
        c.push_line(0b101);
        assert_eq!(c.imprints(), &[0b101]);
        assert_eq!(c.dict().len(), 1);
        assert_eq!(c.dict()[0].cnt(), 1);
        assert!(!c.dict()[0].repeat());
        c.verify().unwrap();
    }

    #[test]
    fn two_identical_lines_become_repeat() {
        let mut c = Compressor::new();
        c.push_line(7);
        c.push_line(7);
        assert_eq!(c.imprints(), &[7]);
        assert_eq!(c.dict().len(), 1);
        assert!(c.dict()[0].repeat());
        assert_eq!(c.dict()[0].cnt(), 2);
        c.verify().unwrap();
    }

    #[test]
    fn distinct_then_repeat_carves_out() {
        // Lines: a b b b -> dict: {1 distinct}, {3 repeat}; imprints a, b.
        let mut c = Compressor::new();
        for v in [1, 2, 2, 2] {
            c.push_line(v);
        }
        assert_eq!(c.imprints(), &[1, 2]);
        assert_eq!(c.dict().len(), 2);
        assert!(!c.dict()[0].repeat());
        assert_eq!(c.dict()[0].cnt(), 1);
        assert!(c.dict()[1].repeat());
        assert_eq!(c.dict()[1].cnt(), 3);
        c.verify().unwrap();
    }

    #[test]
    fn repeat_then_distinct_run() {
        // Lines: a a b c -> dict: {2 repeat}, {2 distinct}; imprints a, b, c.
        let mut c = Compressor::new();
        for v in [5, 5, 6, 7] {
            c.push_line(v);
        }
        assert_eq!(c.imprints(), &[5, 6, 7]);
        assert_eq!(c.dict().len(), 2);
        assert!(c.dict()[0].repeat());
        assert_eq!(c.dict()[0].cnt(), 2);
        assert!(!c.dict()[1].repeat());
        assert_eq!(c.dict()[1].cnt(), 2);
        c.verify().unwrap();
    }

    #[test]
    fn paper_figure_2_shape() {
        // Figure 2: 23 cachelines = 7 distinct, 13 repeated, 3 distinct;
        // 11 stored imprints, dictionary (7,0), (13,1), (3,0).
        let mut c = Compressor::new();
        for v in 1..=7u64 {
            c.push_line(v);
        }
        for _ in 0..13 {
            c.push_line(100);
        }
        for v in [200u64, 300, 400] {
            c.push_line(v);
        }
        assert_eq!(c.lines(), 23);
        assert_eq!(c.imprints().len(), 11);
        let d = c.dict();
        assert_eq!(d.len(), 3);
        assert_eq!((d[0].cnt(), d[0].repeat()), (7, false));
        assert_eq!((d[1].cnt(), d[1].repeat()), (13, true));
        assert_eq!((d[2].cnt(), d[2].repeat()), (3, false));
        c.verify().unwrap();
    }

    #[test]
    fn alternating_never_compresses() {
        let mut c = Compressor::new();
        for i in 0..100 {
            c.push_line(if i % 2 == 0 { 1 } else { 2 });
        }
        assert_eq!(c.imprints().len(), 100);
        assert_eq!(c.dict().len(), 1);
        assert_eq!(c.dict()[0].cnt(), 100);
        c.verify().unwrap();
    }

    #[test]
    fn decompress_roundtrip_random() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let mut c = Compressor::new();
            let mut lines = Vec::new();
            // Random runs of random vectors: exercises every transition.
            for _ in 0..rng.gen_range(1..40) {
                let v = rng.gen_range(0..4u64);
                let run = rng.gen_range(1..10);
                for _ in 0..run {
                    c.push_line(v);
                    lines.push(v);
                }
            }
            assert_eq!(decompress(&c), lines);
            c.verify().unwrap();
        }
    }

    #[test]
    fn counter_saturation_splits_entries() {
        // Exceed the 24-bit counter: a run of MAX_CNT + 10 identical lines
        // must split into two dictionary entries.
        let mut c = Compressor::new();
        for _ in 0..MAX_CNT + 10 {
            c.push_line(9);
        }
        assert_eq!(c.lines(), MAX_CNT as u64 + 10);
        assert!(c.dict().len() >= 2);
        c.verify().unwrap();
        let total: u64 = c.dict().iter().map(|e| e.line_count() as u64).sum();
        assert_eq!(total, MAX_CNT as u64 + 10);
    }

    #[test]
    fn from_parts_restores_lines() {
        let mut c = Compressor::new();
        for v in [1u64, 1, 2, 3, 3, 3] {
            c.push_line(v);
        }
        let (imps, dict) = c.clone().into_parts();
        let back = Compressor::from_parts(imps, dict);
        assert_eq!(back.lines(), 6);
        assert_eq!(decompress(&back), decompress(&c));
    }

    #[test]
    fn build_compressed_with_partial_tail() {
        // 40 i32 values, vpb 16: two full lines + tail of 8.
        let col: Column<i32> = (0..40).collect();
        let binning = Binning::from_column(&col, 2048, 0);
        let (comp, tail_imp, tail_len) = build_compressed(&col, &binning, &BuildOptions::default());
        assert_eq!(comp.lines(), 2);
        assert_eq!(tail_len, 8);
        assert_ne!(tail_imp, 0);
        comp.verify().unwrap();
    }

    #[test]
    fn build_compressed_exact_lines_no_tail() {
        let col: Column<i32> = (0..32).collect();
        let binning = Binning::from_column(&col, 2048, 0);
        let (comp, tail_imp, tail_len) = build_compressed(&col, &binning, &BuildOptions::default());
        assert_eq!(comp.lines(), 2);
        assert_eq!(tail_len, 0);
        assert_eq!(tail_imp, 0);
    }

    #[test]
    fn line_imprint_sets_expected_bits() {
        // Binning over 1..=7 gives value v bin v.
        let sample: Vec<i32> = (1..=7).collect();
        let b = Binning::from_sorted_sample(&sample);
        let imp = line_imprint(&b, &[1, 8, 4]);
        // 1 -> bin 1; 4 -> bin 4; 8 (above max) -> bin 7.
        assert_eq!(imp, (1 << 1) | (1 << 4) | (1 << 7));
    }

    #[test]
    fn sorted_column_compresses_massively() {
        let col: Column<u8> = (0..64_000).map(|i| (i / 8000) as u8).collect();
        let binning = Binning::from_column(&col, 2048, 1);
        let (comp, _, _) = build_compressed(&col, &binning, &BuildOptions::default());
        // 1000 lines, 8 distinct values, long runs: few stored imprints.
        assert_eq!(comp.lines(), 1000);
        assert!(
            comp.imprints().len() <= 16,
            "sorted data must compress to ~one imprint per value, got {}",
            comp.imprints().len()
        );
        comp.verify().unwrap();
    }
}
