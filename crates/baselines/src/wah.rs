//! Word-Aligned Hybrid (WAH) compressed bitvectors.
//!
//! The state-of-the-art bitmap compression the paper compares against
//! (Wu, Otoo & Shoshani 2002), "with word size 32 bits, as described in
//! \[23\]". A WAH vector is a sequence of 32-bit words:
//!
//! ```text
//! literal word:  0 b30 b29 … b0        — 31 verbatim bits
//! fill word:     1 f  c29 … c0         — c groups of 31 identical bits f
//! ```
//!
//! Compression is decided greedily: whenever 31 accumulated bits are all
//! equal they extend (or start) a fill word, otherwise they are emitted as
//! a literal.

use std::fmt;

/// Number of payload bits per WAH word.
pub const GROUP_BITS: u64 = 31;
const LITERAL_MASK: u32 = (1 << 31) - 1; // low 31 bits
const FILL_FLAG: u32 = 1 << 31;
const FILL_VALUE: u32 = 1 << 30;
const MAX_FILL_GROUPS: u32 = (1 << 30) - 1;

/// A decoded piece of a WAH vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// `groups × 31` identical bits of value `bit`.
    Fill {
        /// The repeated bit.
        bit: bool,
        /// Number of 31-bit groups.
        groups: u32,
    },
    /// One 31-bit literal (LSB = first bit); for the trailing partial
    /// group, only the low `bits` are meaningful.
    Literal {
        /// The payload (low 31 bits).
        word: u32,
        /// Valid bit count (31 except possibly for the trailing group).
        bits: u32,
    },
}

/// An append-only WAH-compressed bitvector.
///
/// # Examples
///
/// ```
/// use baselines::WahVector;
///
/// let mut v = WahVector::new();
/// v.append_run(false, 1000);
/// v.push(true);
/// v.append_run(false, 999);
/// assert_eq!(v.len(), 2000);
/// assert_eq!(v.ones().collect::<Vec<_>>(), vec![1000]);
/// assert!(v.size_bytes() < 2000 / 8); // compressed below the plain bitmap
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct WahVector {
    words: Vec<u32>,
    /// Bits accumulated toward the next 31-bit group (low `active_bits`).
    active: u32,
    active_bits: u32,
    len: u64,
}

impl WahVector {
    /// Creates an empty vector.
    pub fn new() -> Self {
        WahVector::default()
    }

    /// Total bits appended.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no bit has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Compressed size in bytes (full words plus the partial group, plus
    /// the length field — what the index size metric charges).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4 + if self.active_bits > 0 { 4 } else { 0 } + 8
    }

    /// Number of encoded 32-bit words (excluding the active partial group).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Appends a single bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.active |= (bit as u32) << self.active_bits;
        self.active_bits += 1;
        self.len += 1;
        if self.active_bits == GROUP_BITS as u32 {
            self.flush_group();
        }
    }

    /// Appends `count` copies of `bit`; fill runs are encoded in O(1) per
    /// 2³⁰ groups rather than per bit.
    pub fn append_run(&mut self, bit: bool, count: u64) {
        let mut remaining = count;
        // Top up the current partial group bit-by-bit.
        while self.active_bits != 0 && remaining > 0 {
            self.push(bit);
            remaining -= 1;
        }
        // Whole groups go straight to fill words.
        let groups = remaining / GROUP_BITS;
        if groups > 0 {
            self.push_fill(bit, groups);
            self.len += groups * GROUP_BITS;
            remaining -= groups * GROUP_BITS;
        }
        for _ in 0..remaining {
            self.push(bit);
        }
    }

    /// Appends zeros until the vector is `len` bits long (no-op when
    /// already there).
    ///
    /// # Panics
    /// Panics if the vector is already longer than `len`.
    pub fn pad_to(&mut self, len: u64) {
        assert!(self.len <= len, "cannot shrink a WAH vector");
        self.append_run(false, len - self.len);
    }

    fn flush_group(&mut self) {
        debug_assert_eq!(self.active_bits, GROUP_BITS as u32);
        let g = self.active & LITERAL_MASK;
        self.active = 0;
        self.active_bits = 0;
        if g == 0 {
            self.push_fill(false, 1);
        } else if g == LITERAL_MASK {
            self.push_fill(true, 1);
        } else {
            self.words.push(g);
        }
    }

    fn push_fill(&mut self, bit: bool, mut groups: u64) {
        debug_assert_eq!(self.active_bits, 0);
        // Extend the trailing fill word of the same polarity if possible.
        if let Some(last) = self.words.last_mut() {
            if *last & FILL_FLAG != 0 && (*last & FILL_VALUE != 0) == bit {
                let have = *last & MAX_FILL_GROUPS;
                let room = (MAX_FILL_GROUPS - have) as u64;
                let take = room.min(groups);
                *last += take as u32;
                groups -= take;
            }
        }
        while groups > 0 {
            let take = groups.min(MAX_FILL_GROUPS as u64);
            self.words.push(FILL_FLAG | (if bit { FILL_VALUE } else { 0 }) | take as u32);
            groups -= take;
        }
    }

    /// Iterates over the decoded segments, in order.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        let tail = (self.active_bits > 0)
            .then_some(Segment::Literal { word: self.active, bits: self.active_bits });
        self.words
            .iter()
            .map(|&w| {
                if w & FILL_FLAG != 0 {
                    Segment::Fill { bit: w & FILL_VALUE != 0, groups: w & MAX_FILL_GROUPS }
                } else {
                    Segment::Literal { word: w, bits: GROUP_BITS as u32 }
                }
            })
            .chain(tail)
    }

    /// Iterates over the positions of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = u64> + '_ {
        let mut pos = 0u64;
        self.segments().flat_map(move |seg| {
            let start = pos;
            match seg {
                Segment::Fill { bit, groups } => {
                    let n = groups as u64 * GROUP_BITS;
                    pos += n;
                    SegmentOnes::Fill { next: start, end: if bit { start + n } else { start } }
                }
                Segment::Literal { word, bits } => {
                    pos += bits as u64;
                    SegmentOnes::Literal { word, base: start }
                }
            }
        })
    }

    /// Total set bits.
    pub fn count_ones(&self) -> u64 {
        self.segments()
            .map(|seg| match seg {
                Segment::Fill { bit: true, groups } => groups as u64 * GROUP_BITS,
                Segment::Fill { bit: false, .. } => 0,
                Segment::Literal { word, .. } => word.count_ones() as u64,
            })
            .sum()
    }

    /// ORs the set bits into an uncompressed `u64`-word bitvector (the
    /// id-aligned result vector of §6.3). Returns the number of WAH words
    /// examined (the index-probe count of Figure 11).
    pub fn or_into(&self, dst: &mut [u64]) -> u64 {
        let mut probes = 0u64;
        let mut pos = 0u64;
        for seg in self.segments() {
            probes += 1;
            match seg {
                Segment::Fill { bit, groups } => {
                    let n = groups as u64 * GROUP_BITS;
                    if bit {
                        set_range(dst, pos, pos + n);
                    }
                    pos += n;
                }
                Segment::Literal { mut word, bits } => {
                    while word != 0 {
                        let b = word.trailing_zeros() as u64;
                        let p = pos + b;
                        dst[(p / 64) as usize] |= 1 << (p % 64);
                        word &= word - 1;
                    }
                    pos += bits as u64;
                }
            }
        }
        probes
    }
}

enum SegmentOnes {
    Fill { next: u64, end: u64 },
    Literal { word: u32, base: u64 },
}

impl Iterator for SegmentOnes {
    type Item = u64;
    fn next(&mut self) -> Option<u64> {
        match self {
            SegmentOnes::Fill { next, end } => {
                if next < end {
                    let p = *next;
                    *next += 1;
                    Some(p)
                } else {
                    None
                }
            }
            SegmentOnes::Literal { word, base } => {
                if *word == 0 {
                    None
                } else {
                    let b = word.trailing_zeros();
                    *word &= *word - 1;
                    Some(*base + b as u64)
                }
            }
        }
    }
}

fn set_range(dst: &mut [u64], start: u64, end: u64) {
    if start >= end {
        return;
    }
    let (first_word, first_bit) = ((start / 64) as usize, start % 64);
    let (last_word, last_bit) = (((end - 1) / 64) as usize, (end - 1) % 64);
    if first_word == last_word {
        let mask = (u64::MAX >> (63 - last_bit)) & (u64::MAX << first_bit);
        dst[first_word] |= mask;
        return;
    }
    dst[first_word] |= u64::MAX << first_bit;
    for w in &mut dst[first_word + 1..last_word] {
        *w = u64::MAX;
    }
    dst[last_word] |= u64::MAX >> (63 - last_bit);
}

impl fmt::Debug for WahVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WahVector {{ len: {}, words: {}, ones: {} }}",
            self.len,
            self.words.len(),
            self.count_ones()
        )
    }
}

impl FromIterator<bool> for WahVector {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = WahVector::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_bools(v: &WahVector) -> Vec<bool> {
        let mut out = vec![false; v.len() as usize];
        for p in v.ones() {
            out[p as usize] = true;
        }
        out
    }

    #[test]
    fn empty_vector() {
        let v = WahVector::new();
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.ones().count(), 0);
        assert_eq!(v.word_count(), 0);
    }

    #[test]
    fn push_roundtrip_short() {
        let bits = [true, false, false, true, true];
        let v: WahVector = bits.iter().copied().collect();
        assert_eq!(v.len(), 5);
        assert_eq!(to_bools(&v), bits);
        assert_eq!(v.ones().collect::<Vec<_>>(), vec![0, 3, 4]);
    }

    #[test]
    fn full_literal_group() {
        // 31 mixed bits -> exactly one literal word.
        let bits: Vec<bool> = (0..31).map(|i| i % 3 == 0).collect();
        let v: WahVector = bits.iter().copied().collect();
        assert_eq!(v.word_count(), 1);
        assert_eq!(to_bools(&v), bits);
    }

    #[test]
    fn zero_run_compresses_to_one_fill() {
        let mut v = WahVector::new();
        v.append_run(false, 31 * 1000);
        assert_eq!(v.word_count(), 1, "one fill word for 1000 groups");
        assert_eq!(v.len(), 31_000);
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn ones_run_compresses() {
        let mut v = WahVector::new();
        v.append_run(true, 31 * 50);
        assert_eq!(v.word_count(), 1);
        assert_eq!(v.count_ones(), 31 * 50);
        assert_eq!(v.ones().count() as u64, 31 * 50);
    }

    #[test]
    fn adjacent_fills_merge() {
        let mut v = WahVector::new();
        v.append_run(false, 31);
        v.append_run(false, 62);
        assert_eq!(v.word_count(), 1);
        v.append_run(true, 31);
        assert_eq!(v.word_count(), 2);
    }

    #[test]
    fn implicit_fill_from_pushed_bits() {
        // 62 pushed zeros become a 2-group zero fill, not two literals.
        let mut v = WahVector::new();
        for _ in 0..62 {
            v.push(false);
        }
        assert_eq!(v.word_count(), 1);
        assert!(matches!(v.segments().next(), Some(Segment::Fill { bit: false, groups: 2 })));
    }

    #[test]
    fn sparse_ones_roundtrip() {
        let mut v = WahVector::new();
        let positions = [0u64, 100, 101, 3100, 99_999];
        let mut len = 0;
        for &p in &positions {
            v.append_run(false, p - len);
            v.push(true);
            len = p + 1;
        }
        assert_eq!(v.ones().collect::<Vec<_>>(), positions);
        assert_eq!(v.count_ones(), 5);
        assert!(v.size_bytes() < 200, "sparse vector must compress well");
    }

    #[test]
    fn pad_to_extends_with_zeros() {
        let mut v = WahVector::new();
        v.push(true);
        v.pad_to(1000);
        assert_eq!(v.len(), 1000);
        assert_eq!(v.count_ones(), 1);
        v.pad_to(1000); // no-op
        assert_eq!(v.len(), 1000);
    }

    #[test]
    #[should_panic(expected = "cannot shrink")]
    fn pad_to_rejects_shrink() {
        let mut v = WahVector::new();
        v.append_run(false, 10);
        v.pad_to(5);
    }

    #[test]
    fn randomized_roundtrip_against_vec_bool() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..30 {
            let mut reference = Vec::new();
            let mut v = WahVector::new();
            for _ in 0..rng.gen_range(1..50) {
                if rng.gen_bool(0.5) {
                    let bit = rng.gen_bool(0.3);
                    let run = rng.gen_range(1..200);
                    v.append_run(bit, run);
                    reference.extend(std::iter::repeat_n(bit, run as usize));
                } else {
                    let bit = rng.gen_bool(0.5);
                    v.push(bit);
                    reference.push(bit);
                }
            }
            assert_eq!(v.len() as usize, reference.len());
            assert_eq!(to_bools(&v), reference);
            assert_eq!(v.count_ones() as usize, reference.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn or_into_matches_ones() {
        let mut v = WahVector::new();
        v.append_run(false, 40);
        v.append_run(true, 100);
        v.push(false);
        v.push(true);
        let n = v.len();
        let mut dst = vec![0u64; n.div_ceil(64) as usize];
        let probes = v.or_into(&mut dst);
        assert!(probes >= 1);
        let from_or: Vec<u64> =
            (0..n).filter(|&p| dst[(p / 64) as usize] & (1 << (p % 64)) != 0).collect();
        assert_eq!(from_or, v.ones().collect::<Vec<_>>());
    }

    #[test]
    fn set_range_word_boundaries() {
        let mut dst = vec![0u64; 3];
        set_range(&mut dst, 10, 10); // empty
        assert_eq!(dst, vec![0, 0, 0]);
        set_range(&mut dst, 0, 64);
        assert_eq!(dst[0], u64::MAX);
        let mut dst = vec![0u64; 3];
        set_range(&mut dst, 63, 65);
        assert_eq!(dst[0], 1 << 63);
        assert_eq!(dst[1], 1);
        let mut dst = vec![0u64; 3];
        set_range(&mut dst, 10, 150);
        let total: u32 = dst.iter().map(|w| w.count_ones()).sum();
        assert_eq!(total, 140);
    }

    #[test]
    fn giant_fill_splits_words() {
        let mut v = WahVector::new();
        let groups = (MAX_FILL_GROUPS as u64) + 5;
        v.append_run(false, groups * GROUP_BITS);
        assert_eq!(v.word_count(), 2);
        assert_eq!(v.len(), groups * GROUP_BITS);
    }

    #[test]
    fn alternating_bits_do_not_compress() {
        let v: WahVector = (0..31 * 100).map(|i| i % 2 == 0).collect();
        assert_eq!(v.word_count(), 100, "alternating bits are all literals");
        assert_eq!(v.count_ones(), 31 * 100 / 2); // ones at even positions of 3100 bits
    }
}
