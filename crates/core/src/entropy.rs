//! Column entropy (§6.1).
//!
//! The paper quantifies "how close a column is to being ordered" with
//!
//! ```text
//!         Σ_{i=2..n} d(i, i−1)
//!  E  =  ─────────────────────
//!           2 × Σ_{i=1..n} b(i)
//! ```
//!
//! where `d(i, i−1)` is the edit distance between consecutive per-cacheline
//! imprint vectors — the number of bits to set *and* unset to turn one into
//! the other, i.e. `popcount(v_i XOR v_{i−1})` — and `b(i)` is the number
//! of set bits of vector `i`. `E ∈ [0, 1]`: 0 for perfectly clustered or
//! sorted data (consecutive cachelines map to the same bins), approaching 1
//! for data whose every cacheline differs completely from its neighbour.

use colstore::Scalar;

use crate::index::{ColumnImprints, Run};

/// Computes the column entropy `E` of an index (over the *logical*,
/// decompressed per-cacheline imprint sequence).
///
/// Runs in O(runs): within a repeat run the edit distance is 0 and the
/// popcount contribution is `cnt × popcount`, so only run boundaries need
/// an XOR.
pub fn column_entropy<T: Scalar>(idx: &ColumnImprints<T>) -> f64 {
    let mut edit_sum: u64 = 0;
    let mut bits_sum: u64 = 0;
    let mut prev: Option<u64> = None;
    for run in idx.runs().flat_map(Run::entries) {
        // One entry's run: a repeat entry's one vector describes all its
        // lines, a distinct entry's vectors one line each.
        let vectors = run.vectors();
        let lines = run.line_count() / vectors.len() as u64;
        for &v in vectors {
            bits_sum += v.count_ones() as u64 * lines;
            if let Some(p) = prev {
                edit_sum += (p ^ v).count_ones() as u64;
            }
            prev = Some(v);
        }
    }
    if bits_sum == 0 {
        return 0.0;
    }
    edit_sum as f64 / (2.0 * bits_sum as f64)
}

/// Entropy computed directly from a sequence of imprint vectors (exposed
/// for tests and for callers that synthesize vector sequences).
pub fn entropy_of_vectors(vectors: &[u64]) -> f64 {
    let bits: u64 = vectors.iter().map(|v| v.count_ones() as u64).sum();
    if bits == 0 {
        return 0.0;
    }
    let edits: u64 = vectors.windows(2).map(|w| (w[0] ^ w[1]).count_ones() as u64).sum();
    edits as f64 / (2.0 * bits as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::Column;

    #[test]
    fn identical_vectors_zero_entropy() {
        assert_eq!(entropy_of_vectors(&[0b101, 0b101, 0b101]), 0.0);
    }

    #[test]
    fn empty_and_all_zero() {
        assert_eq!(entropy_of_vectors(&[]), 0.0);
        assert_eq!(entropy_of_vectors(&[0, 0]), 0.0);
    }

    #[test]
    fn disjoint_vectors_reach_one() {
        // Each vector has 1 bit, consecutive vectors disjoint: every step
        // edits 2 bits. E = (n-1)*2 / (2*n) -> 1 as n grows.
        let vectors: Vec<u64> = (0..1000).map(|i| 1u64 << (i % 64)).collect();
        let e = entropy_of_vectors(&vectors);
        assert!(e > 0.99 && e <= 1.0, "E = {e}");
    }

    #[test]
    fn sliding_window_half_entropy() {
        // Two bits per vector, one shared with the predecessor: d = 2,
        // b = 2, E -> 2(n-1) / (2*2n) -> 0.5.
        let vectors: Vec<u64> = (0..1000).map(|i| 0b11u64 << (i % 60)).collect();
        let e = entropy_of_vectors(&vectors);
        assert!((e - 0.5).abs() < 0.01, "E = {e}");
    }

    #[test]
    fn index_entropy_matches_vector_entropy() {
        let col: Column<i32> = (0..50_000).map(|i| (i * 37) % 1000).collect();
        let idx = ColumnImprints::build(&col);
        let vectors: Vec<u64> = idx.line_imprints().collect();
        let a = column_entropy(&idx);
        let b = entropy_of_vectors(&vectors);
        assert!((a - b).abs() < 1e-12, "run-based {a} vs direct {b}");
    }

    #[test]
    fn sorted_column_has_low_entropy() {
        let col: Column<i32> = (0..100_000).collect();
        let idx = ColumnImprints::build(&col);
        let e = column_entropy(&idx);
        assert!(e < 0.1, "sorted data should have near-zero entropy, got {e}");
    }

    #[test]
    fn random_column_has_high_entropy() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let col: Column<f64> = (0..100_000).map(|_| rng.gen::<f64>()).collect();
        let idx = ColumnImprints::build(&col);
        let e = column_entropy(&idx);
        // The paper measures ~0.8 for SkyServer's uniform real columns.
        assert!(e > 0.5, "uniform data should have high entropy, got {e}");
    }

    #[test]
    fn clustered_beats_shuffled() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let clustered: Column<i32> = (0..64_000).map(|i| i / 64).collect();
        let mut shuffled_vals: Vec<i32> = (0..64_000).map(|i| i / 64).collect();
        shuffled_vals.shuffle(&mut rand::rngs::StdRng::seed_from_u64(1));
        let shuffled: Column<i32> = Column::from(shuffled_vals);
        let e_clustered = column_entropy(&ColumnImprints::build(&clustered));
        let e_shuffled = column_entropy(&ColumnImprints::build(&shuffled));
        assert!(e_clustered < e_shuffled / 2.0, "clustered {e_clustered} vs shuffled {e_shuffled}");
    }

    #[test]
    fn entropy_bounded() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10 {
            let n = rng.gen_range(1..5000);
            let card = rng.gen_range(1..2000);
            let col: Column<i32> = (0..n).map(|_| rng.gen_range(0..card)).collect();
            let e = column_entropy(&ColumnImprints::build(&col));
            assert!((0.0..=1.0).contains(&e), "E = {e} out of range");
        }
    }
}
