//! # imprints — Column Imprints, a cache-conscious secondary index
//!
//! A faithful, production-quality reimplementation of
//! *"Column Imprints: A Secondary Index Structure"* (Lefteris Sidirourgos
//! and Martin Kersten, SIGMOD 2013).
//!
//! ## The idea
//!
//! A **column imprint** summarizes a column at *cacheline* granularity.
//! From a small sample (≤2048 values) an approximate equi-height histogram
//! of at most 64 bins is derived ([`Binning`]). The column is then scanned
//! once: for every 64-byte cacheline of data, a ≤64-bit **imprint vector**
//! is built whose bit *i* is set iff some value in that cacheline falls into
//! histogram bin *i* ([`builder`]). Consecutive identical imprint vectors
//! are run-length compressed through a **cacheline dictionary** of packed
//! `{cnt:24, repeat:1, flags:7}` entries ([`dict`]).
//!
//! A range query is translated into a pair of bit masks ([`masks`]): a
//! `mask` of every bin overlapping the query and an `innermask` of bins
//! fully contained in it. One bitwise `AND` per imprint vector decides
//! whether a cacheline can be skipped, must be fetched and checked, or —
//! when covered by the `innermask` — qualifies wholesale with no value
//! comparisons at all ([`query`]).
//!
//! The index is a few percent of the column size, robust to skew, supports
//! appends without touching existing vectors (§4, [`update`]), and its
//! compressibility is quantified by the paper's **column entropy** metric
//! ([`entropy`]).
//!
//! ## Quick start
//!
//! ```
//! use colstore::{Column, RangePredicate, RangeIndex};
//! use imprints::ColumnImprints;
//!
//! // An unsorted secondary attribute.
//! let col: Column<i32> = (0..10_000).map(|i| (i * 7919) % 1000).collect();
//!
//! // Build the imprint index (sampling, binning, one scan).
//! let idx = ColumnImprints::build(&col);
//!
//! // Evaluate 100 <= v <= 200, getting back the ordered qualifying row ids.
//! let ids = idx.evaluate(&col, &RangePredicate::between(100, 200));
//! assert!(ids.iter().all(|id| {
//!     let v = col.get(id as usize).unwrap();
//!     (100..=200).contains(&v)
//! }));
//! ```
//!
//! ## Crate map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`sampling`] | §2.4–2.5 | uniform sampling, sort, duplicate elimination |
//! | [`binning`] | §2.5, Alg. 2 | histogram bins and borders, `get_bin` ([`Binning::bin_of`]) |
//! | [`dict`] | §2.3–2.4 | packed cacheline-dictionary entries |
//! | [`builder`] | §2.4, Alg. 1 | the one build path: a single scan + row-wise RLE compression |
//! | [`index`] | §2 | the [`ColumnImprints`] structure |
//! | [`masks`] | §3 | query `mask` / `innermask` derivation |
//! | [`query`] | §3, Alg. 3 | the one probe walk ([`query::probe`]) and its visitors: range evaluation, row-id candidates for late materialization, covered counts, stats; the one batched value check every caller shares |
//! | [`simd`] | §3 residual cost | lane-width vector false-positive refinement kernels |
//! | [`update`] | §4 | appends (§4.1), in-place updates as an overlay run source for the probe walk (§4.2), saturation & rebuild |
//! | [`entropy`] | §6.1 | the column entropy metric `E` |
//! | [`print`](mod@print) | Fig. 3 | `x`/`.` imprint rendering |
//! | [`relation_index`] | §3 | the multi-attribute plan, written once ([`relation_index::run`]): relation-level indexes run it, and so do the engine's sealed segments and write head |
//! | [`storage`] | — | checksummed binary persistence of an index |

#![warn(missing_docs)]

pub mod binning;
pub mod builder;
pub mod dict;
pub mod entropy;
pub mod index;
pub mod masks;
pub mod print;
pub mod query;
pub mod relation_index;
pub mod sampling;
pub mod simd;
pub mod storage;
pub mod update;

pub use binning::{Binning, BinningStrategy};
pub use builder::{BuildOptions, Compressor};
pub use dict::DictEntry;
pub use entropy::column_entropy;
pub use index::ColumnImprints;
pub use masks::QueryMasks;
pub use query::ImprintStats;
pub use simd::{Hits, PredicateKernel, RefineKernel};
pub use update::OverlayImprints;

// Re-export the substrate types that appear in this crate's public API so
// downstream users need only one import path.
pub use colstore::{AccessStats, Bound, Column, IdList, RangeIndex, RangePredicate, Scalar};

/// Largest number of histogram bins, bounded by the 64 bits of an imprint
/// vector (paper §2.4: "never more than 64 bits").
pub const MAX_BINS: usize = 64;

/// Default sample size for binning (paper §2.4: "not more than 2048 in our
/// implementation").
pub const DEFAULT_SAMPLE_SIZE: usize = 2048;
