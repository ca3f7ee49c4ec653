//! # baselines — comparator secondary indexes
//!
//! The three evaluation baselines of the paper (§6), "coded with the same
//! rigidity" as the imprints index and answering the identical
//! [`colstore::RangePredicate`] contract through
//! [`colstore::RangeIndex`]:
//!
//! * [`ZoneMap`] — min/max per cacheline-sized zone;
//! * [`WahBitmap`] — bit-binned bitmap index, one WAH-compressed bitvector
//!   per histogram bin, sharing the *same* binning as imprints;
//! * [`SeqScan`] — the sequential-scan pseudo-index used as the absolute
//!   baseline.
//!
//! [`wah`] contains the Word-Aligned Hybrid compressed bitvector itself
//! (Wu, Otoo & Shoshani, "Compressing Bitmap Indexes for Faster Search
//! Operations"), implemented with 32-bit words as in the paper's §6 setup.

#![warn(missing_docs)]

pub mod bitmap;
pub mod scan;
pub mod wah;
pub mod zonemap;

pub use bitmap::WahBitmap;
pub use scan::SeqScan;
pub use wah::WahVector;
pub use zonemap::ZoneMap;
