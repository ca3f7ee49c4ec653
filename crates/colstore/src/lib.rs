//! # colstore — a minimal columnar storage substrate
//!
//! This crate provides the storage layer that the
//! [column imprints](https://doi.org/10.1145/2463676.2465306) secondary
//! index (SIGMOD 2013) is built on. It models the essentials of a
//! MonetDB-style main-memory column store:
//!
//! * **Dense, cacheline-aligned columns** ([`Column`]): a column is a single
//!   dense array of fixed-width scalar values. Row ids are *not*
//!   materialized — they are derived from the position of a value in the
//!   array. Data is allocated on 64-byte boundaries ([`aligned::AlignedVec`])
//!   so that the "one imprint vector per cacheline" granularity of the index
//!   corresponds to real hardware cachelines.
//! * **Relations** ([`relation::Relation`]): a named bundle of equally-long
//!   columns with tuple reconstruction by id (late materialization).
//! * **Id lists** ([`idlist::IdList`], [`idlist::CachelineSet`]): sorted
//!   row-id result sets and candidate cacheline sets, with the merge-join
//!   style intersection used for multi-attribute conjunctive queries.
//! * **Binary persistence** ([`storage`]): an explicit, checksummed
//!   little-endian page format for columns (and, in the `imprints` crate,
//!   for indexes), with no external serialization dependency.
//!
//! The crate is deliberately small: it implements exactly the facilities the
//! paper relies on, nothing more.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod aligned;
pub mod column;
pub mod error;
pub mod idlist;
pub mod index;
pub mod predicate;
pub mod relation;
pub mod storage;
pub mod types;

pub use aligned::AlignedVec;
pub use column::Column;
pub use error::{Error, Result};
pub use idlist::{CachelineSet, IdList};
pub use index::{AccessStats, RangeIndex};
pub use predicate::{Bound, RangePredicate};
pub use relation::{Relation, Schema};
pub use types::{ColumnType, Scalar, Value};

/// The cacheline size, in bytes, assumed throughout the system.
///
/// The paper (§2.3) fixes this to the ubiquitous 64 bytes: "The size of the
/// cacheline is determined by the underlying hardware. In this work we assume
/// the commonly used size of 64 bytes." Every imprint vector covers exactly
/// one such cacheline worth of values.
pub const CACHELINE_BYTES: usize = 64;

/// Number of values of scalar type `T` that fit in one cacheline.
///
/// This is the `vpc` ("values per cacheline") constant of the paper's
/// Algorithms 1 and 3: 64 for 1-byte types, 32 for 2-byte, 16 for 4-byte and
/// 8 for 8-byte types.
pub const fn values_per_cacheline<T: Scalar>() -> usize {
    CACHELINE_BYTES / std::mem::size_of::<T>()
}

/// Number of cachelines needed to hold `len` values of type `T`.
///
/// The last cacheline may be partially filled; it still gets its own imprint
/// vector / zone.
pub const fn cacheline_count<T: Scalar>(len: usize) -> usize {
    len.div_ceil(values_per_cacheline::<T>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_per_cacheline_by_width() {
        assert_eq!(values_per_cacheline::<i8>(), 64);
        assert_eq!(values_per_cacheline::<u8>(), 64);
        assert_eq!(values_per_cacheline::<i16>(), 32);
        assert_eq!(values_per_cacheline::<u16>(), 32);
        assert_eq!(values_per_cacheline::<i32>(), 16);
        assert_eq!(values_per_cacheline::<u32>(), 16);
        assert_eq!(values_per_cacheline::<f32>(), 16);
        assert_eq!(values_per_cacheline::<i64>(), 8);
        assert_eq!(values_per_cacheline::<u64>(), 8);
        assert_eq!(values_per_cacheline::<f64>(), 8);
    }

    #[test]
    fn cacheline_count_rounds_up() {
        assert_eq!(cacheline_count::<i32>(0), 0);
        assert_eq!(cacheline_count::<i32>(1), 1);
        assert_eq!(cacheline_count::<i32>(16), 1);
        assert_eq!(cacheline_count::<i32>(17), 2);
        assert_eq!(cacheline_count::<f64>(8), 1);
        assert_eq!(cacheline_count::<f64>(9), 2);
        assert_eq!(cacheline_count::<u8>(64 * 10), 10);
    }
}
