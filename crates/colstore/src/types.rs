//! Scalar value types storable in a column.
//!
//! The paper indexes fixed-width numeric attributes (char/short/int/long,
//! real/double, dates encoded as ints). [`Scalar`] abstracts over those ten
//! Rust primitive types and supplies exactly what the index machinery needs:
//! a *total* order (floats use IEEE-754 `totalOrder` so NaNs sort
//! deterministically), domain extrema used for the histogram's overflow
//! bins, and a lossless 64-bit bit-pattern for persistence.

use std::cmp::Ordering;
use std::fmt;

/// Runtime tag identifying the scalar type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 1-byte signed integer (`char` in the paper's datasets).
    I8,
    /// 1-byte unsigned integer.
    U8,
    /// 2-byte signed integer (`short`).
    I16,
    /// 2-byte unsigned integer.
    U16,
    /// 4-byte signed integer (`int`, `date`).
    I32,
    /// 4-byte unsigned integer.
    U32,
    /// 8-byte signed integer (`long`).
    I64,
    /// 8-byte unsigned integer (identifiers).
    U64,
    /// 4-byte IEEE-754 float (`real`).
    F32,
    /// 8-byte IEEE-754 float (`double`).
    F64,
}

impl ColumnType {
    /// Width of one value in bytes (1, 2, 4 or 8).
    pub const fn width(self) -> usize {
        match self {
            ColumnType::I8 | ColumnType::U8 => 1,
            ColumnType::I16 | ColumnType::U16 => 2,
            ColumnType::I32 | ColumnType::U32 | ColumnType::F32 => 4,
            ColumnType::I64 | ColumnType::U64 | ColumnType::F64 => 8,
        }
    }

    /// Stable numeric tag used by the on-disk format.
    pub const fn tag(self) -> u8 {
        match self {
            ColumnType::I8 => 0,
            ColumnType::U8 => 1,
            ColumnType::I16 => 2,
            ColumnType::U16 => 3,
            ColumnType::I32 => 4,
            ColumnType::U32 => 5,
            ColumnType::I64 => 6,
            ColumnType::U64 => 7,
            ColumnType::F32 => 8,
            ColumnType::F64 => 9,
        }
    }

    /// Inverse of [`ColumnType::tag`].
    pub const fn from_tag(tag: u8) -> Option<ColumnType> {
        Some(match tag {
            0 => ColumnType::I8,
            1 => ColumnType::U8,
            2 => ColumnType::I16,
            3 => ColumnType::U16,
            4 => ColumnType::I32,
            5 => ColumnType::U32,
            6 => ColumnType::I64,
            7 => ColumnType::U64,
            8 => ColumnType::F32,
            9 => ColumnType::F64,
            _ => return None,
        })
    }
}

/// Runs generic code for whichever scalar type a runtime value holds — the
/// workspace's one `(variant, type)` list. Every ten-way enum over the
/// scalar types ([`Value`], [`AnyColumn`](crate::relation::AnyColumn), the
/// `imprints` crate's `AnyImprints` and `AnySet`) names its variants after
/// [`ColumnType`]'s, so one list serves them all:
///
/// * `dispatch!(Enum(x) = expr => body)` matches `expr` against every
///   variant of `Enum`, binding the payload to `x`;
/// * `dispatch!(type T = ty => body)` matches the [`ColumnType`] `ty`,
///   with `T` aliasing the scalar type in `body`;
/// * either form, written `=> into Out(body)`, wraps `body` in `Out`'s
///   variant of the same name, and `=> into Out` names a unit variant;
/// * `dispatch!(each m)` expands `m!(I8 i8, U8 u8, …)` (item position).
///
/// ```
/// use colstore::relation::AnyColumn;
/// use colstore::{dispatch, Column, ColumnType, Scalar};
///
/// let col = AnyColumn::from(Column::from(vec![3u16, 1, 2]));
/// let sum = dispatch!(AnyColumn(c) = &col => c.values().iter().map(|v| v.as_f64()).sum::<f64>());
/// assert_eq!(sum, 6.0);
/// assert_eq!(dispatch!(AnyColumn(_) = &col => into ColumnType), ColumnType::U16);
/// let empty = dispatch!(type T = ColumnType::F32 => into AnyColumn(Column::<T>::new()));
/// assert_eq!(empty.column_type(), ColumnType::F32);
/// ```
#[macro_export]
macro_rules! dispatch {
    (@on [$($v:ident $t:ty),*] type $T:ident = $ty:expr => into $out:ident($body:expr)) => {
        match $ty { $($crate::ColumnType::$v => { type $T = $t; $out::$v($body) })* }
    };
    (@on [$($v:ident $t:ty),*] type $T:ident = $ty:expr => $body:expr) => {
        match $ty { $($crate::ColumnType::$v => { type $T = $t; $body })* }
    };
    (@on [$($v:ident $t:ty),*] each $m:ident) => {
        $m!($($v $t),*);
    };
    (@on [$($v:ident $t:ty),*] $enum:ident($x:pat) = $e:expr => into $out:ident($body:expr)) => {
        match $e { $($enum::$v($x) => $out::$v($body),)* }
    };
    (@on [$($v:ident $t:ty),*] $enum:ident($x:pat) = $e:expr => into $out:ident) => {
        match $e { $($enum::$v($x) => $out::$v,)* }
    };
    (@on [$($v:ident $t:ty),*] $enum:ident($x:pat) = $e:expr => $body:expr) => {
        match $e { $($enum::$v($x) => $body,)* }
    };
    ($($form:tt)*) => {
        $crate::dispatch! {
            @on [I8 i8, U8 u8, I16 i16, U16 u16, I32 i32, U32 u32,
                 I64 i64, U64 u64, F32 f32, F64 f64]
            $($form)*
        }
    };
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::I8 => "i8",
            ColumnType::U8 => "u8",
            ColumnType::I16 => "i16",
            ColumnType::U16 => "u16",
            ColumnType::I32 => "i32",
            ColumnType::U32 => "u32",
            ColumnType::I64 => "i64",
            ColumnType::U64 => "u64",
            ColumnType::F32 => "f32",
            ColumnType::F64 => "f64",
        };
        f.write_str(s)
    }
}

/// A fixed-width scalar storable in a [`crate::Column`] and indexable by
/// column imprints, zonemaps and bitmaps.
///
/// Implementations exist for `i8..=i64`, `u8..=u64`, `f32` and `f64`.
///
/// The order defined by [`Scalar::total_cmp`] must be total. For integers it
/// is the native order; for floats it is IEEE-754 `totalOrder`, under which
/// `-NaN < -inf < … < +inf < +NaN`. This keeps sampling, binning and
/// predicate evaluation deterministic even on dirty float data.
pub trait Scalar: Copy + PartialOrd + Send + Sync + fmt::Debug + fmt::Display + 'static {
    /// The runtime tag for this type.
    const TYPE: ColumnType;
    /// Width of one value in bits — the lane width of the vectorized
    /// refinement kernel (`imprints::simd`), which compares sort keys cut
    /// to this many bits so that the compiler keeps them in lanes of this
    /// width.
    const LANE_BITS: u32;
    /// Smallest value of the domain under the *total* order. For floats
    /// this is negative NaN (the IEEE-754 `totalOrder` minimum), so that
    /// every representable value, NaNs included, satisfies
    /// `MIN_VALUE ≤ v ≤ MAX_VALUE`.
    const MIN_VALUE: Self;
    /// Largest value of the domain under the *total* order (positive NaN
    /// for floats). Used as the sentinel filling unused histogram bin
    /// borders (Algorithm 2's `coltype_MAX`), which therefore stays the
    /// total-order maximum and keeps the border array sorted.
    const MAX_VALUE: Self;

    /// Total-order comparison.
    fn total_cmp(&self, other: &Self) -> Ordering;

    /// Lossless encoding of the value into 64 bits (little-endian of the
    /// native representation, zero-extended). Used by the storage layer.
    fn to_bits64(self) -> u64;

    /// Inverse of [`Scalar::to_bits64`]; truncates to the native width.
    fn from_bits64(bits: u64) -> Self;

    /// The value as an **order-preserving unsigned key** in the low
    /// [`Scalar::LANE_BITS`] bits:
    /// `a.total_cmp(b) == a.sort_key().cmp(&b.sort_key())` for every pair,
    /// and the map is a bijection onto `0..2^LANE_BITS`, so the key-space
    /// successor/predecessor of a key is exactly the total-order
    /// successor/predecessor of its value. Unsigned integers map
    /// identically, signed integers flip their sign bit, floats use the
    /// IEEE-754 `totalOrder` rank (sign-magnitude unfolded), NaNs
    /// included. This is what lets the vector refinement kernel reduce every
    /// [`crate::RangePredicate`] to one inclusive unsigned key range.
    fn sort_key(self) -> u64;

    /// Converts to `f64` for statistics/reporting (may lose precision for
    /// 64-bit integers; never used on the query path).
    fn as_f64(self) -> f64;

    /// Wraps into a dynamically-typed [`Value`].
    fn into_value(self) -> Value;

    /// Extracts from a dynamically-typed [`Value`], if the variant matches.
    fn from_value(v: &Value) -> Option<Self>;

    /// `true` if `self` ≤ `other` in the total order.
    #[inline]
    fn le_total(&self, other: &Self) -> bool {
        self.total_cmp(other) != Ordering::Greater
    }

    /// `true` if `self` < `other` in the total order.
    #[inline]
    fn lt_total(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Less
    }
}

macro_rules! impl_scalar_int {
    ($($t:ty => $u:ty => $tag:ident / $val:ident),* $(,)?) => {$(
        impl Scalar for $t {
            const TYPE: ColumnType = ColumnType::$tag;
            const LANE_BITS: u32 = <$t>::BITS;
            const MIN_VALUE: Self = <$t>::MIN;
            const MAX_VALUE: Self = <$t>::MAX;

            #[inline]
            fn total_cmp(&self, other: &Self) -> Ordering {
                Ord::cmp(self, other)
            }

            #[inline]
            fn to_bits64(self) -> u64 {
                // Cast through the unsigned type of the same width so the
                // bit pattern (not the numeric value) is preserved.
                self as u64
            }

            #[inline]
            fn sort_key(self) -> u64 {
                // Reinterpret as the same-width unsigned type, xor'd with
                // MIN's bit pattern: identity for unsigned types (MIN is
                // 0), the classic sign-bit flip for signed ones.
                ((self as $u) ^ (<$t>::MIN as $u)) as u64
            }

            #[inline]
            fn from_bits64(bits: u64) -> Self {
                bits as $t
            }

            #[inline]
            fn as_f64(self) -> f64 {
                self as f64
            }

            #[inline]
            fn into_value(self) -> Value {
                Value::$val(self)
            }

            #[inline]
            fn from_value(v: &Value) -> Option<Self> {
                match v {
                    Value::$val(x) => Some(*x),
                    _ => None,
                }
            }
        }
    )*};
}

impl_scalar_int!(
    i8 => u8 => I8 / I8,
    u8 => u8 => U8 / U8,
    i16 => u16 => I16 / I16,
    u16 => u16 => U16 / U16,
    i32 => u32 => I32 / I32,
    u32 => u32 => U32 / U32,
    i64 => u64 => I64 / I64,
    u64 => u64 => U64 / U64,
);

impl Scalar for f32 {
    const TYPE: ColumnType = ColumnType::F32;
    const LANE_BITS: u32 = 32;
    // Negative / positive NaN with full payload: the extremes of the
    // IEEE-754 totalOrder relation implemented by `f32::total_cmp`.
    const MIN_VALUE: Self = f32::from_bits(0xFFFF_FFFF);
    const MAX_VALUE: Self = f32::from_bits(0x7FFF_FFFF);

    #[inline]
    fn total_cmp(&self, other: &Self) -> Ordering {
        f32::total_cmp(self, other)
    }

    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits() as u64
    }

    #[inline]
    fn sort_key(self) -> u64 {
        // The totalOrder rank: negatives (sign bit set, magnitude sorts
        // backwards) flip all bits, non-negatives flip just the sign bit.
        let b = self.to_bits();
        (if b & (1 << 31) != 0 { !b } else { b ^ (1 << 31) }) as u64
    }

    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }

    #[inline]
    fn as_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn into_value(self) -> Value {
        Value::F32(self)
    }

    #[inline]
    fn from_value(v: &Value) -> Option<Self> {
        match v {
            Value::F32(x) => Some(*x),
            _ => None,
        }
    }
}

impl Scalar for f64 {
    const TYPE: ColumnType = ColumnType::F64;
    const LANE_BITS: u32 = 64;
    // Negative / positive NaN with full payload: the extremes of the
    // IEEE-754 totalOrder relation implemented by `f64::total_cmp`.
    const MIN_VALUE: Self = f64::from_bits(0xFFFF_FFFF_FFFF_FFFF);
    const MAX_VALUE: Self = f64::from_bits(0x7FFF_FFFF_FFFF_FFFF);

    #[inline]
    fn total_cmp(&self, other: &Self) -> Ordering {
        f64::total_cmp(self, other)
    }

    #[inline]
    fn to_bits64(self) -> u64 {
        self.to_bits()
    }

    #[inline]
    fn sort_key(self) -> u64 {
        let b = self.to_bits();
        if b & (1 << 63) != 0 {
            !b
        } else {
            b ^ (1 << 63)
        }
    }

    #[inline]
    fn from_bits64(bits: u64) -> Self {
        f64::from_bits(bits)
    }

    #[inline]
    fn as_f64(self) -> f64 {
        self
    }

    #[inline]
    fn into_value(self) -> Value {
        Value::F64(self)
    }

    #[inline]
    fn from_value(v: &Value) -> Option<Self> {
        match v {
            Value::F64(x) => Some(*x),
            _ => None,
        }
    }
}

/// A dynamically-typed scalar value, used for tuple reconstruction across
/// heterogeneous columns of a [`crate::Relation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An `i8` value.
    I8(i8),
    /// A `u8` value.
    U8(u8),
    /// An `i16` value.
    I16(i16),
    /// A `u16` value.
    U16(u16),
    /// An `i32` value.
    I32(i32),
    /// A `u32` value.
    U32(u32),
    /// An `i64` value.
    I64(i64),
    /// A `u64` value.
    U64(u64),
    /// An `f32` value.
    F32(f32),
    /// An `f64` value.
    F64(f64),
}

impl Value {
    /// The runtime type of this value.
    pub fn column_type(&self) -> ColumnType {
        crate::dispatch!(Value(_) = self => into ColumnType)
    }

    /// Numeric view for reporting (lossy for large 64-bit integers).
    pub fn as_f64(&self) -> f64 {
        crate::dispatch!(Value(v) = *self => v.as_f64())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::dispatch!(Value(v) = self => write!(f, "{v}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_match_rust_sizes() {
        assert_eq!(ColumnType::I8.width(), std::mem::size_of::<i8>());
        assert_eq!(ColumnType::U16.width(), std::mem::size_of::<u16>());
        assert_eq!(ColumnType::F32.width(), std::mem::size_of::<f32>());
        assert_eq!(ColumnType::I64.width(), std::mem::size_of::<i64>());
        assert_eq!(ColumnType::F64.width(), std::mem::size_of::<f64>());
    }

    #[test]
    fn tag_roundtrip_all_types() {
        for t in [
            ColumnType::I8,
            ColumnType::U8,
            ColumnType::I16,
            ColumnType::U16,
            ColumnType::I32,
            ColumnType::U32,
            ColumnType::I64,
            ColumnType::U64,
            ColumnType::F32,
            ColumnType::F64,
        ] {
            assert_eq!(ColumnType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(ColumnType::from_tag(200), None);
    }

    #[test]
    fn bits64_roundtrip_integers() {
        assert_eq!(i8::from_bits64((-5i8).to_bits64()), -5);
        assert_eq!(i16::from_bits64((-30000i16).to_bits64()), -30000);
        assert_eq!(i32::from_bits64(i32::MIN.to_bits64()), i32::MIN);
        assert_eq!(i64::from_bits64(i64::MIN.to_bits64()), i64::MIN);
        assert_eq!(u64::from_bits64(u64::MAX.to_bits64()), u64::MAX);
    }

    #[test]
    fn bits64_roundtrip_floats() {
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(f64::from_bits64(v.to_bits64()).to_bits(), v.to_bits());
        }
        let nan = f64::from_bits64(f64::NAN.to_bits64());
        assert!(nan.is_nan());
        for v in [0.0f32, -3.25, f32::MAX] {
            assert_eq!(f32::from_bits64(v.to_bits64()), v);
        }
    }

    #[test]
    fn float_total_order_handles_nan_and_zero() {
        assert_eq!(f64::NEG_INFINITY.total_cmp(&f64::INFINITY), Ordering::Less);
        assert_eq!((-0.0f64).total_cmp(&0.0), Ordering::Less);
        assert_eq!(f64::NAN.total_cmp(&f64::INFINITY), Ordering::Greater);
        assert!(1.0f64.lt_total(&2.0));
        assert!(1.0f64.le_total(&1.0));
    }

    #[test]
    fn min_max_are_extremes() {
        assert!(i32::MIN_VALUE.le_total(&0));
        assert!(0i32.le_total(&i32::MAX_VALUE));
        assert!(f64::MIN_VALUE.lt_total(&-1e308));
        assert!(1e308f64.lt_total(&f64::MAX_VALUE));
    }

    /// `sort_key` must mirror `total_cmp` exactly and span the full
    /// `0..2^LANE_BITS` key space — the contract the vector kernel's
    /// key-range reduction rests on.
    #[test]
    fn sort_key_orders_like_total_cmp() {
        fn check<T: Scalar>(values: &[T]) {
            for a in values {
                for b in values {
                    assert_eq!(
                        a.total_cmp(b),
                        a.sort_key().cmp(&b.sort_key()),
                        "sort_key broke the order of {a:?} vs {b:?}"
                    );
                }
            }
            let max_key = if T::LANE_BITS == 64 { u64::MAX } else { (1 << T::LANE_BITS) - 1 };
            assert_eq!(T::MIN_VALUE.sort_key(), 0, "domain minimum must map to key 0");
            assert_eq!(T::MAX_VALUE.sort_key(), max_key, "domain maximum must map to the top key");
        }
        check(&[i8::MIN, -1, 0, 1, i8::MAX]);
        check(&[0u8, 1, 127, 128, u8::MAX]);
        check(&[i16::MIN, -1, 0, 1, i16::MAX]);
        check(&[0u16, 1, u16::MAX]);
        check(&[i32::MIN, -100, -1, 0, 1, 100, i32::MAX]);
        check(&[0u32, 1, u32::MAX]);
        check(&[i64::MIN, -1, 0, 1, i64::MAX]);
        check(&[0u64, 1, u64::MAX]);
        let neg_nan32 = f32::from_bits(f32::NAN.to_bits() | (1 << 31));
        check(&[neg_nan32, f32::NEG_INFINITY, -1.5, -0.0, 0.0, 1.5, f32::INFINITY, f32::NAN]);
        let neg_nan64 = f64::from_bits(f64::NAN.to_bits() | (1 << 63));
        check(&[neg_nan64, f64::NEG_INFINITY, -1.5, -0.0, 0.0, 1.5, f64::INFINITY, f64::NAN]);
    }

    #[test]
    fn value_scalar_roundtrip() {
        assert_eq!(i32::from_value(&Value::I32(7)), Some(7));
        assert_eq!(i32::from_value(&Value::I64(7)), None);
        assert_eq!(f64::from_value(&Value::F64(2.5)), Some(2.5));
        assert_eq!(u8::from_value(&5u8.into_value()), Some(5));
    }

    #[test]
    fn value_type_and_display() {
        assert_eq!(5i32.into_value().column_type(), ColumnType::I32);
        assert_eq!(5u8.into_value().column_type(), ColumnType::U8);
        assert_eq!(format!("{}", 2.5f64.into_value()), "2.5");
        assert_eq!((-7i64).into_value().as_f64(), -7.0);
    }
}
