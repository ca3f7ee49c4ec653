//! Relations: named bundles of equally-long columns.
//!
//! A column store decomposes a relation into per-attribute arrays; values
//! from different columns with the same position belong to the same tuple
//! (paper §2). [`Relation`] provides that bundling plus tuple
//! reconstruction, which the evaluation engine uses *after* the indexes have
//! produced a final id list (late materialization).

use std::any::Any;
use std::io::{Read, Write};

use crate::column::Column;
use crate::error::{Error, Result};
use crate::storage::{read_column, write_column};
use crate::types::{ColumnType, Scalar, Value};

/// Description of one attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Attribute name, unique within the relation.
    pub name: String,
    /// Scalar type of the attribute.
    pub ty: ColumnType,
}

/// An ordered list of attribute descriptions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Schema { fields: Vec::new() }
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Index of the field called `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    fn add(&mut self, name: &str, ty: ColumnType) -> Result<()> {
        if self.position(name).is_some() {
            return Err(Error::Mismatch(format!("duplicate column name {name:?}")));
        }
        self.fields.push(Field { name: name.to_string(), ty });
        Ok(())
    }
}

/// A typed column behind a uniform interface, so a relation can hold a mix
/// of scalar types.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyColumn {
    /// A column of `i8`.
    I8(Column<i8>),
    /// A column of `u8`.
    U8(Column<u8>),
    /// A column of `i16`.
    I16(Column<i16>),
    /// A column of `u16`.
    U16(Column<u16>),
    /// A column of `i32`.
    I32(Column<i32>),
    /// A column of `u32`.
    U32(Column<u32>),
    /// A column of `i64`.
    I64(Column<i64>),
    /// A column of `u64`.
    U64(Column<u64>),
    /// A column of `f32`.
    F32(Column<f32>),
    /// A column of `f64`.
    F64(Column<f64>),
}

impl AnyColumn {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        crate::dispatch!(AnyColumn(c) = self => c.len())
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The scalar type of the column.
    pub fn column_type(&self) -> ColumnType {
        crate::dispatch!(AnyColumn(_) = self => into ColumnType)
    }

    /// The value at row `id` as a dynamically-typed [`Value`].
    pub fn value(&self, id: usize) -> Option<Value> {
        crate::dispatch!(AnyColumn(c) = self => c.get(id).map(Scalar::into_value))
    }

    /// Bytes of raw value data.
    pub fn data_bytes(&self) -> usize {
        crate::dispatch!(AnyColumn(c) = self => c.data_bytes())
    }

    /// An empty column of scalar type `ty`.
    pub fn new_empty(ty: ColumnType) -> Self {
        crate::dispatch!(type T = ty => into AnyColumn(Column::<T>::new()))
    }

    /// Appends a dynamically-typed value; the value's type must match.
    pub fn push_value(&mut self, v: Value) -> crate::Result<()> {
        if v.column_type() != self.column_type() {
            return Err(crate::Error::Mismatch(format!(
                "cannot append {} value to {} column",
                v.column_type(),
                self.column_type()
            )));
        }
        crate::dispatch!(AnyColumn(c) = self => {
            // The type check above makes from_value infallible here.
            c.push(Scalar::from_value(&v).expect("type tag checked"));
        });
        Ok(())
    }

    /// Appends rows `range` of `other` (which must have the same type) —
    /// the batch-splitting primitive segmented stores use to cut an
    /// incoming append at segment boundaries.
    pub fn extend_from_range(
        &mut self,
        other: &AnyColumn,
        range: std::ops::Range<usize>,
    ) -> crate::Result<()> {
        if other.column_type() != self.column_type() {
            return Err(crate::Error::Mismatch(format!(
                "cannot append {} rows to {} column",
                other.column_type(),
                self.column_type()
            )));
        }
        crate::dispatch!(AnyColumn(c) = self => {
            let src = other.downcast::<_>().expect("type tag checked");
            c.extend_from_slice(&src.values()[range]);
        });
        Ok(())
    }

    /// Concatenates `parts`, each of scalar type `ty`, into one column in
    /// order — the segment-merge primitive ([`Column::concat`]).
    pub fn concat(ty: ColumnType, parts: &[&AnyColumn]) -> crate::Result<AnyColumn> {
        Ok(crate::dispatch!(type T = ty => into AnyColumn({
            let typed: Option<Vec<&Column<T>>> = parts.iter().map(|p| p.downcast()).collect();
            Column::concat(&typed.ok_or_else(|| {
                Error::Mismatch(format!("cannot concatenate mixed columns as {ty}"))
            })?)
        })))
    }

    /// Borrows the inner typed column, if the type matches.
    pub fn downcast<T: Scalar>(&self) -> Option<&Column<T>> {
        crate::dispatch!(AnyColumn(c) = self => (c as &dyn Any).downcast_ref())
    }

    /// Serializes the column ([`write_column`]).
    pub fn write_to<W: Write>(&self, out: &mut W) -> Result<()> {
        crate::dispatch!(AnyColumn(c) = self => write_column(c, out))
    }

    /// Deserializes a column of type `ty` written by [`AnyColumn::write_to`]
    /// ([`read_column`]).
    pub fn read_from<R: Read>(ty: ColumnType, input: &mut R) -> Result<AnyColumn> {
        Ok(crate::dispatch!(type T = ty => into AnyColumn(read_column::<T, _>(input)?)))
    }
}

macro_rules! impl_from_column {
    ($($v:ident $t:ty),*) => {$(
        impl From<Column<$t>> for AnyColumn {
            fn from(c: Column<$t>) -> Self {
                AnyColumn::$v(c)
            }
        }
    )*};
}

crate::dispatch!(each impl_from_column);

/// A named bundle of equally-long columns — one decomposed relation.
///
/// # Examples
///
/// ```
/// use colstore::{Relation, Column};
///
/// let mut rel = Relation::new("trips");
/// rel.add_column("lat", Column::from(vec![52.37f64, 52.38, 52.40])).unwrap();
/// rel.add_column("lon", Column::from(vec![4.89f64, 4.90, 4.91])).unwrap();
/// assert_eq!(rel.row_count(), 3);
/// let tuple = rel.tuple(1).unwrap();
/// assert_eq!(tuple.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relation {
    name: String,
    schema: Schema,
    columns: Vec<AnyColumn>,
}

impl Relation {
    /// Creates an empty relation called `name`.
    pub fn new(name: &str) -> Self {
        Relation { name: name.to_string(), schema: Schema::new(), columns: Vec::new() }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (0 for a relation with no columns).
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, AnyColumn::len)
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Adds a column under `name`. All columns must have equal length.
    pub fn add_column<C: Into<AnyColumn>>(&mut self, name: &str, column: C) -> Result<()> {
        let column = column.into();
        if !self.columns.is_empty() && column.len() != self.row_count() {
            return Err(Error::Mismatch(format!(
                "column {name:?} has {} rows, relation has {}",
                column.len(),
                self.row_count()
            )));
        }
        self.schema.add(name, column.column_type())?;
        self.columns.push(column);
        Ok(())
    }

    /// The column called `name`.
    pub fn column(&self, name: &str) -> Result<&AnyColumn> {
        let pos = self
            .schema
            .position(name)
            .ok_or_else(|| Error::NotFound(format!("column {name:?}")))?;
        Ok(&self.columns[pos])
    }

    /// The column called `name`, downcast to its concrete type.
    pub fn typed_column<T: Scalar>(&self, name: &str) -> Result<&Column<T>> {
        self.column(name)?
            .downcast::<T>()
            .ok_or_else(|| Error::Mismatch(format!("column {name:?} is not of type {}", T::TYPE)))
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[AnyColumn] {
        &self.columns
    }

    /// Reconstructs the tuple at row `id` (late materialization endpoint).
    pub fn tuple(&self, id: usize) -> Option<Vec<Value>> {
        if id >= self.row_count() {
            return None;
        }
        Some(self.columns.iter().map(|c| c.value(id).expect("id < row_count")).collect())
    }

    /// Reconstructs the tuples for a sorted id list, in order.
    pub fn tuples(&self, ids: &crate::IdList) -> Vec<Vec<Value>> {
        ids.iter().filter_map(|id| self.tuple(id as usize)).collect()
    }

    /// Total bytes of value data across all columns.
    pub fn data_bytes(&self) -> usize {
        self.columns.iter().map(AnyColumn::data_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IdList;

    fn sample_relation() -> Relation {
        let mut rel = Relation::new("t");
        rel.add_column("a", Column::from(vec![1i32, 2, 3])).unwrap();
        rel.add_column("b", Column::from(vec![1.5f64, 2.5, 3.5])).unwrap();
        rel.add_column("c", Column::from(vec![10u8, 20, 30])).unwrap();
        rel
    }

    #[test]
    fn schema_tracks_fields() {
        let rel = sample_relation();
        assert_eq!(rel.column_count(), 3);
        assert_eq!(rel.schema().fields()[1].name, "b");
        assert_eq!(rel.schema().fields()[1].ty, ColumnType::F64);
        assert_eq!(rel.schema().position("c"), Some(2));
        assert_eq!(rel.schema().position("zz"), None);
    }

    #[test]
    fn mismatched_length_rejected() {
        let mut rel = sample_relation();
        let err = rel.add_column("d", Column::from(vec![1i32, 2])).unwrap_err();
        assert!(matches!(err, Error::Mismatch(_)));
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut rel = sample_relation();
        let err = rel.add_column("a", Column::from(vec![9i32, 9, 9])).unwrap_err();
        assert!(matches!(err, Error::Mismatch(_)));
    }

    #[test]
    fn tuple_reconstruction() {
        let rel = sample_relation();
        let t = rel.tuple(1).unwrap();
        assert_eq!(t, vec![Value::I32(2), Value::F64(2.5), Value::U8(20)]);
        assert!(rel.tuple(3).is_none());
    }

    #[test]
    fn tuples_from_idlist() {
        let rel = sample_relation();
        let ids = IdList::from_sorted(vec![0, 2]);
        let ts = rel.tuples(&ids);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[1][0], Value::I32(3));
    }

    #[test]
    fn typed_downcast() {
        let rel = sample_relation();
        let a: &Column<i32> = rel.typed_column("a").unwrap();
        assert_eq!(a.values(), &[1, 2, 3]);
        assert!(rel.typed_column::<f32>("a").is_err());
        assert!(rel.typed_column::<i32>("nope").is_err());
    }

    #[test]
    fn data_bytes_sums_columns() {
        let rel = sample_relation();
        assert_eq!(rel.data_bytes(), 3 * 4 + 3 * 8 + 3);
    }

    #[test]
    fn any_column_value_access() {
        let c: AnyColumn = Column::from(vec![7i16, 8]).into();
        assert_eq!(c.column_type(), ColumnType::I16);
        assert_eq!(c.value(1), Some(Value::I16(8)));
        assert_eq!(c.value(2), None);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }
}
