//! The §3 multi-attribute plan, written once.
//!
//! The paper's §3 closes with the multi-attribute plan: "the query()
//! procedure … is invoked multiple times, one for each attribute, with
//! possible different [low, high] values", the candidate cacheline lists
//! are merge-joined, and only then are false positives weeded. [`run`] is
//! that plan, over any columns that implement [`PlanColumn`], and it has
//! three callers that differ only in what index each column carries:
//!
//! * [`RelationImprints::query`] — the relation-level API of this crate:
//!   one imprint index per column of a [`Relation`], queried with
//!   dynamically-typed bounds through [`IndexedColumn`] views;
//! * the engine's sealed segments, whose columns keep their imprint
//!   resident, fault their data in lazily, and then run the typed bodies
//!   of [`IndexedColumn`];
//! * the engine's open write head, again through [`IndexedColumn`], with
//!   an [`AnyImprints`] per buffer extended in place on every append
//!   (§4.1) once the head is large enough, and none before.
//!
//! The dynamically-typed predicate types ([`ValueRange`], [`ValueSet`]),
//! the resolved query ([`SegQuery`]) and its resolver ([`resolve_sets`])
//! live here with it. Resolving is the one place a predicate meets its
//! column's scalar type: each set comes out compiled ([`AnySet`]) under
//! the caller's refinement kernel, once per query, and every segment and
//! the write head run that one compiled query.
//!
//! ```
//! use colstore::{Column, Relation, Value};
//! use imprints::relation_index::{RelationImprints, ValueRange};
//!
//! let mut rel = Relation::new("weather");
//! rel.add_column("temp", Column::from(vec![15.0f64, 21.5, 19.0, 23.0])).unwrap();
//! rel.add_column("station", Column::from(vec![1u16, 2, 1, 2])).unwrap();
//!
//! let idx = RelationImprints::build(&rel);
//! let ids = idx
//!     .query(&rel, &[
//!         ("temp", ValueRange::between(Value::F64(18.0), Value::F64(22.0))),
//!         ("station", ValueRange::equals(Value::U16(1))),
//!     ])
//!     .unwrap();
//! assert_eq!(ids.as_slice(), &[2]);
//! ```

use std::any::Any;
use std::io::{Read, Write};

use colstore::relation::{AnyColumn, Field};
use colstore::{
    dispatch, AccessStats, ColumnType, Error, IdList, RangePredicate, Relation, Result, RowRuns,
    Scalar, Value, CACHELINE_BYTES,
};

use crate::index::ColumnImprints;
use crate::simd::{self, Hits, RefineKernel, SetKernel};
use crate::{masks, query};

/// A dynamically-typed closed range: `low ≤ v ≤ high`, either side
/// optional. The variants must match the target column's scalar type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueRange {
    /// Inclusive lower bound, if any.
    pub low: Option<Value>,
    /// Inclusive upper bound, if any.
    pub high: Option<Value>,
}

impl ValueRange {
    /// `low ≤ v ≤ high`.
    pub fn between(low: Value, high: Value) -> Self {
        ValueRange { low: Some(low), high: Some(high) }
    }

    /// `v = value`.
    pub fn equals(value: Value) -> Self {
        ValueRange { low: Some(value), high: Some(value) }
    }

    /// `v ≥ low`.
    pub fn at_least(low: Value) -> Self {
        ValueRange { low: Some(low), high: None }
    }

    /// `v ≤ high`.
    pub fn at_most(high: Value) -> Self {
        ValueRange { low: None, high: Some(high) }
    }

    /// Converts to the typed predicate of `column`, whose type is `T` — the
    /// bridge from a dynamically-typed query to the typed index kernels,
    /// crossed once per query by [`resolve_sets`]. Fails, naming `column`,
    /// if either bound has a different scalar type than `T`.
    pub fn to_predicate<T: Scalar>(&self, column: &str) -> Result<RangePredicate<T>> {
        let conv = |v: &Value| {
            T::from_value(v).ok_or_else(|| {
                Error::Mismatch(format!(
                    "predicate bound {v} has type {}, column {column:?} holds {}",
                    v.column_type(),
                    T::TYPE
                ))
            })
        };
        let low = match &self.low {
            Some(v) => colstore::Bound::Inclusive(conv(v)?),
            None => colstore::Bound::Unbounded,
        };
        let high = match &self.high {
            Some(v) => colstore::Bound::Inclusive(conv(v)?),
            None => colstore::Bound::Unbounded,
        };
        Ok(RangePredicate::with_bounds(low, high))
    }
}

/// A dynamically-typed *disjunction* of ranges on one column: `v` matches
/// when it falls in any term. This is the per-column predicate of the
/// conjunction planner — a single range is a one-term set, an IN-list is a
/// set of point terms, and an empty set matches nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValueSet {
    /// The union's terms; order carries no meaning.
    pub terms: Vec<ValueRange>,
}

impl ValueSet {
    /// The set containing exactly `range`.
    pub fn range(range: ValueRange) -> Self {
        ValueSet { terms: vec![range] }
    }

    /// An IN-list: the union of point intervals over `values`.
    pub fn points(values: impl IntoIterator<Item = Value>) -> Self {
        ValueSet { terms: values.into_iter().map(ValueRange::equals).collect() }
    }

    /// Whether the set has no terms (matches nothing).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Types every term against `column`, whose type is `T`. Fails if any
    /// bound has a different scalar type ([`ValueRange::to_predicate`]).
    pub fn to_predicates<T: Scalar>(&self, column: &str) -> Result<Vec<RangePredicate<T>>> {
        self.terms.iter().map(|range| range.to_predicate(column)).collect()
    }
}

impl From<ValueRange> for ValueSet {
    fn from(range: ValueRange) -> Self {
        ValueSet::range(range)
    }
}

/// A [`ValueSet`] compiled for the column it names: a [`SetKernel`] of
/// that column's scalar type, one kernel per term (impossible terms
/// included, so the plan a query takes and what it bills do not depend on
/// what compiled away). [`resolve_sets`] builds them.
#[derive(Debug, Clone)]
pub enum AnySet {
    /// A set over an `i8` column.
    I8(SetKernel<i8>),
    /// A set over a `u8` column.
    U8(SetKernel<u8>),
    /// A set over an `i16` column.
    I16(SetKernel<i16>),
    /// A set over a `u16` column.
    U16(SetKernel<u16>),
    /// A set over an `i32` column.
    I32(SetKernel<i32>),
    /// A set over a `u32` column.
    U32(SetKernel<u32>),
    /// A set over an `i64` column.
    I64(SetKernel<i64>),
    /// A set over a `u64` column.
    U64(SetKernel<u64>),
    /// A set over an `f32` column.
    F32(SetKernel<f32>),
    /// A set over an `f64` column.
    F64(SetKernel<f64>),
}

impl AnySet {
    /// Number of terms the query gave the set.
    fn term_count(&self) -> usize {
        dispatch!(AnySet(k) = self => k.terms().len())
    }

    /// The compiled set, for the column of `T` it was resolved against.
    ///
    /// # Panics
    /// Panics if that column does not hold `T`.
    fn typed<T: Scalar>(&self) -> &SetKernel<T> {
        dispatch!(AnySet(k) = self => (k as &dyn Any).downcast_ref()).expect(DIVERGED)
    }
}

/// One query as the plan evaluates it: predicates resolved to column
/// positions and compiled ([`resolve_sets`]), how they combine, and which
/// [`Hits`] mode the caller wants.
#[derive(Debug, Clone)]
pub struct SegQuery {
    /// Resolved `(column index, compiled set)` predicates.
    pub preds: Vec<(usize, AnySet)>,
    /// `true` evaluates the predicates as a disjunction (`OR` group)
    /// instead of the default conjunction.
    pub any: bool,
    /// `true` counts matches instead of materializing ids.
    pub count_only: bool,
}

/// Resolves `(name, value set)` predicates against `schema` and compiles
/// each set for its column under `kernel` — the one name → position →
/// scalar type step every front-end ([`RelationImprints::query`], the
/// engine's tables and snapshots) runs before [`run`]. A bound of the wrong
/// type (in any term of any set) is an error here; past it, every column
/// of every segment runs the same compiled sets.
pub fn resolve_sets<S: AsRef<str>>(
    schema: &[Field],
    preds: &[(S, ValueSet)],
    kernel: RefineKernel,
) -> Result<Vec<(usize, AnySet)>> {
    preds
        .iter()
        .map(|(name, set)| {
            let name = name.as_ref();
            let pos = schema
                .iter()
                .position(|f| f.name == name)
                .ok_or_else(|| Error::NotFound(format!("column {name:?}")))?;
            let compiled = dispatch!(type T = schema[pos].ty => into AnySet(
                SetKernel::with_kernel(&set.to_predicates::<T>(name)?, kernel)
            ));
            Ok((pos, compiled))
        })
        .collect()
}

/// What the plan needs from one column. [`IndexedColumn`] (a buffer and
/// an optional imprint) holds the typed bodies; the engine's sealed
/// segment column only decides where its values live (faulted in lazily)
/// and forwards to one. [`run`] is generic over the implementor, so its
/// column calls are statically dispatched. Every set handed in was
/// compiled by [`resolve_sets`] against this column.
pub trait PlanColumn {
    /// Evaluates the one term of `set` over the whole column into a fresh
    /// sink.
    fn run_range(&self, set: &AnySet, count_only: bool) -> (Hits, AccessStats);

    /// The row-id ranges that may hold a match of `set` — the union of
    /// each term's imprint candidates — and the probe statistics. No value
    /// is read.
    fn candidates(&self, set: &AnySet) -> (RowRuns, AccessStats);

    /// What a probe of `set` would cost and skip, and whether a value check
    /// may fault the column in ([`AnyImprints::forecast`]): the inputs of
    /// the §3 plan's one probe rule. A column without an imprint forecasts
    /// a probe that walks nothing and skips nothing.
    fn forecast(&self, set: &AnySet) -> Forecast;

    /// Value-checks the rows of `ranges` against `set` into `hits`,
    /// billing `stats`.
    fn check(&self, set: &AnySet, ranges: &RowRuns, hits: Hits, stats: &mut AccessStats) -> Hits;

    /// Keeps only the ids whose value satisfies `set` — the gather kernel
    /// over scattered ids ([`SetKernel::filter_ids`]) — billing `stats`.
    fn weed(&self, set: &AnySet, ids: &mut Vec<u64>, stats: &mut AccessStats);
}

/// Evaluates `q` over the `rows` rows of `cols` into a fresh [`Hits`] sink
/// (ids local to the row range, or their count) — the one evaluation entry
/// point of a sealed segment, the open write head and a
/// [`RelationImprints`].
///
/// Conjunctions: a single one-range predicate takes the column's own
/// single-range path ([`PlanColumn::run_range`], Algorithm 3's walk, which
/// emits the lines its inner mask covers without a value check — a saving
/// the plan's probe rule does not price); everything else — multi-term
/// sets and multi-predicate conjunctions — takes the paper's §3 late
/// materialization plan (`late_materialize`). The empty conjunction
/// selects every row.
///
/// Disjunctions (`q.any`): the union of each predicate's own result. Each
/// arm rides its column's best single-column path, so an OR never costs
/// more than the sum of its arms; arms may overlap, so they are
/// materialized and unioned even when only the count is wanted. The empty
/// group matches nothing (the identity of `OR`).
pub fn run<C: PlanColumn>(cols: &[C], rows: u64, q: &SegQuery) -> (Hits, AccessStats) {
    if !q.any {
        return run_conjunction(cols, rows, &q.preds, q.count_only);
    }
    let mut stats = AccessStats::default();
    let mut acc = IdList::new();
    for pred in &q.preds {
        let (hits, s) = run_conjunction(cols, rows, std::slice::from_ref(pred), false);
        stats.merge(&s);
        acc = acc.union(&hits.into_ids());
    }
    (Hits::from_ids(acc.into_vec(), q.count_only), stats)
}

fn run_conjunction<C: PlanColumn>(
    cols: &[C],
    rows: u64,
    preds: &[(usize, AnySet)],
    count_only: bool,
) -> (Hits, AccessStats) {
    match preds {
        [] => {
            let mut hits = Hits::new(count_only);
            hits.emit(0..rows);
            (hits, AccessStats::default())
        }
        [(col, set)] if set.term_count() == 1 => cols[*col].run_range(set, count_only),
        _ => late_materialize(cols, rows, preds, count_only),
    }
}

/// Every row of a part of `rows` rows, as one candidate run.
fn every_row(rows: u64) -> RowRuns {
    let mut all = RowRuns::new();
    all.push_run(0, rows);
    all
}

/// What one stored vector costs a probe, in ns: the `probe` rows of the
/// `probe_or_scan` criterion group (`crates/bench/benches/ablations.rs`).
/// This and the two below are the only constants of the plan (DESIGN.md,
/// "Why the plan stops probing").
const PROBE_NS_PER_VECTOR: f64 = 2.7;
/// What a value check costs per candidate line it reads between the lines
/// a probe skipped (the group's `check` rows).
const CHECK_NS_PER_CANDIDATE_LINE: f64 = 10.0;
/// What a value check costs per line in one streamed pass over a column
/// (the group's `scan` rows).
const STREAM_NS_PER_LINE: f64 = 5.5;

/// Whether probing a column for a set of `terms` terms pays, by the
/// column's `forecast`, when the joint candidates hold `joint_rows` of the
/// part's `rows` rows: the lines the probe is predicted to skip, out of
/// those the value checks would otherwise read in that column, priced as
/// candidate lines, must outweigh the probe's stored vectors. While the
/// joint is every row those lines are the whole column, read in one
/// streamed pass that the probe would turn into candidate runs, so the
/// probe also pays that premium on every line; and a column whose value
/// check may fault it in is probed outright. After a probe, the lines are
/// the joint's rows converted to the column's lines. The one rule of the
/// §3 plan (DESIGN.md, "Why the plan stops probing").
fn probe_pays(forecast: &Forecast, terms: usize, joint_rows: u64, rows: u64) -> bool {
    let every_row = joint_rows == rows;
    if every_row && forecast.may_fault {
        return true;
    }
    let read = joint_rows as f64 * forecast.lines as f64 / rows as f64;
    let premium =
        if every_row { read * (CHECK_NS_PER_CANDIDATE_LINE - STREAM_NS_PER_LINE) } else { 0.0 };
    forecast.skipped * read * CHECK_NS_PER_CANDIDATE_LINE
        > (forecast.vectors * terms as u64) as f64 * PROBE_NS_PER_VECTOR + premium
}

/// The conjunction plan, the paper's §3 late materialization: per-column
/// imprint candidate ranges intersected in id space, the most selective
/// predicate value-checked with its compiled [`SetKernel`] over the
/// surviving contiguous runs, every further predicate weeding the
/// scattered survivors with the gather-style vector kernel
/// ([`SetKernel::filter_ids`]). Only a first predicate that is also the
/// last checks straight into a counting sink; survivors that a later
/// predicate still has to weed are ids either way.
///
/// Imprints are weighed cheapest first — by stored vectors × terms, then
/// column position — and each is probed only where [`probe_pays`] says so
/// against the joint the probes before it left; the joint starts as every
/// row. The value checks then run in ascending order of predicted
/// survivors: a probed conjunct's candidate rows, an unprobed one's
/// forecast candidate rows; ties keep query order (DESIGN.md, "Why the
/// plan stops probing").
fn late_materialize<C: PlanColumn>(
    cols: &[C],
    rows: u64,
    preds: &[(usize, AnySet)],
    count_only: bool,
) -> (Hits, AccessStats) {
    let mut stats = AccessStats::default();
    let forecasts: Vec<Forecast> =
        preds.iter().map(|(col, set)| cols[*col].forecast(set)).collect();
    let mut survivors: Vec<f64> =
        forecasts.iter().map(|f| (1.0 - f.skipped) * rows as f64).collect();
    let mut by_cost: Vec<usize> = (0..preds.len()).collect();
    // Stable: the same column named twice keeps query order.
    by_cost.sort_by_key(|&i| (forecasts[i].vectors * preds[i].1.term_count() as u64, preds[i].0));
    let mut joint = every_row(rows);
    for i in by_cost {
        let (col, set) = &preds[i];
        if !probe_pays(&forecasts[i], set.term_count(), joint.row_count(), rows) {
            continue;
        }
        let (cands, s) = cols[*col].candidates(set);
        stats.merge(&s);
        survivors[i] = cands.row_count() as f64;
        joint = joint.intersect(&cands);
        if joint.is_empty() {
            return (Hits::new(count_only), stats);
        }
    }
    // Stable: equal predictions keep query order.
    let mut order: Vec<usize> = (0..preds.len()).collect();
    order.sort_by(|&a, &b| survivors[a].total_cmp(&survivors[b]));
    let mut ordered = order.into_iter().map(|i| &preds[i]);
    let (col, set) = ordered.next().expect("at least one predicate");
    let first = Hits::new(count_only && preds.len() == 1);
    let mut hits = cols[*col].check(set, &joint, first, &mut stats);
    if let Hits::Ids(ids) = &mut hits {
        for (col, set) in ordered {
            if ids.is_empty() {
                break;
            }
            cols[*col].weed(set, ids, &mut stats);
        }
        if count_only {
            hits = Hits::Count(ids.len() as u64);
        }
    }
    (hits, stats)
}

const DIVERGED: &str = "index, column and compiled set scalar types diverged";

/// [`PlanColumn::candidates`] over a typed imprint: the union of each
/// term's candidate row-id ranges, plus the probe statistics.
fn set_candidates<T: Scalar>(
    idx: &ColumnImprints<T>,
    set: &SetKernel<T>,
) -> (RowRuns, AccessStats) {
    let mut stats = AccessStats::default();
    let per_term = set.terms().iter().map(|term| {
        let (ranges, s) = query::candidate_id_ranges(idx, term.predicate());
        stats.merge(&s.access);
        ranges
    });
    (per_term.reduce(|a, b| a.union(&b)).unwrap_or_default(), stats)
}

/// [`AnyImprints::forecast`] over a typed imprint: the census's prediction
/// for the union of the terms' masks.
fn set_forecast<T: Scalar>(idx: &ColumnImprints<T>, set: &SetKernel<T>) -> Forecast {
    let masks = set.terms().iter().map(|term| masks::make_masks(idx.binning(), term.predicate()));
    let mask = masks.fold(0, |mask, m| mask | m.mask);
    let lines = idx.line_count();
    let skipped = idx.census().untouched(mask, lines);
    Forecast { lines, skipped, vectors: idx.imprint_count() as u64, may_fault: false }
}

/// What one probe of a set would walk and skip, as a column's imprint and
/// census predict it, and whether a value check may fault the column in
/// ([`PlanColumn::forecast`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Forecast {
    /// The column's lines, the partial tail line included.
    pub lines: u64,
    /// Predicted share of those lines that no term's mask meets: what the
    /// probe skips.
    pub skipped: f64,
    /// Stored vectors one term's probe walks; 0 without an imprint.
    pub vectors: u64,
    /// Whether a value check may have to fault the column's data in, where
    /// a probe reads the resident imprint alone.
    pub may_fault: bool,
}

/// [`PlanColumn::check`] over typed values: the compiled set over the
/// contiguous runs of `ranges`, which is in row-id space already
/// ([`query::candidate_id_ranges`] turns cacheline runs into id runs
/// clamped to the column), so its runs feed the kernel directly, through
/// the one batched check ([`query::check_runs`]). The cachelines those
/// runs touch are billed as fetched, unless the set can match nothing and
/// reads no value.
///
/// # Panics
/// Panics on `ranges` beyond `values`.
fn set_check<T: Scalar>(
    values: &[T],
    set: &SetKernel<T>,
    ranges: &RowRuns,
    mut hits: Hits,
    stats: &mut AccessStats,
) -> Hits {
    if !set.is_empty() {
        stats.lines_fetched += query::lines_touched::<T>(ranges.runs());
    }
    query::check_runs(values, ranges, |ids| {
        set.check(values, ids, &mut hits, &mut stats.value_comparisons);
    });
    hits
}

/// [`PlanColumn::weed`] over typed values: the gather kernel over the
/// scattered `ids`, billing the cachelines they touch as fetched unless
/// the set can match nothing.
///
/// # Panics
/// Panics on an id beyond `values`.
fn set_weed<T: Scalar>(
    values: &[T],
    set: &SetKernel<T>,
    ids: &mut Vec<u64>,
    stats: &mut AccessStats,
) {
    if !set.is_empty() {
        stats.lines_fetched += query::lines_touched::<T>(ids.iter().map(|&id| id..id + 1));
    }
    set.filter_ids(values, ids, &mut stats.value_comparisons);
}

/// A column imprints index of whichever scalar type its column holds.
#[derive(Debug, Clone)]
pub enum AnyImprints {
    /// Index over an `i8` column.
    I8(ColumnImprints<i8>),
    /// Index over a `u8` column.
    U8(ColumnImprints<u8>),
    /// Index over an `i16` column.
    I16(ColumnImprints<i16>),
    /// Index over a `u16` column.
    U16(ColumnImprints<u16>),
    /// Index over an `i32` column.
    I32(ColumnImprints<i32>),
    /// Index over a `u32` column.
    U32(ColumnImprints<u32>),
    /// Index over an `i64` column.
    I64(ColumnImprints<i64>),
    /// Index over a `u64` column.
    U64(ColumnImprints<u64>),
    /// Index over an `f32` column.
    F32(ColumnImprints<f32>),
    /// Index over an `f64` column.
    F64(ColumnImprints<f64>),
}

impl AnyImprints {
    /// Builds the appropriately-typed index for `col`, sampling bin
    /// borders from its current rows.
    pub fn build(col: &AnyColumn) -> Self {
        dispatch!(AnyColumn(c) = col => into AnyImprints(ColumnImprints::build(c)))
    }

    /// Index size in bytes.
    pub fn size_bytes(&self) -> usize {
        dispatch!(AnyImprints(i) = self => i.size_bytes())
    }

    /// Rows covered by the index.
    pub fn rows(&self) -> usize {
        dispatch!(AnyImprints(i) = self => i.rows())
    }

    /// What the census predicts a probe of `set` would skip
    /// ([`Census::untouched`](crate::index::Census::untouched)), and the
    /// stored vectors it walks, read from the index alone.
    ///
    /// # Panics
    /// Panics on a set compiled for another column type.
    pub fn forecast(&self, set: &AnySet) -> Forecast {
        dispatch!(AnyImprints(i) = self => set_forecast(i, set.typed()))
    }

    /// Extends the index for the rows `from..col.len()` the caller just
    /// appended to `col` (§4.1: existing vectors are never touched, bin
    /// borders never readjusted).
    pub fn append(&mut self, col: &AnyColumn, from: usize) {
        dispatch!(AnyImprints(i) = self => {
            i.append(&col.downcast().expect(DIVERGED).values()[from..]);
        });
    }

    /// Whether appended rows drifted off the sampled domain enough that
    /// the imprint stopped discriminating — the O(1) §4.1 overflow-drift
    /// half of [`ColumnImprints::needs_rebuild`] only; the saturation
    /// sweep is O(stored vectors) and is left to callers that can afford
    /// it per append.
    pub fn append_drift_excessive(&self) -> bool {
        dispatch!(AnyImprints(i) = self => i.append_drift_excessive())
    }

    /// Re-samples bin borders over `col`'s current contents and rebuilds.
    pub fn rebuild(&mut self, col: &AnyColumn) {
        dispatch!(AnyImprints(i) = self => *i = i.rebuild(col.downcast().expect(DIVERGED)));
    }

    /// The row-id ranges that may hold a match of `set` and the probe
    /// statistics — [`PlanColumn::candidates`] from the index alone, so a
    /// column whose data is elsewhere (evicted) answers it too.
    ///
    /// # Panics
    /// Panics on a set compiled for another column type.
    pub fn candidates(&self, set: &AnySet) -> (RowRuns, AccessStats) {
        dispatch!(AnyImprints(i) = self => set_candidates(i, set.typed()))
    }

    /// Counts the rows matching the one term of `set` from the index
    /// alone, when every candidate cacheline is fully covered by it
    /// ([`query::count_covered`]); `None` when a value check would be
    /// needed.
    ///
    /// # Panics
    /// Panics on a set compiled for another column type, or without terms.
    pub fn count_covered(&self, set: &AnySet) -> Option<(u64, AccessStats)> {
        dispatch!(AnyImprints(i) = self => {
            let (n, stats) = query::count_covered(i, set.typed().terms()[0].predicate())?;
            Some((n, stats.access))
        })
    }

    /// Serializes the index ([`storage::write_index`](crate::storage::write_index)).
    pub fn write_to<W: Write>(&self, out: &mut W) -> Result<()> {
        dispatch!(AnyImprints(i) = self => crate::storage::write_index(i, out))
    }

    /// Deserializes an index over a column of type `ty`, written by
    /// [`AnyImprints::write_to`] ([`storage::read_index`](crate::storage::read_index)).
    pub fn read_from<R: Read>(ty: ColumnType, input: &mut R) -> Result<Self> {
        Ok(dispatch!(type T = ty => into AnyImprints(crate::storage::read_index::<T, _>(input)?)))
    }
}

/// A column whose values sit in a plain buffer, as [`run`] sees it: the
/// view [`RelationImprints::query`], the engine's open write head and its
/// sealed segment columns borrow per evaluation. Without an index (a write
/// head too small to be worth one) every row is a candidate and the
/// kernels read the buffer.
///
/// # Panics
/// The [`PlanColumn`] methods panic if `imprints` was not built over
/// `col`, or on a set compiled for another column type.
#[derive(Debug, Clone, Copy)]
pub struct IndexedColumn<'a> {
    /// The column's values.
    pub col: &'a AnyColumn,
    /// The column's imprint, if it carries one.
    pub imprints: Option<&'a AnyImprints>,
}

impl IndexedColumn<'_> {
    /// Every row of the column as one candidate run.
    fn all_rows(&self) -> RowRuns {
        every_row(self.col.len() as u64)
    }
}

impl PlanColumn for IndexedColumn<'_> {
    fn run_range(&self, set: &AnySet, count_only: bool) -> (Hits, AccessStats) {
        let Some(idx) = self.imprints else {
            let mut stats = AccessStats::default();
            let hits = self.check(set, &self.all_rows(), Hits::new(count_only), &mut stats);
            return (hits, stats);
        };
        dispatch!(AnyImprints(i) = idx => {
            let col = self.col.downcast().expect(DIVERGED);
            let (hits, stats) = query::run(i, col, &set.typed().terms()[0], Hits::new(count_only));
            (hits, stats.access)
        })
    }

    fn candidates(&self, set: &AnySet) -> (RowRuns, AccessStats) {
        let Some(idx) = self.imprints else { return (self.all_rows(), AccessStats::default()) };
        debug_assert_eq!(idx.rows(), self.col.len(), "imprint out of sync with its column");
        idx.candidates(set)
    }

    fn forecast(&self, set: &AnySet) -> Forecast {
        self.imprints.map_or_else(
            || {
                let lines = self.col.data_bytes().div_ceil(CACHELINE_BYTES) as u64;
                Forecast { lines, skipped: 0.0, vectors: 0, may_fault: false }
            },
            |idx| idx.forecast(set),
        )
    }

    fn check(&self, set: &AnySet, ranges: &RowRuns, hits: Hits, stats: &mut AccessStats) -> Hits {
        dispatch!(AnyColumn(c) = self.col => set_check(c.values(), set.typed(), ranges, hits, stats))
    }

    fn weed(&self, set: &AnySet, ids: &mut Vec<u64>, stats: &mut AccessStats) {
        dispatch!(AnyColumn(c) = self.col => set_weed(c.values(), set.typed(), ids, stats));
    }
}

/// One imprint index per column of a relation, queried through the §3
/// plan ([`run`]).
#[derive(Debug, Clone)]
pub struct RelationImprints {
    indexes: Vec<AnyImprints>,
}

impl RelationImprints {
    /// Builds an index for every column of `rel`.
    pub fn build(rel: &Relation) -> Self {
        RelationImprints { indexes: rel.columns().iter().map(AnyImprints::build).collect() }
    }

    /// Total index bytes across all columns.
    pub fn size_bytes(&self) -> usize {
        self.indexes.iter().map(AnyImprints::size_bytes).sum()
    }

    /// The index of the column called `name`.
    pub fn index(&self, rel: &Relation, name: &str) -> Result<&AnyImprints> {
        let pos = rel
            .schema()
            .position(name)
            .ok_or_else(|| Error::NotFound(format!("column {name:?}")))?;
        Ok(&self.indexes[pos])
    }

    /// Evaluates a conjunction of dynamic range predicates over `rel` (the
    /// relation the indexes were built on) through [`run`], under the
    /// ambient refinement kernel. An empty predicate list selects every
    /// row.
    pub fn query(&self, rel: &Relation, preds: &[(&str, ValueRange)]) -> Result<IdList> {
        let sets: Vec<(&str, ValueSet)> =
            preds.iter().map(|(name, range)| (*name, ValueSet::range(*range))).collect();
        let preds = resolve_sets(rel.schema().fields(), &sets, simd::ambient_kernel())?;
        let cols: Vec<IndexedColumn> = rel
            .columns()
            .iter()
            .zip(&self.indexes)
            .map(|(col, idx)| IndexedColumn { col, imprints: Some(idx) })
            .collect();
        let q = SegQuery { preds, any: false, count_only: false };
        Ok(run(&cols, rel.row_count() as u64, &q).0.into_ids())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ImprintStats, PredicateKernel};
    use colstore::Column;

    fn weather(n: usize) -> Relation {
        let mut rel = Relation::new("weather");
        let temp: Vec<f64> = (0..n).map(|i| 10.0 + ((i * 37) % 200) as f64 / 10.0).collect();
        let station: Vec<u16> = (0..n).map(|i| (i % 23) as u16).collect();
        let ts: Vec<i64> = (0..n as i64).collect();
        rel.add_column("temp", Column::from(temp)).unwrap();
        rel.add_column("station", Column::from(station)).unwrap();
        rel.add_column("ts", Column::from(ts)).unwrap();
        rel
    }

    fn oracle(rel: &Relation, f: impl Fn(u64) -> bool) -> Vec<u64> {
        (0..rel.row_count() as u64).filter(|&i| f(i)).collect()
    }

    #[test]
    fn single_predicate_matches_oracle() {
        let rel = weather(20_000);
        let idx = RelationImprints::build(&rel);
        let ids = idx
            .query(&rel, &[("temp", ValueRange::between(Value::F64(15.0), Value::F64(20.0)))])
            .unwrap();
        let temp: &Column<f64> = rel.typed_column("temp").unwrap();
        let expect = oracle(&rel, |i| {
            let v = temp.values()[i as usize];
            (15.0..=20.0).contains(&v)
        });
        assert_eq!(ids.as_slice(), expect.as_slice());
    }

    #[test]
    fn three_way_conjunction_matches_oracle() {
        let rel = weather(20_000);
        let idx = RelationImprints::build(&rel);
        let ids = idx
            .query(
                &rel,
                &[
                    ("temp", ValueRange::between(Value::F64(12.0), Value::F64(25.0))),
                    ("station", ValueRange::equals(Value::U16(7))),
                    ("ts", ValueRange::at_least(Value::I64(5_000))),
                ],
            )
            .unwrap();
        let temp: &Column<f64> = rel.typed_column("temp").unwrap();
        let station: &Column<u16> = rel.typed_column("station").unwrap();
        let expect = oracle(&rel, |i| {
            let t = temp.values()[i as usize];
            (12.0..=25.0).contains(&t) && station.values()[i as usize] == 7 && i >= 5_000
        });
        assert_eq!(ids.as_slice(), expect.as_slice());
        assert!(!ids.is_empty());
    }

    #[test]
    fn empty_predicates_select_all() {
        let rel = weather(100);
        let idx = RelationImprints::build(&rel);
        assert_eq!(idx.query(&rel, &[]).unwrap().len(), 100);
    }

    #[test]
    fn unknown_column_rejected() {
        let rel = weather(100);
        let idx = RelationImprints::build(&rel);
        let err = idx.query(&rel, &[("nope", ValueRange::at_most(Value::I64(1)))]).unwrap_err();
        assert!(matches!(err, Error::NotFound(_)));
    }

    #[test]
    fn type_mismatched_bound_rejected() {
        let rel = weather(100);
        let idx = RelationImprints::build(&rel);
        let err = idx.query(&rel, &[("temp", ValueRange::equals(Value::I32(5)))]).unwrap_err();
        assert!(matches!(err, Error::Mismatch(_)), "got {err:?}");
    }

    #[test]
    fn index_lookup_and_size() {
        let rel = weather(10_000);
        let idx = RelationImprints::build(&rel);
        assert!(idx.index(&rel, "temp").is_ok());
        assert!(idx.index(&rel, "zz").is_err());
        assert!(idx.size_bytes() > 0);
        assert!(idx.size_bytes() < rel.data_bytes());
    }

    #[test]
    fn value_set_shapes_and_typing() {
        let set = ValueSet::points([Value::I64(3), Value::I64(9)]);
        assert_eq!(set.terms.len(), 2);
        let preds: Vec<RangePredicate<i64>> = set.to_predicates("v").unwrap();
        assert!(preds[0].matches(&3) && preds[1].matches(&9));
        let err = set.to_predicates::<i32>("v").unwrap_err().to_string();
        assert!(err.contains("bound 3 has type i64, column \"v\" holds i32"), "{err}");

        let one = ValueSet::from(ValueRange::at_least(Value::U16(5)));
        assert_eq!(one.terms, [ValueRange::at_least(Value::U16(5))]);
        assert!(ValueSet::default().is_empty());
    }

    /// Resolving keeps one compiled entry per term, impossible and empty
    /// sets included, and names the column a mistyped bound was aimed at.
    #[test]
    fn resolve_sets_compiles_every_term() {
        let schema = [Field { name: "v".into(), ty: ColumnType::I64 }];
        let sets = [
            ("v", between(5, 1)),
            ("v", ValueSet::points([7, 9, 11].map(Value::I64))),
            ("v", ValueSet::default()),
        ];
        let compiled = resolve_sets(&schema, &sets, RefineKernel::Scalar).unwrap();
        let terms: Vec<usize> = compiled.iter().map(|(_, s)| s.term_count()).collect();
        assert_eq!(terms, [1, 3, 0]);
        assert!(compiled[0].1.typed::<i64>().is_empty());
        let err = resolve_sets(
            &schema,
            &[("v", between(1, 2)), ("v", ValueSet::points([Value::U8(1)]))],
            RefineKernel::Auto,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "structure mismatch: predicate bound 1 has type u8, column \"v\" holds i64"
        );
    }

    /// Same relation, different widths: `i32` and `f64` cachelines hold
    /// different row counts, so the merge-join must happen in id space.
    #[test]
    fn conjunction_two_attributes() {
        let n = 8000usize;
        let a: Column<i32> = (0..n as i32).map(|i| i % 100).collect();
        let b: Column<f64> = (0..n).map(|i| (i % 37) as f64).collect();
        let mut rel = Relation::new("ab");
        rel.add_column("a", a.clone()).unwrap();
        rel.add_column("b", b.clone()).unwrap();
        let ids = RelationImprints::build(&rel)
            .query(
                &rel,
                &[
                    ("a", ValueRange::between(Value::I32(10), Value::I32(20))),
                    ("b", ValueRange::between(Value::F64(5.0), Value::F64(9.0))),
                ],
            )
            .unwrap();
        let expect = oracle(&rel, |i| {
            let va = a.get(i as usize).unwrap();
            let vb = b.get(i as usize).unwrap();
            (10..=20).contains(&va) && (5.0..=9.0).contains(&vb)
        });
        assert_eq!(ids.as_slice(), expect.as_slice());
    }

    fn between(lo: i64, hi: i64) -> ValueSet {
        ValueSet::range(ValueRange::between(Value::I64(lo), Value::I64(hi)))
    }

    fn i64_column(values: &[i64]) -> AnyColumn {
        AnyColumn::I64(values.iter().copied().collect())
    }

    /// Runs `preds` over `bufs` through [`run`] four ways — with and
    /// without the imprints, materializing and counting — checks all four
    /// against `expect`, and returns the (indexed, unindexed) statistics
    /// of the materializing runs.
    fn run_every_way(
        bufs: &[AnyColumn],
        tails: &[AnyImprints],
        preds: &[(usize, ValueSet)],
        any: bool,
        expect: &[u64],
    ) -> (AccessStats, AccessStats) {
        let rows = bufs[0].len() as u64;
        let schema: Vec<Field> = bufs
            .iter()
            .enumerate()
            .map(|(i, col)| Field { name: i.to_string(), ty: col.column_type() })
            .collect();
        let named: Vec<(String, ValueSet)> =
            preds.iter().map(|(i, set)| (i.to_string(), set.clone())).collect();
        let compiled = resolve_sets(&schema, &named, simd::ambient_kernel()).unwrap();
        let stats = [true, false].map(|indexed| {
            let cols: Vec<IndexedColumn> = bufs
                .iter()
                .zip(tails)
                .map(|(col, idx)| IndexedColumn { col, imprints: indexed.then_some(idx) })
                .collect();
            let q = |count_only| SegQuery { preds: compiled.clone(), any, count_only };
            let (ids, stats) = run(&cols, rows, &q(false));
            assert_eq!(ids.into_ids().as_slice(), expect, "indexed {indexed}, {preds:?}");
            let (n, _) = run(&cols, rows, &q(true));
            assert_eq!(n, Hits::Count(expect.len() as u64), "indexed {indexed}, {preds:?}");
            stats
        });
        (stats[0], stats[1])
    }

    /// §4.1 appends through [`AnyImprints::append`], then every query
    /// shape of the plan over the extended buffers: the imprint is an
    /// invisible accelerator, with it or without it the answers are the
    /// oracle's.
    #[test]
    fn build_append_run_matches_oracle() {
        let a: Vec<i64> = (0..3572).map(|i| (i * 17) % 900).collect();
        let b: Vec<i64> = (0..3572).map(|i| i % 37).collect();
        let full = [i64_column(&a), i64_column(&b)];
        let mut bufs = [i64_column(&a[..3000]), i64_column(&b[..3000])];
        let mut tails = [AnyImprints::build(&bufs[0]), AnyImprints::build(&bufs[1])];
        // Odd-sized batches, extending each imprint like an append path.
        for end in [3007, 3508, 3572] {
            for ((buf, tail), src) in bufs.iter_mut().zip(&mut tails).zip(&full) {
                let from = buf.len();
                buf.extend_from_range(src, from..end).unwrap();
                tail.append(buf, from);
                assert_eq!(tail.rows(), end);
            }
        }
        let rows = 0..a.len() as u64;
        for (lo, hi) in [(0, 50), (100, 899), (890, 2000), (-5, -1)] {
            let expect: Vec<u64> =
                rows.clone().filter(|&i| (lo..=hi).contains(&a[i as usize])).collect();
            run_every_way(&bufs, &tails, &[(0, between(lo, hi))], false, &expect);
        }
        let in_list = ValueSet::points([5, 17, 291].map(Value::I64));
        let wanted = |i: u64| [5, 17, 291].contains(&a[i as usize]);
        let expect: Vec<u64> = rows.clone().filter(|&i| wanted(i)).collect();
        run_every_way(&bufs, &tails, &[(0, in_list.clone())], false, &expect);
        let and = [(0, between(100, 500)), (1, between(3, 9))];
        let expect: Vec<u64> = rows
            .clone()
            .filter(|&i| (100..=500).contains(&a[i as usize]) && (3..=9).contains(&b[i as usize]))
            .collect();
        assert!(!expect.is_empty());
        run_every_way(&bufs, &tails, &and, false, &expect);
        let or = [(0, in_list), (1, between(36, 36))];
        let expect: Vec<u64> = rows.filter(|&i| wanted(i) || b[i as usize] == 36).collect();
        run_every_way(&bufs, &tails, &or, true, &expect);
    }

    /// The one batched check at its batch boundary: 0, 1, 63, 64, 65 and
    /// 129 candidate runs, scattered (each in cachelines of its own) or
    /// adjacent (a one-row gap, so that neighbours share a line), checked
    /// by the plan's [`PlanColumn::check`] with a single range and with a
    /// multi-term set into both sinks, and by [`query::refine`], against a
    /// per-run reference: each run's matching rows, each run's rows
    /// compared once, each line the runs touch fetched once.
    #[test]
    fn the_batched_check_matches_a_per_run_reference_at_the_batch_boundary() {
        let values: Vec<i64> = (0..4096).map(|i| (i * 7919) % 1000).collect();
        let col = i64_column(&values);
        let typed: Column<i64> = values.iter().copied().collect();
        let idx = AnyImprints::build(&col);
        let column = IndexedColumn { col: &col, imprints: Some(&idx) };
        let schema = [Field { name: "v".into(), ty: ColumnType::I64 }];
        let points = [5, 17, 291, 400, 999];
        let sets: [(ValueSet, &dyn Fn(i64) -> bool); 2] = [
            (between(100, 600), &|v| (100..=600).contains(&v)),
            (ValueSet::points(points.map(Value::I64)), &|v| points.contains(&v)),
        ];
        for n in [0u64, 1, 63, 64, 65, 129] {
            for adjacent in [false, true] {
                // i64: 8 rows a line.
                let mut ranges = RowRuns::new();
                for k in 0..n {
                    let start = if adjacent { 4 * k } else { 24 * k + 2 };
                    ranges.push_run(start, start + 3);
                }
                assert_eq!(ranges.run_count() as u64, n);
                let rows: Vec<u64> = ranges.runs().flatten().collect();
                let mut lines: Vec<u64> = rows.iter().map(|id| id / 8).collect();
                lines.dedup();
                let reference = AccessStats {
                    value_comparisons: rows.len() as u64,
                    lines_fetched: lines.len() as u64,
                    ..AccessStats::default()
                };
                for (set, matches) in &sets {
                    let want: Vec<u64> =
                        rows.iter().copied().filter(|&id| matches(values[id as usize])).collect();
                    let compiled =
                        resolve_sets(&schema, &[("v", set.clone())], simd::ambient_kernel())
                            .unwrap();
                    for count_only in [false, true] {
                        let mut stats = AccessStats::default();
                        let hits = column.check(
                            &compiled[0].1,
                            &ranges,
                            Hits::new(count_only),
                            &mut stats,
                        );
                        let case = format!("{n} runs, adjacent {adjacent}, {set:?}");
                        assert_eq!(hits, Hits::from_ids(want.clone(), count_only), "{case}");
                        assert_eq!(stats, reference, "{case}, count_only {count_only}");
                    }
                }
                let kernel = PredicateKernel::new(&RangePredicate::between(100, 600));
                let mut stats = ImprintStats::default();
                let refined = query::refine(&typed, &kernel, &ranges, &mut stats);
                let want: Vec<u64> =
                    rows.iter().copied().filter(|&id| sets[0].1(values[id as usize])).collect();
                assert_eq!(refined.as_slice(), want, "refine: {n} runs, adjacent {adjacent}");
                assert_eq!(stats.access, reference, "refine: {n} runs, adjacent {adjacent}");
            }
        }
    }

    #[test]
    fn drifted_appends_trigger_rebuild_and_stay_correct() {
        let base: Vec<i64> = (0..2048).collect();
        let mut bufs = [i64_column(&base)];
        let mut tails = [AnyImprints::build(&bufs[0])];
        // Appends far outside the sampled domain: overflow drift.
        let shifted: Vec<i64> = (0..2048).map(|i| 1_000_000 + i).collect();
        bufs[0].extend_from_range(&i64_column(&shifted), 0..shifted.len()).unwrap();
        tails[0].append(&bufs[0], base.len());
        assert!(
            tails[0].append_drift_excessive(),
            "wholesale domain shift must trip the drift heuristic"
        );
        tails[0].rebuild(&bufs[0]);
        assert!(!tails[0].append_drift_excessive());
        let expect: Vec<u64> = (2048 + 100..=2048 + 200).collect();
        let preds = [(0, between(1_000_100, 1_000_200))];
        let (indexed, _) = run_every_way(&bufs, &tails, &preds, false, &expect);
        assert!(indexed.lines_skipped > 0, "rebuilt borders must let the plan skip lines");
    }

    #[test]
    fn skips_cachelines_on_a_clustered_column() {
        let values: Vec<i64> = (0..32_768).collect();
        let bufs = [i64_column(&values)];
        let tails = [AnyImprints::build(&bufs[0])];
        let expect: Vec<u64> = (100..=200).collect();
        let (indexed, scanned) =
            run_every_way(&bufs, &tails, &[(0, between(100, 200))], false, &expect);
        assert!(
            indexed.value_comparisons < values.len() as u64 / 10,
            "the imprint must not degenerate into a scan ({} comparisons)",
            indexed.value_comparisons
        );
        assert_eq!(scanned.value_comparisons, values.len() as u64, "no imprint: every row");
    }

    /// ROADMAP item 12's seven shapes (the `probe_or_scan` criterion
    /// group's), at 256 Ki rows over a 2^20 domain: uniform, and a drift
    /// through the domain with 30 % or 5 % uniform noise. Over 32 ranges
    /// each, the census's predicted skip stays within 0.06 of the lines
    /// the probe skips, and the plan's rule, read at that prediction,
    /// picks the side the group measured faster: probe then check, or one
    /// streamed check.
    #[test]
    fn the_census_predicts_the_skip_and_the_rule_picks_the_faster_side() {
        use rand::{Rng, SeedableRng};
        let (rows, domain) = (1usize << 18, 1i64 << 20);
        let column = |noise: Option<f64>, seed: u64| -> Vec<i64> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..rows)
                .map(|i| match noise {
                    Some(p) if !rng.gen_bool(p) => {
                        let drift = i as i64 * domain / rows as i64;
                        (drift + rng.gen_range(0..domain / 64)).min(domain - 1)
                    }
                    _ => rng.gen_range(0..domain),
                })
                .collect()
        };
        let i32s = |v: Vec<i64>| AnyColumn::I32(v.into_iter().map(|x| x as i32).collect());
        let i64s = |v: Vec<i64>| AnyColumn::I64(v.into_iter().collect());
        let shapes = [
            ("uniform i32, 10 %", i32s(column(None, 1)), domain / 10, false),
            ("uniform i64, 10 %", i64s(column(None, 2)), domain / 10, false),
            ("drift + 30 % i64, 10 %", i64s(column(Some(0.30), 3)), domain / 10, false),
            ("drift + 5 % i64, 10 %", i64s(column(Some(0.05), 4)), domain / 10, true),
            ("uniform i64, 0.5 %", i64s(column(None, 5)), domain / 200, true),
            ("drift + 5 % i64, 0.5 %", i64s(column(Some(0.05), 6)), domain / 200, true),
            ("drift + 5 % i64, 50 %", i64s(column(Some(0.05), 7)), domain / 2, false),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        for (shape, col, width, faster_probed) in shapes {
            let idx = AnyImprints::build(&col);
            let schema = [Field { name: "v".into(), ty: col.column_type() }];
            let (mut predicted, mut observed, mut lines, mut vectors) = (0.0, 0.0, 0, 0);
            for _ in 0..32 {
                let lo = rng.gen_range(0..domain - width);
                let bound = |x: i64| match col {
                    AnyColumn::I32(_) => Value::I32(x as i32),
                    _ => Value::I64(x),
                };
                let set = ValueSet::range(ValueRange::between(bound(lo), bound(lo + width)));
                let set = resolve_sets(&schema, &[("v", set)], RefineKernel::Auto).unwrap();
                let forecast = idx.forecast(&set[0].1);
                let (_, stats) = idx.candidates(&set[0].1);
                (lines, vectors) = (forecast.lines, forecast.vectors);
                predicted += forecast.skipped / 32.0;
                observed += stats.lines_skipped as f64 / lines as f64 / 32.0;
            }
            assert!((predicted - observed).abs() <= 0.06, "{shape}: {predicted} vs {observed}");
            let forecast = Forecast { lines, skipped: predicted, vectors, may_fault: false };
            let probed = probe_pays(&forecast, 1, rows as u64, rows as u64);
            assert_eq!(probed, faster_probed, "{shape}: predicted skip {predicted}");
        }
    }

    /// The plan's one probe rule at its boundary, on 8,192 rows in 1,024
    /// lines with half the lines predicted skipped. Before a probe the
    /// check streams every line, and a probe saves 0.5 × 1,024 × 10 ns
    /// less the 1,024 × 4.5 ns premium, 512 ns: 189.6 vectors at 2.7 ns.
    /// After a probe that left half the rows, the checks read 512 lines
    /// and a probe saves 0.5 × 512 × 10 ns, no premium, 2,560 ns: 948.1
    /// vectors, which a set's terms share.
    #[test]
    fn the_probe_rule_prices_a_probe_at_its_boundary() {
        let rows = 8192;
        let forecast =
            |skipped, vectors, may_fault| Forecast { lines: 1024, skipped, vectors, may_fault };
        for may_fault in [false, true] {
            let pays = |vectors, terms, joint| {
                probe_pays(&forecast(0.5, vectors, may_fault), terms, joint, rows)
            };
            // A value check that may fault the column in forces the probe
            // while the joint is every row; after a probe it is priced.
            assert!(pays(189, 1, rows), "may fault {may_fault}");
            assert_eq!(pays(190, 1, rows), may_fault, "may fault {may_fault}");
            assert!(pays(948, 1, rows / 2) && !pays(949, 1, rows / 2), "may fault {may_fault}");
            assert!(pays(474, 2, rows / 2) && !pays(475, 2, rows / 2), "may fault {may_fault}");
        }
        // No imprint: a probe that walks nothing and skips nothing never
        // pays, before or after a probe.
        for joint in [rows, rows / 2] {
            assert!(!probe_pays(&forecast(0.0, 0, false), 1, joint, rows), "joint {joint}");
        }
        assert!(probe_pays(&forecast(0.0, 1 << 20, true), 1, rows, rows));
    }

    #[test]
    fn disjoint_conjunction_is_empty() {
        let rel = weather(5_000);
        let idx = RelationImprints::build(&rel);
        let ids = idx
            .query(
                &rel,
                &[
                    ("ts", ValueRange::at_most(Value::I64(10))),
                    ("ts", ValueRange::at_least(Value::I64(4_000))),
                ],
            )
            .unwrap();
        assert!(ids.is_empty());
    }
}
