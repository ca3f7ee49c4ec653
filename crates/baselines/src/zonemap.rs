//! Zonemap index (§2.1, §6).
//!
//! "Zonemaps are implemented as two arrays containing the min and max
//! values of each zone. The size of the zones is chosen to be equal to the
//! size that each imprint vector covers, i.e., the size of the cacheline."
//!
//! Query evaluation compares each zone's `[min, max]` with the predicate:
//! disjoint zones are skipped, fully-included zones emit all their ids
//! without value checks, overlapping zones are fetched and checked.
//!
//! The zone walk is written once, in [`ZoneMap::run`]: it takes one
//! compiled [`PredicateKernel`] (the shared refinement kernels of
//! [`imprints::simd`], vector or scalar) for the overlapping-zone value
//! check and a [`Hits`] sink, so materializing and counting are the same
//! walk. A predicate that can match nothing skips every zone without
//! probing.

use colstore::{AccessStats, Bound, Column, IdList, RangeIndex, RangePredicate, Scalar};
use imprints::simd::{Hits, PredicateKernel};

/// Min/max-per-zone secondary index.
///
/// # Examples
///
/// ```
/// use colstore::{Column, RangeIndex, RangePredicate};
/// use baselines::ZoneMap;
///
/// let col: Column<i32> = (0..10_000).map(|i| i % 100).collect();
/// let zm = ZoneMap::build(&col);
/// let ids = zm.evaluate(&col, &RangePredicate::between(10, 20));
/// assert_eq!(ids.len(), 10_000 / 100 * 11);
/// ```
#[derive(Debug, Clone)]
pub struct ZoneMap<T: Scalar> {
    mins: Vec<T>,
    maxs: Vec<T>,
    rows: usize,
    values_per_zone: usize,
}

impl<T: Scalar> ZoneMap<T> {
    /// Builds a zonemap with cacheline-sized zones (the paper's choice).
    pub fn build(col: &Column<T>) -> Self {
        Self::build_with_zone(col, colstore::values_per_cacheline::<T>())
    }

    /// Builds a zonemap with `values_per_zone` values per zone.
    pub fn build_with_zone(col: &Column<T>, values_per_zone: usize) -> Self {
        assert!(values_per_zone > 0, "zone must hold at least one value");
        let n_zones = col.len().div_ceil(values_per_zone);
        let mut mins = Vec::with_capacity(n_zones);
        let mut maxs = Vec::with_capacity(n_zones);
        for zone in col.values().chunks(values_per_zone) {
            // Two comparisons per value, as the paper notes for the
            // construction cost.
            let mut min = zone[0];
            let mut max = zone[0];
            for &v in &zone[1..] {
                if v.lt_total(&min) {
                    min = v;
                }
                if max.lt_total(&v) {
                    max = v;
                }
            }
            mins.push(min);
            maxs.push(max);
        }
        ZoneMap { mins, maxs, rows: col.len(), values_per_zone }
    }

    /// Rows covered by this zonemap.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.mins.len()
    }

    /// Values covered by one zone.
    pub fn values_per_zone(&self) -> usize {
        self.values_per_zone
    }

    /// The `[min, max]` of zone `z`.
    pub fn zone_bounds(&self, z: usize) -> (T, T) {
        (self.mins[z], self.maxs[z])
    }

    /// Whether a zone `[zmin, zmax]` can contain a matching value.
    #[inline]
    fn overlaps(pred: &RangePredicate<T>, zmin: &T, zmax: &T) -> bool {
        let low_ok = match pred.low() {
            Bound::Unbounded => true,
            Bound::Inclusive(l) => l.le_total(zmax),
            Bound::Exclusive(l) => l.lt_total(zmax),
        };
        if !low_ok {
            return false;
        }
        match pred.high() {
            Bound::Unbounded => true,
            Bound::Inclusive(h) => zmin.le_total(h),
            Bound::Exclusive(h) => zmin.lt_total(h),
        }
    }

    /// The zone walk: disjoint zones are skipped, fully-included zones
    /// emitted wholesale, overlapping zones value-checked with `kernel`.
    pub fn run(
        &self,
        col: &Column<T>,
        kernel: &PredicateKernel<T>,
        mut hits: Hits,
    ) -> (Hits, AccessStats) {
        assert_eq!(col.len(), self.rows, "index does not cover this column");
        let mut stats = AccessStats::default();
        // An impossible predicate examines no zone and no value — every
        // zone is "skipped", matching the imprint evaluator's empty-mask
        // early-out shape.
        if kernel.is_empty() {
            stats.lines_skipped = self.mins.len() as u64;
            return (hits, stats);
        }
        let pred = kernel.predicate();
        let values = col.values();
        let vpz = self.values_per_zone as u64;
        let rows = self.rows as u64;
        for z in 0..self.mins.len() {
            stats.index_probes += 1;
            let (zmin, zmax) = (&self.mins[z], &self.maxs[z]);
            if !Self::overlaps(pred, zmin, zmax) {
                stats.lines_skipped += 1;
                continue;
            }
            let ids = z as u64 * vpz..((z as u64 + 1) * vpz).min(rows);
            if Self::fully_inside(pred, zmin, zmax) {
                hits.emit(ids);
            } else {
                stats.lines_fetched += 1;
                kernel.check(values, ids, &mut hits, &mut stats.value_comparisons);
            }
        }
        (hits, stats)
    }

    /// Counts matching rows without materializing ids: [`ZoneMap::run`]
    /// into a counting sink, fully-included zones contributing their
    /// cardinality directly.
    pub fn count_with_stats(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (u64, AccessStats) {
        let (hits, stats) = self.run(col, &PredicateKernel::new(pred), Hits::new(true));
        (hits.len(), stats)
    }

    /// Whether every value of a zone `[zmin, zmax]` matches.
    #[inline]
    fn fully_inside(pred: &RangePredicate<T>, zmin: &T, zmax: &T) -> bool {
        let low_ok = match pred.low() {
            Bound::Unbounded => true,
            Bound::Inclusive(l) => l.le_total(zmin),
            Bound::Exclusive(l) => l.lt_total(zmin),
        };
        if !low_ok {
            return false;
        }
        match pred.high() {
            Bound::Unbounded => true,
            Bound::Inclusive(h) => zmax.le_total(h),
            Bound::Exclusive(h) => zmax.lt_total(h),
        }
    }
}

impl<T: Scalar> RangeIndex<T> for ZoneMap<T> {
    fn name(&self) -> &'static str {
        "zonemap"
    }

    fn size_bytes(&self) -> usize {
        // Two value arrays, aligned with the zone numbering.
        2 * self.mins.len() * std::mem::size_of::<T>() + 2 * std::mem::size_of::<usize>()
    }

    fn evaluate_with_stats(
        &self,
        col: &Column<T>,
        pred: &RangePredicate<T>,
    ) -> (IdList, AccessStats) {
        let (hits, stats) = self.run(col, &PredicateKernel::new(pred), Hits::new(false));
        (hits.into_ids(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imprints::simd::RefineKernel;

    fn oracle<T: Scalar>(col: &Column<T>, pred: &RangePredicate<T>) -> Vec<u64> {
        col.values()
            .iter()
            .enumerate()
            .filter(|(_, v)| pred.matches(v))
            .map(|(i, _)| i as u64)
            .collect()
    }

    #[test]
    fn zones_are_cacheline_sized() {
        let col: Column<i32> = (0..1000).collect();
        let zm = ZoneMap::build(&col);
        assert_eq!(zm.values_per_zone(), 16);
        assert_eq!(zm.zone_count(), 63);
        assert_eq!(zm.zone_bounds(0), (0, 15));
        assert_eq!(zm.zone_bounds(62), (992, 999));
    }

    #[test]
    fn figure_1_zonemap() {
        // The example column of Figure 1, zones of 3 values.
        let col: Column<i32> = Column::from(vec![1, 8, 4, 1, 6, 2, 3, 7, 2, 4, 5, 6, 8, 7, 1]);
        let zm = ZoneMap::build_with_zone(&col, 3);
        assert_eq!(zm.zone_count(), 5);
        assert_eq!(zm.zone_bounds(0), (1, 8));
        assert_eq!(zm.zone_bounds(1), (1, 6));
        assert_eq!(zm.zone_bounds(2), (2, 7));
        assert_eq!(zm.zone_bounds(3), (4, 6));
        assert_eq!(zm.zone_bounds(4), (1, 8));
    }

    #[test]
    fn matches_oracle_on_many_predicates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let col: Column<i64> = (0..25_000).map(|_| rng.gen_range(-500..500)).collect();
        let zm = ZoneMap::build(&col);
        for _ in 0..25 {
            let a = rng.gen_range(-600..600);
            let b = rng.gen_range(-600..600);
            let pred = RangePredicate::between(a.min(b), a.max(b));
            assert_eq!(zm.evaluate(&col, &pred).as_slice(), oracle(&col, &pred));
        }
        for pred in [
            RangePredicate::all(),
            RangePredicate::less_than(0),
            RangePredicate::at_least(499),
            RangePredicate::between(10, 5),
        ] {
            assert_eq!(zm.evaluate(&col, &pred).as_slice(), oracle(&col, &pred));
        }
    }

    #[test]
    fn skips_disjoint_zones_on_clustered_data() {
        let col: Column<i32> = (0..64_000).map(|i| i / 100).collect();
        let zm = ZoneMap::build(&col);
        let (ids, stats) = zm.evaluate_with_stats(&col, &RangePredicate::between(100, 101));
        assert_eq!(ids.len(), 200);
        assert_eq!(stats.index_probes as usize, zm.zone_count());
        assert!(stats.lines_skipped > stats.index_probes * 9 / 10);
    }

    #[test]
    fn fully_inside_zones_avoid_comparisons() {
        let col: Column<i32> = (0..64_000).collect();
        let zm = ZoneMap::build(&col);
        let (ids, stats) = zm.evaluate_with_stats(&col, &RangePredicate::between(1000, 50_000));
        assert_eq!(ids.len(), 49_001);
        // Only the two border zones need value checks.
        assert!(stats.value_comparisons <= 2 * zm.values_per_zone() as u64);
    }

    #[test]
    fn skew_defeats_zonemaps() {
        // Every zone contains the domain min and max: zonemaps filter
        // nothing (the paper's §2.2 motivating pathology)...
        let col: Column<i32> = (0..16_000)
            .map(|i| match i % 16 {
                0 => 0,
                1 => 1000,
                _ => 500,
            })
            .collect();
        let zm = ZoneMap::build(&col);
        let (_, stats) = zm.evaluate_with_stats(&col, &RangePredicate::between(400, 600));
        assert_eq!(stats.lines_skipped, 0, "zonemap cannot skip any zone here");
        assert_eq!(stats.value_comparisons, 16_000);
    }

    /// Both sink modes do the same zone walk: the count equals the oracle
    /// and the statistics equal the materializing walk's.
    #[test]
    fn count_agrees_with_oracle_and_bills_the_same_walk() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(33);
        let col: Column<i64> = (0..20_000).map(|_| rng.gen_range(-500..500)).collect();
        let zm = ZoneMap::build(&col);
        for pred in [
            RangePredicate::between(-100, 100),
            RangePredicate::all(),
            RangePredicate::between(10, 5),
            RangePredicate::at_least(499),
        ] {
            let (ids, estats) = zm.evaluate_with_stats(&col, &pred);
            let (n, cstats) = zm.count_with_stats(&col, &pred);
            assert_eq!(ids.as_slice(), oracle(&col, &pred), "{pred}");
            assert_eq!(n as usize, oracle(&col, &pred).len(), "{pred}");
            assert_eq!(estats, cstats, "count must do the same zone walk: {pred}");
        }
    }

    /// Satellite regression: an impossible predicate must not be billed a
    /// zone's worth of comparisons per overlapping-looking zone (the old
    /// walk fetched and "compared" zones an empty range can never match).
    #[test]
    fn empty_predicate_skips_all_zones_without_comparisons() {
        let col: Column<i32> = (0..10_000).collect();
        let zm = ZoneMap::build(&col);
        for flavour in [RefineKernel::Scalar, RefineKernel::Swar] {
            let kernel = PredicateKernel::with_kernel(&RangePredicate::between(9, 3), flavour);
            let (hits, stats) = zm.run(&col, &kernel, Hits::new(false));
            assert!(hits.is_empty());
            assert_eq!(stats.value_comparisons, 0, "{flavour:?}");
            assert_eq!(stats.lines_fetched, 0, "{flavour:?}");
            assert_eq!(stats.lines_skipped as usize, zm.zone_count(), "{flavour:?}");
        }
    }

    /// Scalar and SWAR zone walks agree byte-for-byte on ids, counts and
    /// stats, and with the oracle.
    #[test]
    fn zonemap_kernels_agree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let col: Column<u32> = (0..20_011).map(|_| rng.gen_range(0..5000)).collect();
        let zm = ZoneMap::build(&col);
        for _ in 0..20 {
            let a = rng.gen_range(0..5500u32);
            let b = rng.gen_range(0..5500u32);
            let pred = RangePredicate::between(a.min(b), a.max(b));
            let scalar = PredicateKernel::with_kernel(&pred, RefineKernel::Scalar);
            let swar = PredicateKernel::with_kernel(&pred, RefineKernel::Swar);
            for count_only in [false, true] {
                let s = zm.run(&col, &scalar, Hits::new(count_only));
                assert_eq!(s, zm.run(&col, &swar, Hits::new(count_only)), "{pred}");
                assert_eq!(s.0.len() as usize, oracle(&col, &pred).len(), "{pred}");
            }
        }
    }

    #[test]
    fn float_zones_with_nan() {
        let mut vals: Vec<f64> = (0..2000).map(|i| i as f64).collect();
        vals[500] = f64::NAN;
        let col: Column<f64> = Column::from(vals);
        let zm = ZoneMap::build(&col);
        for pred in [
            RangePredicate::between(100.0, 600.0),
            RangePredicate::at_least(1500.0),
            RangePredicate::all(),
        ] {
            assert_eq!(zm.evaluate(&col, &pred).as_slice(), oracle(&col, &pred));
        }
    }

    #[test]
    fn empty_column() {
        let col: Column<u8> = Column::new();
        let zm = ZoneMap::build(&col);
        assert_eq!(zm.zone_count(), 0);
        assert!(zm.evaluate(&col, &RangePredicate::all()).is_empty());
    }

    #[test]
    fn size_accounting() {
        let col: Column<i64> = (0..8000).collect();
        let zm = ZoneMap::build(&col);
        // 1000 zones × 2 arrays × 8 bytes.
        assert_eq!(zm.size_bytes(), 1000 * 2 * 8 + 16);
        assert_eq!(zm.name(), "zonemap");
    }
}
