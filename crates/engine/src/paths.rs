//! Per-segment access-path choice, bucketed by predicate selectivity.
//!
//! Every sealed segment column can answer a range predicate three ways:
//! through its **imprint**, through its **zonemap**, or by **scanning**.
//! Which one is fastest depends on the segment's data (clustering,
//! cardinality) *and* the predicate's selectivity: a point lookup on
//! clustered data loves a skipping index, while a half-the-domain range is
//! often cheapest to scan. The engine therefore treats the access path as
//! a per-query decision informed by observed cost — the stance of
//! learned/adaptive secondary indexing (LSI, AIM) rather than a fixed
//! structure choice.
//!
//! [`PathChooser`] keeps an exponentially-weighted moving average of the
//! observed evaluation cost per path, **bucketed by the predicate's
//! estimated selectivity class** ([`NUM_BUCKETS`] classes, derived from
//! the span the predicate covers over the segment's binning). Without the
//! buckets a single EWMA conflates all predicates into one number, so a
//! wide-predicate observation poisons the choice for narrow predicates and
//! vice versa — exactly the query-shape mischoice the learned-index
//! literature buckets to avoid. Each bucket exploits its own cheapest path
//! and runs its own deterministic round-robin exploration probe every
//! [`EXPLORE_PERIOD`]-th query, so a path whose relative cost changed
//! (appends elsewhere, different predicate mix) gets re-measured per
//! class. All state is atomic: choosers live inside shared, immutable
//! segments and are updated concurrently by many readers.
//!
//! The observed costs are end-to-end wall clock, so they include each
//! path's false-positive refinement work — which every path routes
//! through the [`imprints::simd`] kernel selected by
//! [`EngineConfig::refine_kernel`](crate::EngineConfig::refine_kernel).
//! Switching kernels shifts the per-line check cost of every path and the
//! chooser simply re-learns from the new observations; no cost-model
//! constant encodes the kernel.

use std::sync::atomic::{AtomicU64, Ordering};

/// One of the ways a segment column can answer a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// The column-imprints secondary index.
    Imprints,
    /// The min/max-per-cacheline zonemap.
    ZoneMap,
    /// A sequential scan of the segment.
    Scan,
}

impl PathKind {
    /// All paths, in chooser slot order.
    pub const CLASSIC: [PathKind; MAX_PATHS] =
        [PathKind::Imprints, PathKind::ZoneMap, PathKind::Scan];

    /// The chooser slot (index into cost arrays, [`PathKind::CLASSIC`]
    /// order).
    pub fn slot(self) -> usize {
        match self {
            PathKind::Imprints => 0,
            PathKind::ZoneMap => 1,
            PathKind::Scan => 2,
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PathKind::Imprints => "imprints",
            PathKind::ZoneMap => "zonemap",
            PathKind::Scan => "scan",
        }
    }
}

/// Number of access paths (chooser slot-array size).
pub const MAX_PATHS: usize = 3;

/// Selectivity classes a chooser keeps separate cost models for: point,
/// narrow, mid, wide (in bin-span order).
pub const NUM_BUCKETS: usize = 4;

/// Every `EXPLORE_PERIOD`-th query *of a bucket* takes a forced
/// exploration path.
pub const EXPLORE_PERIOD: u64 = 16;

const UNSEEN: u64 = u64::MAX;

/// Observed costs above this are clamped before entering the EWMA, so the
/// `(old*7 + cost)/8` recurrence can never overflow `u64` (the running
/// estimate stays ≤ the cap, and `cap*7 + cap` fits comfortably) and a
/// recorded cost can never collide with the `UNSEEN` sentinel.
const COST_CAP: u64 = 1 << 48;

/// EWMA cost slots of one selectivity bucket.
#[derive(Debug)]
struct BucketState {
    /// Queries this bucket has routed (its exploration cadence).
    queries: AtomicU64,
    /// EWMA of observed cost (nanoseconds) per path slot; `UNSEEN` until
    /// the first observation.
    cost: [AtomicU64; MAX_PATHS],
}

impl Default for BucketState {
    fn default() -> Self {
        BucketState {
            queries: AtomicU64::new(0),
            cost: [(); MAX_PATHS].map(|()| AtomicU64::new(UNSEEN)),
        }
    }
}

/// Adaptive chooser: per-selectivity-bucket EWMA cost per path plus
/// periodic per-bucket exploration.
#[derive(Debug, Default)]
pub struct PathChooser {
    state: [BucketState; NUM_BUCKETS],
}

impl PathChooser {
    /// Maps a predicate spanning `width` of the binning's `bins` bins to
    /// its selectivity bucket: point (one bin), narrow (≤ ⅛ of the bins),
    /// mid (≤ ½), wide (the rest).
    pub fn bucket_of_span(width: usize, bins: usize) -> usize {
        if width <= 1 {
            0
        } else if width * 8 <= bins {
            1
        } else if width * 2 <= bins {
            2
        } else {
            3
        }
    }

    /// Picks the path for the next query of `bucket`, advancing the
    /// bucket's query cadence: bootstrap sweep, periodic rotating probe,
    /// else cheapest EWMA.
    pub fn choose(&self, bucket: usize) -> PathKind {
        let b = &self.state[bucket];
        let n = b.queries.fetch_add(1, Ordering::Relaxed);
        let k = MAX_PATHS as u64;
        // Bootstrap: measure each path once in this bucket before trusting
        // its EWMA.
        if b.cost.iter().any(|c| c.load(Ordering::Relaxed) == UNSEEN) {
            return PathKind::CLASSIC[(n % k) as usize];
        }
        // Steady state: keep probing on a fixed cadence, rotating the
        // probed path across periods. The rotation must be indexed by the
        // *period* number, not the raw query count: probes fire at
        // n = 0, P, 2P, … and with `n % k` any path count `k` dividing
        // [`EXPLORE_PERIOD`] would map every probe to slot 0 and never
        // re-measure the rest.
        if n.is_multiple_of(EXPLORE_PERIOD) {
            return PathKind::CLASSIC[((n / EXPLORE_PERIOD) % k) as usize];
        }
        self.winner(bucket).expect("every path was measured above, and costs are never forgotten")
    }

    /// Feeds back the observed cost of one evaluation over `path` for a
    /// query of `bucket`. Costs are clamped to `1..=`[`COST_CAP`]: a
    /// sub-nanosecond (or timer-floored zero) observation must not drive
    /// the EWMA to a stuck-at-zero estimate that permanently wins between
    /// exploration probes, and a pathological huge cost must not overflow
    /// the integer recurrence.
    pub fn record(&self, bucket: usize, path: PathKind, cost_nanos: u64) {
        let slot = &self.state[bucket].cost[path.slot()];
        let cost = cost_nanos.clamp(1, COST_CAP);
        let old = slot.load(Ordering::Relaxed);
        let new = if old == UNSEEN {
            cost
        } else {
            // Saturating keeps even a corrupted stored value from wrapping;
            // the quotient stays ≥ 1 because both inputs are ≥ 1.
            (old.saturating_mul(7).saturating_add(cost) / 8).max(1)
        };
        // A racy lost update only loses one observation; fine for a cost
        // model.
        slot.store(new, Ordering::Relaxed);
    }

    /// Current EWMA cost estimates of one bucket, in chooser slot order
    /// (`None` = unseen).
    pub fn estimates_for(&self, bucket: usize) -> [Option<u64>; MAX_PATHS] {
        std::array::from_fn(|slot| {
            let c = self.state[bucket].cost[slot].load(Ordering::Relaxed);
            (c != UNSEEN).then_some(c)
        })
    }

    /// Cheapest seen estimate per path across all buckets (`None` = never
    /// measured anywhere) — the "has this path been explored at all" view
    /// used by reports and tests.
    pub fn estimates(&self) -> [Option<u64>; MAX_PATHS] {
        let mut out = [None; MAX_PATHS];
        for bucket in 0..NUM_BUCKETS {
            for (slot, est) in self.estimates_for(bucket).into_iter().enumerate() {
                out[slot] = match (out[slot], est) {
                    (Some(a), Some(b)) => Some(std::cmp::min::<u64>(a, b)),
                    (a, b) => a.or(b),
                };
            }
        }
        out
    }

    /// The path a bucket currently ranks cheapest (`None` until the bucket
    /// has measured at least one path).
    pub fn winner(&self, bucket: usize) -> Option<PathKind> {
        let est = self.estimates_for(bucket);
        PathKind::CLASSIC
            .into_iter()
            .filter_map(|p| est[p.slot()].map(|c| (c, p)))
            .min_by_key(|(c, _)| *c)
            .map(|(_, p)| p)
    }

    /// Queries routed through this chooser, across all buckets.
    pub fn queries(&self) -> u64 {
        self.state.iter().map(|b| b.queries.load(Ordering::Relaxed)).sum()
    }

    /// Queries routed through one bucket.
    pub fn bucket_queries(&self, bucket: usize) -> u64 {
        self.state[bucket].queries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explores_all_paths_then_exploits_cheapest() {
        let ch = PathChooser::default();
        // Feed costs into one bucket: scan cheap, imprints expensive.
        for _ in 0..64 {
            let p = ch.choose(0);
            let cost = match p {
                PathKind::Imprints => 9_000,
                PathKind::ZoneMap => 5_000,
                PathKind::Scan => 1_000,
            };
            ch.record(0, p, cost);
        }
        let est = ch.estimates_for(0);
        assert!(est.iter().all(Option::is_some), "all paths must have been explored");
        // Exploitation picks scan on non-probe queries.
        let picks: Vec<PathKind> = (0..EXPLORE_PERIOD - 1).map(|_| ch.choose(0)).collect();
        let scans = picks.iter().filter(|p| **p == PathKind::Scan).count();
        assert!(scans as u64 >= EXPLORE_PERIOD - 3, "expected mostly scans, got {picks:?}");
        assert_eq!(ch.winner(0), Some(PathKind::Scan));
    }

    /// Two selectivity buckets learn *independent* winners from
    /// interleaved observations, where a single EWMA would blend them
    /// into one.
    #[test]
    fn buckets_learn_separate_winners() {
        let ch = PathChooser::default();
        let narrow = 1; // e.g. a few bins wide
        let wide = 3;
        for _ in 0..96 {
            // Narrow queries: imprints fast, scan slow.
            let p = ch.choose(narrow);
            ch.record(narrow, p, if p == PathKind::Imprints { 500 } else { 20_000 });
            // Wide queries: scan fast, everything else slow.
            let p = ch.choose(wide);
            ch.record(wide, p, if p == PathKind::Scan { 800 } else { 30_000 });
        }
        assert_eq!(ch.winner(narrow), Some(PathKind::Imprints));
        assert_eq!(ch.winner(wide), Some(PathKind::Scan));
        // Non-probe picks follow the per-bucket winner.
        let narrow_picks: Vec<PathKind> = (0..8).map(|_| ch.choose(narrow)).collect();
        let wide_picks: Vec<PathKind> = (0..8).map(|_| ch.choose(wide)).collect();
        assert!(
            narrow_picks.iter().filter(|p| **p == PathKind::Imprints).count() >= 6,
            "{narrow_picks:?}"
        );
        assert!(wide_picks.iter().filter(|p| **p == PathKind::Scan).count() >= 6, "{wide_picks:?}");
    }

    /// Regression: the probed path is indexed by the *period* number. A
    /// probe indexed by `n % k` lands on slot 0 every time whenever the
    /// path count k divides `EXPLORE_PERIOD`, and the other paths are
    /// never re-measured after bootstrap; three paths do not divide 16,
    /// but the rotation must not depend on that coincidence. It must walk
    /// every path across consecutive probe periods.
    #[test]
    fn exploration_probes_rotate_across_all_paths() {
        let ch = PathChooser::default();
        // Bootstrap: all paths measured once, imprints cheapest.
        for _ in 0..MAX_PATHS {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Imprints { 100 } else { 5_000 });
        }
        // Collect which paths the forced probes visit over consecutive
        // periods; non-probe queries exploit and are recorded cheap so the
        // winner never changes underneath the test.
        let mut probed = Vec::new();
        for n in MAX_PATHS as u64..(EXPLORE_PERIOD * 4) {
            let p = ch.choose(0);
            if n.is_multiple_of(EXPLORE_PERIOD) {
                probed.push(p);
            }
            ch.record(0, p, if p == PathKind::Imprints { 100 } else { 5_000 });
        }
        // Periods 1, 2, 3 probe slots 1, 2, 0.
        assert_eq!(probed, [PathKind::ZoneMap, PathKind::Scan, PathKind::Imprints]);
    }

    #[test]
    fn bucket_of_span_classes() {
        assert_eq!(PathChooser::bucket_of_span(1, 64), 0); // point
        assert_eq!(PathChooser::bucket_of_span(4, 64), 1); // ≤ 1/8
        assert_eq!(PathChooser::bucket_of_span(8, 64), 1);
        assert_eq!(PathChooser::bucket_of_span(20, 64), 2); // ≤ 1/2
        assert_eq!(PathChooser::bucket_of_span(33, 64), 3); // wide
        assert_eq!(PathChooser::bucket_of_span(64, 64), 3);
        // Small binnings collapse the narrow class but stay in range.
        assert_eq!(PathChooser::bucket_of_span(1, 8), 0);
        assert_eq!(PathChooser::bucket_of_span(8, 8), 3);
    }

    /// Satellite regression: a cost of 0 must clamp to ≥ 1 — otherwise the
    /// EWMA floors to zero and that path permanently wins every non-probe
    /// query even after its real cost explodes.
    #[test]
    fn record_clamps_zero_costs() {
        let ch = PathChooser::default();
        for _ in 0..64 {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Scan { 0 } else { 4 });
        }
        let est = ch.estimates_for(0);
        for p in PathKind::CLASSIC {
            let c = est[p.slot()].unwrap();
            assert!(c >= 1, "{} EWMA floored to {c}", p.name());
        }
        // Sub-8ns costs must not decay to zero through the /8 recurrence.
        assert_eq!(est[PathKind::Scan.slot()], Some(1));
    }

    /// Satellite regression: pathological huge costs must saturate, not
    /// overflow (the old `old*7 + cost` wrapped and could land on the
    /// `UNSEEN` sentinel or a tiny wrapped value).
    #[test]
    fn record_saturates_huge_costs() {
        let ch = PathChooser::default();
        for _ in 0..8 {
            for p in PathKind::CLASSIC {
                ch.record(0, p, u64::MAX);
            }
        }
        let est = ch.estimates_for(0);
        for p in PathKind::CLASSIC {
            let c = est[p.slot()].expect("huge costs must still be recorded");
            assert!(c <= COST_CAP, "{} estimate {c} escaped the cap", p.name());
        }
        // A sane cost recorded afterwards still moves the estimate.
        ch.record(0, PathKind::Scan, 100);
        assert!(ch.estimates_for(0)[PathKind::Scan.slot()].unwrap() < COST_CAP);
    }

    #[test]
    fn adapts_when_costs_flip() {
        let ch = PathChooser::default();
        for _ in 0..48 {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Imprints { 100 } else { 10_000 });
        }
        assert_eq!(ch.winner(0), Some(PathKind::Imprints));
        // Imprints now degrade (e.g. saturated): exploration must flip the
        // choice to another path.
        for _ in 0..256 {
            let p = ch.choose(0);
            ch.record(0, p, if p == PathKind::Imprints { 50_000 } else { 400 });
        }
        let p = ch.choose(0);
        ch.record(0, p, 400);
        let est = ch.estimates_for(0);
        let imp = est[PathKind::Imprints.slot()].unwrap();
        assert!(
            est[1].unwrap() < imp || est[2].unwrap() < imp,
            "chooser failed to re-learn: {est:?}"
        );
    }
}
