//! Index tuning tour: the knobs beyond the paper's defaults — block
//! granularity and binning strategy (§2.3 and §7) — measured side by side
//! on one column.
//!
//! ```text
//! cargo run --release --example index_tuning
//! ```

use std::time::Instant;

use column_imprints::colstore::{Column, RangeIndex, RangePredicate};
use column_imprints::imprints::{column_entropy, BinningStrategy, BuildOptions, ColumnImprints};

fn main() {
    // A mid-entropy column: slow drift + per-row noise (defeats the RLE,
    // the regime where the tuning knobs actually matter).
    let n: u64 = 4_000_000;
    let col: Column<i64> =
        (0..n).map(|i| ((i * 59_500 / n) + i.wrapping_mul(2_654_435_761) % 2_500) as i64).collect();
    let pred = RangePredicate::between(1_000, 4_000);
    let brute: usize = col.values().iter().filter(|v| pred.matches(v)).count();

    let baseline = ColumnImprints::build(&col);
    println!(
        "column: {} rows i64, E = {:.3}, query {pred} -> {brute} rows\n",
        n,
        column_entropy(&baseline)
    );

    // --- block granularity (§2.3) -------------------------------------
    println!("block granularity (values covered per imprint vector):");
    for block in [64usize, 128, 256, 512] {
        let idx = ColumnImprints::build_with(
            &col,
            BuildOptions { block_bytes: block, ..Default::default() },
        );
        let (ids, dt) = timed(|| idx.evaluate(&col, &pred));
        assert_eq!(ids.len(), brute);
        println!(
            "  {block:>3}B blocks: index {:>9} bytes ({:.2}%), query {:>9.1}µs",
            RangeIndex::<i64>::size_bytes(&idx),
            100.0 * RangeIndex::<i64>::size_bytes(&idx) as f64 / col.data_bytes() as f64,
            dt * 1e6,
        );
    }

    // --- binning strategy (§7) -----------------------------------------
    println!("\nbinning strategy:");
    for (name, strategy) in
        [("equi-height", BinningStrategy::EquiHeight), ("equi-width ", BinningStrategy::EquiWidth)]
    {
        let idx = ColumnImprints::build_with(&col, BuildOptions { strategy, ..Default::default() });
        let (ids, dt) = timed(|| idx.evaluate(&col, &pred));
        assert_eq!(ids.len(), brute);
        println!("  {name}: query {:>9.1}µs, saturation {:.3}", dt * 1e6, idx.saturation());
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}
