//! Scientific data exploration: the SkyServer/SDSS scenario of the paper's
//! introduction — wide tables of double-precision measurements, scanned
//! interactively with ad-hoc range predicates.
//!
//! Uniform high-cardinality doubles are the worst case for bitmap
//! compression (WAH blows past the column size, §6.2) while imprints stay
//! ≤ ~12% and keep filtering. This example measures both.
//!
//! ```text
//! cargo run --release --example scientific_exploration
//! ```

use column_imprints::baselines::{SeqScan, WahBitmap, ZoneMap};
use column_imprints::colstore::{Column, RangeIndex, RangePredicate};
use column_imprints::datagen::distributions;
use column_imprints::imprints::{column_entropy, ColumnImprints};

fn main() {
    // photoprofile.profmean-like: uniform doubles, ~every value distinct.
    let n = 2_000_000;
    let col: Column<f64> = Column::from(distributions::uniform_doubles(n, 0.0, 30.0, 2013));

    let imprints = ColumnImprints::build(&col);
    let zonemap = ZoneMap::build(&col);
    let wah = WahBitmap::build_with_binning(&col, imprints.binning().clone());
    let scan = SeqScan::new(&col);

    println!("SDSS-like column: {n} uniform doubles, entropy E = {:.3}", column_entropy(&imprints));
    println!("column data: {} bytes", col.data_bytes());
    let pct = |b: usize| 100.0 * b as f64 / col.data_bytes() as f64;
    println!(
        "index sizes: imprints {} ({:.2}%), zonemap {} ({:.2}%), wah {} ({:.2}%)",
        RangeIndex::<f64>::size_bytes(&imprints),
        pct(RangeIndex::<f64>::size_bytes(&imprints)),
        zonemap.size_bytes(),
        pct(zonemap.size_bytes()),
        wah.size_bytes(),
        pct(wah.size_bytes()),
    );
    assert!(
        RangeIndex::<f64>::size_bytes(&imprints) < wah.size_bytes() / 4,
        "imprints must stay far below WAH on uniform data"
    );

    // Interactive exploration: progressively zooming into a measurement
    // band, as an astronomer would.
    for (lo, hi) in [(14.0, 16.0), (14.9, 15.1), (14.99, 15.01)] {
        let pred = RangePredicate::between(lo, hi);
        let mut line = format!("profmean in [{lo}, {hi}]:");
        let mut answers = Vec::new();
        for (name, result) in [
            ("scan", timed(|| scan.evaluate(&col, &pred))),
            ("imprints", timed(|| imprints.evaluate(&col, &pred))),
            ("zonemap", timed(|| zonemap.evaluate(&col, &pred))),
            ("wah", timed(|| wah.evaluate(&col, &pred))),
        ] {
            let (ids, dt) = result;
            line.push_str(&format!("  {name} {:>8.1}µs ({} rows)", dt * 1e6, ids.len()));
            answers.push(ids);
        }
        println!("{line}");
        assert!(answers.windows(2).all(|w| w[0] == w[1]), "access paths disagree on {pred}");
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}
