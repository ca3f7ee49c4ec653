//! Criterion micro-benchmarks: index construction (Figure 5, bottom row).
//!
//! The paper's ranking to reproduce: zonemap fastest (2 comparisons per
//! value), imprints in between (a `get_bin` search per value), WAH slowest
//! (bit bookkeeping per value across the binned vectors).

use baselines::{WahBitmap, ZoneMap};
use colstore::Column;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imprints::ColumnImprints;

const ROWS: usize = 1 << 20;

fn clustered_column() -> Column<i32> {
    (0..ROWS as i32).map(|i| i / 64).collect()
}

fn random_column() -> Column<i32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    (0..ROWS).map(|_| rng.gen_range(0..1_000_000)).collect()
}

fn bench_construction(c: &mut Criterion) {
    let mut g = c.benchmark_group("construction");
    g.throughput(Throughput::Elements(ROWS as u64));
    g.sample_size(10);
    for (data_name, col) in [("clustered", clustered_column()), ("random", random_column())] {
        g.bench_with_input(BenchmarkId::new("imprints", data_name), &col, |b, col| {
            b.iter(|| ColumnImprints::build(col))
        });
        g.bench_with_input(BenchmarkId::new("zonemap", data_name), &col, |b, col| {
            b.iter(|| ZoneMap::build(col))
        });
        g.bench_with_input(BenchmarkId::new("wah", data_name), &col, |b, col| {
            b.iter(|| WahBitmap::build(col))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
