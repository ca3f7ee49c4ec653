//! Criterion micro-benchmarks: the design-choice ablations of DESIGN.md §7.
//!
//! 1. Imprint block granularity: 64 B cachelines vs 128/256/512 B blocks.
//! 2. The `innermask` fast path on vs off.
//! 3. Row-wise RLE compression: `Compressor` vs storing raw vectors.
//! 4. The §7 two-level organization vs the flat index.
//! 5. Equi-height vs equi-width binning.
//! 6. The §3 conjunction plan on the benchmark's ingest shape, where it
//!    stops probing once the candidates are fewer than the next imprint's
//!    stored vectors (DESIGN.md, "Why the plan stops probing").
//!
//! §2.5's unrolled `get_bin` search is not an ablation here: measured
//! against it, `slice::partition_point` (what `Binning::bin_of` uses) was
//! ~1.35× faster, so the unrolled form was deleted (DESIGN.md, "One bin
//! search").

use colstore::{Column, RangeIndex, RangePredicate, Relation, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imprints::builder::{BuildOptions, Compressor};
use imprints::relation_index::{RelationImprints, ValueRange};
use imprints::{query, ColumnImprints};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_block_granularity(c: &mut Criterion) {
    let rows = 1 << 20;
    let col: Column<i64> = (0..rows as i64).map(|i| i / 16).collect();
    let pred = RangePredicate::between(1000, 4000);
    let mut g = c.benchmark_group("block_bytes");
    g.throughput(Throughput::Elements(rows as u64));
    g.sample_size(20);
    for block in [64usize, 128, 256, 512] {
        let idx = ColumnImprints::build_with(
            &col,
            BuildOptions { block_bytes: block, ..Default::default() },
        );
        g.bench_with_input(BenchmarkId::new("build", block), &block, |b, &blk| {
            b.iter(|| {
                ColumnImprints::build_with(
                    &col,
                    BuildOptions { block_bytes: blk, ..Default::default() },
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("query", block), &idx, |b, idx| {
            b.iter(|| idx.evaluate(&col, &pred))
        });
    }
    g.finish();
}

fn bench_innermask(c: &mut Criterion) {
    let rows = 1 << 20;
    let col: Column<i64> = (0..rows as i64).collect();
    let idx = ColumnImprints::build(&col);
    // A wide range: most qualifying lines are fully covered, so the fast
    // path saves one comparison per emitted value.
    let pred = RangePredicate::between(rows as i64 / 10, rows as i64 * 9 / 10);
    let mut g = c.benchmark_group("innermask");
    g.throughput(Throughput::Elements(rows as u64));
    g.sample_size(20);
    g.bench_function("on", |b| b.iter(|| query::evaluate(&idx, &col, &pred)));
    g.bench_function("off", |b| b.iter(|| query::evaluate_no_innermask(&idx, &col, &pred)));
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    // Streams of imprint vectors with different run structures.
    let mut rng = StdRng::seed_from_u64(8);
    let clustered: Vec<u64> = {
        let mut out = Vec::new();
        while out.len() < 1 << 18 {
            let v = 1u64 << rng.gen_range(0..64);
            let run = rng.gen_range(1..200);
            out.extend(std::iter::repeat_n(v, run));
        }
        out
    };
    let random: Vec<u64> = (0..1 << 18).map(|_| rng.gen()).collect();
    let mut g = c.benchmark_group("rle_compression");
    for (name, stream) in [("clustered", &clustered), ("random", &random)] {
        g.throughput(Throughput::Elements(stream.len() as u64));
        g.bench_with_input(BenchmarkId::new("compressor", name), stream, |b, s| {
            b.iter(|| {
                let mut comp = Compressor::new();
                for &v in s.iter() {
                    comp.push_line(v);
                }
                comp.imprints().len()
            })
        });
        g.bench_with_input(BenchmarkId::new("raw_vec", name), stream, |b, s| {
            b.iter(|| {
                let mut raw = Vec::with_capacity(s.len());
                for &v in s.iter() {
                    raw.push(v);
                }
                raw.len()
            })
        });
    }
    g.finish();
}

fn bench_multilevel(c: &mut Criterion) {
    use imprints::multilevel::MultiLevelImprints;
    // Drift + noise data whose per-line imprints defeat the RLE: the case
    // the §7 multi-level organization targets.
    let n: u64 = 1 << 20;
    let col: Column<i64> =
        (0..n).map(|i| ((i * 59_500 / n) + i.wrapping_mul(2_654_435_761) % 2_500) as i64).collect();
    let base = ColumnImprints::build(&col);
    let ml = MultiLevelImprints::from_base(base.clone(), 64);
    let pred = RangePredicate::between(0, 3000);
    let mut g = c.benchmark_group("multilevel");
    g.throughput(Throughput::Elements(n));
    g.sample_size(20);
    g.bench_function("flat", |b| b.iter(|| base.evaluate(&col, &pred)));
    g.bench_function("two_level", |b| b.iter(|| ml.evaluate(&col, &pred)));
    g.finish();
}

fn bench_binning_strategy(c: &mut Criterion) {
    use imprints::BinningStrategy;
    // Heavy-tailed data: equi-height packs its borders where the data is,
    // equi-width spreads them over the whole range. The query times do not
    // show equi-height winning (equi-width was the faster in five of six
    // runs).
    let mut rng = StdRng::seed_from_u64(12);
    let col: Column<i64> = (0..1 << 20)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0001..1.0);
            (1.0 / u).min(1e6) as i64 // heavy-tailed
        })
        .collect();
    let pred = RangePredicate::between(2, 5);
    let mut g = c.benchmark_group("binning_strategy");
    g.sample_size(20);
    for (name, strategy) in
        [("equi_height", BinningStrategy::EquiHeight), ("equi_width", BinningStrategy::EquiWidth)]
    {
        let idx = ColumnImprints::build_with(&col, BuildOptions { strategy, ..Default::default() });
        g.bench_function(BenchmarkId::new("query", name), |b| b.iter(|| idx.evaluate(&col, &pred)));
    }
    g.finish();
}

fn bench_conjunction_plan(c: &mut Criterion) {
    // `ts` counts the rows; `sensor` is zipf over 16 categories, which
    // leaves about one stored imprint vector per cacheline. The query is
    // the benchmark's cold read, `ts=lo..lo+1000 sensor=k`, at 256
    // positions in turn.
    let rows = 1 << 20;
    let sensor = datagen::distributions::zipf(rows, 16, 1.0, 2013);
    let mut rel = Relation::new("ingest");
    rel.add_column("ts", (0..rows as i64).collect::<Column<i64>>()).unwrap();
    rel.add_column("sensor", sensor.iter().map(|&k| k as u16).collect::<Column<u16>>()).unwrap();
    let idx = RelationImprints::build(&rel);
    let mut rng = StdRng::seed_from_u64(33);
    let queries: Vec<[(&str, ValueRange); 2]> = (0..256)
        .map(|_| {
            let lo = rng.gen_range(0..rows as i64 - 1000);
            let k = rng.gen_range(0..16u16);
            [
                ("ts", ValueRange::between(Value::I64(lo), Value::I64(lo + 1000))),
                ("sensor", ValueRange::equals(Value::U16(k))),
            ]
        })
        .collect();
    let mut g = c.benchmark_group("conjunction_plan");
    g.sample_size(20);
    g.bench_function("ts_range_and_sensor", |b| {
        let mut next = queries.iter().cycle();
        b.iter(|| idx.query(&rel, next.next().expect("cycles")).expect("resolves").len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_block_granularity,
    bench_innermask,
    bench_compression,
    bench_multilevel,
    bench_binning_strategy,
    bench_conjunction_plan
);
criterion_main!(benches);
