//! Criterion micro-benchmarks: the design-choice ablations of DESIGN.md §7.
//!
//! 1. Imprint block granularity: 64 B cachelines vs 128/256/512 B blocks.
//! 2. The `innermask` fast path on vs off.
//! 3. Row-wise RLE compression: `Compressor` vs storing raw vectors.
//! 4. Equi-height vs equi-width binning.
//! 5. The §3 conjunction plan on the benchmark's ingest shape, where it
//!    stops probing once the candidates are fewer than the next imprint's
//!    stored vectors (DESIGN.md, "Why the plan stops probing").
//! 6. Algorithm 3's probe alone, in ns per stored imprint vector, beside a
//!    plain `v & mask` pass over the same vectors (`probe_walk`).
//! 7. The §3 plan's two sides for one conjunct, probe then check versus
//!    one streamed check, on seven column shapes (`probe_or_scan`): the
//!    three unit costs the plan's probe rule is priced with.
//!
//! §2.5's unrolled `get_bin` search is not an ablation here: measured
//! against it, `slice::partition_point` (what `Binning::bin_of` uses) was
//! ~1.35× faster, so the unrolled form was deleted (DESIGN.md, "One bin
//! search").

use colstore::relation::{AnyColumn, Field};
use colstore::{CachelineSet, Column, RangeIndex, RangePredicate, Relation, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use imprints::builder::{BuildOptions, Compressor};
use imprints::relation_index::{
    resolve_sets, AnyImprints, IndexedColumn, PlanColumn, RelationImprints, ValueRange, ValueSet,
};
use imprints::simd::Hits;
use imprints::{masks, query, ColumnImprints, ImprintStats};
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

fn bench_probe_walk(c: &mut Criterion) {
    use std::ops::ControlFlow;
    // The benchmark's clustered `v` (drift plus 5 % uniform noise) with its
    // 16- and 209-wide ranges, and a uniform `i32` with 10 % ranges, at 1 Mi
    // rows each. Each iteration probes one of 64 ranges in turn; the
    // visitor only adds up the candidate lines, so what is timed is the
    // walk over the stored vectors and the cacheline dictionary.
    let rows = 1 << 20;
    let domain = 1i64 << 20;
    let clustered: Column<i64> =
        datagen::entropy_sweep::entropy_dial(rows, domain, 0.05, 2013).into_iter().collect();
    let uniform: Column<i32> = datagen::distributions::uniform_ints(rows, 0, domain, 2014)
        .into_iter()
        .map(|v| v as i32)
        .collect();
    fn ranges<T: colstore::Scalar>(width: i64, to: impl Fn(i64) -> T) -> Vec<RangePredicate<T>> {
        let mut rng = StdRng::seed_from_u64(38 + width as u64);
        (0..64)
            .map(|_| {
                let lo = rng.gen_range(0..(1i64 << 20) - width);
                RangePredicate::between(to(lo), to(lo + width))
            })
            .collect()
    }
    fn shape<T: colstore::Scalar>(
        g: &mut criterion::BenchmarkGroup<'_>,
        name: &str,
        col: &Column<T>,
        preds: &[RangePredicate<T>],
    ) {
        let idx = ColumnImprints::build(col);
        let all: Vec<_> = preds.iter().map(|p| masks::make_masks(idx.binning(), p)).collect();
        let stored: Vec<u64> = idx.runs().flat_map(|r| r.vectors().to_vec()).collect();
        g.throughput(Throughput::Elements(stored.len() as u64));
        g.bench_function(BenchmarkId::new("probe", name), |b| {
            let mut next = all.iter().cycle();
            b.iter(|| {
                let mut stats = ImprintStats::default();
                let mut lines = 0;
                let _ = query::probe(
                    &idx,
                    idx.runs(),
                    *next.next().expect("cycles"),
                    &mut stats,
                    |_, l, _, _| {
                        lines += l.end - l.start;
                        ControlFlow::<()>::Continue(())
                    },
                );
                lines + stats.access.lines_skipped
            })
        });
        g.bench_function(BenchmarkId::new("mask_scan_floor", name), |b| {
            let mut next = all.iter().cycle();
            b.iter(|| {
                let mask = next.next().expect("cycles").mask;
                stored.iter().filter(|&&v| v & mask != 0).count()
            })
        });
    }
    let mut g = c.benchmark_group("probe_walk");
    g.sample_size(20);
    shape(&mut g, "clustered_16", &clustered, &ranges(16, |v| v));
    shape(&mut g, "clustered_209", &clustered, &ranges(209, |v| v));
    shape(&mut g, "uniform_10pct", &uniform, &ranges(domain / 10, |v| v as i32));
    g.finish();
}

fn bench_probe_or_scan(c: &mut Criterion) {
    // ROADMAP item 12's seven shapes at 1 Mi rows over a 2^20 domain:
    // uniform columns, and a drift through the domain with 30 % or 5 % of
    // the values uniform noise (`entropy_dial`), each with 64 ranges of one
    // width. Per shape, three rows, each cycling through the ranges:
    // * `probe`: the plan's probe, the candidate row ranges of one range
    //   (`PlanColumn::candidates`), in ns per stored vector;
    // * `check`: the plan's value check over those candidates, computed
    //   beforehand, in ns per candidate line;
    // * `scan`: the same check over every row, in ns per line.
    // `probe` + `check` is the probed side, `scan` the unprobed one.
    let rows = 1 << 20;
    let domain = 1i64 << 20;
    let uniform = |seed| datagen::distributions::uniform_ints(rows, 0, domain, seed);
    let drift = |noise, seed| datagen::entropy_sweep::entropy_dial(rows, domain, noise, seed);
    let as_i32 = |v: Vec<i64>| AnyColumn::I32(v.into_iter().map(|x| x as i32).collect());
    let as_i64 = |v: Vec<i64>| AnyColumn::I64(v.into_iter().collect());
    let shapes = [
        ("uniform_i32_10pct", as_i32(uniform(2014)), domain / 10),
        ("uniform_i64_10pct", as_i64(uniform(2015)), domain / 10),
        ("drift30_i64_10pct", as_i64(drift(0.30, 2016)), domain / 10),
        ("drift5_i64_10pct", as_i64(drift(0.05, 2017)), domain / 10),
        ("uniform_i64_0.5pct", as_i64(uniform(2018)), domain / 200),
        ("drift5_i64_0.5pct", as_i64(drift(0.05, 2019)), domain / 200),
        ("drift5_i64_50pct", as_i64(drift(0.05, 2020)), domain / 2),
    ];
    let mut g = c.benchmark_group("probe_or_scan");
    g.sample_size(20);
    for (name, col, width) in &shapes {
        let imprints = AnyImprints::build(col);
        let view = IndexedColumn { col, imprints: Some(&imprints) };
        let schema = [Field { name: "v".into(), ty: col.column_type() }];
        let mut rng = StdRng::seed_from_u64(12 + *width as u64);
        let sets: Vec<_> = (0..64)
            .map(|_| {
                let lo = rng.gen_range(0..domain - width);
                let (lo, hi) = match col {
                    AnyColumn::I32(_) => (Value::I32(lo as i32), Value::I32((lo + width) as i32)),
                    _ => (Value::I64(lo), Value::I64(lo + width)),
                };
                let set = ValueSet::range(ValueRange::between(lo, hi));
                let kernel = imprints::simd::ambient_kernel();
                resolve_sets(&schema, &[("v", set)], kernel).expect("typed").remove(0).1
            })
            .collect();
        let cands: Vec<CachelineSet> = sets.iter().map(|set| view.candidates(set).0).collect();
        let per_line = (colstore::CACHELINE_BYTES / col.column_type().width()) as u64;
        let lines = (rows as u64).div_ceil(per_line);
        let candidate_lines = cands.iter().map(|c| c.line_count() / per_line).sum::<u64>() / 64;
        let mut all = CachelineSet::new();
        all.push_run(0, rows as u64);
        g.throughput(Throughput::Elements(imprints.imprint_count() as u64));
        g.bench_function(BenchmarkId::new("probe", name), |b| {
            let mut next = sets.iter().cycle();
            b.iter(|| view.candidates(next.next().expect("cycles")).0.line_count())
        });
        let check = |ranges: &CachelineSet, set| {
            let mut stats = colstore::AccessStats::default();
            view.check(set, ranges, Hits::new(true), &mut stats).len()
        };
        g.throughput(Throughput::Elements(candidate_lines.max(1)));
        g.bench_function(BenchmarkId::new("check", name), |b| {
            let mut next = sets.iter().zip(&cands).cycle();
            b.iter(|| {
                let (set, ranges) = next.next().expect("cycles");
                check(ranges, set)
            })
        });
        g.throughput(Throughput::Elements(lines));
        g.bench_function(BenchmarkId::new("scan", name), |b| {
            let mut next = sets.iter().cycle();
            b.iter(|| check(&all, next.next().expect("cycles")))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_block_granularity,
    bench_innermask,
    bench_compression,
    bench_binning_strategy,
    bench_conjunction_plan,
    bench_probe_walk,
    bench_probe_or_scan
);
criterion_main!(benches);
