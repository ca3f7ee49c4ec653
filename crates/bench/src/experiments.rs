//! The experiment runners — one per table/figure of §6.
//!
//! Absolute numbers differ from the paper (different hardware, scaled
//! synthetic data); the *shapes* — who wins, by what factor, where the
//! crossovers sit — are the reproduction target.

use std::path::PathBuf;
use std::time::Duration;

use colstore::Column;
use datagen::datasets::{self, DatasetFamily, GeneratedColumn};
use datagen::entropy_sweep;
use datagen::workload::QueryWorkload;
use imprints::{column_entropy, ColumnImprints};

use crate::report::{fmt_bytes, fmt_duration, median, Table};
use crate::runner::{self, PerIndex, QueryMeasurement};
use crate::with_typed_column;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Rows per generated column.
    pub rows: usize,
    /// Workload sweep repetitions (10 queries each).
    pub rounds: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            rows: 1_000_000,
            rounds: 4,
            seed: 2013,
            out_dir: PathBuf::from("bench_results"),
        }
    }
}

impl ExpConfig {
    fn save(&self, t: &Table, name: &str) {
        match t.save_csv(&self.out_dir, name) {
            Ok(p) => println!("[saved {}]", p.display()),
            Err(e) => eprintln!("[warn] could not save {name}: {e}"),
        }
        println!();
    }
}

/// All experiment names accepted by [`run`].
pub const ALL_EXPERIMENTS: [&str; 16] = [
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "throughput",
    "compaction",
    "writehead",
    "refine",
    "qps",
    "recovery",
];

/// Runs the experiment called `name` ("all" runs everything). Returns
/// `false` for an unknown name.
pub fn run(name: &str, cfg: &ExpConfig) -> bool {
    match name {
        "all" => {
            for n in ALL_EXPERIMENTS {
                assert!(run(n, cfg));
            }
        }
        "table1" => table1(cfg),
        "fig3" => fig3(cfg),
        "fig4" => fig4(cfg),
        "fig5" => fig5(cfg),
        "fig6" => fig6(cfg),
        "fig7" => fig7(cfg),
        "fig8" => fig8(cfg),
        "fig9" => fig9(cfg),
        "fig10" => fig10(cfg),
        "fig11" => fig11(cfg),
        "throughput" => throughput(cfg),
        "compaction" => compaction(cfg),
        "writehead" => writehead(cfg),
        "refine" => refine(cfg),
        "qps" => qps(cfg),
        "recovery" => recovery(cfg),
        _ => return false,
    }
    true
}

/// Table 1: dataset statistics.
pub fn table1(cfg: &ExpConfig) {
    let mut t = Table::new(
        "Table 1: dataset statistics (synthetic analogues, scaled)",
        &["Dataset", "Size", "#Col", "Value types", "Max rows"],
    );
    for family in DatasetFamily::ALL {
        let cols = datasets::generate(family, cfg.rows, cfg.seed);
        let bytes: usize = cols.iter().map(GeneratedColumn::data_bytes).sum();
        let mut types: Vec<String> =
            cols.iter().map(|c| c.column.column_type().to_string()).collect();
        types.sort();
        types.dedup();
        let max_rows = cols.iter().map(GeneratedColumn::rows).max().unwrap_or(0);
        t.row(vec![
            family.name().to_string(),
            fmt_bytes(bytes),
            cols.len().to_string(),
            types.join(", "),
            max_rows.to_string(),
        ]);
    }
    t.print();
    cfg.save(&t, "table1");
}

/// Figure 3: imprint prints and entropy, one column per dataset.
pub fn fig3(cfg: &ExpConfig) {
    println!("== Figure 3: column imprint prints ('x' = bit set) ==\n");
    let mut t = Table::new(
        "Figure 3: column entropy per representative column",
        &["Column", "Dataset", "E"],
    );
    for family in DatasetFamily::ALL {
        let cols = datasets::generate(family, cfg.rows.min(200_000), cfg.seed);
        let gc = &cols[0];
        let (render, entropy) = with_typed_column!(&gc.column, c => {
            let idx = ColumnImprints::build(c);
            (imprints::print::render_stored(&idx, 24), column_entropy(&idx))
        });
        println!("--- {} ({}) ---", gc.name, family.name());
        println!("E = {entropy:.6}");
        print!("{render}");
        println!();
        t.row(vec![gc.name.clone(), family.name().to_string(), format!("{entropy:.6}")]);
    }
    t.print();
    cfg.save(&t, "fig3");
}

fn all_columns_for_distribution(cfg: &ExpConfig) -> Vec<(String, f64)> {
    let rows = cfg.rows.min(200_000);
    let mut entropies = Vec::new();
    // Several seeds of the five families...
    for s in 0..4u64 {
        for gc in datasets::generate_all(rows, cfg.seed ^ (s * 7919)) {
            let e = with_typed_column!(&gc.column, c => column_entropy(&ColumnImprints::build(c)));
            entropies.push((format!("{}#{s}", gc.name), e));
        }
    }
    // ...plus the chaos ladder to populate the high-entropy tail.
    for (i, chaos) in entropy_sweep::chaos_ladder(9).into_iter().enumerate() {
        let col: Column<i64> =
            Column::from(entropy_sweep::entropy_dial(rows, 1 << 16, chaos, cfg.seed + i as u64));
        let e = column_entropy(&ColumnImprints::build(&col));
        entropies.push((format!("sweep.chaos{chaos:.2}"), e));
    }
    entropies
}

/// Figure 4: cumulative distribution of column entropy.
pub fn fig4(cfg: &ExpConfig) {
    let mut entropies = all_columns_for_distribution(cfg);
    entropies.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut t = Table::new(
        "Figure 4: cumulative distribution of column entropy E",
        &["E ≤", "#columns (cumulative)"],
    );
    let total = entropies.len();
    for decile in 0..=10 {
        let bound = decile as f64 / 10.0;
        let count = entropies.iter().take_while(|(_, e)| *e <= bound).count();
        t.row(vec![format!("{bound:.1}"), count.to_string()]);
    }
    t.row(vec!["total".into(), total.to_string()]);
    t.print();
    cfg.save(&t, "fig4");
}

/// Figure 5: index size and creation time per value-type width.
pub fn fig5(cfg: &ExpConfig) {
    let mut size_t = Table::new(
        "Figure 5 (top): index size by column (grouped by value width)",
        &["width", "column", "rows", "col size", "imprints", "zonemap", "wah"],
    );
    let mut time_t = Table::new(
        "Figure 5 (bottom): index creation time",
        &["width", "column", "rows", "imprints", "zonemap", "wah"],
    );
    // Three size steps per column family for the "stepping" pattern.
    let steps = [cfg.rows / 4, cfg.rows / 2, cfg.rows];
    let mut cols: Vec<GeneratedColumn> = Vec::new();
    for &n in &steps {
        cols.extend(datasets::generate_all(n.max(1024), cfg.seed));
    }
    cols.sort_by_key(|c| (c.column.column_type().width(), c.data_bytes()));
    for gc in &cols {
        let width = gc.column.column_type().width();
        let (sizes, times) = with_typed_column!(&gc.column, c => {
            let (set, times) = runner::build_all(c);
            (set.sizes(), times)
        });
        size_t.row(vec![
            format!("{width}B"),
            gc.name.clone(),
            gc.rows().to_string(),
            fmt_bytes(gc.data_bytes()),
            fmt_bytes(sizes.imprints),
            fmt_bytes(sizes.zonemap),
            fmt_bytes(sizes.wah),
        ]);
        time_t.row(vec![
            format!("{width}B"),
            gc.name.clone(),
            gc.rows().to_string(),
            fmt_duration(times.imprints),
            fmt_duration(times.zonemap),
            fmt_duration(times.wah),
        ]);
    }
    size_t.print();
    cfg.save(&size_t, "fig5_size");
    time_t.print();
    cfg.save(&time_t, "fig5_time");
}

/// Figure 6: index size as a percentage of the column, per dataset.
pub fn fig6(cfg: &ExpConfig) {
    let mut t = Table::new(
        "Figure 6: index size % of column size, per dataset",
        &["Dataset", "column", "imprints %", "zonemap %", "wah %"],
    );
    for family in DatasetFamily::ALL {
        for gc in datasets::generate(family, cfg.rows, cfg.seed) {
            let sizes = with_typed_column!(&gc.column, c => runner::build_all(c).0.sizes());
            let pct = |s: usize| format!("{:.2}", 100.0 * s as f64 / gc.data_bytes() as f64);
            t.row(vec![
                family.name().to_string(),
                gc.name.clone(),
                pct(sizes.imprints),
                pct(sizes.zonemap),
                pct(sizes.wah),
            ]);
        }
    }
    t.print();
    cfg.save(&t, "fig6");
}

/// Figure 7: index size % over column entropy.
pub fn fig7(cfg: &ExpConfig) {
    let mut t =
        Table::new("Figure 7: index size % over column entropy E", &["E", "imprints %", "wah %"]);
    let rows = cfg.rows;
    let mut points = Vec::new();
    for (i, chaos) in entropy_sweep::chaos_ladder(11).into_iter().enumerate() {
        for s in 0..2u64 {
            let col: Column<i64> = Column::from(entropy_sweep::entropy_dial(
                rows,
                1 << 20,
                chaos,
                cfg.seed + i as u64 * 31 + s,
            ));
            let (set, _) = runner::build_all(&col);
            let e = column_entropy(&set.imprints);
            let sizes = set.sizes();
            let col_bytes = col.data_bytes() as f64;
            points.push((
                e,
                100.0 * sizes.imprints as f64 / col_bytes,
                100.0 * sizes.wah as f64 / col_bytes,
            ));
        }
    }
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (e, imp, wah) in points {
        t.row(vec![format!("{e:.3}"), format!("{imp:.2}"), format!("{wah:.2}")]);
    }
    t.print();
    cfg.save(&t, "fig7");
}

/// Columns used by the query-time experiments (one per family, a
/// mid-cardinality representative).
fn query_columns(cfg: &ExpConfig) -> Vec<GeneratedColumn> {
    DatasetFamily::ALL
        .iter()
        .flat_map(|&f| datasets::generate(f, cfg.rows, cfg.seed).into_iter().take(2))
        .collect()
}

fn run_query_measurements(cfg: &ExpConfig) -> Vec<(DatasetFamily, String, QueryMeasurement)> {
    let mut all = Vec::new();
    for gc in query_columns(cfg) {
        let ms = with_typed_column!(&gc.column, c => {
            let (set, _) = runner::build_all(c);
            let wl = QueryWorkload::for_column(c, cfg.rounds, cfg.seed ^ 0xABCD);
            runner::run_workload(c, &set, &wl)
        });
        all.extend(ms.into_iter().map(|m| (gc.family, gc.name.clone(), m)));
    }
    all
}

fn medians_of(ms: Vec<PerIndex<f64>>) -> PerIndex<f64> {
    let mut scan = Vec::with_capacity(ms.len());
    let mut imp = Vec::with_capacity(ms.len());
    let mut zm = Vec::with_capacity(ms.len());
    let mut wah = Vec::with_capacity(ms.len());
    for v in ms {
        scan.push(v.scan);
        imp.push(v.imprints);
        zm.push(v.zonemap);
        wah.push(v.wah);
    }
    PerIndex {
        scan: median(&mut scan),
        imprints: median(&mut imp),
        zonemap: median(&mut zm),
        wah: median(&mut wah),
    }
}

fn time_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Figure 8: query time vs selectivity, per dataset family (the paper's
/// scatter, summarized as per-family medians so the clustering-dependent
/// gaps stay visible instead of blending away).
pub fn fig8(cfg: &ExpConfig) {
    let all = run_query_measurements(cfg);
    let mut t = Table::new(
        "Figure 8: median query time (µs) per dataset and selectivity",
        &["Dataset", "selectivity", "scan", "imprints", "zonemap", "wah"],
    );
    for family in DatasetFamily::ALL {
        for &s in &datagen::workload::SELECTIVITY_STEPS {
            let ms: Vec<PerIndex<f64>> = all
                .iter()
                .filter(|(f, _, m)| *f == family && (m.target_selectivity - s).abs() < 1e-9)
                .map(|(_, _, m)| PerIndex {
                    scan: time_us(m.time.scan),
                    imprints: time_us(m.time.imprints),
                    zonemap: time_us(m.time.zonemap),
                    wah: time_us(m.time.wah),
                })
                .collect();
            if ms.is_empty() {
                continue;
            }
            let agg = medians_of(ms);
            t.row(vec![
                family.name().to_string(),
                format!("{s:.2}"),
                format!("{:.1}", agg.scan),
                format!("{:.1}", agg.imprints),
                format!("{:.1}", agg.zonemap),
                format!("{:.1}", agg.wah),
            ]);
        }
    }
    t.print();
    cfg.save(&t, "fig8");
}

/// Figure 9: cumulative distribution of query times.
pub fn fig9(cfg: &ExpConfig) {
    let all = run_query_measurements(cfg);
    let total = all.len();
    let mut t = Table::new(
        "Figure 9: #queries finishing within t (cumulative)",
        &["t (ms)", "scan", "imprints", "zonemap", "wah"],
    );
    let thresholds_ms = [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0];
    for th in thresholds_ms {
        let count = |f: &dyn Fn(&QueryMeasurement) -> Duration| {
            all.iter().filter(|(_, _, m)| f(m).as_secs_f64() * 1e3 <= th).count()
        };
        t.row(vec![
            format!("{th}"),
            count(&|m| m.time.scan).to_string(),
            count(&|m| m.time.imprints).to_string(),
            count(&|m| m.time.zonemap).to_string(),
            count(&|m| m.time.wah).to_string(),
        ]);
    }
    t.row(vec![
        "total queries".into(),
        total.to_string(),
        total.to_string(),
        total.to_string(),
        total.to_string(),
    ]);
    t.print();
    cfg.save(&t, "fig9");
}

/// Figure 10: factor of improvement over scan and over zonemap (median and
/// best case — the paper's scatter tops out near 1000× over scan and 100×
/// over zonemap for the most selective queries on clustered columns).
pub fn fig10(cfg: &ExpConfig) {
    let all = run_query_measurements(cfg);
    let mut t = Table::new(
        "Figure 10: improvement factor, median (max) per selectivity",
        &["selectivity", "scan/imprints", "scan/wah", "zonemap/imprints", "zonemap/wah"],
    );
    for &s in &datagen::workload::SELECTIVITY_STEPS {
        let mut si = Vec::new();
        let mut sw = Vec::new();
        let mut zi = Vec::new();
        let mut zw = Vec::new();
        for (_, _, m) in all.iter().filter(|(_, _, m)| (m.target_selectivity - s).abs() < 1e-9) {
            let f = |num: Duration, den: Duration| num.as_secs_f64() / den.as_secs_f64().max(1e-9);
            si.push(f(m.time.scan, m.time.imprints));
            sw.push(f(m.time.scan, m.time.wah));
            zi.push(f(m.time.zonemap, m.time.imprints));
            zw.push(f(m.time.zonemap, m.time.wah));
        }
        let cell = |v: &mut Vec<f64>| {
            let max = v.iter().copied().fold(f64::MIN, f64::max);
            format!("{:.2} ({:.0})", median(v), max)
        };
        t.row(vec![format!("{s:.2}"), cell(&mut si), cell(&mut sw), cell(&mut zi), cell(&mut zw)]);
    }
    t.print();
    cfg.save(&t, "fig10");
}

/// Figure 11: normalized index probes and value comparisons for queries of
/// selectivity 0.4–0.5, over column entropy.
pub fn fig11(cfg: &ExpConfig) {
    let mut t = Table::new(
        "Figure 11: probes & comparisons per row (selectivity 0.4–0.5)",
        &[
            "E",
            "probes imprints",
            "probes zonemap",
            "probes wah",
            "cmp imprints",
            "cmp zonemap",
            "cmp wah",
        ],
    );
    let rows = cfg.rows;
    let mut lines = Vec::new();
    for (i, chaos) in entropy_sweep::chaos_ladder(9).into_iter().enumerate() {
        let col: Column<i64> = Column::from(entropy_sweep::entropy_dial(
            rows,
            1 << 20,
            chaos,
            cfg.seed + 101 + i as u64,
        ));
        let (set, _) = runner::build_all(&col);
        let e = column_entropy(&set.imprints);
        // Queries at selectivity 0.45 (the paper's 0.4–0.5 band).
        let mut sorted: Vec<i64> = col.values().to_vec();
        sorted.sort_unstable();
        let span = (rows as f64 * 0.45) as usize;
        let start = rows / 4;
        let pred = colstore::RangePredicate::between(sorted[start], sorted[start + span - 1]);
        let m = runner::measure_query(&col, &set, &pred);
        let n = col.len();
        lines.push((
            e,
            m.stats.imprints.probes_per_row(n),
            m.stats.zonemap.probes_per_row(n),
            m.stats.wah.probes_per_row(n),
            m.stats.imprints.comparisons_per_row(n),
            m.stats.zonemap.comparisons_per_row(n),
            m.stats.wah.comparisons_per_row(n),
        ));
    }
    lines.sort_by(|a, b| a.0.total_cmp(&b.0));
    for (e, pi, pz, pw, ci, cz, cw) in lines {
        t.row(vec![
            format!("{e:.3}"),
            format!("{pi:.5}"),
            format!("{pz:.5}"),
            format!("{pw:.5}"),
            format!("{ci:.5}"),
            format!("{cz:.5}"),
            format!("{cw:.5}"),
        ]);
    }
    t.print();
    cfg.save(&t, "fig11");
}

/// Engine throughput: queries per second over a big clustered column,
/// sweeping morsel-parallelism (worker count) and client concurrency
/// against the single-threaded monolithic-index baseline.
///
/// Uses `cfg.rows` as-is; the CLI defaults this experiment to 10M rows
/// when `--rows` is not given, so the scaling claim is measured at
/// serving scale.
pub fn throughput(cfg: &ExpConfig) {
    throughput_with_rows(cfg, cfg.rows);
}

/// [`throughput`] with an explicit row count (used small in tests).
pub fn throughput_with_rows(cfg: &ExpConfig, rows: usize) {
    use colstore::relation::AnyColumn;
    use colstore::{ColumnType, RangeIndex, RangePredicate, Value};
    use imprints_engine::{BatchQuery, EngineConfig, Table as EngineTable, ValueRange, WorkerPool};
    use std::time::Instant;

    let queries = 64usize;
    let domain = 1 << 20;
    println!("[throughput] generating {rows} clustered rows…");
    let values = datagen::entropy_sweep::entropy_dial(rows, domain, 0.05, cfg.seed);

    println!("[throughput] building monolithic baseline index…");
    let col: Column<i64> = Column::from(values.clone());
    let mono = ColumnImprints::build(&col);

    println!("[throughput] loading engine table…");
    let ecfg = EngineConfig { segment_rows: 1 << 16, workers: 1, ..Default::default() };
    let table =
        std::sync::Arc::new(EngineTable::new("tp", &[("v", ColumnType::I64)], ecfg).unwrap());
    let t_load = Instant::now();
    for chunk in values.chunks(1 << 20) {
        table.append_batch(vec![AnyColumn::I64(chunk.iter().copied().collect())]).unwrap();
    }
    let load_s = t_load.elapsed().as_secs_f64();
    println!(
        "[throughput] {} rows in {} segments, loaded+indexed in {:.2}s ({:.1}M rows/s)",
        table.row_count(),
        table.sealed_segment_count(),
        load_s,
        rows as f64 / load_s / 1e6
    );

    // ~1%-selectivity ranges spread over the domain.
    let preds: Vec<(i64, i64)> = (0..queries)
        .map(|q| {
            let lo = (q as i64 * 7919) % domain;
            (lo, lo + domain / 100)
        })
        .collect();

    let mut t = Table::new(
        "Engine throughput: QPS vs workers (64 queries, ~1% selectivity)",
        &["configuration", "time/query (ms)", "QPS", "speedup vs 1-thread engine"],
    );

    let time_qps = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        (dt / queries as f64 * 1e3, queries as f64 / dt)
    };

    // Monolithic single-threaded baseline.
    let (ms, qps_mono) = time_qps(&mut || {
        for &(lo, hi) in &preds {
            let _ = mono.evaluate(&col, &RangePredicate::between(lo, hi));
        }
    });
    t.row(vec![
        "monolithic imprints (1 thread)".into(),
        format!("{ms:.3}"),
        format!("{qps_mono:.1}"),
        "-".into(),
    ]);

    // Engine, serial.
    let (ms, qps_serial) = time_qps(&mut || {
        for &(lo, hi) in &preds {
            let _ =
                table.query(&[("v", ValueRange::between(Value::I64(lo), Value::I64(hi)))]).unwrap();
        }
    });
    t.row(vec![
        "engine serial".into(),
        format!("{ms:.3}"),
        format!("{qps_serial:.1}"),
        "1.00".into(),
    ]);

    // Morsel parallelism sweep.
    let max_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    for workers in [1usize, 2, 4, 8, 16] {
        if workers > max_workers * 2 {
            break;
        }
        let pool = WorkerPool::new(workers);
        let (ms, qps) = time_qps(&mut || {
            for &(lo, hi) in &preds {
                let range = ValueRange::between(Value::I64(lo), Value::I64(hi));
                let _ = table
                    .query_one(&BatchQuery::ids(vec![("v".into(), range)]), Some(&pool))
                    .unwrap();
            }
        });
        t.row(vec![
            format!("engine {workers} workers (morsel)"),
            format!("{ms:.3}"),
            format!("{qps:.1}"),
            format!("{:.2}", qps / qps_serial),
        ]);
    }

    // Client concurrency: independent serial queries in parallel threads.
    for clients in [2usize, 4, 8] {
        if clients > max_workers * 2 {
            break;
        }
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let table = std::sync::Arc::clone(&table);
                let preds = &preds;
                s.spawn(move || {
                    for &(lo, hi) in preds.iter().skip(c % 7) {
                        let _ = table
                            .query(&[("v", ValueRange::between(Value::I64(lo), Value::I64(hi)))])
                            .unwrap();
                    }
                });
            }
        });
        let dt = t0.elapsed().as_secs_f64();
        let total_q: usize = (0..clients).map(|c| queries - (c % 7)).sum();
        let qps = total_q as f64 / dt;
        t.row(vec![
            format!("engine {clients} clients (inter-query)"),
            format!("{:.3}", dt / total_q as f64 * 1e3),
            format!("{qps:.1}"),
            format!("{:.2}", qps / qps_serial),
        ]);
    }

    t.print();
    cfg.save(&t, "throughput");
}

/// Tiered segment compaction on a trickle-append workload: many small
/// sealed segments accumulate, the maintenance loop merges them tier by
/// tier, and the table's sealed-segment count, index footprint and query
/// latency are recorded before, during and after. Query results are
/// asserted byte-identical across every phase — compaction is purely a
/// physical reorganization.
pub fn compaction(cfg: &ExpConfig) {
    compaction_with_rows(cfg, cfg.rows);
}

/// [`compaction`] with an explicit row count (used small in tests).
pub fn compaction_with_rows(cfg: &ExpConfig, rows: usize) {
    use colstore::relation::AnyColumn;
    use colstore::{ColumnType, IdList, Value};
    use imprints_engine::{maintenance_tick, Catalog, EngineConfig, MaintenanceConfig, ValueRange};
    use std::time::Instant;

    // Small segments so trickle appends seal many of them; a per-tick byte
    // budget so the "during" phases show the tiers climbing instead of one
    // tick finishing everything.
    let segment_rows = 1024usize;
    let domain = 1 << 20;
    let ecfg = EngineConfig {
        segment_rows,
        workers: 1,
        maintenance: MaintenanceConfig {
            tier_fanin: 4,
            max_segment_rows: 1 << 20,
            compaction_budget_bytes: (rows * 8) / 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let catalog = Catalog::new();
    let table = catalog.create_table("trickle", &[("v", ColumnType::I64)], ecfg).unwrap();

    println!("[compaction] trickle-appending {rows} clustered rows (batches of ~700)…");
    let values = datagen::entropy_sweep::entropy_dial(rows, domain, 0.2, cfg.seed);
    let t_load = Instant::now();
    for chunk in values.chunks(700) {
        table.append_batch(vec![AnyColumn::I64(chunk.iter().copied().collect())]).unwrap();
    }
    println!(
        "[compaction] loaded in {:.2}s → {} sealed segments of {segment_rows} rows",
        t_load.elapsed().as_secs_f64(),
        table.sealed_segment_count()
    );

    // A fixed query mix (~1% selectivity, spread over the domain) measured
    // identically in every phase; results must never change.
    let preds: Vec<ValueRange> = (0..48)
        .map(|q| {
            let lo = (q as i64 * 7919 * 131) % domain;
            ValueRange::between(Value::I64(lo), Value::I64(lo + domain / 100))
        })
        .collect();
    let measure = |phase: &str, out: &mut Table| {
        let mut times_us: Vec<f64> = Vec::with_capacity(preds.len());
        let mut results: Vec<IdList> = Vec::with_capacity(preds.len());
        for range in &preds {
            let t0 = Instant::now();
            let ids = table.query(&[("v", *range)]).unwrap();
            times_us.push(t0.elapsed().as_secs_f64() * 1e6);
            results.push(ids);
        }
        let stats = catalog.storage_stats();
        out.row(vec![
            phase.to_string(),
            stats.sealed_segments.to_string(),
            fmt_bytes(stats.index_bytes),
            format!("{:.1}", median(&mut times_us)),
        ]);
        results
    };

    let mut t = Table::new(
        "Compaction: sealed segments, index bytes, query latency per phase",
        &["phase", "sealed segments", "index bytes", "median query µs"],
    );
    let baseline = measure("before", &mut t);

    let mut ticks = 0usize;
    let mut merges = 0usize;
    let mut input_bytes = 0usize;
    loop {
        let report = maintenance_tick(&catalog);
        // Converge on *compaction*: the tick may also keep applying
        // fp-triggered index rebuilds (the measurement queries themselves
        // re-accumulate that signal), so `is_idle` is the wrong exit here.
        if report.compacted.is_empty() {
            break;
        }
        ticks += 1;
        merges += report.compacted.len();
        input_bytes += report.compaction_bytes;
        let phase = format!("during (tick {ticks})");
        let results = measure(&phase, &mut t);
        assert_eq!(results, baseline, "compaction changed query results mid-flight");
        assert!(ticks < 1024, "tiered compaction failed to converge");
    }
    let after = measure("after", &mut t);
    assert_eq!(after, baseline, "compaction changed query results");

    t.print();
    println!(
        "[compaction] {merges} merges over {ticks} ticks consumed {} of input; \
         results byte-identical across all phases",
        fmt_bytes(input_bytes)
    );
    cfg.save(&t, "compaction");
}

/// Write-head indexing on an append-heavy workload: an append stream with
/// a drifting (time-series-like) domain leaves the open segment half full,
/// and narrow-range queries target the hot head. A tail-indexed table is
/// raced against the linear-scan baseline (tail indexing disabled); query
/// results are asserted byte-identical to the whole-column oracle in every
/// round, and at serving scale (≥ 32Ki open rows) the tail imprint must
/// cut the median head-query latency at least in half.
pub fn writehead(cfg: &ExpConfig) {
    writehead_with_rows(cfg, cfg.rows);
}

/// [`writehead`] with an explicit row count (used small in smoke tests;
/// the latency claim is only asserted once the open head holds ≥ 32Ki
/// rows, since a tiny head has nothing to skip).
pub fn writehead_with_rows(cfg: &ExpConfig, rows: usize) {
    use colstore::relation::AnyColumn;
    use colstore::{ColumnType, Value};
    use imprints_engine::{
        maintenance_tick, BatchAnswer, BatchQuery, Catalog, EngineConfig, ValueRange,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    // A *young* append-hot table: a few sealed segments and a large,
    // exactly half-full open head — the regime where the write head
    // dominates query cost (a long-lived many-segment table is the
    // `compaction` experiment's subject). Sizing keeps total appended
    // rows ≈ `rows`.
    let sealed_target = 4usize;
    let segment_rows = (rows * 2 / 9).clamp(192, 1 << 18) / 64 * 64;
    let total_rows = sealed_target * segment_rows + segment_rows / 2;
    let open_rows = segment_rows / 2;

    // An append stream whose domain drifts upward (values track position,
    // ±256 noise): the paper's "new data with different value
    // distribution" appends, and the reason head queries are *hot* —
    // recent ranges live in the open segment.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let values: Vec<i64> = (0..total_rows).map(|i| i as i64 + rng.gen_range(-256..256)).collect();

    let table_cfg = |tail_min: usize| EngineConfig {
        segment_rows,
        workers: 1,
        tail_index_min_rows: tail_min,
        ..Default::default()
    };
    let tail_min = 1024.min(open_rows);
    println!(
        "[writehead] {total_rows} rows → {sealed_target} sealed segments of {segment_rows} \
         + a half-full open head of {open_rows} rows (tail engages at {tail_min})"
    );
    let catalog = Catalog::new();
    let schema = [("v", ColumnType::I64)];
    let indexed = catalog.create_table("wh_tail", &schema, table_cfg(tail_min)).unwrap();
    let scanned = catalog.create_table("wh_scan", &schema, table_cfg(usize::MAX)).unwrap();
    // Trickle-append (odd batch sizes exercise the incremental extend).
    for t in [&indexed, &scanned] {
        for chunk in values.chunks(733) {
            t.append_batch(vec![AnyColumn::I64(chunk.iter().copied().collect())]).unwrap();
        }
        assert_eq!(t.sealed_segment_count(), sealed_target);
        assert_eq!(t.row_count(), total_rows as u64);
    }
    // Each seal inherited the first segment's binning, which the drifting
    // domain overflows; let maintenance re-bin (and tier) the sealed
    // segments as a deployment would, so they are cleanly skippable and
    // the measurement isolates the head.
    while !maintenance_tick(&catalog).is_idle() {}

    // Narrow ranges spread over the hot head's value domain.
    let queries = 48usize;
    let open_base = (sealed_target * segment_rows) as i64;
    let preds: Vec<ValueRange> = (0..queries)
        .map(|q| {
            let center = open_base + (q * open_rows / queries) as i64;
            ValueRange::between(Value::I64(center - 128), Value::I64(center + 128))
        })
        .collect();

    // One whole-column oracle per predicate (data and predicates are
    // fixed, so there is nothing to recompute per round).
    let oracles: Vec<Vec<u64>> = preds
        .iter()
        .map(|range| {
            let (lo, hi) = match (range.low, range.high) {
                (Some(Value::I64(lo)), Some(Value::I64(hi))) => (lo, hi),
                _ => unreachable!("writehead predicates are closed i64 ranges"),
            };
            values
                .iter()
                .enumerate()
                .filter(|(_, v)| (lo..=hi).contains(*v))
                .map(|(i, _)| i as u64)
                .collect()
        })
        .collect();

    let rounds = cfg.rounds.max(2);
    let mut scan_us: Vec<f64> = Vec::with_capacity(queries * rounds);
    let mut tail_us: Vec<f64> = Vec::with_capacity(queries * rounds);
    let mut tail_cmp = 0u64;
    let mut scan_cmp = 0u64;
    for _ in 0..rounds {
        for (range, oracle) in preds.iter().zip(&oracles) {
            let q = BatchQuery::ids(vec![("v".into(), *range)]);
            let t0 = Instant::now();
            let (ids_s, st_s) = scanned.query_one(&q, None).unwrap();
            scan_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            let (ids_t, st_t) = indexed.query_one(&q, None).unwrap();
            tail_us.push(t0.elapsed().as_secs_f64() * 1e6);
            assert!(st_t.tail_indexed, "the indexed head must answer through its tail imprint");
            assert!(!st_s.tail_indexed);
            scan_cmp += st_s.tail_access.value_comparisons;
            tail_cmp += st_t.tail_access.value_comparisons;
            // Byte-identical to each other and to the whole-column oracle.
            assert_eq!(ids_t, ids_s, "tail-indexed head changed query results");
            let expect = BatchAnswer::Ids(oracle.iter().copied().collect());
            assert_eq!(ids_t, expect, "results must match the oracle");
        }
    }

    let scan_med = median(&mut scan_us);
    let tail_med = median(&mut tail_us);
    let per_query = |total: u64| total as f64 / (queries * rounds) as f64;
    let mut t = Table::new(
        "Write head: narrow hot-head queries, linear scan vs tail imprint",
        &["head path", "open rows", "median query µs", "head cmp/query", "speedup"],
    );
    t.row(vec![
        "linear scan".into(),
        open_rows.to_string(),
        format!("{scan_med:.1}"),
        format!("{:.0}", per_query(scan_cmp)),
        "1.00".into(),
    ]);
    t.row(vec![
        "tail imprint".into(),
        open_rows.to_string(),
        format!("{tail_med:.1}"),
        format!("{:.0}", per_query(tail_cmp)),
        format!("{:.2}", scan_med / tail_med.max(1e-9)),
    ]);
    t.print();
    println!(
        "[writehead] results byte-identical to the whole-column oracle across \
         {queries}×{rounds} queries"
    );
    if open_rows >= 32 * 1024 {
        assert!(
            tail_med * 2.0 <= scan_med,
            "tail imprint must at least halve the median hot-head latency \
             (scan {scan_med:.1}µs vs tail {tail_med:.1}µs)"
        );
    }
    cfg.save(&t, "writehead");
}

/// SWAR vs scalar false-positive refinement: the residual cost of
/// Algorithm 3 measured in isolation. For each column shape
/// (clustered / uniform random / low-cardinality, across lane widths)
/// and each predicate selectivity class (narrow / mid / wide), the
/// imprint's candidate set is computed once and then refined repeatedly
/// under both kernels; every refinement is asserted byte-identical to its
/// scalar twin *and* to the brute-force oracle, and the per-class median
/// speedup is reported. At full scale the run asserts the checked-line-
/// heavy bucket — narrow predicates over the uniform-random and
/// low-cardinality columns, where imprints prune little and nearly every
/// candidate line needs the value check — at a ≥1.5× median speedup.
pub fn refine(cfg: &ExpConfig) {
    refine_with_rows(cfg, cfg.rows);
}

/// [`refine`] with an explicit row count (used small in smoke tests; the
/// speedup claim arms at ≥ 200Ki rows, below which candidate sets are too
/// small for stable timing).
pub fn refine_with_rows(cfg: &ExpConfig, rows: usize) {
    use imprints::simd::RefineKernel;
    use imprints::{query, ImprintStats, PredicateKernel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;

    let mut rng = StdRng::seed_from_u64(cfg.seed);

    /// One benchmarked column with its three selectivity-class predicates,
    /// type-erased so all lane widths share the measurement loop.
    struct Case {
        column: &'static str,
        /// `true` = part of the checked-line-heavy workload the speedup
        /// claim is asserted on (imprints prune little, most candidate
        /// lines take the value check).
        heavy: bool,
        run: Box<dyn Fn(&'static str, usize) -> RefineRow>,
    }

    struct RefineRow {
        class: &'static str,
        candidate_values: u64,
        matches: u64,
        scalar_us: f64,
        swar_us: f64,
    }

    const CLASSES: [&str; 3] = ["narrow", "mid", "wide"];

    /// Builds the measurement closure for one typed column: class `c`
    /// (0/1/2) refines the imprint candidate set of the matching predicate
    /// `rounds + 1` times per kernel (first pass warm-up), returning
    /// median times. Panics if any refinement deviates from the oracle or
    /// the sibling kernel.
    fn typed_case<T: colstore::Scalar>(
        values: Vec<T>,
        preds: [colstore::RangePredicate<T>; 3],
        rounds: usize,
    ) -> Box<dyn Fn(&'static str, usize) -> RefineRow> {
        let col: Column<T> = Column::from(values);
        let idx = ColumnImprints::build(&col);
        Box::new(move |class: &'static str, c: usize| {
            let pred = &preds[c];
            let oracle: Vec<u64> = col
                .values()
                .iter()
                .enumerate()
                .filter(|(_, v)| pred.matches(v))
                .map(|(i, _)| i as u64)
                .collect();
            let (cands, _) = query::candidate_id_ranges(&idx, pred);
            let candidate_values: u64 = cands.runs().map(|r| r.end - r.start).sum();
            let mut scalar_samples = Vec::with_capacity(rounds);
            let mut swar_samples = Vec::with_capacity(rounds);
            for round in 0..=rounds {
                let mut st = ImprintStats::default();
                let t0 = Instant::now();
                let scalar = PredicateKernel::with_kernel(pred, RefineKernel::Scalar);
                let ids_s = query::refine(&col, &scalar, &cands, &mut st);
                let t_s = t0.elapsed().as_secs_f64() * 1e6;
                let mut st = ImprintStats::default();
                let t0 = Instant::now();
                let swar = PredicateKernel::with_kernel(pred, RefineKernel::Swar);
                let ids_v = query::refine(&col, &swar, &cands, &mut st);
                let t_v = t0.elapsed().as_secs_f64() * 1e6;
                assert_eq!(
                    ids_s.as_slice(),
                    oracle.as_slice(),
                    "scalar refine deviated from the oracle ({class})"
                );
                assert_eq!(ids_s, ids_v, "SWAR refine deviated from the scalar kernel ({class})");
                if round > 0 {
                    scalar_samples.push(t_s);
                    swar_samples.push(t_v);
                }
            }
            RefineRow {
                class,
                candidate_values,
                matches: oracle.len() as u64,
                scalar_us: median(&mut scalar_samples),
                swar_us: median(&mut swar_samples),
            }
        })
    }

    // Predicate spans per class: ~1% / ~10% / ~50% of the value domain.
    let spans = |domain: i64| -> [(i64, i64); 3] {
        let mid = domain / 2;
        [
            (mid, mid + domain / 100),
            (mid - domain / 20, mid + domain / 20),
            (domain / 4, 3 * domain / 4),
        ]
    };

    let rounds = cfg.rounds.max(3);
    let domain = 1_000_000i64;
    let i32_preds = |s: [(i64, i64); 3]| {
        s.map(|(lo, hi)| colstore::RangePredicate::between(lo as i32, hi as i32))
    };
    let clustered: Vec<i32> = (0..rows).map(|i| (i as i64 * domain / rows as i64) as i32).collect();
    let random_i32: Vec<i32> = (0..rows).map(|_| rng.gen_range(0..domain) as i32).collect();
    let random_f64: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..domain as f64)).collect();
    // Low cardinality: 8 distinct values, uniformly shuffled — every
    // cacheline holds every value, so zero lines skip and the whole
    // column is candidate lines (the checked-line-heavy extreme).
    let lowcard: Vec<u8> = (0..rows).map(|_| rng.gen_range(0u32..8) as u8).collect();

    let cases = [
        Case {
            column: "clustered i32",
            heavy: false,
            run: typed_case(clustered, i32_preds(spans(domain)), rounds),
        },
        Case {
            column: "random i32",
            heavy: true,
            run: typed_case(random_i32, i32_preds(spans(domain)), rounds),
        },
        Case {
            column: "lowcard u8",
            heavy: true,
            run: typed_case(
                lowcard,
                [
                    colstore::RangePredicate::equals(3u8),
                    colstore::RangePredicate::between(2u8, 3),
                    colstore::RangePredicate::between(2u8, 5),
                ],
                rounds,
            ),
        },
        Case {
            column: "random f64",
            heavy: true,
            run: typed_case(
                random_f64,
                spans(domain)
                    .map(|(lo, hi)| colstore::RangePredicate::between(lo as f64, hi as f64)),
                rounds,
            ),
        },
    ];

    println!(
        "[refine] {rows} rows/column, {rounds} measured rounds per kernel, \
         candidates fixed per (column, class)"
    );
    let mut t = Table::new(
        "Refinement kernel: scalar loop vs u64-word SWAR over imprint candidates",
        &["column", "class", "cand values", "matches", "scalar µs", "swar µs", "speedup"],
    );
    let mut heavy_narrow_speedups: Vec<f64> = Vec::new();
    for case in &cases {
        for (c, class) in CLASSES.into_iter().enumerate() {
            let row = (case.run)(class, c);
            let speedup = row.scalar_us / row.swar_us.max(1e-9);
            if case.heavy && c == 0 {
                heavy_narrow_speedups.push(speedup);
            }
            t.row(vec![
                case.column.to_string(),
                row.class.to_string(),
                row.candidate_values.to_string(),
                row.matches.to_string(),
                format!("{:.1}", row.scalar_us),
                format!("{:.1}", row.swar_us),
                format!("{speedup:.2}"),
            ]);
        }
    }
    t.print();
    println!(
        "[refine] every refinement byte-identical to the scalar kernel and the \
         brute-force oracle"
    );
    if rows >= 200_000 {
        let mut s = heavy_narrow_speedups.clone();
        let med = median(&mut s);
        assert!(
            med >= 1.5,
            "SWAR must be ≥1.5× the scalar kernel on the checked-line-heavy narrow \
             workload (median {med:.2} from {heavy_narrow_speedups:?})"
        );
    }
    cfg.save(&t, "refine");
}

/// Serving QPS under open-loop network load: clients send on a fixed
/// schedule regardless of completions (so queueing shows up as latency or
/// sheds, not as a slowed-down load generator), sweeping the client count
/// into the thousands against the real TCP front-end. Reports p50/p99/p999
/// of completed requests and the shed rate, for the batched shared-morsel
/// dispatcher vs request-at-a-time dispatch on the same connection mix.
pub fn qps(cfg: &ExpConfig) {
    qps_with_rows(cfg, cfg.rows);
}

/// [`qps`] with an explicit row count (used small in tests/CI smoke).
pub fn qps_with_rows(cfg: &ExpConfig, rows: usize) {
    use colstore::relation::AnyColumn;
    use colstore::ColumnType;
    use imprints_engine::{Engine, EngineConfig};
    use imprints_server::{Reply, Server, ServerConfig};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    // The full sweep arms at serving scale; the smoke keeps CI honest.
    let full = rows >= 200_000;
    let client_sweep: &[usize] = if full { &[64, 512, 2048] } else { &[2, 4] };
    let per_client_rate = if full { 25.0f64 } else { 50.0 };
    let requests_per_client = if full { 100usize } else { 12 };

    println!("[qps] generating {rows} clustered rows…");
    let domain = 1i64 << 20;
    let values = entropy_sweep::entropy_dial(rows, domain, 0.05, cfg.seed);
    let engine =
        Arc::new(Engine::new(EngineConfig { segment_rows: 1 << 16, ..Default::default() }));
    let table = engine.create_table("qps", &[("v", ColumnType::I64)]).unwrap();
    for chunk in values.chunks(1 << 20) {
        table.append_batch(vec![AnyColumn::I64(chunk.iter().copied().collect())]).unwrap();
    }
    println!(
        "[qps] {} rows in {} segments; open-loop {per_client_rate:.0} req/s per client, \
         {requests_per_client} requests each",
        table.row_count(),
        table.sealed_segment_count()
    );

    struct Outcome {
        offered: usize,
        ok: usize,
        shed: usize,
        elapsed: f64,
        latencies_us: Vec<u64>,
    }

    // One sweep point: `clients` connections, each with a sender thread
    // pacing tagged requests on the open-loop schedule and a receiver
    // thread matching replies back to their send instants.
    let run_point = |server_cfg: ServerConfig, clients: usize| -> Outcome {
        let server = Server::start(Arc::clone(&engine), server_cfg).expect("start server");
        let addr = server.local_addr();
        // Connect in staggered waves — thousands of simultaneous SYNs
        // overflow the listener's accept backlog and the kernel resets the
        // excess — then release every sender at once off a barrier so the
        // measured open-loop phase starts aligned.
        let ready = Arc::new(std::sync::Barrier::new(clients));
        let t0 = Instant::now();
        let results: Vec<(Vec<u64>, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let ready = Arc::clone(&ready);
                    s.spawn(move || {
                        use std::io::{BufRead, BufReader, Write};
                        std::thread::sleep(Duration::from_millis((c as u64 / 64) * 5));
                        let stream = std::net::TcpStream::connect(addr).expect("connect");
                        ready.wait();
                        stream.set_nodelay(true).expect("nodelay");
                        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
                        let mut write_half = stream.try_clone().expect("socket clone");
                        let sent: Arc<Mutex<Vec<Instant>>> =
                            Arc::new(Mutex::new(Vec::with_capacity(requests_per_client)));
                        let (mut lats, mut shed) = (Vec::new(), 0usize);
                        // Sender paces the open-loop schedule; this thread
                        // consumes replies concurrently, so a measured
                        // latency is send→response, not send→whenever the
                        // load generator got around to reading.
                        std::thread::scope(|inner| {
                            let sent_tx = Arc::clone(&sent);
                            inner.spawn(move || {
                                let start = Instant::now();
                                for k in 0..requests_per_client {
                                    let target =
                                        start + Duration::from_secs_f64(k as f64 / per_client_rate);
                                    let now = Instant::now();
                                    if now < target {
                                        std::thread::sleep(target - now);
                                    }
                                    // ~0.1% count + pinpoint query mix over
                                    // the clustered domain.
                                    let lo = ((c * 7919 + k * 104729) as i64) % domain;
                                    let body = if k % 2 == 0 {
                                        format!("COUNT qps v={lo}..{}", lo + domain / 5000)
                                    } else {
                                        format!("QUERY qps v={lo}..{}", lo + 16)
                                    };
                                    let line = format!("#t{k} {body}\n");
                                    sent_tx.lock().unwrap().push(Instant::now());
                                    if write_half.write_all(line.as_bytes()).is_err() {
                                        break;
                                    }
                                }
                            });
                            let mut reader = BufReader::new(stream);
                            let mut line = String::new();
                            for _ in 0..requests_per_client {
                                line.clear();
                                match reader.read_line(&mut line) {
                                    Ok(0) => panic!("client {c} lost a reply: connection closed"),
                                    Err(e) => panic!("client {c} lost a reply: {e}"),
                                    Ok(_) => {}
                                }
                                let (tag, reply) = imprints_server::parse_reply(line.trim_end())
                                    .expect("parse reply");
                                let tag = tag.expect("tagged reply");
                                let k: usize = tag[1..].parse().expect("sequential tag");
                                match reply {
                                    Reply::Busy => shed += 1,
                                    Reply::Err(e) => panic!("server error: {e}"),
                                    _ok => {
                                        let dt = sent.lock().unwrap()[k].elapsed();
                                        lats.push(dt.as_micros() as u64);
                                    }
                                }
                            }
                        });
                        (lats, shed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        drop(server);
        let mut latencies_us: Vec<u64> = Vec::new();
        let mut shed = 0usize;
        for (lats, s) in results {
            latencies_us.extend(lats);
            shed += s;
        }
        latencies_us.sort_unstable();
        Outcome {
            offered: clients * requests_per_client,
            ok: latencies_us.len(),
            shed,
            elapsed,
            latencies_us,
        }
    };

    let pctl = |sorted: &[u64], q: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    };

    let mut t = Table::new(
        "Serving QPS: open-loop clients vs the line-protocol server",
        &[
            "dispatch",
            "clients",
            "offered",
            "completed",
            "shed",
            "shed %",
            "QPS",
            "p50 µs",
            "p99 µs",
            "p999 µs",
        ],
    );
    let mut goodput: Vec<(&str, usize, usize)> = Vec::new();
    for &clients in client_sweep {
        for (mode, batch_max, tick_us) in [("batched", 128usize, 500u64), ("one-at-a-time", 1, 0)] {
            let scfg = ServerConfig {
                queue_depth: 1024,
                batch_max,
                batch_tick: Duration::from_micros(tick_us),
                ..ServerConfig::from_engine(engine.config())
            };
            let o = run_point(scfg, clients);
            assert_eq!(o.ok + o.shed, o.offered, "every request must be answered");
            goodput.push((mode, clients, o.ok));
            t.row(vec![
                mode.to_string(),
                clients.to_string(),
                o.offered.to_string(),
                o.ok.to_string(),
                o.shed.to_string(),
                format!("{:.1}", 100.0 * o.shed as f64 / o.offered as f64),
                format!("{:.0}", o.ok as f64 / o.elapsed),
                pctl(&o.latencies_us, 0.50).to_string(),
                pctl(&o.latencies_us, 0.99).to_string(),
                pctl(&o.latencies_us, 0.999).to_string(),
            ]);
        }
    }
    t.print();
    if full {
        let top = client_sweep[client_sweep.len() - 1];
        let ok_of = |mode: &str| {
            goodput.iter().find(|(m, c, _)| *m == mode && *c == top).map(|(_, _, ok)| *ok).unwrap()
        };
        let (batched, single) = (ok_of("batched"), ok_of("one-at-a-time"));
        println!(
            "[qps] at {top} clients: batched dispatch completed {batched} vs {single} \
             request-at-a-time ({:.2}×)",
            batched as f64 / single.max(1) as f64
        );
        assert!(
            batched >= single,
            "shared-morsel batching must not lose to request-at-a-time dispatch \
             ({batched} vs {single} completed at {top} clients)"
        );
    }
    cfg.save(&t, "qps");
}

/// Restart recovery and imprint-resident cold eviction: a durable table
/// is sealed to disk, "killed", and reopened both ways — reading the
/// persisted indexes back (data stays evicted) and rebuilding every
/// index from the column data — with the answers asserted byte-identical
/// to the pre-shutdown oracle. The eviction claim rides along: after the
/// fast reopen, a fully-covered COUNT must be answered by the resident
/// imprints with zero data bytes faulted from disk, while an
/// id-materializing query faults data back in and still matches.
pub fn recovery(cfg: &ExpConfig) {
    recovery_with_rows(cfg, cfg.rows);
}

/// [`recovery`] with an explicit row count (used small in CI).
pub fn recovery_with_rows(cfg: &ExpConfig, rows: usize) {
    use colstore::relation::AnyColumn;
    use colstore::{ColumnType, IdList, Value};
    use imprints_engine::{Engine, EngineConfig, StorageOptions, ValueRange};
    use std::time::Instant;

    let root = std::env::temp_dir().join(format!("imprints_bench_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let domain = 1i64 << 20;
    let ecfg = |load_indexes: bool| EngineConfig {
        segment_rows: 1 << 14,
        workers: 1,
        storage: StorageOptions { root: Some(root.clone()), load_indexes, ..Default::default() },
        ..Default::default()
    };

    println!("[recovery] sealing {rows} clustered rows to {}…", root.display());
    let values = entropy_sweep::entropy_dial(rows, domain, 0.2, cfg.seed);
    let engine = Engine::new(ecfg(true));
    let table = engine.create_table("t", &[("v", ColumnType::I64)]).unwrap();
    let t_load = Instant::now();
    table.append_batch(vec![AnyColumn::I64(values.into_iter().collect())]).unwrap();
    engine.flush();
    let load_s = t_load.elapsed().as_secs_f64();
    let total_rows = table.row_count();

    let preds: Vec<ValueRange> = (0..32)
        .map(|q| {
            let lo = (q as i64 * 7919 * 131) % domain;
            ValueRange::between(Value::I64(lo), Value::I64(lo + domain / 100))
        })
        .collect();
    let measure = |engine: &Engine| -> (Vec<IdList>, f64) {
        let mut times_us: Vec<f64> = Vec::with_capacity(preds.len());
        let results = preds
            .iter()
            .map(|range| {
                let t0 = Instant::now();
                let ids = engine.query("t", &[("v", *range)]).unwrap();
                times_us.push(t0.elapsed().as_secs_f64() * 1e6);
                ids
            })
            .collect();
        (results, median(&mut times_us))
    };
    let (oracle, before_us) = measure(&engine);
    let stats = engine.catalog().storage_stats();
    println!(
        "[recovery] loaded in {load_s:.2}s → {} sealed segments, {} data, {} indexes",
        stats.sealed_segments,
        fmt_bytes(stats.data_bytes_resident + stats.data_bytes_evicted),
        fmt_bytes(stats.index_bytes),
    );
    drop(engine);

    let mut t = Table::new(
        "Recovery: reopen wall time and answer fidelity per restart path",
        &[
            "path",
            "open ms",
            "idx recovered",
            "idx rebuilt",
            "resident",
            "evicted",
            "median query µs",
        ],
    );
    t.row(vec![
        "before shutdown".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        fmt_bytes(stats.data_bytes_resident),
        fmt_bytes(stats.data_bytes_evicted),
        format!("{before_us:.1}"),
    ]);

    // Fast path: indexes read back, data left evicted on disk.
    let t0 = Instant::now();
    let (engine, report) = Engine::open(ecfg(true)).unwrap();
    let open_fast_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.rows, total_rows, "recovery lost rows");
    assert!(report.indexes_rebuilt == 0, "clean restart must not rebuild");
    // Snapshot the post-open residency before any query faults data in:
    // the fast path leaves everything evicted behind resident imprints.
    let s = engine.catalog().storage_stats();
    assert_eq!(s.data_bytes_resident, 0, "fast restart must leave data evicted");

    // The eviction claim, on the freshly recovered (all-evicted) engine:
    // a fully-covered COUNT is answered by imprints alone.
    let n = engine
        .count("t", &[("v", ValueRange::between(Value::I64(i64::MIN), Value::I64(i64::MAX)))])
        .unwrap();
    assert_eq!(n, total_rows);
    let faulted = engine.catalog().storage_stats().faulted_bytes;
    assert_eq!(faulted, 0, "imprint-covered count must fault zero data bytes");
    let (fast, fast_us) = measure(&engine);
    assert_eq!(fast, oracle, "fast-path recovery changed query answers");
    let faulted = engine.catalog().storage_stats().faulted_bytes;
    assert!(faulted > 0, "id-materializing queries must fault data back in");
    t.row(vec![
        "recover indexes".into(),
        format!("{open_fast_ms:.1}"),
        report.indexes_recovered.to_string(),
        report.indexes_rebuilt.to_string(),
        fmt_bytes(s.data_bytes_resident),
        fmt_bytes(s.data_bytes_evicted),
        format!("{fast_us:.1}"),
    ]);
    drop(engine);

    // Rebuild baseline: indexes ignored, everything rebuilt from data.
    let t0 = Instant::now();
    let (engine, report) = Engine::open(ecfg(false)).unwrap();
    let open_rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(report.indexes_recovered == 0);
    assert!(report.indexes_rebuilt > 0);
    let (rebuilt, rebuild_us) = measure(&engine);
    assert_eq!(rebuilt, oracle, "rebuild-path recovery changed query answers");
    let s = engine.catalog().storage_stats();
    t.row(vec![
        "rebuild from data".into(),
        format!("{open_rebuild_ms:.1}"),
        report.indexes_recovered.to_string(),
        report.indexes_rebuilt.to_string(),
        fmt_bytes(s.data_bytes_resident),
        fmt_bytes(s.data_bytes_evicted),
        format!("{rebuild_us:.1}"),
    ]);
    drop(engine);

    t.print();
    println!(
        "[recovery] open: {open_fast_ms:.1}ms recovering indexes vs {open_rebuild_ms:.1}ms \
         rebuilding ({:.2}×); answers byte-identical on both paths; {} faulted for refinement",
        open_rebuild_ms / open_fast_ms.max(1e-9),
        fmt_bytes(faulted as usize),
    );
    cfg.save(&t, "recovery");
    let _ = std::fs::remove_dir_all(&root);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            rows: 20_000,
            rounds: 1,
            seed: 7,
            out_dir: std::env::temp_dir().join("imprints_bench_test_out"),
        }
    }

    #[test]
    fn unknown_experiment_rejected() {
        assert!(!run("fig99", &tiny_cfg()));
    }

    #[test]
    fn recovery_runs_small() {
        let cfg = ExpConfig { rows: 12_000, ..tiny_cfg() };
        assert!(run("recovery", &cfg));
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn table1_and_fig4_run_small() {
        let cfg = tiny_cfg();
        assert!(run("table1", &cfg));
        assert!(run("fig4", &cfg));
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn throughput_runs_small() {
        let cfg = tiny_cfg();
        throughput_with_rows(&cfg, 30_000);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn compaction_runs_small_and_verifies_results() {
        // The experiment itself asserts results stay byte-identical across
        // every compaction phase, so completing is the correctness check.
        let cfg = tiny_cfg();
        compaction_with_rows(&cfg, 12_000);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn writehead_runs_small_and_verifies_results() {
        // The experiment asserts tail-indexed results byte-identical to
        // the whole-column oracle on every query, so completing is the
        // correctness check; the latency claim only arms at ≥32Ki open
        // rows, far above this smoke size.
        let cfg = tiny_cfg();
        writehead_with_rows(&cfg, 20_000);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn qps_runs_small_and_answers_everything() {
        // The experiment asserts completed + shed == offered on every
        // sweep point — nothing hangs, nothing is silently dropped. The
        // batched-beats-single goodput claim arms at ≥200Ki rows.
        let cfg = tiny_cfg();
        qps_with_rows(&cfg, 20_000);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn refine_runs_small_and_verifies_results() {
        // The experiment asserts every refinement byte-identical to the
        // scalar kernel and the brute-force oracle, so completing is the
        // correctness check; the ≥1.5× speedup claim arms at ≥200Ki rows.
        let cfg = tiny_cfg();
        refine_with_rows(&cfg, 20_000);
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn fig8_runs_small_and_cross_validates() {
        // run_workload panics on any index disagreement, so completing is
        // itself a correctness check across all generated datasets.
        let cfg = ExpConfig { rows: 8_000, ..tiny_cfg() };
        assert!(run("fig8", &cfg));
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }
}
