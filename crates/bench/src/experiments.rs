//! The experiment runners — one per table/figure of §6.
//!
//! Absolute numbers differ from the paper (different hardware, scaled
//! synthetic data); the *shapes* — who wins, by what factor, where the
//! crossovers sit — are the reproduction target.

use std::path::PathBuf;
use std::time::Duration;

use colstore::relation::AnyColumn;
use colstore::{dispatch, Column};
use datagen::datasets::{self, DatasetFamily, GeneratedColumn};
use datagen::entropy_sweep;
use datagen::workload::QueryWorkload;
use imprints::{column_entropy, ColumnImprints};

use crate::report::{fmt_bytes, fmt_duration, median, Table};
use crate::runner::{self, PerIndex, QueryMeasurement};

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
pub const ALL_EXPERIMENTS: [&str; 10] =
    ["table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"];

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
        let (render, entropy) = dispatch!(AnyColumn(c) = &gc.column => {
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
            let e =
                dispatch!(AnyColumn(c) = &gc.column => column_entropy(&ColumnImprints::build(c)));
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
        let (sizes, times) = dispatch!(AnyColumn(c) = &gc.column => {
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
            let sizes = dispatch!(AnyColumn(c) = &gc.column => runner::build_all(c).0.sizes());
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
        let ms = dispatch!(AnyColumn(c) = &gc.column => {
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
    fn table1_and_fig4_run_small() {
        let cfg = tiny_cfg();
        assert!(run("table1", &cfg));
        assert!(run("fig4", &cfg));
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
