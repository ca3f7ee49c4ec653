//! `benchmark compare <a.json[,a2.json,..]> <b.json[,b2.json,..]>`: per
//! workload and end-to-end metric, how much worse side `b`'s median is than
//! side `a`'s, as a share of `a`'s, against the bound `BENCHMARK.json` fixes
//! for that metric.
//!
//! Each side is one or more ledger documents of the same code. On the
//! reference box two runs of the same binary can differ by more than a
//! bound, so one run a side decides little: with several, the medians are
//! compared, and a metric whose runs on either side spread wider than its
//! bound is reported as **unresolved**, neither as unchanged nor as worse.

use std::path::Path;

use crate::json::Json;
use crate::stats::{iqr_share, median};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The documents of one side: paths separated by commas.
fn load_side(paths: &str) -> Result<Vec<Json>, String> {
    paths.split(',').map(|p| load(Path::new(p))).collect()
}

fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let entries = spec.get("end_to_end").and_then(Json::as_arr).ok_or("spec has no end_to_end")?;
    entries
        .iter()
        .map(|e| {
            let text = |k: &str| e.get(k).and_then(Json::as_str).ok_or(format!("entry lacks {k}"));
            Ok(Bound {
                name: text("name")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: e.get("bound").and_then(Json::as_f64).ok_or("entry lacks bound")?,
            })
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { b - a } else { a - b };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Within,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Beyond,
    /// The runs of one side differ among themselves by more than the bound,
    /// so their medians cannot show a difference of that size.
    Unresolved,
}

/// One workload × metric comparison.
struct Row {
    label: String,
    /// Median over each side's runs.
    a: f64,
    b: f64,
    /// How much worse `b` is, as a share of `a`.
    worse: f64,
    /// The wider of the two sides' interquartile ranges, as a share of the
    /// side's median; `None` with one run a side.
    spread: Option<f64>,
    bound: f64,
}

impl Row {
    fn verdict(&self) -> Verdict {
        if self.spread.is_some_and(|s| s > self.bound) {
            Verdict::Unresolved
        } else if self.worse > self.bound {
            Verdict::Beyond
        } else {
            Verdict::Within
        }
    }
}

/// One side's values of `workload.metric`, one per document.
fn values(side: &[Json], name: &str, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    side.iter()
        .map(|doc| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|r| r.get("end_to_end"))
                .and_then(|t| t.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("a document of side {name} lacks {workload}.{metric}"))
        })
        .collect()
}

/// One row per workload of `a`'s first document × metric; `Err` names what
/// is missing.
fn rows(a: &[Json], b: &[Json], bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let workloads = a
        .first()
        .and_then(|doc| doc.get("workloads"))
        .and_then(Json::as_obj)
        .ok_or("side a has no workloads")?;
    let mut out = Vec::new();
    for (workload, _) in workloads {
        for bound in bounds {
            let mut va = values(a, "a", workload, &bound.name)?;
            let mut vb = values(b, "b", workload, &bound.name)?;
            let spread = match (iqr_share(&mut va), iqr_share(&mut vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let (a, b) = (median(&mut va), median(&mut vb));
            out.push(Row {
                label: format!("{workload}.{}", bound.name),
                a,
                b,
                worse: worsening(a, b, bound.lower_is_better),
                spread,
                bound: bound.bound,
            });
        }
    }
    Ok(out)
}

/// Prints the table. The exit code is 0 when every row is within its bound,
/// 1 when any is beyond it, and 3 when none is beyond but some are
/// unresolved.
pub fn run(args: &[String]) -> Result<u8, String> {
    let mut sides = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            _ => sides.push(arg),
        }
    }
    let [a, b] = sides.as_slice() else {
        return Err("usage: benchmark compare <a.json[,a2.json,..]> <b.json[,b2.json,..]> \
                    [--spec BENCHMARK.json]"
            .into());
    };
    let bounds = bounds(&load(Path::new(&spec_path))?)?;
    let (a, b) = (load_side(a)?, load_side(b)?);
    let rows = rows(&a, &b, &bounds)?;
    println!("medians of {} run(s) of a and {} of b", a.len(), b.len());
    println!(
        "{:<36} {:>14} {:>14} {:>9} {:>8} {:>6}",
        "workload.metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in &rows {
        let spread = r.spread.map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0));
        let verdict = match r.verdict() {
            Verdict::Within => "ok",
            Verdict::Beyond => "BEYOND BOUND",
            Verdict::Unresolved => "UNRESOLVED (spread beyond bound)",
        };
        println!(
            "{:<36} {:>14.4} {:>14.4} {:>8.1}% {:>8} {:>5.0}%  {verdict}",
            r.label,
            r.a,
            r.b,
            r.worse * 100.0,
            spread,
            r.bound * 100.0
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict() == v).count();
    let (beyond, unresolved) = (count(Verdict::Beyond), count(Verdict::Unresolved));
    println!("{} rows: {beyond} beyond their bound, {unresolved} unresolved", rows.len());
    if a.len() == 1 && b.len() == 1 {
        println!("one run a side: the spread is unknown, so \"ok\" may be chance");
    }
    Ok(match (beyond, unresolved) {
        (0, 0) => 0,
        (0, _) => 3,
        _ => 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(qps: f64, p50: f64) -> Json {
        let metric = |v: f64| Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str("x"))]);
        let record = Json::obj(vec![(
            "end_to_end",
            Json::obj(vec![("qps", metric(qps)), ("p50_us", metric(p50))]),
        )]);
        Json::obj(vec![("workloads", Json::obj(vec![("w", record)]))])
    }

    fn spec() -> Vec<Bound> {
        let entry = |name: &str, better: &str| {
            Json::obj(vec![
                ("name", Json::str(name)),
                ("unit", Json::str("x")),
                ("better", Json::str(better)),
                ("bound", Json::Num(0.1)),
            ])
        };
        let spec = Json::obj(vec![(
            "end_to_end",
            Json::Arr(vec![entry("qps", "higher"), entry("p50_us", "lower")]),
        )]);
        bounds(&spec).unwrap()
    }

    fn verdicts(a: &[Json], b: &[Json]) -> Vec<Verdict> {
        rows(a, b, &spec()).unwrap().iter().map(Row::verdict).collect()
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        use Verdict::{Beyond, Within};
        let a = [doc(1000.0, 200.0)];
        assert_eq!(verdicts(&a, &[doc(1000.0, 200.0)]), [Within, Within]);
        // 5% fewer requests and 5% slower: inside a 10% bound.
        assert_eq!(verdicts(&a, &[doc(950.0, 210.0)]), [Within, Within]);
        // Throughput down 20% fails; latency down 20% is a gain.
        assert_eq!(verdicts(&a, &[doc(800.0, 160.0)]), [Beyond, Within]);
        // Throughput up 20% is a gain; latency up 20% fails.
        assert_eq!(verdicts(&a, &[doc(1200.0, 240.0)]), [Within, Beyond]);
        let empty = Json::obj(vec![("workloads", Json::obj::<&str>(vec![]))]);
        assert!(rows(&a, &[empty], &spec()).is_err());
    }

    #[test]
    fn several_runs_compare_medians_and_a_wide_spread_is_unresolved() {
        use Verdict::{Beyond, Unresolved, Within};
        let side = |runs: &[(f64, f64)]| -> Vec<Json> {
            runs.iter().map(|&(qps, p50)| doc(qps, p50)).collect()
        };
        // One slow run of three does not move b's median.
        let a = side(&[(1000.0, 200.0), (1010.0, 199.0), (990.0, 201.0)]);
        let b = side(&[(1005.0, 200.0), (940.0, 212.0), (995.0, 202.0)]);
        assert_eq!(verdicts(&a, &b), [Within, Within]);
        // A steady side 20% slower is beyond the bound.
        let slow = side(&[(800.0, 250.0), (805.0, 248.0), (795.0, 252.0)]);
        assert_eq!(verdicts(&a, &slow), [Beyond, Beyond]);
        // b's throughput runs span 30% of their median: whatever the medians
        // say, a 10% difference cannot be told from them.
        let wild = side(&[(1000.0, 200.0), (700.0, 203.0), (850.0, 198.0)]);
        let r = rows(&a, &wild, &spec()).unwrap();
        assert_eq!(r[0].verdict(), Unresolved);
        assert!(r[0].worse > 0.1, "the medians alone would have said beyond");
        assert_eq!(r[1].verdict(), Within);
        // Python's statistics.quantiles(n=4) on three values gives the
        // extremes, so the spread is their range over the median.
        assert!((r[0].spread.unwrap() - 300.0 / 850.0).abs() < 1e-12);
        assert_eq!(rows(&a[..1], &b[..1], &spec()).unwrap()[0].spread, None);
    }
}
