//! Result documents: the run header, the ledger document, the driver's
//! one-line result and the table a person reads.

use std::process::Command;

use crate::json::Json;
use crate::Options;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// What a reader needs to place the numbers: the commit, the box, the
/// toolchain, the inputs, the refinement kernel in effect. The resolved
/// engine and server configurations are per workload, in its record.
fn header(opts: &Options, kernel: &str) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || "unknown".to_string();
    Json::obj(vec![
        ("git_sha", Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown))),
        // Uncommitted changes on top of that commit: a ledger written before
        // its own commit exists names the parent and says `true` here.
        (
            "git_dirty",
            command_line("git", &["status", "--porcelain"])
                .map_or(Json::Null, |s| Json::Bool(!s.is_empty())),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown))),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("warmup_seconds", Json::Num(opts.warmup_s())),
        ("smoke", Json::Bool(opts.smoke)),
        ("refine_kernel", Json::str(kernel)),
    ])
}

/// The whole document: header, one record per workload, and no claim —
/// the change that defines the benchmark measures, it does not compare.
pub fn document(opts: &Options, kernel: &str, records: &[(String, Json)]) -> Json {
    Json::obj(vec![
        ("benchmark", Json::str("imprints-benchmark")),
        ("header", header(opts, kernel)),
        ("workloads", Json::Obj(records.to_vec())),
        ("claim", Json::Null),
    ])
}

/// The driver's result: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding the end-to-end table without tracing and
/// the per-layer table with it.
pub fn result_line(record: &Json, trace: bool) -> Result<Json, String> {
    let table = if trace { "per_layer" } else { "end_to_end" };
    let field = |k: &str| record.get(k).cloned().ok_or_else(|| format!("record has no {k}"));
    Ok(Json::obj(vec![
        ("correct", field("correct")?),
        ("attempted", field("attempted")?),
        ("failed", field("failed")?),
        ("metrics", field(table)?),
    ]))
}

/// Every metric by name and unit, one per line, before the result line.
pub fn print_human(name: &str, record: &Json) {
    let num = |k: &str| record.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "workload {name}: attempted {} failed {} samples {} rows {}",
        num("attempted"),
        num("failed"),
        num("samples"),
        num("rows")
    );
    if let Some(why) = record.get("first_failure").and_then(Json::as_str) {
        println!("  first failure: {why}");
    }
    for table in ["end_to_end", "per_layer"] {
        let Some(metrics) = record.get(table).and_then(Json::as_obj) else { continue };
        println!("  {table}:");
        for (metric, v) in metrics {
            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("    {metric:<40} {value:>16.4} {unit}");
        }
    }
}
