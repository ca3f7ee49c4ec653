//! The repository's benchmark: five workloads driven over the wire against
//! the real server, every reply checked against a brute-force oracle, and
//! an outside-in layer trace. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds N] [--trace 0|1]
//!           [--smoke] [--scratch DIR] [--out FILE] [--trace-out FILE]
//! benchmark compare <a.json[,a2.json,..]> <b.json[,b2.json,..]> [--spec BENCHMARK.json]
//! ```

mod bulk;
mod compare;
mod ingest;
mod json;
mod report;
mod spec;
mod stats;
mod surface;
mod trace;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use spec::Metrics;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// The measured phase.
    pub seconds: f64,
    /// Whether the traced pass runs and the per-layer table is printed.
    pub trace: bool,
    /// Rows / 64, 1-s phases, thin p99 windows allowed.
    pub smoke: bool,
    pub scratch: PathBuf,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            workload: "all".into(),
            seed: 2013,
            seconds: spec::RUN_SECONDS as f64,
            trace: true,
            smoke: false,
            // Inside the directory the command runs in: the driver's
            // checkout is the only place the benchmark may write.
            scratch: PathBuf::from(".bench_scratch"),
            out: None,
            trace_out: None,
        }
    }
}

impl Options {
    /// The unmeasured phase before the measured one, so that the path and
    /// plan choosers converge. Part of the procedure, not a setting.
    pub fn warmup_s(&self) -> f64 {
        if self.smoke {
            1.0
        } else {
            3.0
        }
    }
}

/// What a workload run reports besides its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub samples: usize,
    pub info: Vec<(&'static str, Json)>,
}

impl Outcome {
    fn from_load(load: wire::Load) -> Outcome {
        Outcome {
            attempted: load.attempted,
            failed: load.failed,
            first_failure: load.first_failure,
            samples: load.samples.len(),
            info: Vec::new(),
        }
    }

    fn absorb(&mut self, checked: trace::Checked) {
        self.attempted += checked.attempted;
        self.failed += checked.failed;
        self.first_failure = self.first_failure.take().or(checked.first_failure);
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Resets `VmHWM` to the current resident size where the kernel allows it,
/// so the peak is the system's and not the oracle's. Elsewhere the peak
/// simply includes the oracle, identically on every run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A per-process directory under `--scratch`, removed on drop — so also
/// when a panic unwinds through `main`.
struct Scratch {
    dir: PathBuf,
    parent: PathBuf,
}

impl Scratch {
    fn create(parent: &Path, workload: &str) -> Result<Scratch, String> {
        let dir = parent.join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch {}: {e}", dir.display()))?;
        Ok(Scratch { dir, parent: parent.to_path_buf() })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Only succeeds when no sibling run is using the parent.
        let _ = std::fs::remove_dir(&self.parent);
    }
}

/// Runs one workload in this process and returns its record: the driver's
/// result keys plus both metric tables as far as they were measured.
fn run_workload(opts: &Options) -> Result<Json, String> {
    let scratch = Scratch::create(&opts.scratch, &opts.workload)?;
    let mut e2e = Metrics::new(spec::END_TO_END);
    let mut layer = Metrics::new(spec::PER_LAYER);
    let mut tracer = None;
    let outcome = if opts.workload == spec::INGEST_RESTART {
        ingest::run(opts, &scratch.dir, &mut e2e, &mut layer, &mut tracer)?
    } else {
        bulk::run(opts, &mut e2e, &mut layer, &mut tracer)?
    };
    drop(scratch);
    layer.set("fail_ratio", outcome.failed as f64 / outcome.attempted.max(1) as f64);
    if let (Some(path), Some(tracer)) = (&opts.trace_out, &tracer) {
        tracer.write(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut fields = vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("samples", Json::Num(outcome.samples as f64)),
    ];
    if let Some(why) = &outcome.first_failure {
        fields.push(("first_failure", Json::str(why.as_str())));
    }
    fields.extend(outcome.info);
    fields.push(("end_to_end", e2e.to_json(&opts.workload)?));
    if opts.trace {
        fields.push(("per_layer", layer.to_json(&opts.workload)?));
        if let Some(t) = &tracer {
            let traced = t.spans.iter().filter(|s| s.name == "wire").count();
            fields.push(("traced_requests", Json::Num(traced as f64)));
        }
    }
    Ok(Json::obj(fields))
}

/// `--workload all`: one child process per workload, sequentially, so that
/// each has its own peak RSS and none inherits another's warmed state.
fn run_all(opts: &Options) -> Result<Vec<(String, Json)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scratch = Scratch::create(&opts.scratch, "all")?;
    let mut records = Vec::new();
    for (name, _) in spec::WORKLOADS {
        let out = scratch.dir.join(format!("{name}.json"));
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--trace", "1"])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .arg("--scratch")
            .arg(&opts.scratch)
            .arg("--out")
            .arg(&out);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = &opts.trace_out {
            cmd.arg("--trace-out").arg(path.with_extension(format!("{name}.json")));
        }
        eprintln!("[benchmark] running {name}");
        let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
        if !status.success() {
            return Err(format!("workload {name} exited with {status}"));
        }
        let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let doc = Json::parse(&text)?;
        let record = doc
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("{name}: child wrote no record"))?;
        records.push((name.to_string(), record.clone()));
    }
    Ok(records)
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: benchmark --workload <{}|all> [--seed N] [--seconds N] [--trace 0|1] \
         [--smoke] [--scratch DIR] [--out FILE] [--trace-out FILE]\n       \
         benchmark compare <a.json[,a2.json,..]> <b.json[,b2.json,..]> [--spec BENCHMARK.json]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value\n{}", usage()));
        let number = |v: &String| v.parse::<f64>().map_err(|_| format!("{arg}: bad number {v:?}"));
        match arg.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => {
                opts.seed =
                    value()?.parse().map_err(|_| "--seed: not a whole number".to_string())?
            }
            "--seconds" => opts.seconds = number(value()?)?,
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--scratch" => opts.scratch = PathBuf::from(value()?),
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {arg:?}\n{}", usage())),
        }
    }
    if opts.smoke {
        opts.seconds = 1.0;
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let known = spec::WORKLOADS.iter().any(|(n, _)| *n == opts.workload);
    if !known && opts.workload != "all" {
        return Err(format!("unknown workload {:?}\n{}", opts.workload, usage()));
    }
    Ok(opts)
}

/// Runs the command line and returns the exit code: 0 when every reply was
/// right and 1 when not; for `compare`, see [`compare::run`].
fn run(args: &[String]) -> Result<u8, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return compare::run(&args[1..]);
    }
    let opts = parse_args(args)?;
    let (kernel, forced) = surface::refine_kernel();
    if forced && opts.out.is_some() {
        return Err(format!(
            "IMPRINTS_REFINE_KERNEL forces the {kernel} kernel; refusing to write a ledger"
        ));
    }
    let records = if opts.workload == "all" {
        run_all(&opts)?
    } else {
        vec![(opts.workload.clone(), run_workload(&opts)?)]
    };
    let correct = records.iter().all(|(_, r)| r.get("correct") == Some(&Json::Bool(true)));
    let all = opts.workload == "all";
    if all || opts.out.is_some() {
        let doc = report::document(&opts, kernel, &records);
        if let Some(path) = &opts.out {
            std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        if all {
            print!("{}", doc.pretty());
        }
    }
    if !all {
        let (name, record) = &records[0];
        report::print_human(name, record);
        // The driver reads the last line of standard output.
        println!("{}", report::result_line(record, opts.trace)?.compact());
    }
    if !correct {
        eprintln!("[benchmark] FAILED: wrong, refused or broken replies (see above)");
    }
    Ok(u8::from(!correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("[benchmark] error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let o = parse_args(&args("--workload wide_ids --seed 7 --seconds 12 --trace 0")).unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.seconds, o.trace), ("wide_ids", 7, 12.0, false));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds")).is_err());
        let smoke = parse_args(&args("--workload all --smoke")).unwrap();
        assert_eq!((smoke.seconds, smoke.warmup_s()), (1.0, 1.0));
        assert_eq!(o.warmup_s(), 3.0);
        assert!(parse_args(&args("--workload all --warmup 1")).is_err());
    }

    /// One smoke run per workload: every declared name present, every reply
    /// correct. Run one after another: they time themselves.
    #[test]
    fn smoke_runs_report_every_declared_metric_and_no_failure() {
        let scratch =
            std::env::temp_dir().join(format!("imprints-bench-test-{}", std::process::id()));
        for (name, _) in spec::WORKLOADS {
            let opts = Options {
                workload: name.to_string(),
                smoke: true,
                seconds: 1.0,
                scratch: scratch.clone(),
                ..Options::default()
            };
            let record = run_workload(&opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(record.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert_eq!(record.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
            for (key, defs) in [("end_to_end", spec::END_TO_END), ("per_layer", spec::PER_LAYER)] {
                let table = record.get(key).unwrap_or_else(|| panic!("{name}: no {key}"));
                for d in defs {
                    let v = table.get(d.name).and_then(|m| m.get("value")).and_then(Json::as_f64);
                    assert!(v.is_some(), "{name}: {} missing", d.name);
                    // A smoke table can be smaller than one segment, and then
                    // nothing was sealed and indexed.
                    if key == "end_to_end" && d.name != "index_bytes_per_row" {
                        assert!(v.unwrap() > 0.0, "{name}: {} is {v:?}", d.name);
                    }
                }
            }
            let fail_ratio = record.get("per_layer").unwrap().get("fail_ratio").unwrap();
            assert_eq!(fail_ratio.get("value").and_then(Json::as_f64), Some(0.0), "{name}");
            for trace in [false, true] {
                let line = report::result_line(&record, trace).unwrap();
                let reparsed = Json::parse(&line.compact()).unwrap();
                let keys: Vec<&str> =
                    reparsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let n = if trace { spec::PER_LAYER.len() } else { spec::END_TO_END.len() };
                assert_eq!(reparsed.get("metrics").unwrap().as_obj().unwrap().len(), n);
            }
        }
        assert!(!scratch.exists(), "scratch was not removed");
    }
}
