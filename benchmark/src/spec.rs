//! The benchmark's declared contract: workload names, and every metric by
//! name, unit and the workloads it is measured on. The root
//! `BENCHMARK.json` repeats the names and units and alone holds each
//! metric's direction and bound; a test keeps the two in step.

use std::collections::BTreeMap;

use crate::json::Json;

pub const WIRE_SMALL: &str = "wire_small";
pub const PROBE_CLUSTERED: &str = "probe_clustered";
pub const WIDE_IDS: &str = "wide_ids";
pub const REFINE_RANDOM: &str = "refine_random";
pub const INGEST_RESTART: &str = "ingest_restart";

/// `(name, why)` — the `why` is the one line `BENCHMARK.json` carries; the
/// paragraphs are in the README.
pub const WORKLOADS: [(&str, &str); 5] = [
    (WIRE_SMALL, "256Ki-row table: engine work is tens of us, so the server's dispatch path is most of the latency"),
    (PROBE_CLUSTERED, "the same requests on 2M clustered rows: the imprint probe pass and per-segment fan-out dominate"),
    (WIDE_IDS, "~10,000-id replies (0.5% of rows): id materialisation, merge, reply formatting and the socket write dominate"),
    (REFINE_RANDOM, "two-column counts on uniform data, 32 in flight: refinement kernel, fused plan and batching dominate"),
    (INGEST_RESTART, "durable appends beside reads under a resident-data budget, then flush and reopen"),
];

/// `--seconds` when not given; equals `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

/// Where a metric is measured. Out of scope it is reported as 0, because
/// the driver wants every name on every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    All,
    /// The four bulk-loaded, read-only workloads.
    Bulk,
    /// `ingest_restart` only.
    Ingest,
}

impl Scope {
    pub fn covers(self, workload: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Bulk => workload != INGEST_RESTART,
            Scope::Ingest => workload == INGEST_RESTART,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub scope: Scope,
}

const fn m(name: &'static str, unit: &'static str, scope: Scope) -> MetricDef {
    MetricDef { name, unit, scope }
}

use Scope::{All, Bulk, Ingest};

/// What a user of the server sees. Each is measured on every workload and
/// is never 0.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", All),
    m("qps", "1/s", All),
    m("p50_us", "us", All),
    m("index_bytes_per_row", "B/row", All),
    m("peak_rss_mb", "MiB", All),
];

/// Single layers, from the traced pass and the calls around it.
pub const PER_LAYER: &[MetricDef] = &[
    // Demoted from the end-to-end table: 0 on a healthy run, not
    // repeatable within a bound on the reference box, or measured on one
    // workload only (see README, "Demoted metrics").
    m("fail_ratio", "ratio", All),
    m("p99_us", "us", All),
    m("append_p50_us", "us", Ingest),
    m("seal_stall_us", "us", Ingest),
    m("recover_s", "s", Ingest),
    m("disk_bytes_per_row", "B/row", Ingest),
    // The traced request: one real round trip, then the same request
    // replayed through the public calls the server composes.
    m("trace.wire_p50_us", "us", All),
    m("trace.overhead_ratio", "ratio", All),
    m("server.dispatch_us", "us", All),
    m("server.parse_ns", "ns", All),
    m("server.bind_ns", "ns", All),
    m("engine.query_batch_us", "us", All),
    m("server.format_us", "us", All),
    m("client.parse_reply_us", "us", All),
    // server
    m("server.ping_rtt_us", "us", All),
    m("server.format_ns_per_id", "ns/id", All),
    m("server.admission_roundtrip_ns", "ns", All),
    m("server.batch_fill", "req/batch", All),
    m("server.shed_ratio", "ratio", All),
    // engine: the read path
    m("engine.query_serial_us", "us", All),
    m("engine.scatter_speedup", "x", All),
    m("engine.batch16_us_per_query", "us", All),
    m("engine.probes_per_row", "1/row", All),
    m("engine.comparisons_per_row", "1/row", All),
    m("engine.lines_skipped_ratio", "ratio", All),
    m("engine.segments_per_query", "count", All),
    m("engine.ids_per_query", "count", All),
    m("engine.tail_indexed_ratio", "ratio", All),
    m("engine.path_share.imprint", "ratio", All),
    m("engine.path_share.zonemap", "ratio", All),
    m("engine.path_share.scan", "ratio", All),
    m("engine.load_rows_per_s", "rows/s", All),
    // engine: ingest, maintenance, residency, restart
    m("engine.append_us", "us", Ingest),
    m("engine.append_p99_us", "us", Ingest),
    m("engine.seal_us", "us", Ingest),
    m("engine.maintenance_tick_us", "us", Ingest),
    m("engine.compactions", "count", Ingest),
    m("engine.rebuilds", "count", Ingest),
    m("engine.evicted_segments", "count", Ingest),
    m("engine.compaction_bytes_per_user_byte", "ratio", Ingest),
    m("engine.head_query_us", "us", Ingest),
    m("engine.cold_query_us", "us", Ingest),
    m("engine.covered_count_us", "us", Ingest),
    m("engine.faulted_bytes", "B", Ingest),
    m("engine.data_bytes_resident", "B", Ingest),
    m("engine.data_bytes_evicted", "B", Ingest),
    m("engine.persist_errors", "count", Ingest),
    m("engine.flush_s", "s", Ingest),
    m("engine.open_s", "s", Ingest),
    m("engine.open_rebuild_s", "s", Ingest),
    // core: the whole queried column, unsegmented — the paper's shape
    m("core.build_ns_per_row", "ns/row", All),
    m("core.index_bits_per_row", "bits/row", All),
    m("core.entropy", "ratio", All),
    m("core.query_us", "us", All),
    m("core.probes_per_row", "1/row", All),
    m("core.comparisons_per_row", "1/row", All),
    m("core.lines_skipped_ratio", "ratio", All),
    m("core.refine_gbps", "GB/s", All),
    m("core.refine_scalar_gbps", "GB/s", All),
    m("roofline.stream_gbps", "GB/s", All),
    // baselines: the rivals each access path must beat somewhere
    m("baselines.scan_us", "us", All),
    m("baselines.zonemap_us", "us", All),
    m("baselines.wah_us", "us", Bulk),
    // host: CPU time the hypervisor gave to other guests during the
    // measured phase, as a share of what the box has; explains outliers
    m("host.steal_ratio", "ratio", All),
];

/// Measured values of one metric table for one workload.
#[derive(Debug)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics { defs, values: BTreeMap::new() }
    }

    /// Records `value` under a declared name; an undeclared name or a
    /// second value is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in spec.rs"));
        assert!(self.values.insert(def.name, value).is_none(), "metric {name:?} set twice");
    }

    /// `{name: {"value", "unit"}}` in declaration order. A name in scope
    /// for `workload` without a finite value is an error; out of scope it
    /// reads 0.
    pub fn to_json(&self, workload: &str) -> Result<Json, String> {
        let mut fields = Vec::with_capacity(self.defs.len());
        for d in self.defs {
            let value = match self.values.get(d.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {} is {v} on {workload}", d.name)),
                None if d.scope.covers(workload) => {
                    return Err(format!("metric {} was not measured on {workload}", d.name))
                }
                None => 0.0,
            };
            fields.push((
                d.name,
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            ));
        }
        Ok(Json::obj(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "name {:?}", d.name);
            assert!(unit_ok(d.unit), "unit {:?} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} declared twice", d.name);
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "workload {name:?}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(!name_ok("µs") && !name_ok(".x") && !name_ok("a b") && name_ok("a.b-c_9"));
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_declared_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS as f64));
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let declared: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(listed, declared);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = doc.get(key).and_then(Json::as_arr).unwrap();
            let listed: Vec<(String, String)> =
                entries.iter().map(|e| (field(e, "name"), field(e, "unit"))).collect();
            let declared: Vec<(String, String)> =
                defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect();
            assert_eq!(listed, declared, "{key}");
            for e in entries {
                assert!(matches!(field(e, "better").as_str(), "lower" | "higher"));
            }
        }
        for e in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = e.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", field(e, "name"));
        }
        let setup = &doc.get("end_to_end").and_then(Json::as_arr).unwrap()[0];
        let setup = (field(setup, "name"), field(setup, "unit"), field(setup, "better"));
        assert_eq!(setup, ("setup_s".into(), "s".into(), "lower".into()));
    }

    #[test]
    fn out_of_scope_reads_zero_and_a_missing_value_is_an_error() {
        let mut ms = Metrics::new(PER_LAYER);
        for d in PER_LAYER.iter().filter(|d| d.scope.covers(WIRE_SMALL)) {
            ms.set(d.name, 1.5);
        }
        let j = ms.to_json(WIRE_SMALL).unwrap();
        assert_eq!(j.get("recover_s").unwrap().get("value").unwrap().as_f64(), Some(0.0));
        assert_eq!(j.get("core.entropy").unwrap().get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(j.as_obj().unwrap().len(), PER_LAYER.len());
        assert!(ms.to_json(INGEST_RESTART).unwrap_err().contains("not measured"));
    }
}
