//! The traced pass: per-layer numbers taken from outside the program, by
//! timing calls into each layer's public functions. It runs after the
//! measured phase, single-threaded, so the end-to-end metrics are measured
//! with tracing off.
//!
//! Each traced request is one real round trip (span `wire`) followed by the
//! same request replayed in-process through the calls the server composes
//! (span `replay` and its children). What the round trip took beyond the
//! replay is the server's dispatch path: admission wait, batch linger,
//! thread hand-offs and the socket.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::spec::Metrics;
use crate::stats::median;
use crate::surface::{self, Answer, Conn, Db, IntScalar, WholeColumn, Work};
use crate::workloads::{Expected, Req};

/// Requests traced when time allows.
pub const TRACE_REQUESTS: usize = 512;
/// One traced request in this many also runs without the worker pool.
const SERIAL_EVERY: usize = 4;
/// Predicates run against the whole-column indexes.
const LAYER_PREDICATES: usize = 32;

/// One timed interval. `parent` indexes the span that caused it; spans of
/// one request share `req`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u32,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans are kept in memory and written out when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `close` stamps its end.
    fn open(&mut self, name: &'static str, parent: Option<u32>, req: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a child span.
    fn child<R>(&mut self, name: &'static str, parent: u32, req: u32, f: impl FnOnce() -> R) -> R {
        let span = self.open(name, Some(parent), req);
        let r = f();
        self.close(span);
        r
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// Per request, a span's self time: its duration minus what its child
    /// spans cover. Here only `wire` is asked, whose cover is the replay of
    /// the same request.
    fn uncovered_us(&self, outer: &str, inner: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == outer)
            .filter_map(|o| {
                let i = self.spans.iter().find(|s| s.name == inner && s.req == o.req)?;
                Some(o.us() - i.us())
            })
            .collect()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                    ("req", Json::Num(f64::from(s.req))),
                ])
            })
            .collect();
        std::fs::write(path, Json::Arr(spans).pretty())
    }
}

/// Failures the traced pass saw; they count like wire failures.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checked {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }
}

/// Traces up to [`TRACE_REQUESTS`] of `reqs` (stopping early, but not
/// before 16, once `budget` is spent) and records the span-derived layer
/// metrics. `untraced_p50_us` is the measured phase's wire median.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    db: &Db,
    addr: SocketAddr,
    reqs: &[Req],
    expected: &[Expected],
    budget: Duration,
    untraced_p50_us: f64,
    layer: &mut Metrics,
    checked: &mut Checked,
) -> Result<Tracer, String> {
    let started = Instant::now();
    let mut conn = Conn::connect(addr).map_err(|e| format!("trace connect: {e}"))?;
    let mut tracer = Tracer::new();
    let mut work: Vec<Work> = Vec::new();
    let mut result_sizes: Vec<f64> = Vec::new();
    let mut serial_us: Vec<f64> = Vec::new();
    let mut bound_for_batch = Vec::new();

    for (i, (req, exp)) in reqs.iter().zip(expected).take(TRACE_REQUESTS).enumerate() {
        if i >= 16 && started.elapsed() > budget {
            break;
        }
        let id = i as u32;
        let line = format!("#{i} {}", req.line());

        let wire = tracer.open("wire", None, id);
        conn.send(&line).map_err(|e| format!("trace send: {e}"))?;
        let reply = conn.recv().map_err(|e| format!("trace recv: {e}"))?;
        tracer.close(wire);
        let decoded = reply.decode(req.count_only);
        checked.check(exp.matches(&decoded), || format!("traced wire {line:?}: {decoded:?}"));

        let replay = tracer.open("replay", None, id);
        let parsed =
            tracer.child("server.parse", replay, id, || surface::parse_request_line(&line));
        let bound = tracer.child("server.bind", replay, id, || db.bind(&parsed));
        let (answer, stats) =
            tracer.child("engine.query_batch", replay, id, || db.execute(&bound, true));
        let formatted = tracer.child("server.format", replay, id, || {
            surface::format_reply(parsed.tag.as_deref(), &answer)
        });
        let reparsed = tracer
            .child("client.parse_reply", replay, id, || surface::parse_reply_line(&formatted));
        tracer.close(replay);
        std::hint::black_box(&reparsed);
        checked.check(exp.matches_answer(&answer), || format!("replayed {line:?}"));

        work.push(Work::from(&stats));
        result_sizes.push(match &answer {
            Answer::Ids(ids) => ids.len() as f64,
            Answer::Count(n) => *n as f64,
        });
        // Every fourth request again without the pool, for the scatter's
        // worth.
        if i.is_multiple_of(SERIAL_EVERY) {
            let t0 = Instant::now();
            std::hint::black_box(db.execute(&bound, false));
            serial_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        if bound_for_batch.len() < 16 {
            bound_for_batch.push(bound);
        }
    }

    let med = |name: &str| median(&mut tracer.durations_us(name));
    let wire_p50 = med("wire");
    layer.set("trace.wire_p50_us", wire_p50);
    layer.set("trace.overhead_ratio", wire_p50 / untraced_p50_us.max(1e-9));
    layer.set("server.dispatch_us", median(&mut tracer.uncovered_us("wire", "replay")));
    layer.set("server.parse_ns", med("server.parse") * 1e3);
    layer.set("server.bind_ns", med("server.bind") * 1e3);
    layer.set("engine.query_batch_us", med("engine.query_batch"));
    layer.set("server.format_us", med("server.format"));
    layer.set("client.parse_reply_us", med("client.parse_reply"));

    // The pooled times it is compared with are the same requests'.
    let mut pooled_us: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "engine.query_batch" && (s.req as usize).is_multiple_of(SERIAL_EVERY))
        .map(Span::us)
        .collect();
    let serial = median(&mut serial_us);
    layer.set("engine.query_serial_us", serial);
    layer.set("engine.scatter_speedup", serial / median(&mut pooled_us).max(1e-9));
    let mut batch_us: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(db.execute_batch(&bound_for_batch));
            t0.elapsed().as_secs_f64() * 1e6 / bound_for_batch.len().max(1) as f64
        })
        .collect();
    layer.set("engine.batch16_us_per_query", median(&mut batch_us));

    let sum = |f: fn(&Work) -> u64| work.iter().map(f).sum::<u64>() as f64;
    let rows = sum(|w| w.visible_rows).max(1.0);
    let lines = (sum(|w| w.lines_fetched) + sum(|w| w.lines_skipped)).max(1.0);
    let n = work.len().max(1) as f64;
    layer.set("engine.probes_per_row", sum(|w| w.probes) / rows);
    layer.set("engine.comparisons_per_row", sum(|w| w.comparisons) / rows);
    layer.set("engine.lines_skipped_ratio", sum(|w| w.lines_skipped) / lines);
    layer.set("engine.segments_per_query", sum(|w| w.segments) / n);
    layer.set("engine.ids_per_query", result_sizes.iter().sum::<f64>() / n);
    layer.set("engine.tail_indexed_ratio", sum(|w| u64::from(w.tail_indexed)) / n);
    let [imprint, zonemap, scan] = db.path_shares();
    layer.set("engine.path_share.imprint", imprint);
    layer.set("engine.path_share.zonemap", zonemap);
    layer.set("engine.path_share.scan", scan);

    let mut pings: Vec<f64> = Vec::with_capacity(200);
    for _ in 0..200 {
        let t0 = Instant::now();
        let ok = conn.ping().map_err(|e| format!("ping: {e}"))?;
        pings.push(t0.elapsed().as_secs_f64() * 1e6);
        checked.check(ok, || "PING was not answered OK".into());
    }
    layer.set("server.ping_rtt_us", median(&mut pings));
    layer.set("server.admission_roundtrip_ns", surface::admission_roundtrip_ns(20_000));
    // A fixed list shaped like `wide_ids` replies (10,000 seven-digit ids),
    // so the number means the same on every workload.
    let ids = Answer::Ids((0..10_000u64).map(|i| 1_000_000 + i * 397).collect());
    let mut format_ns: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(surface::format_reply(None, &ids));
            t0.elapsed().as_nanos() as f64 / 10_000.0
        })
        .collect();
    layer.set("server.format_ns_per_id", median(&mut format_ns));
    Ok(tracer)
}

/// Builds every access path over the whole queried column and runs the
/// first predicates of `reqs` (those on `column`) through each: the paper's
/// unsegmented shape, the baselines on the same predicates, and the
/// refinement kernels beside a streaming read of the same bytes.
pub fn whole_column<T: IntScalar>(
    values: &[T],
    column: &str,
    reqs: &[Req],
    with_wah: bool,
    budget: Duration,
    layer: &mut Metrics,
    checked: &mut Checked,
) {
    let started = Instant::now();
    let whole = WholeColumn::build(values, with_wah);
    let rows = whole.rows().max(1) as f64;
    layer.set("core.build_ns_per_row", whole.build_s * 1e9 / rows);
    layer.set("core.index_bits_per_row", whole.index_bits_per_row());
    layer.set("core.entropy", whole.entropy());

    let preds: Vec<(i64, i64, bool)> = reqs
        .iter()
        .filter_map(|r| {
            let p = r.preds.first().filter(|p| p.col == column)?;
            Some((p.lo, p.hi, r.count_only))
        })
        .take(LAYER_PREDICATES)
        .collect();
    let (mut core_us, mut scan_us, mut zone_us, mut wah_us) = (vec![], vec![], vec![], vec![]);
    let mut work = Work::default();
    let mut evaluated = 0u64;
    for (i, &(lo, hi, count_only)) in preds.iter().enumerate() {
        if i >= 4 && started.elapsed() > budget {
            break;
        }
        let core = whole.imprints(lo, hi, count_only);
        let scan = whole.scan(lo, hi, count_only);
        let zone = whole.zonemap(lo, hi, count_only);
        let wah = whole.wah(lo, hi, count_only);
        let agree = core.matches == scan.matches
            && zone.matches == scan.matches
            && wah.is_none_or(|w| w.matches == scan.matches);
        checked.check(agree, || format!("access paths disagree on {column}={lo}..{hi}"));
        core_us.push(core.us);
        scan_us.push(scan.us);
        zone_us.push(zone.us);
        wah_us.extend(wah.map(|w| w.us));
        work.probes += core.work.probes;
        work.comparisons += core.work.comparisons;
        work.lines_fetched += core.work.lines_fetched;
        work.lines_skipped += core.work.lines_skipped;
        evaluated += 1;
    }
    let scanned = (evaluated as f64 * rows).max(1.0);
    layer.set("core.query_us", median(&mut core_us));
    layer.set("core.probes_per_row", work.probes as f64 / scanned);
    layer.set("core.comparisons_per_row", work.comparisons as f64 / scanned);
    layer.set(
        "core.lines_skipped_ratio",
        work.lines_skipped as f64 / ((work.lines_fetched + work.lines_skipped) as f64).max(1.0),
    );
    layer.set("baselines.scan_us", median(&mut scan_us));
    layer.set("baselines.zonemap_us", median(&mut zone_us));
    if with_wah {
        layer.set("baselines.wah_us", median(&mut wah_us));
    }

    let gb = whole.data_bytes() as f64 / 1e9;
    let (mut swar, mut scalar, mut stream) = (vec![], vec![], vec![]);
    for &(lo, hi, _) in preds.iter().take(5) {
        let (n_swar, s_swar) = whole.refine(lo, hi, true);
        let (n_scalar, s_scalar) = whole.refine(lo, hi, false);
        checked.check(n_swar == n_scalar, || format!("kernels disagree on {column}={lo}..{hi}"));
        swar.push(gb / s_swar.max(1e-12));
        scalar.push(gb / s_scalar.max(1e-12));
        let (sum, s) = whole.stream();
        std::hint::black_box(sum);
        stream.push(gb / s.max(1e-12));
    }
    layer.set("core.refine_gbps", median(&mut swar));
    layer.set("core.refine_scalar_gbps", median(&mut scalar));
    layer.set("roofline.stream_gbps", median(&mut stream));
}
