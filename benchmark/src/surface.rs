//! The pinned public surface: every call the benchmark makes into the
//! repository's crates goes through this file, and no other file of the
//! benchmark names those crates. A refactor that keeps these functions
//! compiling with the same meaning keeps the ledger comparable; one that
//! cannot must reopen the benchmark in an issue of its own. The README
//! lists the same calls by crate.

use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use baselines::{SeqScan, WahBitmap, ZoneMap};
use colstore::relation::AnyColumn;
use colstore::{AccessStats, Column, ColumnType, IdList, RangeIndex, RangePredicate, Scalar};
use imprints::simd::{effective_kernel, KERNEL_ENV_VAR};
use imprints::{column_entropy, query, ColumnImprints, PredicateKernel, RefineKernel};
use imprints_engine::{
    path_report, BatchAnswer, BatchQuery, Engine, EngineConfig, PathKind, QueryStats,
    StorageOptions, Table, ValueSet,
};
use imprints_server::protocol::{fmt_ok_count, fmt_ok_ids, parse_request, split_tag};
use imprints_server::ServerConfig;
use imprints_server::{parse_reply, Admission, Client, RawPred, Reply, Request};

pub use imprints_engine::StorageStats;
pub use imprints_server::{Server, ServerStats};

// ---------------------------------------------------------------- datagen

/// One generated column, as the plain vector the oracle reads.
#[derive(Debug, Clone)]
pub enum Col {
    I64(Vec<i64>),
    I32(Vec<i32>),
    U16(Vec<u16>),
    F64(Vec<f64>),
}

impl Col {
    pub fn len(&self) -> usize {
        match self {
            Col::I64(v) => v.len(),
            Col::I32(v) => v.len(),
            Col::U16(v) => v.len(),
            Col::F64(v) => v.len(),
        }
    }

    pub fn bytes_per_row(&self) -> usize {
        match self {
            Col::I64(_) | Col::F64(_) => 8,
            Col::I32(_) => 4,
            Col::U16(_) => 2,
        }
    }

    /// The value at `row` widened to `i64`; predicates in this benchmark
    /// are integer ranges, so only the integer columns are queried.
    pub fn int_at(&self, row: usize) -> i64 {
        match self {
            Col::I64(v) => v[row],
            Col::I32(v) => i64::from(v[row]),
            Col::U16(v) => i64::from(v[row]),
            Col::F64(_) => panic!("float columns are never queried"),
        }
    }

    fn column_type(&self) -> ColumnType {
        match self {
            Col::I64(_) => ColumnType::I64,
            Col::I32(_) => ColumnType::I32,
            Col::U16(_) => ColumnType::U16,
            Col::F64(_) => ColumnType::F64,
        }
    }

    fn batch(&self, rows: Range<usize>) -> AnyColumn {
        match self {
            Col::I64(v) => AnyColumn::I64(v[rows].into()),
            Col::I32(v) => AnyColumn::I32(v[rows].into()),
            Col::U16(v) => AnyColumn::U16(v[rows].into()),
            Col::F64(v) => AnyColumn::F64(v[rows].into()),
        }
    }
}

/// `datagen::entropy_sweep::entropy_dial`: clustered drift through
/// `0..domain` with a `chaos` share of uniform noise.
pub fn gen_clustered(rows: usize, domain: i64, chaos: f64, seed: u64) -> Col {
    Col::I64(datagen::entropy_sweep::entropy_dial(rows, domain, chaos, seed))
}

/// `datagen::distributions::uniform_ints` narrowed to `i32`.
pub fn gen_uniform_i32(rows: usize, domain: i64, seed: u64) -> Col {
    let wide = datagen::distributions::uniform_ints(rows, 0, domain, seed);
    Col::I32(wide.into_iter().map(|x| x as i32).collect())
}

/// `datagen::distributions::zipf` narrowed to `u16`: a low-cardinality,
/// skewed category column.
pub fn gen_categories_u16(rows: usize, cardinality: usize, seed: u64) -> Col {
    let wide = datagen::distributions::zipf(rows, cardinality, 1.0, seed);
    Col::U16(wide.into_iter().map(|x| x as u16).collect())
}

/// `datagen::distributions::random_walk`.
pub fn gen_walk_f64(rows: usize, seed: u64) -> Col {
    Col::F64(datagen::distributions::random_walk(rows, 0.0, 1000.0, 0.5, 1 << 16, seed))
}

// ----------------------------------------------------------------- engine

/// Where a durable engine keeps its segments, and how much segment data
/// may stay memory-resident per table.
#[derive(Debug, Clone)]
pub struct Storage {
    pub root: std::path::PathBuf,
    pub max_resident_data_bytes: usize,
}

/// `EngineConfig::default()` with only `storage.*` set, as the issue
/// requires: the benchmark measures the defaults a deployment gets.
fn engine_config(storage: Option<&Storage>, load_indexes: bool) -> EngineConfig {
    let mut cfg = EngineConfig::default();
    if let Some(s) = storage {
        cfg.storage = StorageOptions {
            root: Some(s.root.clone()),
            max_resident_data_bytes: s.max_resident_data_bytes,
            load_indexes,
        };
    }
    cfg
}

/// The refinement kernel the engine will resolve to, and whether the
/// environment forces it (a forced kernel must not reach the ledger).
pub fn refine_kernel() -> (&'static str, bool) {
    let name = effective_kernel(EngineConfig::default().refine_kernel).name();
    (name, std::env::var_os(KERNEL_ENV_VAR).is_some())
}

/// What one `maintenance_tick` did.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub idle: bool,
    pub compaction_bytes: usize,
}

/// Per-table cumulative counters.
#[derive(Debug, Clone, Copy)]
pub struct TableCounters {
    pub rows: u64,
    pub segments_sealed: u64,
    pub compactions: u64,
    pub rebuilds: u64,
}

/// An engine under the default configuration.
pub struct Db {
    engine: Arc<Engine>,
}

impl Db {
    /// `Engine::new`.
    pub fn new(storage: Option<&Storage>) -> Db {
        Db { engine: Arc::new(Engine::new(engine_config(storage, true))) }
    }

    /// `Engine::open`: recovers the catalog under `storage.root`, reading
    /// persisted indexes back (`load_indexes`) or rebuilding them from
    /// data. Returns the engine and the rows it recovered.
    pub fn open(storage: &Storage, load_indexes: bool) -> Result<(Db, u64), String> {
        let (engine, report) =
            Engine::open(engine_config(Some(storage), load_indexes)).map_err(|e| e.to_string())?;
        Ok((Db { engine: Arc::new(engine) }, report.rows))
    }

    /// The resolved `EngineConfig` and the `ServerConfig` derived from it,
    /// for the run header.
    pub fn config_debug(&self) -> (String, String) {
        let cfg = self.engine.config();
        let workers = cfg.effective_workers();
        (
            format!("{cfg:?} (effective_workers: {workers})"),
            format!("{:?}", ServerConfig::from_engine(cfg)),
        )
    }

    /// `Engine::create_table` from the columns' names and types.
    pub fn create_table(&self, name: &str, cols: &[(&'static str, Col)]) {
        let schema: Vec<(&str, ColumnType)> =
            cols.iter().map(|(n, c)| (*n, c.column_type())).collect();
        self.engine.create_table(name, &schema).expect("create_table");
    }

    /// `Table::append_batch` of `rows` of every column.
    pub fn append(&self, table: &str, cols: &[(&'static str, Col)], rows: Range<usize>) {
        let batch = cols.iter().map(|(_, c)| c.batch(rows.clone())).collect();
        self.table(table).append_batch(batch).expect("append_batch");
    }

    /// `Engine::maintenance_tick`.
    pub fn tick(&self) -> Tick {
        let r = self.engine.maintenance_tick();
        Tick { idle: r.is_idle(), compaction_bytes: r.compaction_bytes }
    }

    /// Ticks until a pass changes nothing, so that background work has
    /// settled before anything is timed. Returns the compaction input
    /// bytes consumed.
    pub fn settle(&self) -> usize {
        let mut bytes = 0;
        loop {
            let t = self.tick();
            bytes += t.compaction_bytes;
            if t.idle {
                return bytes;
            }
        }
    }

    /// `Engine::flush`: seals every open head so all rows are durable.
    pub fn flush(&self) {
        self.engine.flush();
    }

    /// `Catalog::storage_stats`.
    pub fn storage_stats(&self) -> StorageStats {
        self.engine.catalog().storage_stats()
    }

    /// `Table::row_count` and `Table::stats`.
    pub fn table_counters(&self, table: &str) -> TableCounters {
        // ordering: Relaxed — monotonic statistics that publish no data.
        use std::sync::atomic::Ordering::Relaxed;
        let t = self.table(table);
        let s = t.stats();
        TableCounters {
            rows: t.row_count(),
            segments_sealed: s.segments_sealed.load(Relaxed),
            compactions: s.compactions.load(Relaxed),
            rebuilds: s.rebuilds.load(Relaxed),
        }
    }

    /// `planner::path_report`: the share of per-segment, per-bucket winner
    /// votes held by the imprint, zonemap and scan paths.
    pub fn path_shares(&self) -> [f64; 3] {
        let mut votes = [0u64; 3];
        for column in path_report(self.engine.catalog()) {
            for bucket in &column.buckets {
                for (slot, kind) in PathKind::CLASSIC.iter().enumerate() {
                    votes[slot] += bucket.votes[kind.slot()];
                }
            }
        }
        let total = votes.iter().sum::<u64>().max(1) as f64;
        votes.map(|v| v as f64 / total)
    }

    /// `Server::start` with `ServerConfig::from_engine`.
    pub fn serve(&self) -> Server {
        let cfg = ServerConfig::from_engine(self.engine.config());
        Server::start(Arc::clone(&self.engine), cfg).expect("server start on loopback")
    }

    fn table(&self, name: &str) -> Arc<Table> {
        self.engine.table(name).expect("table exists")
    }

    /// The server's typing step (`batcher::typed_query`): the catalog
    /// lookup, the schema lookup per predicate and `RawPred::to_set`.
    pub fn bind(&self, req: &ParsedRequest) -> BoundQuery {
        let table = self.table(&req.table);
        let preds: Vec<(String, ValueSet)> = req
            .preds
            .iter()
            .map(|p| {
                let def = table.schema().iter().find(|c| c.name == p.column).expect("column");
                (p.column.clone(), p.to_set(def.ty).expect("typed predicate"))
            })
            .collect();
        BoundQuery { table, query: BatchQuery { preds, any: false, count_only: req.count_only } }
    }

    /// `Table::query_batch` of one query, on the worker pool or on the
    /// calling thread.
    pub fn execute(&self, q: &BoundQuery, pooled: bool) -> (Answer, QueryStats) {
        let pool = pooled.then(|| self.engine.pool().as_ref());
        let mut out = q.table.query_batch(std::slice::from_ref(&q.query), pool);
        let (answer, stats) = out.pop().expect("one answer").expect("query_batch");
        (Answer::from(answer), stats)
    }

    /// `Table::query_batch` of many queries on one table in one call — the
    /// shared segment sweep the server's batcher relies on.
    pub fn execute_batch(&self, qs: &[BoundQuery]) -> Vec<Answer> {
        let Some(first) = qs.first() else { return Vec::new() };
        let queries: Vec<BatchQuery> = qs.iter().map(|q| q.query.clone()).collect();
        first
            .table
            .query_batch(&queries, Some(self.engine.pool()))
            .into_iter()
            .map(|r| Answer::from(r.expect("query_batch").0))
            .collect()
    }
}

/// A request typed against its table, ready for `query_batch`.
pub struct BoundQuery {
    table: Arc<Table>,
    query: BatchQuery,
}

/// A query's result in the two shapes the wire has.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Ids(Vec<u64>),
    Count(u64),
}

impl From<BatchAnswer> for Answer {
    fn from(a: BatchAnswer) -> Answer {
        match a {
            BatchAnswer::Ids(ids) => Answer::Ids(ids.into_vec()),
            BatchAnswer::Count(n) => Answer::Count(n),
        }
    }
}

/// The counters of `QueryStats` the layer metrics use, flattened.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub probes: u64,
    pub comparisons: u64,
    pub lines_fetched: u64,
    pub lines_skipped: u64,
    pub segments: u64,
    pub visible_rows: u64,
    pub tail_indexed: bool,
}

impl From<&QueryStats> for Work {
    fn from(s: &QueryStats) -> Work {
        let mut access = s.access;
        access.merge(&s.tail_access);
        Work {
            segments: s.sealed_segments as u64,
            visible_rows: s.visible_rows,
            tail_indexed: s.tail_indexed,
            ..Work::from(&access)
        }
    }
}

impl From<&AccessStats> for Work {
    fn from(a: &AccessStats) -> Work {
        Work {
            probes: a.index_probes,
            comparisons: a.value_comparisons,
            lines_fetched: a.lines_fetched,
            lines_skipped: a.lines_skipped,
            ..Work::default()
        }
    }
}

// ----------------------------------------------------------------- server

/// `Server::local_addr`.
pub fn server_addr(server: &Server) -> SocketAddr {
    server.local_addr()
}

/// `Server::stats`.
pub fn server_stats(server: &Server) -> ServerStats {
    server.stats()
}

/// One `Client` connection and the reply shapes the oracle checks.
pub struct Conn {
    client: Client,
}

/// A reply decoded as far as the oracle needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Decoded {
    Ids(Vec<u64>),
    Count(u64),
    /// `ERR`, `BUSY`, or an `OK` whose payload is neither shape.
    Refused(String),
}

/// A received reply, its tag, and nothing decoded yet: decoding ids is the
/// oracle's work and happens after the timestamp.
pub struct RawReply {
    pub tag: Option<String>,
    reply: Reply,
}

impl RawReply {
    /// `Reply::count` / `Reply::ids`.
    pub fn decode(&self, count_only: bool) -> Decoded {
        let decoded = if count_only {
            self.reply.count().map(Decoded::Count)
        } else {
            self.reply.ids().map(Decoded::Ids)
        };
        decoded.unwrap_or_else(|| Decoded::Refused(format!("{:?}", self.reply)))
    }
}

impl Conn {
    /// `Client::connect`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        Ok(Conn { client: Client::connect(addr)? })
    }

    /// `Client::send`.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.client.send(line)
    }

    /// `Client::recv_reply`: one whole reply line received and split into
    /// its fields.
    pub fn recv(&mut self) -> std::io::Result<RawReply> {
        let (tag, reply) = self.client.recv_reply()?;
        Ok(RawReply { tag, reply })
    }

    /// `Client::ping`; `true` on `OK`.
    pub fn ping(&mut self) -> std::io::Result<bool> {
        Ok(matches!(self.client.ping()?, Reply::Ok(_)))
    }
}

/// A request line after `split_tag` + `parse_request`.
pub struct ParsedRequest {
    pub tag: Option<String>,
    pub table: String,
    pub count_only: bool,
    preds: Vec<RawPred>,
}

/// The reader thread's parsing step: `protocol::split_tag` and
/// `protocol::parse_request`.
pub fn parse_request_line(line: &str) -> ParsedRequest {
    let (tag, body) = split_tag(line);
    let tag = tag.map(str::to_string);
    match parse_request(body).expect("the benchmark sends well-formed requests") {
        Request::Query { table, preds, any: false } => {
            ParsedRequest { tag, table, count_only: false, preds }
        }
        Request::Count { table, preds, any: false } => {
            ParsedRequest { tag, table, count_only: true, preds }
        }
        other => panic!("the benchmark sends only conjunctive QUERY/COUNT, got {other:?}"),
    }
}

/// The dispatcher's formatting step: `protocol::fmt_ok_ids` /
/// `protocol::fmt_ok_count`.
pub fn format_reply(tag: Option<&str>, answer: &Answer) -> String {
    match answer {
        Answer::Ids(ids) => fmt_ok_ids(tag, ids),
        Answer::Count(n) => fmt_ok_count(tag, *n),
    }
}

/// The client's parsing step: `protocol::parse_reply`.
pub fn parse_reply_line(line: &str) -> RawReply {
    let (tag, reply) = parse_reply(line).expect("well-formed reply line");
    RawReply { tag, reply }
}

/// Mean nanoseconds of one `Admission::offer` followed by `drain(1, 0)` on
/// an otherwise idle queue: the hand-off's uncontended floor.
pub fn admission_roundtrip_ns(iterations: u32) -> f64 {
    let queue: Admission<u64> = Admission::new(1024);
    let t0 = Instant::now();
    for i in 0..iterations {
        assert!(queue.offer(1, u64::from(i)));
        std::hint::black_box(queue.drain(1, Duration::ZERO));
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iterations)
}

// ------------------------------------------------------- core + baselines

/// The integer column types the benchmark queries: predicate bounds arrive
/// as `i64`, and the roofline sums values as `u64`.
pub trait IntScalar: Scalar {
    fn from_i64(v: i64) -> Self;
    fn to_u64(self) -> u64;
}

impl IntScalar for i64 {
    fn from_i64(v: i64) -> i64 {
        v
    }
    fn to_u64(self) -> u64 {
        self as u64
    }
}

impl IntScalar for i32 {
    fn from_i64(v: i64) -> i32 {
        v as i32
    }
    fn to_u64(self) -> u64 {
        self as u64
    }
}

/// Time and access counters of one whole-column evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Eval {
    pub us: f64,
    pub matches: u64,
    pub work: Work,
}

/// The whole queried column with every access path built over it,
/// unsegmented: the paper's shape, and the floor under the engine's
/// segmented numbers.
pub struct WholeColumn<T: IntScalar> {
    col: Column<T>,
    imprints: ColumnImprints<T>,
    scan: SeqScan,
    zonemap: ZoneMap<T>,
    wah: Option<WahBitmap<T>>,
    /// Seconds `ColumnImprints::build` took.
    pub build_s: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Times one evaluation that yields `(matches, access counters)`.
fn eval(f: impl FnOnce() -> (u64, AccessStats)) -> Eval {
    let ((matches, access), s) = timed(f);
    Eval { us: s * 1e6, matches, work: Work::from(&access) }
}

fn id_count((ids, access): (IdList, AccessStats)) -> (u64, AccessStats) {
    (ids.len() as u64, access)
}

impl<T: IntScalar> WholeColumn<T> {
    /// `ColumnImprints::build`, `SeqScan::new`, `ZoneMap::build` and, when
    /// asked, `WahBitmap::build` (costly on high-cardinality data).
    pub fn build(values: &[T], with_wah: bool) -> WholeColumn<T> {
        let col: Column<T> = values.into();
        let (imprints, build_s) = timed(|| ColumnImprints::build(&col));
        let scan = SeqScan::new(&col);
        let zonemap = ZoneMap::build(&col);
        let wah = with_wah.then(|| WahBitmap::build(&col));
        WholeColumn { col, imprints, scan, zonemap, wah, build_s }
    }

    pub fn rows(&self) -> usize {
        self.col.len()
    }

    /// `ColumnImprints::size_bytes` in bits per row.
    pub fn index_bits_per_row(&self) -> f64 {
        self.imprints.size_bytes() as f64 * 8.0 / self.col.len().max(1) as f64
    }

    /// `imprints::column_entropy`.
    pub fn entropy(&self) -> f64 {
        column_entropy(&self.imprints)
    }

    fn pred(lo: i64, hi: i64) -> RangePredicate<T> {
        RangePredicate::between(T::from_i64(lo), T::from_i64(hi))
    }

    /// `imprints::query::count` / `query::evaluate`.
    pub fn imprints(&self, lo: i64, hi: i64, count_only: bool) -> Eval {
        let p = Self::pred(lo, hi);
        eval(|| {
            if count_only {
                let (n, st) = query::count(&self.imprints, &self.col, &p);
                (n, st.access)
            } else {
                let (ids, st) = query::evaluate(&self.imprints, &self.col, &p);
                (ids.len() as u64, st.access)
            }
        })
    }

    /// `SeqScan::count_with_stats` / `RangeIndex::evaluate_with_stats`.
    pub fn scan(&self, lo: i64, hi: i64, count_only: bool) -> Eval {
        let (p, col) = (Self::pred(lo, hi), &self.col);
        eval(|| match count_only {
            true => self.scan.count_with_stats(col, &p),
            false => id_count(self.scan.evaluate_with_stats(col, &p)),
        })
    }

    /// `ZoneMap::count_with_stats` / `RangeIndex::evaluate_with_stats`.
    pub fn zonemap(&self, lo: i64, hi: i64, count_only: bool) -> Eval {
        let (p, col) = (Self::pred(lo, hi), &self.col);
        eval(|| match count_only {
            true => self.zonemap.count_with_stats(col, &p),
            false => id_count(self.zonemap.evaluate_with_stats(col, &p)),
        })
    }

    /// `WahBitmap::count_with_stats` / `RangeIndex::evaluate_with_stats`;
    /// `None` when the bitmap was not built.
    pub fn wah(&self, lo: i64, hi: i64, count_only: bool) -> Option<Eval> {
        let wah = self.wah.as_ref()?;
        let (p, col) = (Self::pred(lo, hi), &self.col);
        Some(eval(|| match count_only {
            true => wah.count_with_stats(col, &p),
            false => id_count(wah.evaluate_with_stats(col, &p)),
        }))
    }

    /// `PredicateKernel::count_matches` over the whole column under the
    /// SWAR (`swar`) or scalar kernel: `(matches, seconds)`.
    pub fn refine(&self, lo: i64, hi: i64, swar: bool) -> (u64, f64) {
        let kernel = if swar { RefineKernel::Swar } else { RefineKernel::Scalar };
        let k = PredicateKernel::with_kernel(&Self::pred(lo, hi), kernel);
        let values = self.col.values();
        let mut comparisons = 0;
        timed(|| k.count_matches(values, 0..values.len() as u64, &mut comparisons))
    }

    /// The roofline beside the kernels: a wrapping sum over the same
    /// values, the least a pass over these bytes can do. `(sum, seconds)`.
    pub fn stream(&self) -> (u64, f64) {
        let values = self.col.values();
        timed(|| values.iter().fold(0u64, |acc, v| acc.wrapping_add(v.to_u64())))
    }

    pub fn data_bytes(&self) -> usize {
        std::mem::size_of_val(self.col.values())
    }
}
