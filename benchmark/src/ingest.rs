//! `ingest_restart`: durable appends beside reads under a resident-data
//! budget, then flush, drop and reopen. The same engine query code serves
//! the tail-indexed head, sealing, compaction, eviction, fault-in and
//! persistence here, so a read-path gain that costs ingest (or the reverse)
//! shows.
//!
//! The writer is the one **open-loop** client of the benchmark: batches are
//! due every 10 ms whether or not the previous one has returned, and
//! latency runs from the due time, so a seal or compaction stall is charged
//! to every batch it delays.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::spec::Metrics;
use crate::stats::{fastest, median, quantile, Sample};
use crate::surface::{self, Col, Conn, Db, Storage};
use crate::trace::{self, Checked};
use crate::wire::{self, Load};
use crate::workloads::{self, Expected, Pred, Req, Rng, SetUp, TableData};
use crate::{Options, Outcome};

const TABLE: &str = "log";
/// Covered counts align to the engine's segments.
const SEGMENT_ROWS: u64 = workloads::SEGMENT_ROWS as u64;
const BATCH_ROWS: usize = 2048;
const BATCH_PERIOD: Duration = Duration::from_millis(10);
/// Rows loaded before the writer starts, so that there is cold data to
/// fault in from the first read and set-up is long enough to time.
const PRELOAD_ROWS: usize = 1 << 20;
const SMOKE_PRELOAD_ROWS: usize = 1 << 17;
const SENSORS: u64 = 16;
const HEAD_ROWS: u64 = 50_000;
const COLD_SPAN: u64 = 1000;
const SETUP_REPEATS: usize = 5;
const RECOVERY_OPENS: usize = 3;
const VERIFY_QUERIES: usize = 256;

/// The three read kinds the reader cycles through.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// `COUNT` over the newest 50k rows: the tail-indexed write head and
    /// the youngest segments.
    Head,
    /// `QUERY` of 1,001 rows at a uniformly random old position, filtered
    /// by sensor: faults evicted data back in.
    Cold,
    /// `COUNT` over a segment-aligned span of `ts`: every imprint vector in
    /// it is fully covered, so it is answered by popcount without data.
    Covered,
}

const KINDS: [Kind; 3] = [Kind::Head, Kind::Cold, Kind::Covered];

/// Builds one read bounded by `acked` rows. `ts` is the row index, so the
/// exact answer follows from the generator whatever the writer is doing.
fn read(kind: Kind, acked: u64, rng: &mut Rng, sensor: &Col) -> (Req, Expected) {
    let ts = |lo: u64, hi: u64| Pred { col: "ts", lo: lo as i64, hi: hi as i64 };
    match kind {
        Kind::Head => {
            let (lo, hi) = (acked.saturating_sub(HEAD_ROWS), acked - 1);
            let req = Req { count_only: true, table: TABLE, preds: vec![ts(lo, hi)] };
            (req, Expected::of_count(hi - lo + 1))
        }
        Kind::Cold => {
            let lo = rng.below(acked.saturating_sub(COLD_SPAN).max(1));
            let hi = (lo + COLD_SPAN).min(acked - 1);
            let k = rng.below(SENSORS) as i64;
            let ids: Vec<u64> = (lo..=hi).filter(|&r| sensor.int_at(r as usize) == k).collect();
            let sensor_pred = Pred { col: "sensor", lo: k, hi: k };
            let req = Req { count_only: false, table: TABLE, preds: vec![ts(lo, hi), sensor_pred] };
            (req, Expected::of_ids(&ids))
        }
        Kind::Covered => {
            let segments = acked / SEGMENT_ROWS;
            let (lo, hi) = if segments == 0 {
                (0, acked - 1)
            } else {
                let first = rng.below(segments);
                let last = first + rng.below(segments - first);
                (first * SEGMENT_ROWS, (last + 1) * SEGMENT_ROWS - 1)
            };
            let req = Req { count_only: true, table: TABLE, preds: vec![ts(lo, hi)] };
            (req, Expected::of_count(hi - lo + 1))
        }
    }
}

fn generate(rows: usize, seed: u64) -> TableData {
    TableData {
        name: TABLE,
        cols: vec![
            ("ts", Col::I64((0..rows as i64).collect())),
            ("sensor", surface::gen_categories_u16(rows, SENSORS as usize, seed)),
            ("value", surface::gen_walk_f64(rows, seed + 1)),
        ],
    }
}

/// What the writer thread measured, in microseconds.
#[derive(Default)]
struct Writes {
    /// Due time → `append_batch` returned, every measured batch.
    from_due: Vec<f64>,
    /// Due time → maintenance tick done, batches that sealed a segment.
    stall_from_due: Vec<f64>,
    /// `append_batch` call time, every measured batch.
    call: Vec<f64>,
    /// `append_batch` call time, batches that sealed.
    seal_call: Vec<f64>,
    tick: Vec<f64>,
    compaction_bytes: usize,
    /// Batches that started more than one period after they were due.
    late: u64,
    batches: u64,
}

#[allow(clippy::too_many_arguments)]
fn writer(
    db: &Db,
    table: &TableData,
    rows: std::ops::Range<usize>,
    acked: &AtomicU64,
    start: Instant,
    measured_from: Instant,
) -> Writes {
    let mut w = Writes::default();
    for (k, at) in rows.clone().step_by(BATCH_ROWS).enumerate() {
        let due = start + BATCH_PERIOD * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else if now - due > BATCH_PERIOD {
            w.late += 1;
        }
        let sealed_before = db.table_counters(TABLE).segments_sealed;
        let called = Instant::now();
        let end = (at + BATCH_ROWS).min(rows.end);
        db.append(TABLE, &table.cols, at..end);
        let returned = Instant::now();
        // ordering: Release pairs with the reader's Acquire load, so a
        // reader that sees this count also finds the rows visible.
        acked.store(end as u64, Ordering::Release);
        let sealed = db.table_counters(TABLE).segments_sealed != sealed_before;
        let mut stall_end = returned;
        if sealed {
            // Maintenance is row-triggered, not time-triggered: one
            // synchronous tick after every seal, so runs repeat.
            let tick = db.tick();
            stall_end = Instant::now();
            w.compaction_bytes += tick.compaction_bytes;
            w.tick.push((stall_end - returned).as_secs_f64() * 1e6);
        }
        w.batches += 1;
        if due < measured_from {
            continue;
        }
        w.from_due.push((returned - due).as_secs_f64() * 1e6);
        w.call.push((returned - called).as_secs_f64() * 1e6);
        if sealed {
            w.stall_from_due.push((stall_end - due).as_secs_f64() * 1e6);
            w.seal_call.push((returned - called).as_secs_f64() * 1e6);
        }
    }
    w
}

/// The closed-loop reader: one connection, one request in flight.
fn reader(
    addr: std::net::SocketAddr,
    sensor: &Col,
    acked: &AtomicU64,
    seed: u64,
    measured_from: Instant,
    deadline: Instant,
) -> Load {
    let mut load = Load::default();
    let mut rng = Rng::new(seed ^ 0x7ead_e700);
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            load.attempted += 1;
            load.fail(format!("connect: {e}"));
            return load;
        }
    };
    for i in 0.. {
        let sent = Instant::now();
        if sent >= deadline {
            break;
        }
        // ordering: Acquire pairs with the writer's Release store.
        let (req, expected) = read(KINDS[i % 3], acked.load(Ordering::Acquire), &mut rng, sensor);
        load.attempted += 1;
        let reply = match conn.send(&req.line()).and_then(|()| conn.recv()) {
            Ok(r) => r,
            Err(e) => {
                load.fail(format!("reader I/O: {e}"));
                break;
            }
        };
        let done = Instant::now();
        let decoded = reply.decode(req.count_only);
        if !expected.matches(&decoded) {
            load.fail(format!("{:?}: expected {expected:?}, got {decoded:?}", req.line()));
        } else if done >= measured_from && done <= deadline {
            load.samples.push(Sample {
                done_s: (done - measured_from).as_secs_f64(),
                lat_us: (done - sent).as_secs_f64() * 1e6,
            });
        }
    }
    load
}

/// Runs `n` reads of mixed kinds in-process against `db` and checks them.
fn verify(db: &Db, rows: u64, sensor: &Col, seed: u64, n: usize, checked: &mut Checked) {
    let mut rng = Rng::new(seed ^ 0x0e71_f1ed);
    for i in 0..n {
        let (req, expected) = read(KINDS[i % 3], rows, &mut rng, sensor);
        let bound = db.bind(&surface::parse_request_line(&req.line()));
        let (answer, _) = db.execute(&bound, true);
        checked.check(expected.matches_answer(&answer), || {
            format!("after reopen {:?}: expected {expected:?}", req.line())
        });
    }
}

/// Median in-process microseconds of one read kind, bind included.
fn kind_us(db: &Db, kind: Kind, rows: u64, sensor: &Col, seed: u64, checked: &mut Checked) -> f64 {
    let mut rng = Rng::new(seed ^ 0x01a7_e0c7);
    let mut us: Vec<f64> = (0..64)
        .map(|_| {
            let (req, expected) = read(kind, rows, &mut rng, sensor);
            let parsed = surface::parse_request_line(&req.line());
            let t0 = Instant::now();
            let (answer, _) = db.execute(&db.bind(&parsed), true);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            checked
                .check(expected.matches_answer(&answer), || format!("{kind:?} {:?}", req.line()));
            us
        })
        .collect();
    median(&mut us)
}

/// Bytes of regular files under `root`, recursively.
fn dir_bytes(root: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(root) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The restart: `Engine::open` on what `flush` left, several times, each
/// followed by a row-count check and checked reads; when tracing, once more
/// with the persisted indexes ignored and rebuilt from data.
fn reopen(
    opts: &Options,
    storage: &Storage,
    rows: u64,
    sensor: &Col,
    layer: &mut Metrics,
    checked: &mut Checked,
) -> Result<(), String> {
    let mut opens = Vec::with_capacity(RECOVERY_OPENS);
    for i in 0..RECOVERY_OPENS {
        let t0 = Instant::now();
        let (db, recovered) = Db::open(storage, true)?;
        opens.push(t0.elapsed().as_secs_f64());
        checked.check(recovered == rows, || format!("reopen recovered {recovered} rows of {rows}"));
        let n = if i == 0 { VERIFY_QUERIES } else { VERIFY_QUERIES / 8 };
        verify(&db, rows, sensor, opts.seed + i as u64, n, checked);
    }
    let recover_s = median(&mut opens);
    layer.set("recover_s", recover_s);
    if opts.trace {
        layer.set("engine.open_s", recover_s);
        let t0 = Instant::now();
        let (db, recovered) = Db::open(storage, false)?;
        layer.set("engine.open_rebuild_s", t0.elapsed().as_secs_f64());
        checked.check(recovered == rows, || "rebuild reopen lost rows".into());
        verify(&db, rows, sensor, opts.seed, VERIFY_QUERIES / 8, checked);
    }
    Ok(())
}

pub fn run(
    opts: &Options,
    scratch: &Path,
    e2e: &mut Metrics,
    layer: &mut Metrics,
    tracer_out: &mut Option<trace::Tracer>,
) -> Result<Outcome, String> {
    let preload = if opts.smoke { SMOKE_PRELOAD_ROWS } else { PRELOAD_ROWS };
    let run_s = opts.warmup_s() + opts.seconds;
    let batches = (run_s / BATCH_PERIOD.as_secs_f64()).floor() as usize;
    let total_rows = preload + batches * BATCH_ROWS;
    let table = generate(total_rows, opts.seed);
    let sensor = table.col("sensor");
    let row_bytes = table.bytes_per_row();
    // A quarter of the final data may stay resident; the rest is served
    // from imprints alone or faulted back in.
    let budget = total_rows * row_bytes / 4;
    let storage_at = |dir: PathBuf| Storage { root: dir, max_resident_data_bytes: budget };
    crate::reset_peak_rss();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut live: Option<(SetUp, Storage)> = None;
    for i in 0..SETUP_REPEATS {
        if let Some((up, storage)) = live.take() {
            drop(up);
            let _ = std::fs::remove_dir_all(&storage.root);
        }
        let storage = storage_at(scratch.join(format!("log-{i}")));
        let up = table.set_up(preload, Some(&storage));
        setups.push(up.seconds);
        live = Some((up, storage));
    }
    let (SetUp { db, server, compaction_bytes: setup_compaction_bytes, .. }, storage) =
        live.expect("SETUP_REPEATS > 0");
    let setup_s = fastest(&setups);
    e2e.set("setup_s", setup_s);

    let acked = AtomicU64::new(preload as u64);
    let start = Instant::now();
    let measured_from = start + Duration::from_secs_f64(opts.warmup_s());
    let deadline = start + Duration::from_secs_f64(run_s);
    let addr = surface::server_addr(&server);
    let before = surface::server_stats(&server);
    let mut writes = Writes::default();
    let load = wire::with_steal(|| {
        std::thread::scope(|scope| {
            let w = scope
                .spawn(|| writer(&db, &table, preload..total_rows, &acked, start, measured_from));
            let r =
                scope.spawn(|| reader(addr, sensor, &acked, opts.seed, measured_from, deadline));
            writes = w.join().expect("writer thread panicked");
            r.join().expect("reader thread panicked")
        })
    });
    let after = surface::server_stats(&server);
    let Writes { mut from_due, mut stall_from_due, mut call, mut seal_call, mut tick, .. } = writes;

    let p50 = wire::end_to_end(&load, opts, e2e, layer)?;
    let stats = db.storage_stats();
    let counters = db.table_counters(TABLE);
    e2e.set("index_bytes_per_row", stats.index_bytes as f64 / counters.rows as f64);
    e2e.set("peak_rss_mb", crate::peak_rss_mib());

    let mut checked = Checked::default();
    checked.check(counters.rows == total_rows as u64, || {
        format!("table holds {} rows, {total_rows} were appended", counters.rows)
    });
    layer.set("append_p50_us", median(&mut from_due));
    layer.set("seal_stall_us", median(&mut stall_from_due));
    if opts.trace {
        layer.set("engine.append_us", median(&mut call));
        layer.set("engine.append_p99_us", quantile(&mut call, 0.99));
        layer.set("engine.seal_us", median(&mut seal_call));
        layer.set("engine.maintenance_tick_us", median(&mut tick));
        layer.set("engine.compactions", counters.compactions as f64);
        layer.set("engine.rebuilds", counters.rebuilds as f64);
        layer.set("engine.evicted_segments", stats.evicted_segments as f64);
        layer.set(
            "engine.compaction_bytes_per_user_byte",
            (setup_compaction_bytes + writes.compaction_bytes) as f64
                / (total_rows * row_bytes) as f64,
        );
        layer.set("engine.faulted_bytes", stats.faulted_bytes as f64);
        layer.set("engine.data_bytes_resident", stats.data_bytes_resident as f64);
        layer.set("engine.data_bytes_evicted", stats.data_bytes_evicted as f64);
        layer.set("engine.persist_errors", stats.persist_errors as f64);
        wire::server_counters(&before, &after, layer);
        layer.set("engine.load_rows_per_s", preload as f64 / setup_s);

        let rows = counters.rows;
        let seed = opts.seed;
        layer.set(
            "engine.head_query_us",
            kind_us(&db, Kind::Head, rows, sensor, seed, &mut checked),
        );
        layer.set(
            "engine.cold_query_us",
            kind_us(&db, Kind::Cold, rows, sensor, seed, &mut checked),
        );
        layer.set(
            "engine.covered_count_us",
            kind_us(&db, Kind::Covered, rows, sensor, seed, &mut checked),
        );

        let mut rng = Rng::new(opts.seed ^ 0x7ace);
        let (reqs, expected): (Vec<Req>, Vec<Expected>) =
            (0..trace::TRACE_REQUESTS).map(|i| read(KINDS[i % 3], rows, &mut rng, sensor)).unzip();
        let budget = Duration::from_secs_f64(if opts.smoke { 0.5 } else { 2.0 });
        let tracer =
            trace::traced_pass(&db, addr, &reqs, &expected, budget, p50, layer, &mut checked)?;
        *tracer_out = Some(tracer);
        let Col::I64(ts) = table.col("ts") else { unreachable!("ts is generated as i64") };
        trace::whole_column(ts, "ts", &reqs, false, budget, layer, &mut checked);
    }
    let (engine_config, server_config) = db.config_debug();

    // Clean shutdown: seal the head, stop serving, drop the engine.
    let t0 = Instant::now();
    db.flush();
    let flush_s = t0.elapsed().as_secs_f64();
    drop(server);
    drop(db);
    let disk_bytes = dir_bytes(&storage.root);
    layer.set("disk_bytes_per_row", disk_bytes as f64 / total_rows as f64);

    if opts.trace {
        layer.set("engine.flush_s", flush_s);
    }
    reopen(opts, &storage, total_rows as u64, sensor, layer, &mut checked)?;
    let _ = std::fs::remove_dir_all(&storage.root);

    let mut out = Outcome::from_load(load);
    out.absorb(checked);
    out.info = vec![
        ("rows", Json::Num(total_rows as f64)),
        ("table", Json::str(TABLE)),
        ("data_bytes", Json::Num((total_rows * row_bytes) as f64)),
        ("preload_rows", Json::Num(preload as f64)),
        ("max_resident_data_bytes", Json::Num(budget as f64)),
        ("connections", Json::Num(1.0)),
        ("window", Json::Num(1.0)),
        ("loop", Json::str("closed reader, open-loop writer")),
        ("writer_batches", Json::Num(writes.batches as f64)),
        ("writer_late_batches", Json::Num(writes.late as f64)),
        ("sealed_segments", Json::Num(stats.sealed_segments as f64)),
        ("disk_bytes", Json::Num(disk_bytes as f64)),
        ("engine_config", Json::str(engine_config)),
        ("server_config", Json::str(server_config)),
    ];
    Ok(out)
}
