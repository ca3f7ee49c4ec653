//! A miniature query-serving service on the imprints engine — now over
//! the wire.
//!
//! Boots the real TCP front-end (`imprints-server`) on a loopback port,
//! streams sensor readings into a three-column relation (with the value
//! distribution drifting over time — each sealed segment fits its bins to
//! its own rows — and the maintenance daemon tiering small segments into
//! larger ones in the background), and drives it with several
//! *network* clients speaking the line protocol — tagged pipelined
//! QUERY/COUNT requests, admission control and batched shared-morsel
//! dispatch included. Prints a live summary at the end, sourced from the
//! server's own `STATS` verb, then drains the server gracefully.
//!
//! ```text
//! cargo run --release --example engine_service
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::ColumnType;
use column_imprints::engine::{Engine, EngineConfig};
use column_imprints::server::{request_line, Client, Reply, Server, ServerConfig};

const CLIENTS: usize = 4;
const TOTAL_ROWS: usize = 2_000_000;
const BATCH: usize = 20_000;
/// Tagged requests each client keeps in flight on its pipeline.
const WINDOW: usize = 8;

fn main() {
    let engine =
        Arc::new(Engine::new(EngineConfig { segment_rows: 1 << 15, ..Default::default() }));
    let table = engine
        .create_table(
            "readings",
            &[("ts", ColumnType::I64), ("sensor", ColumnType::U16), ("value", ColumnType::F64)],
        )
        .unwrap();
    engine.start_maintenance(Duration::from_millis(20)).unwrap();

    let mut server = Server::start(Arc::clone(&engine), ServerConfig::from_engine(engine.config()))
        .expect("bind loopback server");
    let addr = server.local_addr();
    println!("serving on {addr}");

    let done = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let hits = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();

    std::thread::scope(|s| {
        // Ingest: time-ordered readings whose value domain drifts upward.
        // Every sealed segment samples its bins from its own rows, so the
        // drift costs nothing; the daemon's work is merging the seals into
        // tiers (and, on a durable table over budget, evicting cold data).
        {
            let table = Arc::clone(&table);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut ts = 0i64;
                while (ts as usize) < TOTAL_ROWS {
                    let drift = (ts / 500_000) as f64 * 1000.0;
                    let tss: Vec<i64> = (ts..ts + BATCH as i64).collect();
                    let sensors: Vec<u16> = (0..BATCH).map(|i| (i % 64) as u16).collect();
                    let values: Vec<f64> =
                        (0..BATCH).map(|i| drift + ((i * 37) % 997) as f64 / 10.0).collect();
                    table
                        .append_batch(vec![
                            AnyColumn::I64(tss.into_iter().collect()),
                            AnyColumn::U16(sensors.into_iter().collect()),
                            AnyColumn::F64(values.into_iter().collect()),
                        ])
                        .unwrap();
                    ts += BATCH as i64;
                }
                done.store(true, Ordering::Release);
            });
        }

        // Query clients: thin network clients pipelining recent-window
        // conjunctions over loopback while ingest and maintenance run.
        // Same-tick requests from different clients share morsel passes in
        // the server's batching dispatcher.
        for c in 0..CLIENTS {
            let table = Arc::clone(&table);
            let done = Arc::clone(&done);
            let served = Arc::clone(&served);
            let hits = Arc::clone(&hits);
            let busy = Arc::clone(&busy);
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut q = 0u64;
                let mut inflight = 0usize;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    // Keep the pipeline full until the workload is done,
                    // then let it drain so every tag gets its reply.
                    while inflight < WINDOW && !(finished && q >= 50) {
                        let now = table.row_count() as i64;
                        let lo = (now - 300_000).max(0) + (q as i64 * 131) % 100_000;
                        let sensor = ((q * 13 + c as u64) % 64) as u16;
                        let line = request_line(
                            "QUERY",
                            "readings",
                            &[&format!("ts={lo}..{}", lo + 200_000), &format!("sensor={sensor}")],
                        );
                        client.send(&format!("#q{q} {line}")).expect("send");
                        inflight += 1;
                        q += 1;
                    }
                    let (_tag, reply) = client.recv_reply().expect("reply");
                    inflight -= 1;
                    match reply {
                        Reply::Busy => {
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                        Reply::Err(e) => panic!("server error: {e}"),
                        ok => {
                            let ids = ok.ids().expect("QUERY payload");
                            served.fetch_add(1, Ordering::Relaxed);
                            hits.fetch_add(ids.len() as u64, Ordering::Relaxed);
                        }
                    }
                    if finished && q >= 50 && inflight == 0 {
                        break;
                    }
                }
            });
        }
    });

    let secs = t0.elapsed().as_secs_f64();
    // One more client reads the summary off the wire before the drain.
    let mut admin = Client::connect(addr).expect("connect admin");
    let server_stats = match admin.roundtrip("STATS").expect("stats") {
        Reply::Ok(fields) => fields.join(" "),
        other => panic!("STATS failed: {other:?}"),
    };
    let tables = match admin.roundtrip("TABLES").expect("tables") {
        Reply::Ok(fields) => fields.join(", "),
        other => panic!("TABLES failed: {other:?}"),
    };
    server.shutdown();
    let report = engine.maintenance_tick();
    let stats = table.stats();
    println!("── engine_service summary ──────────────────────────────");
    println!("tables             : {tables}");
    println!("rows ingested      : {}", table.row_count());
    println!("sealed segments    : {}", table.sealed_segment_count());
    println!("index overhead     : {} KiB", table.index_bytes() / 1024);
    println!(
        "queries served     : {} ({:.0}/s across {CLIENTS} wire clients)",
        served.load(Ordering::Relaxed),
        served.load(Ordering::Relaxed) as f64 / secs
    );
    println!("rows matched       : {}", hits.load(Ordering::Relaxed));
    println!("shed (BUSY)        : {}", busy.load(Ordering::Relaxed));
    println!("server STATS       : {server_stats}");
    println!(
        "compactions        : {} ({} of them in the final sweep; {} segments evicted)",
        stats.compactions.load(Ordering::Relaxed),
        report.compacted.len(),
        report.evicted_segments
    );
    // Late materialization: reconstruct a matching tuple in-process.
    if let Ok(Some(t)) = table.tuple(0) {
        println!("tuple(0)           : {t:?}");
    }
    println!("wall time          : {secs:.2}s");
}
