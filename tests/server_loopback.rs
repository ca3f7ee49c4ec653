//! Loopback integration tests for the network front-end: concurrent
//! clients must see responses byte-identical to the in-process oracle,
//! overload must shed with `BUSY` (never a hang), one connection must not
//! wait behind another while a dispatcher is free, a connection's replies
//! must keep its request order, shutdown must drain, and
//! `Catalog::drop_table` must not invalidate snapshots pinned by in-flight
//! batches. Every engine here has `workers: 2`, hence two dispatchers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::{ColumnType, Value};
use column_imprints::engine::{
    BatchAnswer, BatchQuery, Engine, EngineConfig, ValueRange, ValueSet,
};
use column_imprints::server::protocol::{fmt_err, fmt_ok_count, fmt_ok_ids};
use column_imprints::server::{Client, Reply, Server, ServerConfig, ServerStats};

const SENSORS: u64 = 13;
const VALUE_MOD: u64 = 10007;

/// An engine with one static table `readings(sensor: U16, value: I64)`:
/// `sensor = i % 13`, `value = i * 7919 % 10007`. Static data keeps every
/// oracle answer stable while clients hammer the server.
fn build_engine(rows: u64, segment_rows: usize) -> Arc<Engine> {
    let engine =
        Arc::new(Engine::new(EngineConfig { segment_rows, workers: 2, ..Default::default() }));
    let t = engine
        .create_table("readings", &[("sensor", ColumnType::U16), ("value", ColumnType::I64)])
        .unwrap();
    let sensor: Vec<u16> = (0..rows).map(|i| (i % SENSORS) as u16).collect();
    let value: Vec<i64> = (0..rows).map(|i| (i.wrapping_mul(7919) % VALUE_MOD) as i64).collect();
    t.append_batch(vec![
        AnyColumn::U16(sensor.into_iter().collect()),
        AnyColumn::I64(value.into_iter().collect()),
    ])
    .unwrap();
    engine
}

/// One deterministic mixed request: the wire body, and the oracle preds +
/// verb to compute the expected response from the in-process engine.
fn mixed_request(engine: &Engine, tag: &str, c: usize, i: usize) -> (String, String) {
    let s = ((c * 7 + i) % SENSORS as usize) as u16;
    let s2 = ((c * 5 + i * 3) % SENSORS as usize) as u16;
    let (lo, hi) = (s.min(s2), s.max(s2));
    let x = ((c * 131 + i * 17) % VALUE_MOD as usize) as i64;
    match (c + i) % 4 {
        0 => {
            let body = format!("QUERY readings sensor={s}");
            let ids = engine.query("readings", &[("sensor", ValueRange::equals(Value::U16(s)))]);
            (body, fmt_ok_ids(Some(tag), ids.unwrap().as_slice()))
        }
        1 => {
            let body = format!("COUNT readings value<={x}");
            let n = engine.count("readings", &[("value", ValueRange::at_most(Value::I64(x)))]);
            (body, fmt_ok_count(Some(tag), n.unwrap()))
        }
        2 => {
            let body = format!("QUERY readings sensor={lo}..{hi} value>={x}");
            let ids = engine.query(
                "readings",
                &[
                    ("sensor", ValueRange::between(Value::U16(lo), Value::U16(hi))),
                    ("value", ValueRange::at_least(Value::I64(x))),
                ],
            );
            (body, fmt_ok_ids(Some(tag), ids.unwrap().as_slice()))
        }
        _ => {
            let body = format!("COUNT readings sensor>={lo} value<={x}");
            let n = engine.count(
                "readings",
                &[
                    ("sensor", ValueRange::at_least(Value::U16(lo))),
                    ("value", ValueRange::at_most(Value::I64(x))),
                ],
            );
            (body, fmt_ok_count(Some(tag), n.unwrap()))
        }
    }
}

#[test]
fn concurrent_clients_match_in_process_oracle() {
    let engine = build_engine(40_000, 1024);
    let server =
        Server::start(Arc::clone(&engine), ServerConfig::from_engine(engine.config())).unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..6usize)
        .map(|c| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                for i in 0..50usize {
                    let tag = format!("c{c}-{i}");
                    let (body, expected) = mixed_request(&engine, &tag, c, i);
                    client.send(&format!("#{tag} {body}")).unwrap();
                    let line = client.recv().unwrap();
                    assert_eq!(line, expected, "response mismatch for {body:?}");
                }
                // Inline verbs and error paths, also byte-checked.
                assert_eq!(
                    client.roundtrip("TABLES").unwrap(),
                    Reply::Ok(vec!["readings".to_string()])
                );
                assert_eq!(client.ping().unwrap(), Reply::Ok(Vec::new()));
                let not_found = engine.table("nope").err().expect("lookup fails").to_string();
                client.send("#e QUERY nope sensor=1").unwrap();
                assert_eq!(client.recv().unwrap(), fmt_err(Some("e"), &not_found));
                client.send("#f COUNT readings bogus=1").unwrap();
                assert_eq!(
                    client.recv().unwrap(),
                    fmt_err(Some("f"), "no column \"bogus\" in table \"readings\"")
                );
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.shed, 0, "the sync round-trip load must never overflow the default queue");
    // 50 mixed requests plus the two error-path requests per client — the
    // bad-table and bad-column QUERY/COUNTs are admitted too (they fail at
    // dispatch, after the queue).
    assert_eq!(stats.admitted, 6 * 52, "every QUERY/COUNT goes through admission");
    assert!(stats.batches > 0 && stats.batched_requests == stats.admitted);
}

#[test]
fn overload_sheds_with_busy_and_nothing_hangs() {
    const FLOOD: usize = 1000;
    let engine = build_engine(200_000, 2048);
    let cfg =
        ServerConfig { queue_depth: 4, batch_max: 4, ..ServerConfig::from_engine(engine.config()) };
    let server = Server::start(Arc::clone(&engine), cfg).unwrap();
    let oracle_heavy =
        engine.query("readings", &[("value", ValueRange::at_least(Value::I64(1)))]).unwrap();
    let oracle_count =
        engine.count("readings", &[("sensor", ValueRange::equals(Value::U16(1)))]).unwrap();

    // Pipeline one huge materializing query, then flood counts without
    // reading: the dispatcher saturates, the 4-deep queue overflows, and
    // everything past it must shed with an immediate tagged BUSY.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    client.send("#h QUERY readings value>=1").unwrap();
    for i in 0..FLOOD {
        client.send(&format!("#c{i} COUNT readings sensor=1")).unwrap();
    }
    let mut seen: HashMap<String, Reply> = HashMap::new();
    for _ in 0..FLOOD + 1 {
        let (tag, reply) = client.recv_reply().unwrap();
        let tag = tag.expect("every reply carries its request tag");
        assert!(seen.insert(tag.clone(), reply).is_none(), "duplicate reply for {tag:?}");
    }

    assert_eq!(seen["h"].ids().expect("heavy query must succeed"), oracle_heavy.as_slice());
    let (mut ok, mut busy) = (0usize, 0usize);
    for i in 0..FLOOD {
        match &seen[&format!("c{i}")] {
            Reply::Busy => busy += 1,
            reply => {
                assert_eq!(reply.count(), Some(oracle_count), "admitted count must be exact");
                ok += 1;
            }
        }
    }
    assert_eq!(ok + busy, FLOOD);
    assert!(busy > 0, "a 4-deep queue under a {FLOOD}-request flood must shed");
    let stats = server.stats();
    assert_eq!(stats.shed, busy as u64);
    assert_eq!(stats.admitted, 1 + ok as u64);
}

/// Parks every worker of the engine's pool until the returned senders are
/// dropped. A request over more than one sealed segment fans out on the
/// pool, so the dispatcher serving it then waits in `scatter` for exactly
/// as long as the test wants — on any host, whatever its socket buffers.
fn park_pool(engine: &Engine) -> Vec<mpsc::Sender<()>> {
    (0..engine.pool().workers())
        .map(|_| {
            let (release, parked) = mpsc::channel::<()>();
            engine.pool().spawn(move || {
                let _ = parked.recv();
            });
            release
        })
        .collect()
}

/// Opens a connection and sends one request that needs the (parked) pool;
/// returns once a dispatcher has taken it and the connection is one of
/// `in_service` held ones.
fn occupy_dispatcher(server: &Server, tag: &str, in_service: u64) -> Client {
    let drained_before = server.stats().batched_requests;
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    client.send(&format!("#{tag} QUERY readings value>=1")).unwrap();
    wait_for(server, |s| s.batched_requests == drained_before + 1 && s.in_service == in_service);
    client
}

/// Polls the server's counters until `ready` holds.
fn wait_for(server: &Server, ready: impl Fn(&ServerStats) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !ready(&server.stats()) {
        assert!(std::time::Instant::now() < deadline, "stuck at {:?}", server.stats());
        thread::sleep(Duration::from_millis(1));
    }
}

/// No head-of-line blocking across connections: while one dispatcher is
/// held up inside a connection's request, another connection's request —
/// sent afterwards — is answered by the other dispatcher, before the first
/// connection has its reply. `notes` has no sealed segment, so its requests
/// run on the dispatcher's own thread and do not need the parked pool.
#[test]
fn busy_dispatcher_does_not_block_another_connection() {
    let engine = build_engine(20_000, 1024);
    let notes = engine.create_table("notes", &[("n", ColumnType::I64)]).unwrap();
    notes.append_batch(vec![AnyColumn::I64((0..100i64).collect())]).unwrap();
    let server =
        Server::start(Arc::clone(&engine), ServerConfig::from_engine(engine.config())).unwrap();
    let oracle_heavy =
        engine.query("readings", &[("value", ValueRange::at_least(Value::I64(1)))]).unwrap();

    let parked = park_pool(&engine);
    let mut held = occupy_dispatcher(&server, "h", 1);
    let mut quick = Client::connect(server.local_addr()).unwrap();
    quick.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    assert_eq!(quick.count("notes", &["n>=40"]).unwrap().count(), Some(60));
    // The operator's view of the same moment, over the wire.
    let Reply::Ok(stats) = quick.roundtrip("STATS").unwrap() else { panic!("STATS answers OK") };
    let stat = |key: &str| -> u64 {
        let field = stats.iter().find_map(|f| f.strip_prefix(key)).expect(key);
        field.parse().unwrap()
    };
    assert_eq!((stat("dispatchers="), stat("queued=")), (2, 0));
    assert!(stat("in_service=") >= 1, "the held connection's request is still being served");
    drop(parked);
    assert_eq!(held.recv().unwrap(), fmt_ok_ids(Some("h"), oracle_heavy.as_slice()));
}

/// One connection's pipelined replies never reorder, although either
/// dispatcher may serve any of its batches: 200 untagged requests with
/// pairwise-distinct answers, one to a batch and alternately dear (ids)
/// and cheap (a count) — so that a second dispatcher running the next
/// request beside the current one would finish first — come back in
/// request order.
#[test]
fn pipelined_replies_keep_request_order_across_dispatchers() {
    let engine = build_engine(20_000, 1024);
    let cfg = ServerConfig { batch_max: 1, ..ServerConfig::from_engine(engine.config()) };
    let server = Server::start(Arc::clone(&engine), cfg).unwrap();
    assert_eq!(server.stats().dispatchers, 2);
    // `value` takes every one of 0..VALUE_MOD at least once, so the rows
    // below a bound grow strictly with the bound.
    let requests: Vec<(String, String)> = (0..200i64)
        .map(|i| {
            let x = 10 + i * 50;
            let bound = [("value", ValueRange::at_most(Value::I64(x)))];
            if i % 2 == 0 {
                let ids = engine.query("readings", &bound).unwrap();
                (format!("QUERY readings value<={x}"), fmt_ok_ids(None, ids.as_slice()))
            } else {
                let n = engine.count("readings", &bound).unwrap();
                (format!("COUNT readings value<={x}"), fmt_ok_count(None, n))
            }
        })
        .collect();

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    for (request, _) in &requests {
        client.send(request).unwrap();
    }
    for (i, (request, expected)) in requests.iter().enumerate() {
        assert_eq!(client.recv().unwrap(), *expected, "reply {i} must answer {request:?}");
    }
    assert_eq!(server.stats().batches, 200);
}

/// A queue that holds nothing, or batches that take nothing (every
/// dispatcher would drain an empty batch and wait again, so no request is
/// ever answered), are refused by `Server::start` with `InvalidInput`.
#[test]
fn zero_queue_depth_or_batch_max_is_refused_at_start() {
    let engine = build_engine(1_000, 1024);
    for cfg in [
        ServerConfig { queue_depth: 0, ..ServerConfig::default() },
        ServerConfig { batch_max: 0, ..ServerConfig::default() },
    ] {
        let refused = Server::start(Arc::clone(&engine), cfg.clone());
        let err = refused.err().unwrap_or_else(|| panic!("{cfg:?} must be refused"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{cfg:?}: {err}");
    }
    let cfg = ServerConfig { queue_depth: 1, batch_max: 1, ..ServerConfig::default() };
    let server = Server::start(Arc::clone(&engine), cfg).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    client.send("COUNT readings sensor=0").unwrap();
    let n = engine.count("readings", &[("sensor", ValueRange::equals(Value::U16(0)))]).unwrap();
    assert_eq!(client.recv().unwrap(), fmt_ok_count(None, n));
}

#[test]
fn shutdown_drains_queued_requests_with_busy() {
    let engine = build_engine(20_000, 1024);
    let server =
        Server::start(Arc::clone(&engine), ServerConfig::from_engine(engine.config())).unwrap();
    let oracle_heavy =
        engine.query("readings", &[("value", ValueRange::at_least(Value::I64(1)))]).unwrap();
    // Occupy both dispatchers, one after the other so that each holds one
    // connection's request: everything a third client pipelines stays
    // queued until shutdown lands — the drain must answer all of it with
    // BUSY, finish the two requests in flight, then hang up.
    let parked = park_pool(&engine);
    let mut occupiers = [occupy_dispatcher(&server, "a", 1), occupy_dispatcher(&server, "b", 2)];
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    assert_eq!(client.ping().unwrap(), Reply::Ok(Vec::new()), "inline verbs bypass the queue");
    for i in 0..13 {
        client.send(&format!("#q{i} QUERY readings sensor=1")).unwrap();
    }
    wait_for(&server, |s| s.queued == 13);

    let stopper = thread::spawn(move || {
        let mut server = server;
        server.shutdown();
        server
    });
    let mut tags: Vec<String> = Vec::new();
    for _ in 0..13 {
        let (tag, reply) = client.recv_reply().unwrap();
        assert_eq!(reply, Reply::Busy, "queued requests are shed at drain");
        tags.push(tag.expect("tag echoed"));
    }
    tags.sort();
    let mut expect: Vec<String> = (0..13).map(|i| format!("q{i}")).collect();
    expect.sort();
    assert_eq!(tags, expect, "every queued request is answered exactly once");
    // The drain waits for the in-flight batches: a half-dispatched request
    // is answered in full, not aborted.
    drop(parked);
    for (occupier, tag) in occupiers.iter_mut().zip(["a", "b"]) {
        assert_eq!(occupier.recv().unwrap(), fmt_ok_ids(Some(tag), oracle_heavy.as_slice()));
    }
    assert!(client.recv_reply().is_err(), "then the connection is closed by the drain");
    // Idempotent, and the engine daemon slot is already stopped.
    stopper.join().unwrap().shutdown();
}

/// Hostile and broken input must never kill a reader thread: malformed
/// requests get `ERR`, an oversized line gets an untagged `ERR` with the
/// connection (and every other client) intact, and mid-line EOF is a clean
/// teardown. See `lint_policy.toml` `[server_panics]` — the analyzer bans
/// unwrap/expect/panic/indexing on these paths, and this test drives the
/// inputs those panics would have hit.
#[test]
fn hostile_input_gets_err_replies_never_a_dead_server() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let engine = build_engine(10_000, 1024);
    let cfg = ServerConfig { max_line_bytes: 4096, ..ServerConfig::from_engine(engine.config()) };
    let server = Server::start(Arc::clone(&engine), cfg).unwrap();
    let addr = server.local_addr();
    let oracle_count =
        engine.count("readings", &[("sensor", ValueRange::equals(Value::U16(1)))]).unwrap();

    // A well-behaved bystander, checked again after every abuse below.
    let mut bystander = Client::connect(addr).unwrap();
    bystander.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut check_bystander = |when: &str| {
        let reply = bystander.count("readings", &["sensor=1"]).unwrap();
        assert_eq!(reply.count(), Some(oracle_count), "bystander broken {when}");
    };
    check_bystander("before any abuse");

    // Malformed requests: every one gets a one-line ERR on the same
    // connection, which then keeps working.
    let mut abuser = Client::connect(addr).unwrap();
    abuser.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for bad in [
        "FLY readings",
        "QUERY",
        "COUNT readings sensor",
        "COUNT readings =3",
        "COUNT readings sensor=",
        "COUNT readings sensor=1..",
        "TABLES extra",
        "#tagged-bad STATS a b",
    ] {
        match abuser.roundtrip(bad).unwrap() {
            Reply::Err(_) => {}
            other => panic!("{bad:?} must be answered ERR, got {other:?}"),
        }
    }
    assert_eq!(abuser.count("readings", &["sensor=1"]).unwrap().count(), Some(oracle_count));
    check_bystander("after malformed requests");

    // An oversized line (past max_line_bytes) is discarded as it streams
    // in and answered with an untagged ERR; the same connection then
    // serves a normal request.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut huge = String::from("#big QUERY readings ");
    while huge.len() <= 5000 {
        huge.push_str("sensor=1 ");
    }
    huge.push('\n');
    raw.write_all(huge.as_bytes()).unwrap();
    let mut lines = BufReader::new(raw.try_clone().unwrap());
    let mut reply = String::new();
    lines.read_line(&mut reply).unwrap();
    assert!(
        reply.starts_with("ERR") && reply.contains("4096"),
        "oversized line must get an untagged ERR naming the cap, got {reply:?}"
    );
    raw.write_all(b"#ok COUNT readings sensor=1\n").unwrap();
    reply.clear();
    lines.read_line(&mut reply).unwrap();
    assert_eq!(
        reply.trim(),
        format!("#ok OK {oracle_count}"),
        "the connection must survive its own oversized line"
    );
    check_bystander("after the oversized line");

    // Invalid UTF-8 on the wire: ERR, connection still alive.
    raw.write_all(b"#u8 COUNT readings sensor=\xff\xfe\n").unwrap();
    reply.clear();
    lines.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ERR"), "non-UTF-8 line must get ERR, got {reply:?}");
    raw.write_all(b"PING\n").unwrap();
    reply.clear();
    lines.read_line(&mut reply).unwrap();
    assert_eq!(reply.trim(), "OK");
    check_bystander("after invalid UTF-8");

    // Mid-line EOF: a partial request with no newline, then hangup. The
    // reader must tear down cleanly — no reply, no panic, and the server
    // keeps serving everyone else.
    let mut torn = TcpStream::connect(addr).unwrap();
    torn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    torn.write_all(b"#torn COUNT readings sens").unwrap();
    torn.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    torn.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "a torn request must not be answered, got {rest:?}");
    check_bystander("after a mid-line EOF");
}

/// The multi-predicate wire forms — IN-lists (`col=5,7,9`) and `OR`
/// groups — must answer byte-identically to the engine's set-based entry
/// points, and their malformed variants must get `ERR` while a bystander
/// connection keeps working.
#[test]
fn multi_predicate_wire_forms_match_oracle() {
    let engine = build_engine(40_000, 1024);
    let server =
        Server::start(Arc::clone(&engine), ServerConfig::from_engine(engine.config())).unwrap();
    let addr = server.local_addr();
    let table = engine.table("readings").unwrap();

    let mut bystander = Client::connect(addr).unwrap();
    bystander.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let oracle_count =
        engine.count("readings", &[("sensor", ValueRange::equals(Value::U16(1)))]).unwrap();
    let mut check_bystander = |when: &str| {
        let reply = bystander.count("readings", &["sensor=1"]).unwrap();
        assert_eq!(reply.count(), Some(oracle_count), "bystander broken {when}");
    };
    check_bystander("before the multi-predicate traffic");

    let mut client = Client::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();

    // The in-process answers the wire must reproduce byte for byte.
    let ids_of = |q: BatchQuery| match table.query_one(&q, None).unwrap().0 {
        BatchAnswer::Ids(ids) => ids,
        BatchAnswer::Count(_) => panic!("a materializing query answers with ids"),
    };

    // IN-list alone.
    let in_list = ValueSet::points([Value::U16(1), Value::U16(4), Value::U16(9)]);
    let ids = ids_of(BatchQuery::ids_sets(vec![("sensor".into(), in_list.clone())]));
    client.send("#in QUERY readings sensor=1,4,9").unwrap();
    assert_eq!(client.recv().unwrap(), fmt_ok_ids(Some("in"), ids.as_slice()));

    // IN-list conjoined with a range predicate.
    let ids = ids_of(BatchQuery::ids_sets(vec![
        ("sensor".into(), in_list.clone()),
        ("value".into(), ValueSet::range(ValueRange::at_most(Value::I64(5000)))),
    ]));
    client.send("#inand QUERY readings sensor=1,4,9 value<=5000").unwrap();
    assert_eq!(client.recv().unwrap(), fmt_ok_ids(Some("inand"), ids.as_slice()));

    // OR group: the union of its arms, for QUERY and COUNT alike.
    let or_preds = vec![
        ("sensor".to_string(), ValueSet::range(ValueRange::equals(Value::U16(2)))),
        ("value".to_string(), ValueSet::range(ValueRange::at_least(Value::I64(9000)))),
    ];
    let ids = ids_of(BatchQuery::ids_sets(or_preds.clone()).or_group());
    client.send("#or QUERY readings OR sensor=2 value>=9000").unwrap();
    assert_eq!(client.recv().unwrap(), fmt_ok_ids(Some("or"), ids.as_slice()));
    let counted = table.query_one(&BatchQuery::count_sets(or_preds).or_group(), None).unwrap().0;
    assert_eq!(counted, BatchAnswer::Count(ids.len() as u64));
    client.send("#orc COUNT readings or sensor=2 value>=9000").unwrap();
    assert_eq!(client.recv().unwrap(), fmt_ok_count(Some("orc"), ids.len() as u64));
    check_bystander("after the well-formed multi-predicate requests");

    // Malformed IN-list / OR syntax: a tagged ERR each, connection and
    // bystander intact.
    for bad in [
        "QUERY readings sensor=1..3,9", // range inside an IN-list
        "QUERY readings sensor=5,,9",   // empty list item
        "QUERY readings sensor=5,",     // trailing comma
        "QUERY readings OR",            // empty OR group
        "COUNT readings or",            // ditto, case-insensitive
    ] {
        match client.roundtrip(bad).unwrap() {
            Reply::Err(_) => {}
            other => panic!("{bad:?} must be answered ERR, got {other:?}"),
        }
        check_bystander("after a malformed multi-predicate request");
    }
    // An IN-list item that fails schema typing errs at dispatch, after
    // admission — still a tagged ERR, still a live connection.
    match client.roundtrip("QUERY readings sensor=1,66000").unwrap() {
        Reply::Err(msg) => assert!(msg.contains("66000"), "typing error names the value: {msg}"),
        other => panic!("out-of-range IN-list item must ERR, got {other:?}"),
    }
    assert_eq!(client.count("readings", &["sensor=1"]).unwrap().count(), Some(oracle_count));
    check_bystander("after the mistyped IN-list item");
}

#[test]
fn drop_table_keeps_pinned_batches_valid() {
    let engine = build_engine(60_000, 1024);
    let table = engine.table("readings").unwrap();
    let queries = vec![
        BatchQuery::ids(vec![("sensor".to_string(), ValueRange::equals(Value::U16(3)))]),
        BatchQuery::count(vec![("value".to_string(), ValueRange::at_most(Value::I64(500)))]),
    ];
    let expected: Vec<BatchAnswer> = table
        .query_batch(&queries, Some(engine.pool()))
        .into_iter()
        .map(|r| r.unwrap().0)
        .collect();

    let dropped = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let table = Arc::clone(&table);
            let engine = Arc::clone(&engine);
            let queries = queries.clone();
            let expected = expected.clone();
            let dropped = Arc::clone(&dropped);
            thread::spawn(move || {
                let mut after_drop = 0u32;
                while after_drop < 20 {
                    let got: Vec<BatchAnswer> = table
                        .query_batch(&queries, Some(engine.pool()))
                        .into_iter()
                        .map(|r| r.unwrap().0)
                        .collect();
                    assert_eq!(got, expected, "a held Arc<Table> must answer identically");
                    if dropped.load(Ordering::SeqCst) {
                        after_drop += 1;
                    }
                }
            })
        })
        .collect();
    thread::sleep(Duration::from_millis(20));
    assert!(engine.catalog().drop_table("readings"), "table was registered");
    dropped.store(true, Ordering::SeqCst);
    assert!(engine.table("readings").is_err(), "catalog lookup fails after the drop");
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn drop_table_race_over_the_wire_answers_everything() {
    const REQUESTS: usize = 200;
    let engine = build_engine(30_000, 1024);
    let server =
        Server::start(Arc::clone(&engine), ServerConfig::from_engine(engine.config())).unwrap();
    let oracle_count =
        engine.count("readings", &[("sensor", ValueRange::equals(Value::U16(2)))]).unwrap();
    // The exact catalog error the server forwards once the table is gone,
    // probed through an unregistered name.
    let not_found = engine
        .table("probe")
        .err()
        .expect("lookup fails")
        .to_string()
        .replace("\"probe\"", "\"readings\"");

    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    for i in 0..REQUESTS {
        client.send(&format!("#c{i} COUNT readings sensor=2")).unwrap();
    }
    thread::sleep(Duration::from_millis(2));
    engine.catalog().drop_table("readings");
    for _ in 0..REQUESTS {
        let (tag, reply) = client.recv_reply().unwrap();
        assert!(tag.is_some());
        match reply {
            Reply::Busy => panic!("default queue depth must not shed {REQUESTS} requests"),
            Reply::Err(msg) => assert_eq!(msg, not_found, "only the not-found error is allowed"),
            ok => assert_eq!(ok.count(), Some(oracle_count), "pinned batches answer exactly"),
        }
    }
}

/// A column file that vanishes under an evicted segment fails the query
/// that needs it with `ERR` — on the one-sealed-segment shape, where the
/// sweep runs on the dispatcher thread itself — and the dispatcher lives
/// to answer the next request, on any table.
#[test]
fn vanished_column_file_gets_err_and_the_dispatcher_survives() {
    let root = std::env::temp_dir().join(format!("imprints-loopback-cold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut cfg = EngineConfig { segment_rows: 1024, workers: 2, ..Default::default() };
    cfg.storage.root = Some(root.clone());
    cfg.storage.max_resident_data_bytes = 0;
    let engine = Arc::new(Engine::new(cfg));
    for (name, rows) in [("cold", 1024), ("warm", 1124)] {
        let t = engine.create_table(name, &[("v", ColumnType::I64)]).unwrap();
        t.append_batch(vec![AnyColumn::I64((0..rows).collect())]).unwrap();
        assert_eq!((t.sealed_segment_count(), t.persist_errors()), (1, 0));
    }
    for _ in 0..8 {
        engine.maintenance_tick();
    }
    assert_eq!(engine.catalog().storage_stats().data_bytes_resident, 0, "both segments evicted");
    let mut removed = 0;
    for seg in std::fs::read_dir(root.join("cold")).unwrap() {
        let seg = seg.unwrap().path();
        if seg.is_dir() {
            std::fs::remove_file(seg.join("c0.col")).unwrap();
            removed += 1;
        }
    }
    assert_eq!(removed, 1);

    let server =
        Server::start(Arc::clone(&engine), ServerConfig::from_engine(engine.config())).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    // The range needs a value check, so the query must fault `c0.col` in.
    client.send("#q QUERY cold v=3..9").unwrap();
    let line = client.recv().unwrap();
    assert!(line.starts_with("#q ERR "), "a failed fault-in is an ERR reply, got {line:?}");
    client.send("#c COUNT warm v>=100").unwrap();
    assert_eq!(client.recv().unwrap(), fmt_ok_count(Some("c"), 1024));
    drop(server);
    let _ = std::fs::remove_dir_all(&root);
}
