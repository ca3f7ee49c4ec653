//! Durable storage on disk: kill-and-reopen on the read-back and the
//! rebuild path against the engine's model (`model/mod.rs`), every column
//! type through every storage stage, the segment directory layout, garbage
//! collection of orphan directories, corrupt files surfacing as rebuilds
//! or typed errors, and an evicted segment answering a covered count from
//! its resident imprint alone (zero data bytes faulted) and faulting data
//! back in only when a query materializes row ids.

mod model;

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::{ColumnType, IdList, Value};
use column_imprints::engine::{Engine, EngineConfig, StorageOptions, ValueRange};
use model::{durable, Harness, Op, Pred, Query, Term, TYPES};

fn tmproot(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("imprints_rec_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cfg(root: &std::path::Path) -> EngineConfig {
    EngineConfig {
        segment_rows: 1024,
        workers: 2,
        storage: StorageOptions { root: Some(root.to_path_buf()), ..Default::default() },
        ..Default::default()
    }
}

/// Three sealed segments plus a flushed partial head: 3500 rows of
/// `(i, i % 97)` in table `t`.
fn seed_engine(cfg: EngineConfig) -> Engine {
    let engine = Engine::new(cfg);
    engine.create_table("t", &[("id", ColumnType::I64), ("grp", ColumnType::I64)]).unwrap();
    let t = engine.table("t").unwrap();
    let ids: Vec<i64> = (0..3500).collect();
    let grps: Vec<i64> = (0..3500).map(|i| i % 97).collect();
    t.append_batch(vec![
        AnyColumn::I64(ids.into_iter().collect()),
        AnyColumn::I64(grps.into_iter().collect()),
    ])
    .unwrap();
    assert_eq!(engine.flush(), 1, "the partial head must seal durably");
    engine
}

fn probes() -> Vec<Vec<(&'static str, ValueRange)>> {
    vec![
        vec![("id", ValueRange::between(Value::I64(100), Value::I64(180)))],
        vec![("grp", ValueRange::between(Value::I64(3), Value::I64(5)))],
        vec![
            ("id", ValueRange::between(Value::I64(900), Value::I64(2900))),
            ("grp", ValueRange::at_most(Value::I64(10))),
        ],
        vec![("id", ValueRange::at_least(Value::I64(3400)))],
    ]
}

fn answers(engine: &Engine) -> Vec<IdList> {
    probes()
        .iter()
        .map(|p| {
            let preds: Vec<(&str, ValueRange)> = p.clone();
            engine.query("t", &preds).unwrap()
        })
        .collect()
}

/// A segment directory is `c<i>.col` + `c<i>.imp` per column, and a
/// `c<i>.zone` left behind by an older build is never opened: garbage in
/// one does not cost the fast restart path anything.
#[test]
fn segment_directory_is_data_plus_imprint_and_a_leftover_zone_file_is_ignored() {
    let root = tmproot("layout");
    let engine = seed_engine(durable_cfg(&root));
    let oracle = answers(&engine);
    drop(engine);

    let mut seg_dirs = 0;
    for entry in std::fs::read_dir(root.join("t")).unwrap() {
        let dir = entry.unwrap().path();
        if !dir.is_dir() {
            continue;
        }
        seg_dirs += 1;
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["c0.col", "c0.imp", "c1.col", "c1.imp"], "{}", dir.display());
    }
    assert_eq!(seg_dirs, 4);

    let zone = find_file(&root.join("t"), "c0.col").with_extension("zone");
    std::fs::write(&zone, b"not a zonemap").unwrap();

    let (engine, report) = Engine::open(durable_cfg(&root)).unwrap();
    assert_eq!((report.indexes_recovered, report.indexes_rebuilt), (8, 0));
    assert_eq!(engine.catalog().storage_stats().data_bytes_resident, 0);
    assert_eq!(answers(&engine), oracle);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn evicted_count_answers_from_imprint_alone() {
    let root = tmproot("evict");
    let mut cfg = durable_cfg(&root);
    cfg.storage.max_resident_data_bytes = 0;
    let engine = seed_engine(cfg);
    let rows = engine.table("t").unwrap().row_count();
    let oracle = answers(&engine);

    let report = engine.maintenance_tick();
    assert!(report.evicted_segments > 0, "a zero budget must evict every persisted segment");
    assert!(report.evicted_bytes > 0);
    let stats = engine.catalog().storage_stats();
    assert_eq!(stats.data_bytes_resident, 0, "everything sealed is persisted, so evictable");
    assert!(stats.data_bytes_evicted > 0);
    assert_eq!(stats.faulted_bytes, 0);

    // A fully-covered COUNT is answered by the resident imprint: exact
    // answer, zero data bytes read back from disk.
    let n = engine
        .count("t", &[("id", ValueRange::between(Value::I64(i64::MIN), Value::I64(i64::MAX)))])
        .unwrap();
    assert_eq!(n, rows);
    assert_eq!(
        engine.catalog().storage_stats().faulted_bytes,
        0,
        "imprint-covered count must not touch evicted data"
    );

    // Materializing row ids needs value refinement: the data faults back
    // in and the answers still match the pre-eviction oracle.
    assert_eq!(answers(&engine), oracle, "faulted-in answers must match the oracle");
    assert!(engine.catalog().storage_stats().faulted_bytes > 0, "refinement must fault data in");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn orphan_directories_are_garbage_collected() {
    let root = tmproot("orphan");
    let engine = seed_engine(durable_cfg(&root));
    drop(engine);

    // A crashed segment write (tmp dir) and a lost-race replacement dir
    // that no manifest references.
    let tdir = root.join("t");
    std::fs::create_dir_all(tdir.join("seg-000000009999-7.tmp")).unwrap();
    std::fs::create_dir_all(tdir.join("seg-000000009999-8")).unwrap();

    let (engine, report) = Engine::open(durable_cfg(&root)).unwrap();
    assert_eq!(report.orphans_removed, 2);
    assert!(!tdir.join("seg-000000009999-7.tmp").exists());
    assert!(!tdir.join("seg-000000009999-8").exists());
    assert_eq!(engine.table("t").unwrap().row_count(), 3500);
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn corrupt_index_file_falls_back_to_rebuild() {
    let root = tmproot("corrupt_idx");
    let engine = seed_engine(durable_cfg(&root));
    let oracle = answers(&engine);
    drop(engine);

    let imp = find_file(&root.join("t"), "c0.imp");
    flip_byte(&imp, 40);

    let (engine, report) = Engine::open(durable_cfg(&root)).unwrap();
    assert!(report.indexes_rebuilt >= 1, "the damaged imprint must be rebuilt from data");
    assert!(report.indexes_recovered > 0, "undamaged columns still take the fast path");
    assert_eq!(answers(&engine), oracle, "data is ground truth; answers survive index damage");
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn corrupt_data_and_manifest_surface_typed_errors() {
    let root = tmproot("corrupt_data");
    let engine = seed_engine(durable_cfg(&root));
    drop(engine);

    // Damage one column's data *and* index: nothing left to recover that
    // column from, so open must fail with a typed error — not a panic,
    // not a silently wrong table.
    let seg = find_file(&root.join("t"), "c0.col");
    flip_byte(&seg, 100);
    flip_byte(&seg.with_extension("imp"), 100);
    assert!(Engine::open(durable_cfg(&root)).is_err());

    // A damaged manifest is detected before any segment is read.
    let root2 = tmproot("corrupt_manifest");
    let engine = seed_engine(durable_cfg(&root2));
    drop(engine);
    flip_byte(&root2.join("t").join("MANIFEST"), 9);
    assert!(Engine::open(durable_cfg(&root2)).is_err());

    let _ = std::fs::remove_dir_all(root);
    let _ = std::fs::remove_dir_all(root2);
}

/// First file named `name` under any segment directory of `table_dir`.
fn find_file(table_dir: &std::path::Path, name: &str) -> std::path::PathBuf {
    let mut dirs: Vec<_> = std::fs::read_dir(table_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for d in dirs {
        let f = d.join(name);
        if f.is_file() {
            return f;
        }
    }
    panic!("no {name} under {}", table_dir.display());
}

fn flip_byte(path: &std::path::Path, at: usize) {
    let mut bytes = std::fs::read(path).unwrap();
    let i = at.min(bytes.len() - 1);
    bytes[i] ^= 0x40;
    std::fs::write(path, bytes).unwrap();
}

/// Three sealed segments and a flushed partial head, then an unflushed
/// head; a kill and a reopen (indexes read back, or rebuilt) must answer
/// exactly as before the unflushed head, and later appends resume the ids.
fn kill_and_reopen(name: &str, load_indexes: bool) {
    let mut h = Harness::new(durable(name, 1024), vec![ColumnType::I64, ColumnType::I64], 3);
    h.append(3500);
    h.step(Op::Flush);
    let queries: Vec<Query> = (0..8).map(|_| h.gen.query()).collect();
    let answers = |h: &Harness| {
        let types = &h.gen.types;
        let batch: Vec<_> =
            queries.iter().flat_map(|q| [false, true].map(|n| q.batch(types, n))).collect();
        let answers = h.table().query_batch(&batch, None).into_iter();
        answers.map(|a| a.unwrap().0).collect::<Vec<_>>()
    };
    let before = answers(&h);
    h.append(300);
    h.step(Op::Kill { load_indexes });
    assert_eq!(answers(&h), before);
    h.check_queries(queries.clone(), true);
    h.step(Op::AppendSpan);
}

#[test]
fn restart_recovers_byte_identical_answers() {
    kill_and_reopen("restart", true);
}

#[test]
fn rebuild_path_answers_identically() {
    kill_and_reopen("rebuild", false);
}

/// Every `ColumnType` leads a two-column table and answers a point, a
/// range, an IN-list, an `OR` pair and a two-column conjunction — ids and
/// counts — like the model: resident (seven seals and a tail-indexed
/// head), after a merging tick that evicts everything sealed, and reopened
/// with the persisted indexes read back and with them rebuilt.
#[test]
fn every_scalar_type_answers_like_the_oracle_through_every_stage() {
    for (i, ty) in TYPES.into_iter().enumerate() {
        let mut h = Harness::new(
            durable(&format!("types{i}"), 128),
            vec![ty, TYPES[(i + 3) % 10]],
            i as u64,
        );
        h.append(7 * 128 + 100);
        let stage = |h: &mut Harness, op: Option<Op>| {
            if let Some(op) = op {
                h.step(op);
            }
            let g = &mut h.gen;
            let x = g.x();
            let queries = vec![
                Query {
                    preds: vec![Pred { col: 0, terms: vec![Term(Some(x), Some(x))] }],
                    any: false,
                },
                Query { preds: vec![g.range(0)], any: false },
                Query { preds: vec![g.in_list(0)], any: false },
                Query { preds: vec![g.range(0), g.in_list(0)], any: true },
                Query { preds: vec![g.range(0), g.range(1)], any: false },
            ];
            h.check_queries(queries, i % 2 == 0);
        };
        stage(&mut h, None);
        stage(&mut h, Some(Op::Tick));
        stage(&mut h, Some(Op::Flush));
        stage(&mut h, Some(Op::Kill { load_indexes: true }));
        stage(&mut h, Some(Op::Kill { load_indexes: false }));
    }
}
