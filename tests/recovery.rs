//! Restart recovery and imprint-resident cold eviction, end to end: a
//! durable engine is killed and reopened, answers must come back
//! byte-identical; evicted-cold segments must answer fully-covered
//! counts from the resident imprint alone (zero data bytes faulted) and
//! fault data back in only when a query materializes row ids.

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::{ColumnType, IdList, Value};
use column_imprints::engine::{Engine, EngineConfig, StorageOptions, ValueRange};

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

#[test]
fn restart_recovers_byte_identical_answers() {
    let root = tmproot("restart");
    let engine = seed_engine(durable_cfg(&root));
    let oracle = answers(&engine);
    let rows = engine.table("t").unwrap().row_count();
    drop(engine);

    let (engine, report) = Engine::open(durable_cfg(&root)).unwrap();
    assert_eq!(report.tables, 1);
    assert_eq!(report.segments, 4, "3 full segments + 1 flushed head");
    assert_eq!(report.rows, rows);
    assert!(report.indexes_recovered > 0, "persisted indexes must be read back");
    assert_eq!(report.indexes_rebuilt, 0, "no rebuild needed on a clean restart");

    // The fast restart path leaves data evicted until first touched.
    let stats = engine.catalog().storage_stats();
    assert_eq!(stats.data_bytes_resident, 0);
    assert!(stats.data_bytes_evicted > 0);

    assert_eq!(engine.table("t").unwrap().row_count(), rows);
    assert_eq!(answers(&engine), oracle, "recovered answers must be byte-identical");

    // Appending keeps working after recovery: row ids resume past the
    // recovered tail.
    let t = engine.table("t").unwrap();
    t.append_batch(vec![
        AnyColumn::I64((3500..3600).collect()),
        AnyColumn::I64((3500..3600).map(|i| i % 97).collect()),
    ])
    .unwrap();
    assert_eq!(t.row_count(), rows + 100);
    let tail = engine.query("t", &[("id", ValueRange::at_least(Value::I64(3550)))]).unwrap();
    assert_eq!(tail.len(), 50);
    let _ = std::fs::remove_dir_all(root);
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
fn rebuild_path_answers_identically() {
    let root = tmproot("rebuild");
    let engine = seed_engine(durable_cfg(&root));
    let oracle = answers(&engine);
    drop(engine);

    let mut cfg = durable_cfg(&root);
    cfg.storage.load_indexes = false;
    let (engine, report) = Engine::open(cfg).unwrap();
    assert_eq!(report.indexes_recovered, 0);
    assert!(report.indexes_rebuilt > 0, "indexes must be rebuilt from column data");
    assert!(report.rebuild_nanos > 0);
    assert_eq!(answers(&engine), oracle, "rebuilt answers must be byte-identical");
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

/// Every `ColumnType`, one column each, answers a point, a range, an
/// IN-list, an `OR` pair and a two-column conjunction — ids and counts —
/// exactly like a brute-force oracle: resident (seven seals and a
/// tail-indexed head), after a merging tick, fully evicted (covered counts
/// faulting nothing), and reopened with the persisted indexes read back
/// and with them rebuilt.
#[test]
fn every_scalar_type_answers_like_the_oracle_through_every_stage() {
    use column_imprints::colstore::{dispatch, Scalar};
    use column_imprints::engine::{BatchAnswer, BatchQuery, MaintenanceConfig, ValueSet};

    const TYPES: [ColumnType; 10] = [
        ColumnType::I8,
        ColumnType::U8,
        ColumnType::I16,
        ColumnType::U16,
        ColumnType::I32,
        ColumnType::U32,
        ColumnType::I64,
        ColumnType::U64,
        ColumnType::F32,
        ColumnType::F64,
    ];
    // Column `c` stores `x - shift` for an oracle value `x` in 0..=100, so
    // signed and float columns hold negatives too. Every such value is
    // exact in every type, so a predicate on `x` is the same predicate on
    // the stored value.
    let val = |c: usize, x: i64| {
        let unsigned = [ColumnType::U8, ColumnType::U16, ColumnType::U32, ColumnType::U64];
        let v = (x - if unsigned.contains(&TYPES[c]) { 0 } else { 50 }).to_string();
        dispatch!(type T = TYPES[c] => v.parse::<T>().unwrap().into_value())
    };
    let between = |c: usize, lo: i64, hi: i64| ValueRange::between(val(c, lo), val(c, hi));
    let name = |c: usize| TYPES[c].to_string();
    let x_of = |c: usize, i: i64| match i % 5 {
        0 => (i * 2_654_435_761 + c as i64 * 97).rem_euclid(101),
        _ => (i / 16 + 13 * c as i64) % 101,
    };

    let root = tmproot("ten_types");
    let cfg = |load_indexes| EngineConfig {
        segment_rows: 256,
        tail_index_min_rows: 64,
        workers: 2,
        maintenance: MaintenanceConfig { tier_fanin: 2, ..Default::default() },
        storage: StorageOptions {
            root: Some(root.clone()),
            max_resident_data_bytes: 0,
            load_indexes,
        },
        ..Default::default()
    };
    let engine = Engine::new(cfg(true));
    let names: Vec<String> = (0..10).map(name).collect();
    let schema: Vec<(&str, ColumnType)> = names.iter().map(String::as_str).zip(TYPES).collect();
    let t = engine.create_table("t", &schema).unwrap();
    let mut xs: Vec<Vec<i64>> = vec![Vec::new(); 10];
    let mut rows = 0;
    for batch in [1, 97, 255, 300, 17, 512, 63, 400, 297] {
        let mut bufs: Vec<AnyColumn> = TYPES.map(AnyColumn::new_empty).into();
        for i in rows..rows + batch {
            for (c, buf) in bufs.iter_mut().enumerate() {
                xs[c].push(x_of(c, i));
                buf.push_value(val(c, x_of(c, i))).unwrap();
            }
        }
        t.append_batch(bufs).unwrap();
        rows += batch;
    }
    let rows = rows as u64;
    assert_eq!((t.sealed_segment_count(), rows), (7, 7 * 256 + 150));

    // Per column: the five query shapes, each with its oracle row test.
    type RowTest = Box<dyn Fn(&[Vec<i64>], usize) -> bool>;
    fn test(f: impl Fn(&[Vec<i64>], usize) -> bool + 'static) -> RowTest {
        Box::new(f)
    }
    type Case = (Vec<(String, ValueSet)>, bool, RowTest);
    let mut cases: Vec<Case> = Vec::new();
    for c in 0..10 {
        let d = (c + 1) % 10;
        let set = |c: usize, lo, hi| (name(c), ValueSet::range(between(c, lo, hi)));
        let p = xs[c][777];
        let in_list = ValueSet::points([3, 50, 99].map(|x| val(c, x)));
        cases.extend([
            (vec![set(c, p, p)], false, test(move |xs, i| xs[c][i] == p)),
            (vec![set(c, 20, 45)], false, test(move |xs, i| (20..=45).contains(&xs[c][i]))),
            (vec![(name(c), in_list)], false, test(move |xs, i| [3, 50, 99].contains(&xs[c][i]))),
            (
                vec![set(c, 0, 5), set(d, 95, 100)],
                true,
                test(move |xs, i| xs[c][i] <= 5 || xs[d][i] >= 95),
            ),
            (
                vec![set(c, 10, 60), set(d, 30, 80)],
                false,
                test(move |xs, i| (10..=60).contains(&xs[c][i]) && (30..=80).contains(&xs[d][i])),
            ),
        ]);
    }
    let check = |engine: &Engine, stage: &str| {
        let t = engine.table("t").unwrap();
        assert_eq!(t.row_count(), rows, "{stage}");
        let batch: Vec<BatchQuery> = cases
            .iter()
            .flat_map(|(preds, any, _)| {
                [false, true].map(|count_only| BatchQuery {
                    preds: preds.clone(),
                    any: *any,
                    count_only,
                })
            })
            .collect();
        let out = t.query_batch(&batch, Some(engine.pool()));
        for ((q, got), (.., test)) in batch.iter().zip(out).zip(cases.iter().flat_map(|c| [c, c])) {
            let ids: Vec<u64> = (0..rows).filter(|&i| test(&xs, i as usize)).collect();
            assert!(!ids.is_empty(), "every shape must select rows: {q:?}");
            let want = match q.count_only {
                true => BatchAnswer::Count(ids.len() as u64),
                false => BatchAnswer::Ids(IdList::from_sorted(ids)),
            };
            assert_eq!(got.unwrap().0, want, "{stage}: {q:?}");
        }
    };
    // A count over a type's whole domain is covered by every imprint.
    let covered_counts_fault_nothing = |engine: &Engine, stage: &str| {
        let t = engine.table("t").unwrap();
        let before = engine.catalog().storage_stats().faulted_bytes;
        for (c, &ty) in TYPES.iter().enumerate() {
            let (lo, hi) = dispatch!(type T = ty => {
                (T::MIN_VALUE.into_value(), T::MAX_VALUE.into_value())
            });
            let n = t.count(&[(name(c).as_str(), ValueRange::between(lo, hi))], None).unwrap();
            assert_eq!(n, rows, "{stage}: {}", name(c));
        }
        assert_eq!(engine.catalog().storage_stats().faulted_bytes, before, "{stage}");
    };

    // The zero resident budget evicts whatever a tick leaves resident: the
    // merged segments answer from their files, and the second tick evicts
    // again what those answers faulted in.
    assert_eq!(engine.catalog().storage_stats().data_bytes_evicted, 0);
    check(&engine, "resident");
    let report = engine.maintenance_tick();
    assert!(!report.compacted.is_empty(), "fan-in 2 must merge the seven seals: {report:?}");
    check(&engine, "merged");
    engine.maintenance_tick();
    assert_eq!(engine.catalog().storage_stats().data_bytes_resident, 0, "a zero budget evicts all");
    covered_counts_fault_nothing(&engine, "evicted");
    check(&engine, "evicted");
    assert_eq!(engine.flush(), 1, "the open head must seal durably");
    drop(engine);

    for load_indexes in [true, false] {
        let (engine, report) = Engine::open(cfg(load_indexes)).unwrap();
        let stage = format!("reopened, load_indexes {load_indexes}");
        assert_eq!(report.rows, rows, "{stage}");
        if load_indexes {
            assert_eq!(report.indexes_rebuilt, 0, "{stage}");
            covered_counts_fault_nothing(&engine, &stage);
        } else {
            assert_eq!(report.indexes_recovered, 0, "{stage}");
        }
        check(&engine, &stage);
    }
    let _ = std::fs::remove_dir_all(root);
}
