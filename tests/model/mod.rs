//! One model of the engine, shared by the engine's integration suites. The
//! reference is the appended rows as a `Vec` plus a brute-force filter; a
//! schedule of appends, flushes, maintenance ticks and kill-then-reopen
//! steps drives an [`Engine`] and the model side by side, and after every
//! step the engine must answer like the model:
//!
//! * ids and counts of random And / Or / IN / one-sided / empty queries,
//!   batched and alone, serially and on the pool, with predicate order
//!   permuted on repeat — one batch of N answers slot for slot like N
//!   batches of one, with identical `QueryStats::access`;
//! * a conjunction bills no more imprint probes than its conjuncts alone,
//!   and [`Harness::fewer_probes`] counts those where the plan stopped
//!   probing (fewer probes on a part that still compared values),
//!   [`Harness::zero_probes`] those where it probed nothing there;
//! * the pinned prefix: visible rows, open rows, sealed segments and
//!   whether the head rode its tail imprint;
//! * a count over a column's whole domain faults no evicted data in, and a
//!   query that value-checks evicted segments faults data back in;
//! * a tick that compacts lowers the sealed segment count by what it
//!   merged; a zero resident budget leaves no sealed data resident;
//! * the durability contract: a kill keeps every sealed row and loses the
//!   open head, on the read-back (`load_indexes`) and the rebuild path,
//!   and the reopen reclaims every directory a compaction superseded.
//!
//! [`concurrent`] runs an appender, pooled readers and the maintenance
//! daemon together: every answer must equal the model over the prefix the
//! query pinned.

// Each suite that includes this module drives a different part of it.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::Duration;

use column_imprints::colstore::relation::AnyColumn;
use column_imprints::colstore::{dispatch, ColumnType, IdList, Scalar, Value};
use column_imprints::engine::{
    BatchAnswer, BatchQuery, EngineConfig, MaintenanceConfig, QueryStats, StorageOptions, Table,
    ValueRange, ValueSet,
};
use column_imprints::Engine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

pub const TYPES: [ColumnType; 10] = [
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

/// Every cell is an oracle value `x` in `0..=X_MAX`, stored as
/// `x - SIGNED_SHIFT` in signed and float columns: exact in all ten types,
/// so a predicate on `x` is the same predicate on the stored value.
pub const X_MAX: i64 = 100;
pub const SIGNED_SHIFT: i64 = 50;

pub fn value(ty: ColumnType, x: i64) -> Value {
    let unsigned = [ColumnType::U8, ColumnType::U16, ColumnType::U32, ColumnType::U64];
    let v = (x - if unsigned.contains(&ty) { 0 } else { SIGNED_SHIFT }).to_string();
    dispatch!(type T = ty => v.parse::<T>().expect("x is exact in every type").into_value())
}

/// The stored values of one model row.
pub fn tuple(types: &[ColumnType], row: &[i64]) -> Vec<Value> {
    row.iter().zip(types).map(|(&x, &ty)| value(ty, x)).collect()
}

/// One term of a predicate: `lo <= x <= hi`, either side optional.
#[derive(Clone, Copy, Debug)]
pub struct Term(pub Option<i64>, pub Option<i64>);

#[derive(Clone, Debug)]
pub struct Pred {
    pub col: usize,
    pub terms: Vec<Term>,
}

#[derive(Clone, Debug)]
pub struct Query {
    pub preds: Vec<Pred>,
    pub any: bool,
}

impl Query {
    pub fn matches(&self, row: &[i64]) -> bool {
        let hit = |p: &Pred| {
            let x = row[p.col];
            p.terms.iter().any(|t| t.0.is_none_or(|lo| x >= lo) && t.1.is_none_or(|hi| x <= hi))
        };
        if self.any {
            self.preds.iter().any(hit)
        } else {
            self.preds.iter().all(hit)
        }
    }

    pub fn ids(&self, rows: &[Vec<i64>]) -> Vec<u64> {
        (0..rows.len() as u64).filter(|&i| self.matches(&rows[i as usize])).collect()
    }

    pub fn batch(&self, types: &[ColumnType], count_only: bool) -> BatchQuery {
        let set = |p: &Pred| {
            let terms = p.terms.iter().map(|t| ValueRange {
                low: t.0.map(|x| value(types[p.col], x)),
                high: t.1.map(|x| value(types[p.col], x)),
            });
            (format!("c{}", p.col), ValueSet { terms: terms.collect() })
        };
        BatchQuery { preds: self.preds.iter().map(set).collect(), any: self.any, count_only }
    }
}

/// The stretch of rows over which an even column stays a noisy walk, or
/// uniform noise, before it turns to the other ([`Gen::rows`]).
const UNIFORM_EVERY: usize = 128;

/// The rows and the queries of a schedule, over columns of `types`.
pub struct Gen {
    pub rng: StdRng,
    pub types: Vec<ColumnType>,
}

impl Gen {
    /// `n` rows continuing from row `first`. Even columns alternate every
    /// [`UNIFORM_EVERY`] rows between a walk (so the imprints skip lines)
    /// with a quarter of the cells uniform noise, which leaves about one
    /// stored imprint vector per cacheline, and uniform noise alone, where
    /// an imprint skips too little for a probe to pay and a conjunction
    /// value-checks every row of the part unprobed. Odd
    /// columns are clustered, without noise: runs of one value over two
    /// of the column's cachelines, so their imprints compress to about one
    /// vector per run and a narrow predicate on one leaves fewer candidate
    /// rows than a noisy column stores vectors — the case where the
    /// conjunction plan stops probing.
    pub fn rows(&mut self, first: usize, n: usize) -> Vec<Vec<i64>> {
        let walk = |i: usize, c: usize| ((i / 8) * (c + 1) + 13 * c) as i64 % (X_MAX + 1);
        let runs: Vec<usize> = self.types.iter().map(|ty| 2 * 64 / ty.width()).collect();
        (first..first + n)
            .map(|i| {
                let cols = 0..self.types.len();
                cols.map(|c| match c % 2 {
                    1 => ((i / runs[c] + 7 * c) as i64) % (X_MAX + 1),
                    _ if (i / UNIFORM_EVERY) % 2 == 1 || self.rng.gen_bool(0.25) => self.x(),
                    _ => walk(i, c),
                })
                .collect()
            })
            .collect()
    }

    pub fn x(&mut self) -> i64 {
        self.rng.gen_range(0..=X_MAX)
    }

    /// `a <= x <= a + w` for a width `w` under 40.
    pub fn range(&mut self, col: usize) -> Pred {
        let (a, w) = (self.x(), self.rng.gen_range(0..40));
        Pred { col, terms: vec![Term(Some(a), Some((a + w).min(X_MAX)))] }
    }

    /// `x IN (…)` over one to four points.
    pub fn in_list(&mut self, col: usize) -> Pred {
        let points = (0..self.rng.gen_range(1..5)).map(|_| self.x());
        Pred { col, terms: points.map(|p| Term(Some(p), Some(p))).collect() }
    }

    pub fn pred(&mut self, col: usize) -> Pred {
        let (a, w) = (self.x(), self.rng.gen_range(0..40));
        let terms = match self.rng.gen_range(0..6) {
            0 => return self.range(col),
            1 => vec![Term(Some(a), Some(a))],
            2 => vec![Term(Some(a), None)],
            3 => vec![Term(None, Some(a))],
            4 => return self.in_list(col),
            // An impossible term beside a live one.
            _ => vec![Term(Some(a.max(1)), Some((a - 1 - w).max(0))), Term(Some(a), Some(a))],
        };
        Pred { col, terms }
    }

    pub fn query(&mut self) -> Query {
        let mut cols: Vec<usize> = (0..self.types.len()).collect();
        cols.shuffle(&mut self.rng);
        let (preds, any) = match self.rng.gen_range(0..8) {
            0 => (0, false),
            1 => (0, true),
            2 | 3 => (1, false),
            4 | 5 => (cols.len(), false),
            _ => (cols.len().min(2), true),
        };
        Query { preds: cols[..preds].iter().map(|&c| self.pred(c)).collect(), any }
    }

    pub fn column(&self, rows: &[Vec<i64>], c: usize) -> AnyColumn {
        let mut col = AnyColumn::new_empty(self.types[c]);
        for row in rows {
            col.push_value(value(self.types[c], row[c])).expect("typed value");
        }
        col
    }
}

/// What the engine must show: the rows appended so far, how many of them
/// are sealed, in how many segments, and how many durable segment
/// directories compactions superseded since the last open.
#[derive(Default)]
pub struct Model {
    pub rows: Vec<Vec<i64>>,
    pub sealed_rows: usize,
    pub sealed_segments: usize,
    pub superseded: usize,
}

impl Model {
    pub fn open_rows(&self) -> usize {
        self.rows.len() - self.sealed_rows
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Fewer rows than the head has room for.
    AppendPartial,
    /// Exactly the rows that fill the head.
    AppendFill,
    /// Rows that fill the head and spill into the next.
    AppendSpan,
    Flush,
    Tick,
    /// Drop the engine without a flush, then `Engine::open` it.
    Kill {
        load_indexes: bool,
    },
}

pub const OPS: [Op; 7] = [
    Op::AppendPartial,
    Op::AppendFill,
    Op::AppendSpan,
    Op::Flush,
    Op::Tick,
    Op::Kill { load_indexes: true },
    Op::Kill { load_indexes: false },
];

/// An in-memory table of `segment_rows`-row segments on two workers.
pub fn memory(segment_rows: usize) -> EngineConfig {
    EngineConfig { segment_rows, workers: 2, ..Default::default() }
}

/// A durable table under a fresh directory named for `name`, with a zero
/// resident budget and fan-in 2, so that every tick compacts and evicts
/// what it can.
pub fn durable(name: &str, segment_rows: usize) -> EngineConfig {
    EngineConfig {
        segment_rows,
        workers: 2,
        tail_index_min_rows: 16,
        maintenance: MaintenanceConfig { tier_fanin: 2, compaction_budget_bytes: 0 },
        storage: StorageOptions {
            root: Some(tmproot(name)),
            max_resident_data_bytes: 0,
            load_indexes: true,
        },
        ..Default::default()
    }
}

pub fn tmproot(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("imprints_model_{name}_{}", std::process::id()))
}

/// One engine and its model, stepped together.
pub struct Harness {
    pub cfg: EngineConfig,
    engine: Option<Engine>,
    pub model: Model,
    pub gen: Gen,
    trace: String,
    /// Checked conjunctions that billed fewer imprint probes than their
    /// conjuncts do alone on a part where no early exit can explain it:
    /// the plan stopped probing there.
    pub fewer_probes: usize,
    /// Checked conjunctions that billed no probe at all on a part that
    /// compared values, where their conjuncts alone probe: the census said
    /// no probe could pay there.
    pub zero_probes: usize,
}

impl Harness {
    pub fn new(cfg: EngineConfig, types: Vec<ColumnType>, seed: u64) -> Harness {
        if let Some(root) = &cfg.storage.root {
            let _ = std::fs::remove_dir_all(root);
        }
        let engine = Engine::new(cfg.clone());
        let schema: Vec<(String, ColumnType)> =
            types.iter().enumerate().map(|(c, &ty)| (format!("c{c}"), ty)).collect();
        let schema: Vec<(&str, ColumnType)> =
            schema.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        engine.create_table("t", &schema).unwrap();
        let trace = format!("seed {seed}, {types:?}, {cfg:?}; steps:");
        let gen = Gen { rng: StdRng::seed_from_u64(seed), types };
        let model = Model::default();
        Harness { cfg, engine: Some(engine), model, gen, trace, fewer_probes: 0, zero_probes: 0 }
    }

    pub fn engine(&self) -> &Engine {
        self.engine.as_ref().expect("an engine between steps")
    }

    pub fn table(&self) -> std::sync::Arc<Table> {
        self.engine().table("t").unwrap()
    }

    /// Appends `n` generated rows to the table and the model.
    pub fn append(&mut self, n: usize) {
        let rows = self.gen.rows(self.model.rows.len(), n);
        self.append_rows(rows);
    }

    /// Appends `rows` to the table and the model, and seals in the model
    /// every segment the table must have sealed.
    pub fn append_rows(&mut self, rows: Vec<Vec<i64>>) {
        self.trace.push_str(&format!(" +{}", rows.len()));
        let batch = (0..self.gen.types.len()).map(|c| self.gen.column(&rows, c)).collect();
        self.table().append_batch(batch).unwrap();
        self.model.rows.extend(rows);
        while self.model.open_rows() >= self.cfg.segment_rows {
            self.model.sealed_rows += self.cfg.segment_rows;
            self.model.sealed_segments += 1;
        }
    }

    pub fn step(&mut self, op: Op) {
        self.trace.push_str(&format!(" {op:?}"));
        let seg = self.cfg.segment_rows;
        let room = seg - self.model.open_rows();
        match op {
            Op::AppendPartial | Op::AppendFill | Op::AppendSpan => {
                let n = match op {
                    Op::AppendPartial => self.gen.rng.gen_range(1..room.max(2)),
                    Op::AppendFill => room,
                    _ => room + self.gen.rng.gen_range(1..=2 * seg),
                };
                self.append(n);
            }
            Op::Flush => {
                let sealing = self.model.open_rows() > 0;
                assert_eq!(self.engine().flush(), usize::from(sealing), "{}", self.trace);
                if sealing {
                    self.model.sealed_rows = self.model.rows.len();
                    self.model.sealed_segments += 1;
                }
            }
            Op::Tick => {
                let before = self.table().sealed_segment_count();
                let report = self.engine().maintenance_tick();
                assert_eq!(report.compaction_races, 0, "{}", self.trace);
                for merge in &report.compacted {
                    self.model.sealed_segments -= merge.len - 1;
                    self.model.superseded += merge.len;
                }
                let after = self.table().sealed_segment_count();
                assert!(report.compacted.is_empty() || after < before, "{}", self.trace);
                let storage = self.engine().catalog().storage_stats();
                if self.cfg.storage.root.is_some() && self.cfg.storage.max_resident_data_bytes == 0
                {
                    assert_eq!(storage.data_bytes_resident, 0, "{}", self.trace);
                }
            }
            Op::Kill { load_indexes } => {
                drop(self.engine.take());
                self.model.rows.truncate(self.model.sealed_rows);
                self.cfg.storage.load_indexes = load_indexes;
                let (engine, report) = Engine::open(self.cfg.clone()).unwrap();
                let (segments, cols) = (self.model.sealed_segments, self.gen.types.len());
                let (read, rebuilt) =
                    if load_indexes { (segments * cols, 0) } else { (0, segments * cols) };
                assert_eq!(
                    (report.tables, report.segments, report.rows, report.orphans_removed),
                    (1, segments, self.model.sealed_rows as u64, self.model.superseded),
                    "{}",
                    self.trace
                );
                let indexes = (report.indexes_recovered, report.indexes_rebuilt);
                assert_eq!(indexes, (read, rebuilt), "{}", self.trace);
                if load_indexes {
                    let resident = engine.catalog().storage_stats().data_bytes_resident;
                    assert_eq!(resident, 0, "read back, the data stays on disk: {}", self.trace);
                } else {
                    assert_eq!(report.rebuild_nanos > 0, segments > 0, "{}", self.trace);
                }
                self.engine = Some(engine);
                self.model.superseded = 0;
            }
        }
        self.check();
    }

    /// Everything the engine shows must equal the model, under one to
    /// three random queries.
    pub fn check(&mut self) {
        let queries = (0..self.gen.rng.gen_range(1..=3)).map(|_| self.gen.query()).collect();
        let pooled = self.gen.rng.gen_bool(0.5);
        self.check_queries(queries, pooled);
    }

    /// Everything the engine shows must equal the model, under `queries`
    /// run as one batch on the engine's pool or serially.
    pub fn check_queries(&mut self, queries: Vec<Query>, pooled: bool) {
        let c = self.gen.rng.gen_range(0..self.gen.types.len());
        let queries: Vec<(Query, Query)> = queries
            .into_iter()
            .map(|q| {
                let mut permuted = q.clone();
                permuted.preds.shuffle(&mut self.gen.rng);
                (q, permuted)
            })
            .collect();
        let (engine, t, m, trace) = (self.engine(), self.table(), &self.model, &self.trace);
        let types = &self.gen.types;
        let storage = || engine.catalog().storage_stats();
        assert_eq!(t.row_count(), m.rows.len() as u64, "{trace}");
        assert_eq!(t.sealed_segment_count(), m.sealed_segments, "{trace}");
        assert_eq!(storage().persist_errors, 0, "{trace}");

        // A count over one column's whole domain is covered by every
        // imprint: it reads no evicted data.
        let whole = dispatch!(type T = types[c] => {
            ValueRange::between(T::MIN_VALUE.into_value(), T::MAX_VALUE.into_value())
        });
        let faulted = storage().faulted_bytes;
        let name = format!("c{c}");
        let n = t.count(&[(name.as_str(), whole)], None).unwrap();
        assert_eq!(n, m.rows.len() as u64, "{trace}");
        assert_eq!(storage().faulted_bytes, faulted, "a covered count faulted data in: {trace}");

        let batch: Vec<BatchQuery> =
            queries.iter().flat_map(|(q, _)| [false, true].map(|n| q.batch(types, n))).collect();
        let evicted = storage().data_bytes_resident == 0 && storage().data_bytes_evicted > 0;
        let pool = pooled.then(|| engine.pool().as_ref());
        // An unresolvable query errs in its own slot only.
        let nope = BatchQuery::ids_sets(vec![("nope".into(), ValueSet::default())]);
        let mut answers = t.query_batch(&[&[nope], &batch[..]].concat(), pool).into_iter();
        assert!(answers.next().is_some_and(|a| a.is_err()), "{trace}");
        let answers: Vec<(BatchAnswer, QueryStats)> = answers.map(Result::unwrap).collect();
        let open = m.open_rows();
        let head_indexed = open > 0 && open >= self.cfg.tail_index_min_rows;
        let mut value_checked = false;
        let (mut fewer_probes, mut zero_probes) = (0, 0);
        let slots = queries.iter().flat_map(|q| [q, q]).zip(&batch).zip(&answers);
        for (((q, permuted), bq), (answer, stats)) in slots {
            let want = q.ids(&m.rows);
            let expect = match bq.count_only {
                true => BatchAnswer::Count(want.len() as u64),
                false => BatchAnswer::Ids(IdList::from_sorted(want.clone())),
            };
            assert_eq!(answer, &expect, "{q:?}: {trace}");
            let prefix = (stats.visible_rows, stats.open_rows, stats.sealed_segments);
            assert_eq!(prefix, (m.rows.len() as u64, open, m.sealed_segments), "{trace}");
            assert_eq!(stats.epoch, answers[0].1.epoch, "one batch, one pinned prefix: {trace}");
            assert_eq!(stats.tail_indexed, head_indexed && !q.preds.is_empty(), "{trace}");
            value_checked |= stats.access.value_comparisons > 0;
            // Alone, and again: the same answer and the same work.
            for _ in 0..2 {
                let (alone, alone_stats) = t.query_one(bq, None).unwrap();
                assert_eq!(&alone, answer, "{q:?}: {trace}");
                assert_eq!(alone_stats.access, stats.access, "{q:?}: {trace}");
                assert_eq!(alone_stats.tail_access, stats.tail_access, "{q:?}: {trace}");
                assert_eq!(alone_stats.epoch, stats.epoch, "{q:?}: {trace}");
            }
            // The plan picks its own predicate order.
            let permuted = permuted.batch(types, bq.count_only);
            assert_eq!(&t.query_one(&permuted, pool).unwrap().0, answer, "{q:?}: {trace}");
            // A conjunction probes a subset of the imprints its conjuncts
            // probe alone.
            if !q.any && q.preds.len() > 1 && !bq.count_only {
                let probes = |st: &QueryStats| [st.access, st.tail_access].map(|a| a.index_probes);
                let alone = q.preds.iter().fold([0, 0], |sum, p| {
                    let one = Query { preds: vec![p.clone()], any: false };
                    let st = probes(&t.query_one(&one.batch(types, false), None).unwrap().1);
                    [sum[0] + st[0], sum[1] + st[1]]
                });
                let billed = probes(stats);
                assert!(billed[0] <= alone[0] && billed[1] <= alone[1], "{q:?}: {trace}");
                // A part that compared values did not exit on an empty
                // candidate intersection, so fewer probes there mean the
                // plan stopped probing. The head is one part; the sealed
                // side is one when it holds one segment.
                let compared = [stats.access, stats.tail_access].map(|a| a.value_comparisons > 0);
                let one_part = [m.sealed_segments == 1, true];
                let stopped = |s: usize| one_part[s] && compared[s] && billed[s] < alone[s];
                fewer_probes += usize::from(stopped(0) || stopped(1));
                let unprobed = |s: usize| compared[s] && billed[s] == 0 && alone[s] > 0;
                zero_probes += usize::from(unprobed(0) || unprobed(1));
            }
            // Late materialization returns the model's tuples.
            for &id in [want.first(), want.last()].into_iter().flatten() {
                let row = tuple(types, &m.rows[id as usize]);
                assert_eq!(t.tuple(id).unwrap(), Some(row), "{trace}");
            }
        }
        if evicted && value_checked {
            assert!(storage().faulted_bytes > faulted, "no fault-in after eviction: {trace}");
        }
        assert_eq!(t.tuple(m.rows.len() as u64).unwrap(), None, "{trace}");
        self.fewer_probes += fewer_probes;
        self.zero_probes += zero_probes;
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        drop(self.engine.take());
        if let Some(root) = &self.cfg.storage.root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// One appender of `rows` rows, `readers` readers on the engine's pool and
/// the maintenance daemon compacting under them (and evicting, if `cfg`
/// has a zero budget): every answer equals the model over exactly the
/// prefix its query pinned — no id lost or duplicated across a swap — and
/// the pinned prefix never shrinks.
pub fn concurrent(cfg: EngineConfig, types: Vec<ColumnType>, rows: usize, readers: u64) {
    let seg = cfg.segment_rows;
    let mut h = Harness::new(cfg, types.clone(), 7);
    let (engine, table) = (h.engine(), h.table());
    let model: RwLock<Vec<Vec<i64>>> = RwLock::new(Vec::new());
    let done = AtomicBool::new(false);
    engine.start_maintenance(Duration::from_millis(1)).unwrap();
    std::thread::scope(|s| {
        let mut gen = Gen { rng: StdRng::seed_from_u64(42), types: types.clone() };
        let (table, model, done) = (&table, &model, &done);
        s.spawn(move || {
            let mut appended = 0;
            while appended < rows {
                let n = gen.rng.gen_range(100..600).min(rows - appended);
                let chunk = gen.rows(appended, n);
                let batch = (0..gen.types.len()).map(|c| gen.column(&chunk, c)).collect();
                // The model leads the table, so it covers every pinned prefix.
                model.write().unwrap().extend(chunk);
                table.append_batch(batch).unwrap();
                appended += n;
            }
            done.store(true, Ordering::Release);
        });
        for r in 0..readers {
            let mut gen = Gen { rng: StdRng::seed_from_u64(100 + r), types: types.clone() };
            s.spawn(move || {
                let mut last = (0, 0);
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let q = gen.query();
                    let batch = [q.batch(&gen.types, false), q.batch(&gen.types, true)];
                    let out = table.query_batch(&batch, Some(engine.pool()));
                    let mut out = out.into_iter().map(Result::unwrap);
                    let (Some((ids, st)), Some((n, cs))) = (out.next(), out.next()) else {
                        panic!("two answers");
                    };
                    assert_eq!((st.epoch, st.visible_rows), (cs.epoch, cs.visible_rows));
                    assert!(st.epoch >= last.0 && st.visible_rows >= last.1, "the prefix shrank");
                    last = (st.epoch, st.visible_rows);
                    let model = model.read().unwrap();
                    let want = q.ids(&model[..st.visible_rows as usize]);
                    if let Some(&id) = want.first() {
                        let row = tuple(&gen.types, &model[id as usize]);
                        assert_eq!(table.tuple(id).unwrap(), Some(row));
                    }
                    assert_eq!(n, BatchAnswer::Count(want.len() as u64), "{q:?}");
                    assert_eq!(ids, BatchAnswer::Ids(IdList::from_sorted(want)), "{q:?}");
                    if finished {
                        break;
                    }
                }
            });
        }
    });
    engine.stop_maintenance();
    let compactions = table.stats().compactions.load(Ordering::Relaxed);
    assert!(compactions > 0, "the daemon never compacted under the readers");
    while !engine.maintenance_tick().is_idle() {}
    assert!(table.sealed_segment_count() < rows / seg, "compaction left every seal");
    // The daemon's merges reached no model, so it adopts their count.
    h.model.rows = model.into_inner().unwrap();
    h.model.sealed_rows = rows - rows % seg;
    h.model.sealed_segments = table.sealed_segment_count();
    h.check();
}
