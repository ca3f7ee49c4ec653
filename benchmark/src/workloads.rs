//! Generated inputs: tables, request pools and the brute-force oracle.
//! Everything here is a function of `--seed`; the program under test sees
//! only what these functions produce.

use crate::spec;
use std::time::Instant;

use crate::surface::{self, Answer, Col, Db, Decoded, Server, Storage};

/// Value domain of the queried columns of `t` and `small`.
pub const DOMAIN: i64 = 1 << 20;
/// Rows of `t`: 32 MB of column data, 8x the 4 MiB L2 of the reference
/// box. The issue asked for 4M; at that size `refine_random` answers under
/// 200 requests a second on two cores, too few for a p99 within the run
/// length the driver's time cap allows.
const T_ROWS: usize = 2_000_000;
/// Rows of `small`: 2 MB, inside L2.
const SMALL_ROWS: usize = 262_144;
/// Requests generated, and answered by the oracle, per workload.
const POOL: usize = 2048;
/// The engine's default `segment_rows`.
pub const SEGMENT_ROWS: usize = 1 << 16;
/// `--smoke` divides every row count by this.
const SMOKE_DIVISOR: usize = 64;

/// A table as generated: column names and plain vectors.
pub struct TableData {
    pub name: &'static str,
    pub cols: Vec<(&'static str, Col)>,
}

impl TableData {
    pub fn rows(&self) -> usize {
        self.cols[0].1.len()
    }

    pub fn bytes_per_row(&self) -> usize {
        self.cols.iter().map(|(_, c)| c.bytes_per_row()).sum()
    }

    pub fn col(&self, name: &str) -> &Col {
        &self.cols.iter().find(|(n, _)| *n == name).expect("column exists").1
    }

    /// What `setup_s` times, on every workload: the system work before the
    /// first request. `create_table`, an `append_batch` per default segment
    /// of the first `rows` rows (seals, index builds and, on a durable
    /// engine, persist + fsync happen inside), maintenance until a pass
    /// changes nothing (compaction; eviction down to the budget), and
    /// `Server::start`. Data generation and the oracle are not in it.
    pub fn set_up(&self, rows: usize, storage: Option<&Storage>) -> SetUp {
        let t0 = Instant::now();
        let db = Db::new(storage);
        db.create_table(self.name, &self.cols);
        for at in (0..rows).step_by(SEGMENT_ROWS) {
            db.append(self.name, &self.cols, at..(at + SEGMENT_ROWS).min(rows));
        }
        let compaction_bytes = db.settle();
        let server = db.serve();
        SetUp { server, db, seconds: t0.elapsed().as_secs_f64(), compaction_bytes }
    }
}

/// A loaded, settled, serving engine and what getting there cost.
pub struct SetUp {
    // Dropped first: the server shuts down before its engine goes.
    pub server: Server,
    pub db: Db,
    pub seconds: f64,
    pub compaction_bytes: usize,
}

/// `col=lo..hi`, inclusive.
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub col: &'static str,
    pub lo: i64,
    pub hi: i64,
}

/// One conjunctive `QUERY` or `COUNT`.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub count_only: bool,
    pub table: &'static str,
    pub preds: Vec<Pred>,
}

impl Req {
    /// The wire line, untagged.
    pub fn line(&self) -> String {
        let verb = if self.count_only { "COUNT" } else { "QUERY" };
        let mut line = format!("{verb} {}", self.table);
        for p in &self.preds {
            line.push_str(&format!(" {}={}..{}", p.col, p.lo, p.hi));
        }
        line
    }
}

/// What the oracle keeps per request: the match count and, for `QUERY`,
/// the FNV-1a hash of the ascending id list — enough to tell any wrong
/// reply without holding 2,048 id lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub count: u64,
    pub ids_fnv: u64,
}

pub fn fnv1a(ids: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in ids {
        for b in id.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

impl Expected {
    pub fn of_ids(ids: &[u64]) -> Expected {
        Expected { count: ids.len() as u64, ids_fnv: fnv1a(ids) }
    }

    pub fn of_count(count: u64) -> Expected {
        Expected { count, ids_fnv: 0 }
    }

    /// Whether a decoded wire reply is exactly the expected answer.
    pub fn matches(&self, reply: &Decoded) -> bool {
        match reply {
            Decoded::Count(n) => *self == Expected::of_count(*n),
            Decoded::Ids(ids) => *self == Expected::of_ids(ids),
            Decoded::Refused(_) => false,
        }
    }

    /// The same check for an in-process answer.
    pub fn matches_answer(&self, answer: &Answer) -> bool {
        match answer {
            Answer::Count(n) => *self == Expected::of_count(*n),
            Answer::Ids(ids) => *self == Expected::of_ids(ids),
        }
    }
}

/// The oracle: answers come from the raw generated vectors by sorting and
/// filtering, sharing no code with the indexes under test. `keys` holds
/// the first predicate's column ascending, `rows` the row of each key, and
/// `other` the second predicate's column in the same order, so that a
/// request costs two binary searches and one sequential pass.
struct Oracle {
    keys: Vec<i64>,
    rows: Vec<u32>,
    other: Option<Vec<i64>>,
}

impl Oracle {
    fn new(table: &TableData, lead: &str, other: Option<&str>) -> Oracle {
        let lead = table.col(lead);
        let mut rows: Vec<u32> = (0..table.rows() as u32).collect();
        rows.sort_unstable_by_key(|&r| (lead.int_at(r as usize), r));
        let keys = rows.iter().map(|&r| lead.int_at(r as usize)).collect();
        let other = other.map(|name| {
            let col = table.col(name);
            rows.iter().map(|&r| col.int_at(r as usize)).collect()
        });
        Oracle { keys, rows, other }
    }

    fn answer(&self, req: &Req) -> Expected {
        let first = &req.preds[0];
        let from = self.keys.partition_point(|&k| k < first.lo);
        let to = self.keys.partition_point(|&k| k <= first.hi);
        let keep = |k: usize| match (&self.other, req.preds.get(1)) {
            (Some(other), Some(p)) => (p.lo..=p.hi).contains(&other[k]),
            _ => true,
        };
        if req.count_only {
            Expected::of_count((from..to).filter(|&k| keep(k)).count() as u64)
        } else {
            let mut ids: Vec<u64> =
                (from..to).filter(|&k| keep(k)).map(|k| u64::from(self.rows[k])).collect();
            ids.sort_unstable();
            Expected::of_ids(&ids)
        }
    }
}

/// SplitMix64: the request streams must not change when the vendored
/// `rand` stand-in does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A bulk-loaded, read-only workload: one table, a request pool with its
/// expected answers, and how the wire clients drive it.
pub struct BulkWorkload {
    pub table: TableData,
    pub pool: Vec<Req>,
    pub expected: Vec<Expected>,
    /// Closed-loop connections (never more than `nproc` = 2).
    pub conns: usize,
    /// Requests each connection keeps in flight.
    pub window: usize,
}

fn rows_for(full: usize, smoke: bool) -> usize {
    if smoke {
        full / SMOKE_DIVISOR
    } else {
        full
    }
}

fn range_pred(rng: &mut Rng, col: &'static str, width: i64) -> Pred {
    let lo = rng.below((DOMAIN - width) as u64) as i64;
    Pred { col, lo, hi: lo + width }
}

/// Builds the named bulk workload from `seed`, or `None` for
/// `ingest_restart`, which has its own module.
pub fn bulk(name: &str, seed: u64, smoke: bool) -> Option<BulkWorkload> {
    let mut rng = Rng::new(seed ^ 0x5eed_0f57_12ea);
    let clustered = |rows| surface::gen_clustered(rows, DOMAIN, 0.05, seed);
    // `small` is generated, not cut from `t`: a prefix of a drifting column
    // would cover a sixteenth of the domain, and the two workloads are
    // meant to differ in row count alone.
    let (table, lead, other) = match name {
        spec::WIRE_SMALL => {
            let rows = rows_for(SMALL_ROWS, smoke);
            (TableData { name: "small", cols: vec![("v", clustered(rows))] }, "v", None)
        }
        spec::PROBE_CLUSTERED | spec::WIDE_IDS | spec::REFINE_RANDOM => {
            let rows = rows_for(T_ROWS, smoke);
            let cols = vec![
                ("v", clustered(rows)),
                ("a", surface::gen_uniform_i32(rows, DOMAIN, seed + 1)),
                ("b", surface::gen_uniform_i32(rows, DOMAIN, seed + 2)),
            ];
            let (lead, other) =
                if name == spec::REFINE_RANDOM { ("a", Some("b")) } else { ("v", None) };
            (TableData { name: "t", cols }, lead, other)
        }
        _ => return None,
    };
    let tname = table.name;
    let pool: Vec<Req> = (0..POOL)
        .map(|i| match name {
            // ~200 ppm and ~16 ppm of the rows: a count that checks a few
            // hundred cachelines and an id list of a few dozen.
            spec::WIRE_SMALL | spec::PROBE_CLUSTERED => Req {
                count_only: i % 2 == 0,
                table: tname,
                preds: vec![range_pred(&mut rng, "v", if i % 2 == 0 { 209 } else { 16 })],
            },
            // 0.5% of the rows: ~10,000 ids, a ~75 KB reply line.
            spec::WIDE_IDS => Req {
                count_only: false,
                table: tname,
                preds: vec![range_pred(&mut rng, "v", DOMAIN / 200)],
            },
            // 10% x 10% of uniform columns: the imprints skip nothing, so
            // every row of `a` is refined and a tenth of `b`.
            _ => Req {
                count_only: true,
                table: tname,
                preds: vec![
                    range_pred(&mut rng, "a", DOMAIN / 10),
                    range_pred(&mut rng, "b", DOMAIN / 10),
                ],
            },
        })
        .collect();
    let oracle = Oracle::new(&table, lead, other);
    let expected = pool.iter().map(|r| oracle.answer(r)).collect();
    let (conns, window) = if name == spec::REFINE_RANDOM { (2, 16) } else { (2, 1) };
    Some(BulkWorkload { table, pool, expected, conns, window })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_use_the_wire_grammar() {
        let r = Req {
            count_only: true,
            table: "t",
            preds: vec![Pred { col: "a", lo: 1, hi: 9 }, Pred { col: "b", lo: -3, hi: 4 }],
        };
        assert_eq!(r.line(), "COUNT t a=1..9 b=-3..4");
        let parsed = surface::parse_request_line(&format!("#7 {}", r.line()));
        assert_eq!((parsed.tag.as_deref(), parsed.table.as_str()), (Some("7"), "t"));
        assert!(parsed.count_only);
    }

    #[test]
    fn oracle_agrees_with_a_row_by_row_filter() {
        let w = bulk(spec::REFINE_RANDOM, 7, true).unwrap();
        let (a, b) = (w.table.col("a"), w.table.col("b"));
        for (req, exp) in w.pool.iter().zip(&w.expected).take(32) {
            let n = (0..w.table.rows())
                .filter(|&r| {
                    (req.preds[0].lo..=req.preds[0].hi).contains(&a.int_at(r))
                        && (req.preds[1].lo..=req.preds[1].hi).contains(&b.int_at(r))
                })
                .count();
            assert_eq!(*exp, Expected::of_count(n as u64));
        }
        let w = bulk(spec::WIDE_IDS, 7, true).unwrap();
        let v = w.table.col("v");
        for (req, exp) in w.pool.iter().zip(&w.expected).take(32) {
            let ids: Vec<u64> = (0..w.table.rows() as u64)
                .filter(|&r| (req.preds[0].lo..=req.preds[0].hi).contains(&v.int_at(r as usize)))
                .collect();
            assert!(!ids.is_empty());
            assert_eq!(*exp, Expected::of_ids(&ids));
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let a = bulk(spec::WIRE_SMALL, 11, true).unwrap();
        let b = bulk(spec::WIRE_SMALL, 11, true).unwrap();
        let c = bulk(spec::WIRE_SMALL, 12, true).unwrap();
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.pool, c.pool);
        assert!(a.expected.iter().any(|e| e.count > 0));
    }

    #[test]
    fn a_wrong_reply_never_matches() {
        let e = Expected::of_ids(&[3, 5, 8]);
        assert!(e.matches(&Decoded::Ids(vec![3, 5, 8])));
        assert!(!e.matches(&Decoded::Ids(vec![3, 5, 9])));
        assert!(!e.matches(&Decoded::Ids(vec![3, 5])));
        assert!(!e.matches(&Decoded::Count(3)));
        assert!(!e.matches(&Decoded::Refused("BUSY".into())));
        assert!(Expected::of_count(3).matches(&Decoded::Count(3)));
        assert!(!Expected::of_count(3).matches_answer(&Answer::Ids(vec![1, 2, 3])));
    }
}
