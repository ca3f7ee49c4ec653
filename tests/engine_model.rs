//! The engine against its model (`model/mod.rs`): random configurations
//! run random schedules, one small configuration runs every schedule up to
//! [`DEPTH`], and concurrent readers answer a prefix of the model under the
//! maintenance daemon.

mod model;

use column_imprints::colstore::ColumnType;
use column_imprints::engine::{EngineConfig, MaintenanceConfig, StorageOptions};
use model::{concurrent, durable, tmproot, Harness, Op, OPS, TYPES};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Schedules of up to this many steps are enumerated exhaustively.
const DEPTH: usize = 3;

/// Random configurations and random schedules; over the cases, every one
/// of the ten column types leads a schema, some conjunction stops probing
/// once its candidates are fewer than the next imprint's vectors, and some
/// probes nothing on a part whose imprints cannot pay.
#[test]
fn generated_schedules_match_the_model() {
    let mut rng = StdRng::seed_from_u64(32);
    let (mut fewer_probes, mut zero_probes) = (0, 0);
    for case in 0..40u64 {
        let durable = rng.gen_bool(0.75);
        let cfg = EngineConfig {
            segment_rows: *[64, 128, 256].choose(&mut rng).unwrap(),
            workers: 2,
            tail_index_min_rows: *[1, 64, 200, usize::MAX].choose(&mut rng).unwrap(),
            maintenance: MaintenanceConfig {
                tier_fanin: *[0, 2, 3, 4].choose(&mut rng).unwrap(),
                compaction_budget_bytes: *[0, 1].choose(&mut rng).unwrap(),
            },
            storage: StorageOptions {
                root: durable.then(|| tmproot(&format!("gen{case}"))),
                max_resident_data_bytes: *[0, usize::MAX].choose(&mut rng).unwrap(),
                load_indexes: true,
            },
            ..Default::default()
        };
        let mut types = vec![TYPES[case as usize % 10]];
        types.extend((0..rng.gen_range(0..3)).map(|_| *TYPES.choose(&mut rng).unwrap()));
        let mut h = Harness::new(cfg, types, case);
        h.check();
        for _ in 0..12 {
            let op = match rng.gen_range(0..10) {
                0..=4 => OPS[rng.gen_range(0..3)],
                5 => Op::Flush,
                6 | 7 => Op::Tick,
                _ if durable => Op::Kill { load_indexes: rng.gen_bool(0.5) },
                _ => Op::Tick,
            };
            h.step(op);
        }
        fewer_probes += h.fewer_probes;
        zero_probes += h.zero_probes;
    }
    assert!(fewer_probes > 0, "no generated conjunction stopped probing");
    assert!(zero_probes > 0, "no generated conjunction left every imprint unprobed");
}

/// Every schedule of up to [`DEPTH`] steps over [`OPS`], on a durable
/// table with a zero resident budget and fan-in 2, so that every tick
/// compacts and evicts what it can; some conjunction stops probing, and
/// some probes nothing on the write head.
#[test]
fn every_short_schedule_matches_the_model() {
    let mut schedule = vec![0usize; DEPTH];
    let (mut fewer_probes, mut zero_probes) = (0, 0);
    for n in 0..OPS.len().pow(DEPTH as u32) {
        let mut k = n;
        for slot in schedule.iter_mut() {
            (*slot, k) = (k % OPS.len(), k / OPS.len());
        }
        let types = vec![TYPES[n % 10], TYPES[(n / 10 + 3) % 10]];
        let mut h = Harness::new(durable("enum", 64), types, n as u64);
        for &op in &schedule {
            h.step(OPS[op]);
        }
        fewer_probes += h.fewer_probes;
        zero_probes += h.zero_probes;
    }
    assert!(fewer_probes > 0, "no short schedule's conjunction stopped probing");
    assert!(zero_probes > 0, "no short schedule's conjunction left every imprint unprobed");
}

/// One appender, two readers on the engine's pool and the maintenance
/// daemon compacting and evicting a durable table under them.
#[test]
fn concurrent_readers_answer_a_prefix_of_the_model() {
    let cfg = EngineConfig { tail_index_min_rows: 128, ..durable("concurrent", 512) };
    concurrent(cfg, vec![ColumnType::I64, ColumnType::F64], 40_000, 2);
}
