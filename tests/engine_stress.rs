//! Concurrency stress for an in-memory engine: one appender, four readers
//! on the engine's pool and the maintenance daemon churning tiered
//! compaction swaps under them; every answer must equal the engine's model
//! (`model/mod.rs`) over the prefix its query pinned.

mod model;

use column_imprints::colstore::ColumnType;
use column_imprints::engine::EngineConfig;
use model::{concurrent, memory};

#[test]
fn concurrent_readers_and_appender_stay_consistent() {
    // The write head's tail imprint engages at 128 of the 2,048 rows, so
    // the readers exercise the tail-indexed head against the appender's
    // extends and seal-time discards.
    let cfg = EngineConfig { workers: 4, ..memory(2048) };
    concurrent(cfg, vec![ColumnType::I64, ColumnType::F64, ColumnType::U32], 60_000, 4);
}
