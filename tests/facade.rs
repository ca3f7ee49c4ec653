//! The facade crate's re-exports: a downstream user should be able to do
//! everything through `column_imprints::*` paths alone.

use column_imprints::{Column, ColumnImprints, RangeIndex, RangePredicate, Relation};

#[test]
fn facade_paths_cover_the_basic_workflow() {
    let col: Column<i32> = (0..10_000).map(|i| (i * 31) % 500).collect();
    let idx = ColumnImprints::build(&col);
    let ids = idx.evaluate(&col, &RangePredicate::between(10, 20));
    assert!(!ids.is_empty());

    let mut rel = Relation::new("t");
    rel.add_column("a", col).unwrap();
    assert_eq!(rel.row_count(), 10_000);

    // The four sub-crates are reachable as modules.
    let _ = column_imprints::baselines::WahVector::new();
    let _ = column_imprints::datagen::distributions::sorted_ints(3, 0);
    let _ = column_imprints::imprints::DEFAULT_SAMPLE_SIZE;
    let _ = column_imprints::colstore::CACHELINE_BYTES;
}

#[test]
fn facade_extension_types_reachable() {
    use column_imprints::imprints::{
        relation_index::RelationImprints, BinningStrategy, OverlayImprints,
    };
    let col: Column<i64> = (0..1000).collect();
    let base = ColumnImprints::build(&col);
    let _ov = OverlayImprints::new(base);
    assert_eq!(BinningStrategy::default(), BinningStrategy::EquiHeight);

    let mut rel = Relation::new("r");
    rel.add_column("x", col).unwrap();
    let ri = RelationImprints::build(&rel);
    assert!(ri.size_bytes() > 0);
}
