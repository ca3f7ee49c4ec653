//! Cross-crate persistence: columns and indexes written to real files,
//! reloaded, cross-validated; corruption and mismatch detection.

use std::fs::File;

use colstore::{storage as colstorage, Column, Error, RangeIndex, RangePredicate};
use datagen::distributions;
use imprints::{storage as idxstorage, ColumnImprints};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("imprints_it_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_column_and_index_file_roundtrip() {
    let dir = tmpdir("roundtrip");
    let col: Column<f64> = Column::from(distributions::random_walk(123_457, 0.0, 1e4, 1.5, 999, 3));
    let idx = ColumnImprints::build(&col);

    let col_path = dir.join("col.bin");
    let idx_path = dir.join("idx.bin");
    colstorage::write_column(&col, &mut File::create(&col_path).unwrap()).unwrap();
    idxstorage::write_index(&idx, &mut File::create(&idx_path).unwrap()).unwrap();

    let col2: Column<f64> = colstorage::read_column(&mut File::open(&col_path).unwrap()).unwrap();
    let idx2: ColumnImprints<f64> =
        idxstorage::read_index(&mut File::open(&idx_path).unwrap()).unwrap();

    assert_eq!(col2.values().len(), col.values().len());
    idx2.verify(&col2).unwrap();
    for (lo, hi) in [(0.0, 100.0), (5000.0, 5100.0), (9990.0, 1e4)] {
        let pred = RangePredicate::between(lo, hi);
        assert_eq!(idx2.evaluate(&col2, &pred), idx.evaluate(&col, &pred));
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn bitflip_anywhere_is_detected() {
    // Flip a bit at several positions across the file; every flip must be
    // caught by the checksum (or the magic/geometry validation).
    let col: Column<i32> = (0..10_000).map(|i| i * 3).collect();
    let idx = ColumnImprints::build(&col);
    let mut bytes = Vec::new();
    idxstorage::write_index(&idx, &mut bytes).unwrap();
    let n = bytes.len();
    for pos in [0, 1, 5, n / 4, n / 2, 3 * n / 4, n - 5, n - 1] {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x10;
        let r = idxstorage::read_index::<i32, _>(&mut corrupted.as_slice());
        assert!(r.is_err(), "bit flip at {pos} went undetected");
    }
}

#[test]
fn type_confusion_is_rejected() {
    let col: Column<u32> = (0..1000).collect();
    let idx = ColumnImprints::build(&col);
    let mut bytes = Vec::new();
    idxstorage::write_index(&idx, &mut bytes).unwrap();
    assert!(matches!(
        idxstorage::read_index::<i32, _>(&mut bytes.as_slice()),
        Err(Error::Mismatch(_))
    ));

    let mut cbytes = Vec::new();
    colstorage::write_column(&col, &mut cbytes).unwrap();
    assert!(matches!(
        colstorage::read_column::<u64, _>(&mut cbytes.as_slice()),
        Err(Error::Mismatch(_))
    ));
}

#[test]
fn reloaded_index_supports_appends() {
    // A warehouse restart mid-ingest: reload, keep appending, stay correct.
    let mut col: Column<i64> = Column::from(distributions::uniform_ints(50_003, 0, 700, 9));
    let idx = ColumnImprints::build(&col);
    let mut bytes = Vec::new();
    idxstorage::write_index(&idx, &mut bytes).unwrap();
    let mut idx2: ColumnImprints<i64> = idxstorage::read_index(&mut bytes.as_slice()).unwrap();

    let extra = distributions::uniform_ints(7_777, 0, 700, 10);
    idx2.append(&extra);
    col.extend_from_slice(&extra);
    idx2.verify(&col).unwrap();

    let pred = RangePredicate::between(100, 200);
    let expect: Vec<u64> = col
        .values()
        .iter()
        .enumerate()
        .filter(|(_, v)| pred.matches(v))
        .map(|(i, _)| i as u64)
        .collect();
    assert_eq!(idx2.evaluate(&col, &pred).as_slice(), expect.as_slice());
}

#[test]
fn empty_structures_roundtrip() {
    let col: Column<i16> = Column::new();
    let idx = ColumnImprints::build(&col);
    let mut bytes = Vec::new();
    idxstorage::write_index(&idx, &mut bytes).unwrap();
    let back: ColumnImprints<i16> = idxstorage::read_index(&mut bytes.as_slice()).unwrap();
    assert_eq!(back.rows(), 0);
    assert!(back.evaluate(&col, &RangePredicate::all()).is_empty());
}

#[test]
fn index_file_size_tracks_index_size() {
    let col: Column<i64> = (0..100_000).map(|i| i / 100).collect();
    let idx = ColumnImprints::build(&col);
    let mut bytes = Vec::new();
    idxstorage::write_index(&idx, &mut bytes).unwrap();
    // On-disk = in-memory payload + fixed header/footer; must stay within
    // a small constant of the reported size.
    let reported = RangeIndex::<i64>::size_bytes(&idx);
    assert!(bytes.len() < reported + 700, "file {} vs reported {}", bytes.len(), reported);
}

/// Exhaustive corruption matrix: flip one bit at *every* byte offset of
/// a serialized column and imprint; every flip must surface as
/// a typed `Err` — never a panic, never a clean read of damaged bytes.
#[test]
fn bitflip_matrix_every_offset_yields_typed_error() {
    let col: Column<i32> = (0..512).map(|i| (i * 31) % 200).collect();
    let idx = ColumnImprints::build(&col);

    let mut col_bytes = Vec::new();
    colstorage::write_column(&col, &mut col_bytes).unwrap();
    let mut idx_bytes = Vec::new();
    idxstorage::write_index(&idx, &mut idx_bytes).unwrap();

    for pos in 0..col_bytes.len() {
        let mut c = col_bytes.clone();
        c[pos] ^= 0x10;
        assert!(
            colstorage::read_column::<i32, _>(&mut c.as_slice()).is_err(),
            "column bit flip at {pos} went undetected"
        );
    }
    for pos in 0..idx_bytes.len() {
        let mut c = idx_bytes.clone();
        c[pos] ^= 0x10;
        assert!(
            idxstorage::read_index::<i32, _>(&mut c.as_slice()).is_err(),
            "imprint bit flip at {pos} went undetected"
        );
    }
}

/// Round-trip equality for every scalar type at arbitrary (partial-tail)
/// lengths: column bytes and imprint must both reload to structures
/// indistinguishable from the originals.
mod roundtrip_props {
    use super::*;
    use colstore::{RangeIndex, RangePredicate, Scalar};
    use proptest::prelude::*;

    fn roundtrip<T: Scalar>(values: Vec<T>) {
        let col: Column<T> = Column::from(values);
        let mut b = Vec::new();
        colstorage::write_column(&col, &mut b).unwrap();
        let col2: Column<T> = colstorage::read_column(&mut b.as_slice()).unwrap();
        assert_eq!(col2.values(), col.values());

        let idx = ColumnImprints::build(&col);
        let mut b = Vec::new();
        idxstorage::write_index(&idx, &mut b).unwrap();
        let idx2: ColumnImprints<T> = idxstorage::read_index(&mut b.as_slice()).unwrap();
        idx2.verify(&col2).unwrap();
        let all = RangePredicate::all();
        assert_eq!(idx2.evaluate(&col2, &all), idx.evaluate(&col, &all));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        // Lengths deliberately cover 0 and non-multiples of every
        // cacheline width (8..64 values per line), so partial tails hit
        // all tail-handling code in both serializers.
        #[test]
        fn all_scalar_types_roundtrip(seeds in prop::collection::vec(any::<i64>(), 0..300)) {
            roundtrip::<i8>(seeds.iter().map(|&v| v as i8).collect());
            roundtrip::<u8>(seeds.iter().map(|&v| v as u8).collect());
            roundtrip::<i16>(seeds.iter().map(|&v| v as i16).collect());
            roundtrip::<u16>(seeds.iter().map(|&v| v as u16).collect());
            roundtrip::<i32>(seeds.iter().map(|&v| v as i32).collect());
            roundtrip::<u32>(seeds.iter().map(|&v| v as u32).collect());
            roundtrip::<i64>(seeds.clone());
            roundtrip::<u64>(seeds.iter().map(|&v| v as u64).collect());
            roundtrip::<f32>(seeds.iter().map(|&v| (v % 100_000) as f32 * 0.25).collect());
            roundtrip::<f64>(seeds.iter().map(|&v| (v % 100_000) as f64 * 0.25).collect());
        }
    }
}
