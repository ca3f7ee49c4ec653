//! An ever-growing warehouse: the paper's Airtraffic scenario (§4) —
//! monthly batch appends, occasional in-place corrections, and index
//! persistence across restarts.
//!
//! ```text
//! cargo run --release --example airtraffic_delays
//! ```

use column_imprints::colstore::{storage as colstorage, Column, RangeIndex, RangePredicate};
use column_imprints::datagen::distributions;
use column_imprints::imprints::{storage as idxstorage, ColumnImprints, OverlayImprints};

fn main() {
    // Year one of departure delays: time-clustered minutes.
    let base: Vec<i64> = distributions::time_clustered(1_200_000, 12, 120, 0.02, 7);
    let mut col: Column<i64> = Column::from(base);
    let mut idx = ColumnImprints::build(&col);
    println!(
        "initial load: {} rows, imprint index {} bytes, saturation {:.2}",
        col.len(),
        RangeIndex::<i64>::size_bytes(&idx),
        idx.saturation()
    );

    // --- Monthly appends (§4.1): no existing imprint vector is touched. --
    for month in 0..3 {
        let batch: Vec<i64> = distributions::time_clustered(100_000, 1, 120, 0.02, 100 + month)
            .iter()
            .map(|v| v + 1440 + month as i64 * 120)
            .collect();
        let stats = idx.append(&batch);
        col.extend_from_slice(&batch);
        println!(
            "append month {month}: +{} rows, {} new lines, {} overflow values, drift {:.3}",
            stats.appended,
            stats.lines_finalized,
            stats.overflow_low + stats.overflow_high,
            idx.append_drift()
        );
    }
    idx.verify(&col).expect("index and column in sync after appends");

    // Appended months land in the top overflow bin (their delays exceed
    // the sampled domain), so the rebuild heuristic eventually fires.
    if idx.needs_rebuild() {
        println!("rebuild heuristic fired -> rebuilding with fresh binning");
        idx = idx.rebuild(&col);
    }

    // --- Point corrections in place (§4.2). ------------------------------
    // Each corrected value sets its bin bit on its cacheline; the stale
    // bits left behind only cost false positives.
    let mut overlay = OverlayImprints::new(idx);
    let corrections = [(42usize, 999i64), (17, 75)];
    for (id, minutes) in corrections {
        col.values_mut()[id] = minutes;
        overlay.note_update(id as u64, minutes);
    }
    let pred = RangePredicate::between(60, 120);
    let (corrected, stats) = overlay.evaluate_with_imprint_stats(&col, &pred);
    println!(
        "\ndelayed 60-120 minutes: {} rows after {} in-place corrections \
         ({} overlaid lines, {} lines skipped)",
        corrected.len(),
        corrections.len(),
        overlay.overlaid_lines(),
        stats.access.lines_skipped
    );
    // Verify against a brute-force scan of the corrected column.
    let expected = col.values().iter().filter(|v| pred.matches(v)).count();
    assert_eq!(corrected.len(), expected);
    // Fold the corrections into a fresh build, so the persisted index
    // matches its column exactly.
    overlay.rebuild(&col);
    let idx = overlay.base();

    // --- Persistence: column and index survive a restart. ----------------
    let dir = std::env::temp_dir().join("imprints_airtraffic_example");
    std::fs::create_dir_all(&dir).unwrap();
    let col_path = dir.join("delays.col");
    let idx_path = dir.join("delays.imprints");
    colstorage::write_column(&col, &mut std::fs::File::create(&col_path).unwrap()).unwrap();
    idxstorage::write_index(idx, &mut std::fs::File::create(&idx_path).unwrap()).unwrap();

    let col2: Column<i64> =
        colstorage::read_column(&mut std::fs::File::open(&col_path).unwrap()).unwrap();
    let idx2: ColumnImprints<i64> =
        idxstorage::read_index(&mut std::fs::File::open(&idx_path).unwrap()).unwrap();
    idx2.verify(&col2).expect("reloaded index matches reloaded column");
    assert_eq!(idx2.evaluate(&col2, &pred), idx.evaluate(&col, &pred));
    println!(
        "\npersisted and reloaded: {} + {} bytes on disk, answers identical",
        std::fs::metadata(&col_path).unwrap().len(),
        std::fs::metadata(&idx_path).unwrap().len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
