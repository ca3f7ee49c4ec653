//! Trip routing analytics: the paper's Routing dataset — GPS traces with
//! strong local clustering — and a *multi-attribute* bounding-box query
//! answered with the late-materialization plan of §3: per-column candidate
//! cachelines, merge-joined in id space, then one false-positive pass.
//! `RelationImprints::query` runs `relation_index::run`, the same plan the
//! engine's sealed segments and write head run.
//!
//! ```text
//! cargo run --release --example trip_routing
//! ```

use column_imprints::colstore::{Column, RangeIndex, RangePredicate, Relation, Value};
use column_imprints::datagen::distributions;
use column_imprints::imprints::query;
use column_imprints::imprints::relation_index::{RelationImprints, ValueRange};
use column_imprints::imprints::{column_entropy, ColumnImprints};

fn main() {
    // 2M GPS points: lat/lon wander smoothly within each 4096-point trip.
    let n = 2_000_000;
    let lat: Column<f64> = Column::from(distributions::random_walk(n, 45.0, 55.0, 0.0005, 4096, 1));
    let lon: Column<f64> = Column::from(distributions::random_walk(n, 3.0, 8.0, 0.0005, 4096, 2));

    // The relation ties the columns into one logical table.
    let mut trips = Relation::new("trips");
    trips.add_column("lat", lat.clone()).unwrap();
    trips.add_column("lon", lon.clone()).unwrap();

    let idx_lat = ColumnImprints::build(&lat);
    let idx_lon = ColumnImprints::build(&lon);
    println!(
        "routing columns: E(lat) = {:.3}, E(lon) = {:.3} (clustered, as in the paper's Fig. 3)",
        column_entropy(&idx_lat),
        column_entropy(&idx_lon)
    );
    println!(
        "imprint sizes: lat {:.2}%, lon {:.2}% of column data",
        100.0 * RangeIndex::<f64>::size_bytes(&idx_lat) as f64 / lat.data_bytes() as f64,
        100.0 * RangeIndex::<f64>::size_bytes(&idx_lon) as f64 / lon.data_bytes() as f64,
    );

    // Bounding box around Amsterdam-ish coordinates.
    let lat_pred = RangePredicate::between(52.0, 52.5);
    let lon_pred = RangePredicate::between(4.5, 5.5);

    // Late materialization: candidates -> merge-join -> refine, through
    // the relation-level API (one index per column, dynamically-typed
    // bounds).
    let rel_idx = RelationImprints::build(&trips);
    let t0 = std::time::Instant::now();
    let ids = rel_idx
        .query(
            &trips,
            &[
                ("lat", ValueRange::between(Value::F64(52.0), Value::F64(52.5))),
                ("lon", ValueRange::between(Value::F64(4.5), Value::F64(5.5))),
            ],
        )
        .expect("well-typed predicates");
    let dt_idx = t0.elapsed();
    println!("\nbounding box [{lat_pred} x {lon_pred}]: {} points in {:?}", ids.len(), dt_idx);

    // The same box via two scans + intersection, for comparison.
    let t0 = std::time::Instant::now();
    let brute: Vec<u64> = (0..n as u64)
        .filter(|&i| {
            lat_pred.matches(&lat.values()[i as usize])
                && lon_pred.matches(&lon.values()[i as usize])
        })
        .collect();
    let dt_scan = t0.elapsed();
    assert_eq!(ids.as_slice(), brute.as_slice());
    println!(
        "scan of both columns: {:?} -> conjunction speedup {:.1}x",
        dt_scan,
        dt_scan.as_secs_f64() / dt_idx.as_secs_f64()
    );

    // Late materialization endpoint: reconstruct a few matching tuples.
    println!("\nfirst matches (id, lat, lon):");
    for id in ids.iter().take(5) {
        let tuple = trips.tuple(id as usize).unwrap();
        println!("  #{id}: {} , {}", tuple[0], tuple[1]);
    }

    // Candidate-set statistics: how much did each imprint prune?
    let (cand_lat, _) = query::candidate_id_ranges(&idx_lat, &lat_pred);
    let (cand_lon, _) = query::candidate_id_ranges(&idx_lon, &lon_pred);
    println!(
        "\ncandidate rows: lat {} of {n} ({} runs), lon {} of {n} ({} runs)",
        cand_lat.row_count(),
        cand_lat.run_count(),
        cand_lon.row_count(),
        cand_lon.run_count(),
    );
}
