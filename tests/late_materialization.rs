//! The late-materialization query plan of §3: per-attribute candidate
//! cachelines, merge-join in id space, then a single false-positive pass —
//! across columns of *different* value widths (hence different cacheline
//! geometry) of the same relation.

use colstore::{CachelineSet, Column, RangePredicate, Relation, Value};
use datagen::distributions;
use imprints::query::{candidate_id_ranges, refine};
use imprints::relation_index::{RelationImprints, ValueRange};
use imprints::{ColumnImprints, PredicateKernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn conjunction_matches_oracle_across_widths() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 50_000usize;
    // Three attributes with different widths: u8, i32, f64.
    let a: Column<u8> = (0..n).map(|_| rng.gen_range(0..50u8)).collect();
    let b: Column<i32> = (0..n).map(|_| rng.gen_range(0..10_000)).collect();
    let c: Column<f64> = Column::from(distributions::random_walk(n, 0.0, 100.0, 0.01, 4096, 1));

    let ia = ColumnImprints::build(&a);
    let ib = ColumnImprints::build(&b);
    let ic = ColumnImprints::build(&c);

    let pa = RangePredicate::between(10u8, 20);
    let pb = RangePredicate::between(1000, 4000);
    let pc = RangePredicate::between(25.0, 75.0);

    // Pairwise conjunction via the relation-level plan.
    let mut rel = Relation::new("abc");
    rel.add_column("a", a.clone()).unwrap();
    rel.add_column("b", b.clone()).unwrap();
    let ab = RelationImprints::build(&rel)
        .query(
            &rel,
            &[
                ("a", ValueRange::between(Value::U8(10), Value::U8(20))),
                ("b", ValueRange::between(Value::I32(1000), Value::I32(4000))),
            ],
        )
        .unwrap();
    let oracle_ab: Vec<u64> = (0..n as u64)
        .filter(|&i| pa.matches(&a.values()[i as usize]) && pb.matches(&b.values()[i as usize]))
        .collect();
    assert_eq!(ab.as_slice(), oracle_ab.as_slice());

    // Three-way: intersect id-space candidate sets manually, refine each.
    let (ca, _) = candidate_id_ranges(&ia, &pa);
    let (cb, _) = candidate_id_ranges(&ib, &pb);
    let (cc, _) = candidate_id_ranges(&ic, &pc);
    let joint = ca.intersect(&cb).intersect(&cc);
    let mut stats = imprints::ImprintStats::default();
    let ids_a = refine(&a, &PredicateKernel::new(&pa), &joint, &mut stats);
    let survivors: Vec<u64> = ids_a
        .iter()
        .filter(|&i| pb.matches(&b.values()[i as usize]) && pc.matches(&c.values()[i as usize]))
        .collect();
    let oracle_abc: Vec<u64> = (0..n as u64)
        .filter(|&i| {
            pa.matches(&a.values()[i as usize])
                && pb.matches(&b.values()[i as usize])
                && pc.matches(&c.values()[i as usize])
        })
        .collect();
    assert_eq!(survivors, oracle_abc);
}

#[test]
fn candidate_sets_shrink_with_each_attribute() {
    // "The combination of many range queries will increase the selectivity
    // of the final result set" — each merge-join can only shrink the
    // candidate space.
    let n = 100_000usize;
    let a: Column<f64> = Column::from(distributions::random_walk(n, 0.0, 100.0, 0.001, 2048, 5));
    let b: Column<f64> = Column::from(distributions::random_walk(n, 0.0, 100.0, 0.001, 2048, 6));
    let ia = ColumnImprints::build(&a);
    let ib = ColumnImprints::build(&b);
    let pa = RangePredicate::between(40.0, 60.0);
    let pb = RangePredicate::between(40.0, 60.0);
    let (ca, _) = candidate_id_ranges(&ia, &pa);
    let (cb, _) = candidate_id_ranges(&ib, &pb);
    let joint = ca.intersect(&cb);
    assert!(joint.line_count() <= ca.line_count());
    assert!(joint.line_count() <= cb.line_count());
    assert!(
        joint.line_count() < ca.line_count().max(cb.line_count()),
        "independent clustered walks should actually prune"
    );
}

#[test]
fn id_space_candidates_are_whole_cachelines_clamped_to_the_column() {
    let n = 30_000usize;
    let col: Column<i16> = (0..n).map(|i| ((i * 31) % 5000) as i16).collect();
    let idx = ColumnImprints::build(&col);
    let pred = RangePredicate::between(100i16, 200);
    let (ids, _) = candidate_id_ranges(&idx, &pred);
    let vpb = idx.values_per_block() as u64;
    // Every candidate run starts on a cacheline and ends on one, or at the
    // column's end.
    assert!(ids.run_count() > 0);
    for r in ids.runs() {
        assert_eq!(r.start % vpb, 0, "{r:?}");
        assert!(r.end % vpb == 0 || r.end == n as u64, "{r:?}");
    }
    // The candidate lines are exactly those whose imprint meets the
    // query's mask: each holds a match or an equal-binned false positive.
    let masks = imprints::masks::make_masks(idx.binning(), &pred);
    let mut want = CachelineSet::new();
    for (l, v) in (0u64..).zip(idx.line_imprints()) {
        if masks.may_match(v) {
            want.push_run(l * vpb, ((l + 1) * vpb).min(n as u64));
        }
    }
    assert_eq!(ids, want);
}

#[test]
fn relation_tuple_reconstruction_after_conjunction() {
    let n = 10_000usize;
    let temp: Column<f32> = (0..n).map(|i| 15.0 + ((i % 200) as f32) / 10.0).collect();
    let station: Column<u16> = (0..n).map(|i| (i % 37) as u16).collect();
    let mut rel = Relation::new("weather");
    rel.add_column("temp", temp).unwrap();
    rel.add_column("station", station).unwrap();

    let ids = RelationImprints::build(&rel)
        .query(
            &rel,
            &[
                ("temp", ValueRange::between(Value::F32(20.0), Value::F32(21.0))),
                ("station", ValueRange::equals(Value::U16(5))),
            ],
        )
        .unwrap();
    let tuples = rel.tuples(&ids);
    assert_eq!(tuples.len(), ids.len());
    for t in &tuples {
        match (t[0], t[1]) {
            (Value::F32(x), Value::U16(s)) => {
                assert!((20.0..=21.0).contains(&x));
                assert_eq!(s, 5);
            }
            other => panic!("unexpected tuple {other:?}"),
        }
    }
}

#[test]
fn empty_intersection_short_circuits() {
    let n = 20_000usize;
    let a: Column<i32> = (0..n).map(|i| (i % 100) as i32).collect();
    let b: Column<i32> = (0..n).map(|i| ((i + 50) % 100) as i32).collect();
    let mut rel = Relation::new("ab");
    rel.add_column("a", a.clone()).unwrap();
    rel.add_column("b", b.clone()).unwrap();
    // Disjoint value predicates that no row satisfies jointly... a values
    // 0..10 happen at i%100 < 10; b at those rows is 50..60.
    let pa = RangePredicate::between(0, 9);
    let pb = RangePredicate::between(90, 95);
    let ids = RelationImprints::build(&rel)
        .query(
            &rel,
            &[
                ("a", ValueRange::between(Value::I32(0), Value::I32(9))),
                ("b", ValueRange::between(Value::I32(90), Value::I32(95))),
            ],
        )
        .unwrap();
    let oracle: Vec<u64> = (0..n as u64)
        .filter(|&i| pa.matches(&a.values()[i as usize]) && pb.matches(&b.values()[i as usize]))
        .collect();
    assert_eq!(ids.as_slice(), oracle.as_slice());
}

#[test]
fn cachelineset_algebra_with_imprint_output() {
    let col: Column<i64> = (0..50_000).map(|i| i / 500).collect();
    let idx = ColumnImprints::build(&col);
    let (c1, _) = candidate_id_ranges(&idx, &RangePredicate::between(10, 20));
    let (c2, _) = candidate_id_ranges(&idx, &RangePredicate::between(15, 30));
    let (c_union_pred, _) = candidate_id_ranges(&idx, &RangePredicate::between(10, 30));
    // Candidates of the union predicate = union of candidates (same
    // binning, contiguous ranges).
    let manual_union = c1.union(&c2);
    assert_eq!(manual_union, c_union_pred);
    // Intersection is contained in both.
    let inter = c1.intersect(&c2);
    assert!(inter.line_count() <= c1.line_count().min(c2.line_count()));
    let empty = CachelineSet::new();
    assert!(inter.intersect(&empty).is_empty());
}
