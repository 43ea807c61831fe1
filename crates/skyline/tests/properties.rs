//! Property tests for the query substrate: the closed-form probability
//! (Eq. 2) against possible worlds, the R-tree evaluators against naive
//! scans, and Definition 3's reverse-skyline membership.

use crp_geom::{dominates, Point};
use crp_rtree::{QueryStats, RTreeParams};
use crp_skyline::{
    build_object_rtree, pr_reverse_skyline, pr_reverse_skyline_indexed, pr_reverse_skyline_worlds,
    reverse_skyline_naive, reverse_skyline_rtree,
};
use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};
use proptest::prelude::*;

fn grid_point(dim: usize) -> impl Strategy<Value = Point> {
    prop::collection::vec(0.0..15.0f64, dim)
        .prop_map(|v| Point::new(v.into_iter().map(|c| c.round()).collect::<Vec<_>>()))
}

fn uncertain_ds(dim: usize, max_objs: usize) -> impl Strategy<Value = UncertainDataset> {
    prop::collection::vec(prop::collection::vec(grid_point(dim), 1..=3), 1..=max_objs).prop_map(
        |objs| {
            UncertainDataset::from_objects(objs.into_iter().enumerate().map(|(i, pts)| {
                UncertainObject::with_equal_probs(ObjectId(i as u32), pts).unwrap()
            }))
            .unwrap()
        },
    )
}

fn certain_ds(dim: usize, max_objs: usize) -> impl Strategy<Value = UncertainDataset> {
    prop::collection::vec(grid_point(dim), 1..=max_objs)
        .prop_map(|pts| UncertainDataset::from_points(pts).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eq2_matches_possible_worlds(ds in uncertain_ds(2, 5), q in grid_point(2)) {
        for target in 0..ds.len() {
            let closed = pr_reverse_skyline(&ds, target, &q, |_| false);
            let worlds = pr_reverse_skyline_worlds(&ds, target, &q, |_| false);
            prop_assert!((closed - worlds).abs() < 1e-9, "target {}", target);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&closed));
        }
    }

    #[test]
    fn indexed_pr_equals_scan_pr(ds in uncertain_ds(2, 12), q in grid_point(2)) {
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        for target in 0..ds.len() {
            let mut stats = QueryStats::default();
            let a = pr_reverse_skyline(&ds, target, &q, |_| false);
            let b = pr_reverse_skyline_indexed(&ds, tree.frozen(), target, &q, &mut stats);
            prop_assert!((a - b).abs() < 1e-9, "target {}", target);
        }
    }

    #[test]
    fn reverse_skyline_engines_agree(ds in certain_ds(2, 25), q in grid_point(2)) {
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        let mut stats = QueryStats::default();
        let mut fast = reverse_skyline_rtree(&ds, tree.frozen(), &q, &mut stats);
        let mut naive = reverse_skyline_naive(&ds, &q);
        fast.sort_unstable();
        naive.sort_unstable();
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn reverse_skyline_iff_q_in_dynamic_skyline(
        ds in certain_ds(2, 15), q in grid_point(2)
    ) {
        // Definition 3's equivalence: p is a reverse skyline object of q
        // exactly when no other point dominates q w.r.t. p.
        let rs = reverse_skyline_naive(&ds, &q);
        for o in ds.iter() {
            let p = o.certain_point();
            let blocked = ds
                .iter()
                .any(|o2| o2.id() != o.id() && dominates(o2.certain_point(), p, &q));
            prop_assert_eq!(rs.contains(&o.id()), !blocked);
        }
    }
}
