//! Reverse skyline queries over certain data (Definition 3).

use crp_geom::{dominance_rect, dominates, Point};
use crp_rtree::{PackedRTree, QueryStats};
use crp_uncertain::{ObjectId, UncertainDataset};

/// Is the certain object at `index` a reverse skyline object of `q`?
///
/// True iff no *other* object dominates `q` w.r.t. it (Definition 3).
pub fn is_reverse_skyline_object(ds: &UncertainDataset, index: usize, q: &Point) -> bool {
    let p = ds.object_at(index).certain_point();
    !ds.iter()
        .enumerate()
        .any(|(j, o)| j != index && dominates(o.certain_point(), p, q))
}

/// Reverse skyline of `q` by exhaustive pairwise checks, `O(n²)`.
///
/// # Panics
///
/// Panics if the dataset contains non-certain objects.
pub fn reverse_skyline_naive(ds: &UncertainDataset, q: &Point) -> Vec<ObjectId> {
    (0..ds.len())
        .filter(|&i| is_reverse_skyline_object(ds, i, q))
        .map(|i| ds.object_at(i).id())
        .collect()
}

/// Reverse skyline of `q` using one window existence-query per object:
/// `p` is in the reverse skyline iff the dominance window of (`p`, `q`)
/// contains no other point that strictly dominates `q` w.r.t. `p`. Each
/// query aborts at the first such point.
///
/// `tree` must index exactly the objects of `ds` with their ids — the
/// packed image of [`crate::build_object_rtree`]. Node accesses
/// accumulate into `stats`.
pub fn reverse_skyline_rtree(
    ds: &UncertainDataset,
    tree: &PackedRTree<ObjectId>,
    q: &Point,
    stats: &mut QueryStats,
) -> Vec<ObjectId> {
    let mut result = Vec::new();
    for o in ds.iter() {
        let p = o.certain_point();
        let window = dominance_rect(p, q);
        let unblocked = tree.visit_windows(std::slice::from_ref(&window), stats, &mut |&id| {
            let other = ds.get(id).expect("indexed ids come from the dataset");
            id == o.id() || !dominates(other.certain_point(), p, q)
        });
        if unblocked {
            result.push(o.id());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::build_object_rtree;
    use crp_rtree::RTreeParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(points: &[[f64; 2]]) -> UncertainDataset {
        UncertainDataset::from_points(points.iter().map(|c| Point::from(*c))).unwrap()
    }

    #[test]
    fn singleton_dataset_is_its_own_reverse_skyline() {
        let ds = dataset(&[[1.0, 1.0]]);
        let q = Point::from([5.0, 5.0]);
        assert_eq!(reverse_skyline_naive(&ds, &q), vec![ObjectId(0)]);
    }

    #[test]
    fn blocked_object_detected() {
        // p = (10, 10), q = (5, 5); blocker (7, 7) is closer to p than q
        // in both axes, so p is NOT a reverse skyline object.
        let ds = dataset(&[[10.0, 10.0], [7.0, 7.0]]);
        let q = Point::from([5.0, 5.0]);
        let rs = reverse_skyline_naive(&ds, &q);
        assert!(!rs.contains(&ObjectId(0)));
        // The blocker itself: is q dominated w.r.t. (7,7) by (10,10)?
        // |10-7|=3 > |5-7|=2 -> no. So (7,7) is a reverse skyline object.
        assert!(rs.contains(&ObjectId(1)));
    }

    #[test]
    fn tie_does_not_dominate() {
        // Mirror point has identical per-axis distances to p: must not
        // block p (no strict dimension).
        let ds = dataset(&[[10.0, 10.0], [15.0, 15.0]]);
        let q = Point::from([5.0, 5.0]);
        let rs = reverse_skyline_naive(&ds, &q);
        assert!(rs.contains(&ObjectId(0)));
    }

    #[test]
    fn rtree_matches_naive_on_random_data() {
        let mut rng = StdRng::seed_from_u64(31);
        for round in 0..10 {
            let pts: Vec<[f64; 2]> = (0..80)
                .map(|_| {
                    [
                        rng.random_range(0.0..100.0f64).round(),
                        rng.random_range(0.0..100.0f64).round(),
                    ]
                })
                .collect();
            let ds = dataset(&pts);
            let tree = build_object_rtree(&ds, RTreeParams::with_fanout(8));
            let q = Point::from([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]);
            let mut stats = QueryStats::default();
            let mut fast = reverse_skyline_rtree(&ds, tree.frozen(), &q, &mut stats);
            let mut naive = reverse_skyline_naive(&ds, &q);
            fast.sort_unstable();
            naive.sort_unstable();
            assert_eq!(fast, naive, "round {round}");
            assert!(stats.node_accesses > 0);
        }
    }

    #[test]
    fn rtree_matches_naive_in_3d() {
        let mut rng = StdRng::seed_from_u64(77);
        let pts: Vec<Point> = (0..60)
            .map(|_| {
                Point::from([
                    rng.random_range(0.0..50.0f64).round(),
                    rng.random_range(0.0..50.0f64).round(),
                    rng.random_range(0.0..50.0f64).round(),
                ])
            })
            .collect();
        let ds = UncertainDataset::from_points(pts).unwrap();
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(6));
        let q = Point::from([25.0, 25.0, 25.0]);
        let mut stats = QueryStats::default();
        let mut fast = reverse_skyline_rtree(&ds, tree.frozen(), &q, &mut stats);
        let mut naive = reverse_skyline_naive(&ds, &q);
        fast.sort_unstable();
        naive.sort_unstable();
        assert_eq!(fast, naive);
    }
}
