//! R-tree construction helpers.

use crp_geom::HyperRect;
use crp_rtree::{RTree, RTreeParams};
use crp_uncertain::{Dataset, Identified, ObjectId};

/// Builds an R-tree over the objects' MBRs (one entry per uncertain
/// object, as in Lian & Chen and the paper) — sample MBRs for discrete
/// data, uncertain regions for pdf data. Uses STR bulk loading. A
/// certain object's MBR is its point, so on certain data this is the
/// point index CR's dominance window reads.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn build_object_rtree<O: Identified>(ds: &Dataset<O>, params: RTreeParams) -> RTree<ObjectId> {
    let dim = ds.dim().expect("cannot index an empty dataset");
    let items: Vec<(HyperRect, ObjectId)> = ds.iter().map(|o| (o.mbr(), o.object_id())).collect();
    RTree::bulk_load(dim, params, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;
    use crp_rtree::QueryStats;
    use crp_uncertain::{UncertainDataset, UncertainObject};

    #[test]
    fn object_rtree_indexes_mbrs() {
        let ds = UncertainDataset::from_objects(vec![
            UncertainObject::with_equal_probs(
                ObjectId(0),
                vec![Point::from([0.0, 0.0]), Point::from([2.0, 2.0])],
            )
            .unwrap(),
            UncertainObject::certain(ObjectId(1), Point::from([10.0, 10.0])),
        ])
        .unwrap();
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        assert_eq!(tree.len(), 2);
        let mut stats = QueryStats::default();
        let window = HyperRect::new(Point::from([1.0, 1.0]), Point::from([3.0, 3.0]));
        let mut hits = Vec::new();
        tree.frozen()
            .visit_windows(std::slice::from_ref(&window), &mut stats, &mut |&id| {
                hits.push(id);
                true
            });
        assert_eq!(hits, vec![ObjectId(0)]);
    }

    #[test]
    fn point_rtree_for_certain_data() {
        // On certain data the object tree is the point tree: every
        // entry is the degenerate rectangle of the object's point.
        let ds = UncertainDataset::from_points(vec![
            Point::from([0.0, 0.0]),
            Point::from([5.0, 5.0]),
            Point::from([9.0, 1.0]),
        ])
        .unwrap();
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        assert_eq!(tree.len(), 3);
        tree.for_each(|rect, &id| {
            let p = ds.get(id).expect("indexed id").certain_point();
            assert_eq!(rect, &HyperRect::from_point(p));
        });
    }
}
