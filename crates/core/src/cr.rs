//! The *CR* algorithm: causality & responsibility for non-answers to
//! plain reverse skyline queries over certain data (Section 4).
//!
//! Lemma 7 makes the certain case verification-free: the candidate causes
//! (every object dominating `q` w.r.t. `an`) are *all* actual causes, each
//! with minimal contingency set `Cc − {c}` and responsibility `1/|Cc|`
//! (Eq. 4). CR therefore issues a single window query and returns.
//!
//! Since the `ExplainEngine` refactor this is a thin wrapper over the
//! certain-data pipeline ([`crate::engine::certain`]) with the
//! [`Lemma7ClosedForm`](crate::engine::certain::Lemma7ClosedForm)
//! verification stage; prefer [`crate::ExplainEngine`] with
//! [`crate::ExplainStrategy::Cr`].

use crate::engine::certain::{run_certain, Lemma7ClosedForm};
use crate::error::CrpError;
use crate::types::CrpOutcome;
use crp_geom::Point;
use crp_rtree::RTree;
use crp_uncertain::{ObjectId, UncertainDataset};

/// Computes the CRP for the non-answer `an_id` to the reverse skyline
/// query of `q` over the certain dataset `ds`.
///
/// `tree` must index the points of `ds` (see
/// [`crp_skyline::build_point_rtree`]).
///
/// # Errors
///
/// * [`CrpError::NotCertainData`] if any object has multiple samples,
/// * [`CrpError::EmptyDataset`] / [`CrpError::UnknownObject`],
/// * [`CrpError::NotANonAnswer`] when `an` *is* a reverse skyline object
///   (no candidate dominates `q` w.r.t. it).
#[deprecated(
    since = "0.2.0",
    note = "construct an ExplainEngine and use ExplainStrategy::Cr; the engine owns and reuses the R-tree"
)]
pub fn cr(
    ds: &UncertainDataset,
    tree: &RTree<ObjectId>,
    q: &Point,
    an_id: ObjectId,
) -> Result<CrpOutcome, CrpError> {
    run_certain(ds, tree, q, an_id, &Lemma7ClosedForm { k: 0 }, None)
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use crp_rtree::RTreeParams;
    use crp_skyline::build_point_rtree;
    use crp_uncertain::UncertainObject;

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    /// an = (10,10), q = (5,5); dominators at (7,7), (6,8), (8,6);
    /// non-dominators elsewhere.
    fn fixture() -> (UncertainDataset, Point) {
        let ds = UncertainDataset::from_points(vec![
            pt(10.0, 10.0), // 0: an
            pt(7.0, 7.0),   // 1: dominates
            pt(6.0, 8.0),   // 2: dominates
            pt(8.0, 6.0),   // 3: dominates
            pt(2.0, 2.0),   // 4: outside window
            pt(15.0, 15.0), // 5: mirror tie -> inside window, no strict dim
        ])
        .unwrap();
        (ds, pt(5.0, 5.0))
    }

    #[test]
    fn cr_finds_all_causes_with_equal_responsibility() {
        let (ds, q) = fixture();
        let tree = build_point_rtree(&ds, RTreeParams::with_fanout(4));
        let out = cr(&ds, &tree, &q, ObjectId(0)).unwrap();
        let ids: Vec<u32> = out.causes.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        for c in &out.causes {
            assert!((c.responsibility - 1.0 / 3.0).abs() < 1e-12);
            assert_eq!(c.min_contingency.len(), 2);
            assert!(!c.counterfactual);
            assert!(!c.min_contingency.contains(&c.id));
        }
        assert!(out.stats.query.node_accesses > 0);
        assert_eq!(out.stats.candidates, 3);
    }

    #[test]
    fn boundary_tie_is_not_a_cause() {
        let (ds, q) = fixture();
        let tree = build_point_rtree(&ds, RTreeParams::with_fanout(4));
        let out = cr(&ds, &tree, &q, ObjectId(0)).unwrap();
        assert!(
            out.cause(ObjectId(5)).is_none(),
            "mirror point ties, no strict dim"
        );
    }

    #[test]
    fn single_cause_is_counterfactual() {
        let ds = UncertainDataset::from_points(vec![pt(10.0, 10.0), pt(7.0, 7.0)]).unwrap();
        let tree = build_point_rtree(&ds, RTreeParams::with_fanout(4));
        let out = cr(&ds, &tree, &pt(5.0, 5.0), ObjectId(0)).unwrap();
        assert_eq!(out.causes.len(), 1);
        assert!(out.causes[0].counterfactual);
        assert_eq!(out.causes[0].responsibility, 1.0);
        assert!(out.causes[0].min_contingency.is_empty());
    }

    #[test]
    fn answer_object_rejected() {
        let (ds, q) = fixture();
        let tree = build_point_rtree(&ds, RTreeParams::with_fanout(4));
        // Object 4 at (2,2): dominance window around it w.r.t. q holds no
        // dominator.
        let err = cr(&ds, &tree, &q, ObjectId(4)).unwrap_err();
        assert!(matches!(err, CrpError::NotANonAnswer { .. }));
    }

    #[test]
    fn uncertain_data_rejected() {
        let ds = UncertainDataset::from_objects(vec![UncertainObject::with_equal_probs(
            ObjectId(0),
            vec![pt(0.0, 0.0), pt(1.0, 1.0)],
        )
        .unwrap()])
        .unwrap();
        let tree = crp_skyline::build_object_rtree(&ds, RTreeParams::with_fanout(4));
        assert_eq!(
            cr(&ds, &tree, &pt(5.0, 5.0), ObjectId(0)).unwrap_err(),
            CrpError::NotCertainData
        );
    }

    #[test]
    fn unknown_and_empty_inputs() {
        let (ds, q) = fixture();
        let tree = build_point_rtree(&ds, RTreeParams::with_fanout(4));
        assert!(matches!(
            cr(&ds, &tree, &q, ObjectId(42)),
            Err(CrpError::UnknownObject(_))
        ));
        let empty = UncertainDataset::new();
        assert_eq!(
            cr(&empty, &tree, &q, ObjectId(0)).unwrap_err(),
            CrpError::EmptyDataset
        );
    }

    #[test]
    fn duplicate_of_an_blocks_it() {
        // A second object at an's own location dominates q w.r.t. an
        // (all-zero distances, strict somewhere because q != an).
        let ds = UncertainDataset::from_points(vec![pt(10.0, 10.0), pt(10.0, 10.0)]).unwrap();
        let tree = build_point_rtree(&ds, RTreeParams::with_fanout(4));
        let out = cr(&ds, &tree, &pt(5.0, 5.0), ObjectId(0)).unwrap();
        assert_eq!(out.causes.len(), 1);
        assert_eq!(out.causes[0].id, ObjectId(1));
    }
}
