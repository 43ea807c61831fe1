//! Algorithm 1 (*CP*): causality & responsibility for a non-answer to a
//! probabilistic reverse skyline query, discrete-sample model.
//!
//! CP runs as [`crate::ExplainStrategy::Cp`] (and, with the filter
//! ablated to a full scan, [`crate::ExplainStrategy::CpUnindexed`])
//! over the engine's shared `filter → refine → fmcs` pipeline in
//! [`crate::engine`]. This module keeps the stage-1 filter as a free
//! function for the experiment harness, and the end-to-end tests of the
//! algorithm.

use crate::engine::filter::{FilterStage, SampleWindowFilter};
use crate::types::RunStats;
use crp_geom::Point;
use crp_rtree::RTree;
use crp_uncertain::{ObjectId, UncertainDataset};

/// Filtering step of CP (Lemma 2): the dataset positions of all objects
/// that dominate `q` w.r.t. some sample of the object at `an_pos` with
/// positive probability, found by one multi-window R-tree traversal over
/// the `RecList` of `an`'s samples followed by exact dominance checks.
///
/// The result is sorted and deduplicated; `an` itself is excluded.
///
/// This is pipeline stage 1
/// ([`SampleWindowFilter`](crate::engine::filter::SampleWindowFilter))
/// over the tree's packed image ([`RTree::frozen`]), exposed as a free
/// function for the experiment harness.
pub fn collect_candidates(
    ds: &UncertainDataset,
    tree: &RTree<ObjectId>,
    q: &Point,
    an_pos: usize,
    stats: &mut RunStats,
) -> Vec<usize> {
    SampleWindowFilter::new(tree.frozen()).candidates(ds, q, an_pos, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{cp, explain, session};
    use crate::{CrpError, ExplainStrategy};
    use crp_rtree::RTreeParams;
    use crp_skyline::build_object_rtree;
    use crp_uncertain::UncertainObject;

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    /// an = object 0 at (10,10); q = (5,5); candidates with varied
    /// dominance probabilities.
    fn fixture() -> (UncertainDataset, Point) {
        let ds = UncertainDataset::from_objects(vec![
            UncertainObject::certain(ObjectId(0), pt(10.0, 10.0)),
            UncertainObject::certain(ObjectId(1), pt(7.0, 7.0)), // dp = 1
            UncertainObject::with_equal_probs(ObjectId(2), vec![pt(8.0, 9.0), pt(30.0, 30.0)])
                .unwrap(), // dp = 0.5
            UncertainObject::certain(ObjectId(3), pt(40.0, 40.0)), // dp = 0
            UncertainObject::certain(ObjectId(4), pt(2.0, 2.0)), // an answer: nothing blocks it
        ])
        .unwrap();
        (ds, pt(5.0, 5.0))
    }

    #[test]
    fn filter_excludes_non_dominators_and_self() {
        let (ds, q) = fixture();
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        let mut stats = RunStats::default();
        let cands = collect_candidates(&ds, &tree, &q, 0, &mut stats);
        assert_eq!(cands, vec![1, 2]);
        assert!(stats.query.node_accesses > 0);
    }

    #[test]
    fn cp_end_to_end() {
        let (ds, q) = fixture();
        let engine = session(ds);
        // α = 0.5: Pr(an) = 0 (object 1 dominates with certainty).
        let out = cp(&engine, &q, ObjectId(0), 0.5).unwrap();
        // Object 1: removing it leaves Pr = 0.5 ≥ α -> counterfactual.
        let c1 = out.cause(ObjectId(1)).expect("object 1 is a cause");
        assert!(c1.counterfactual);
        assert_eq!(c1.responsibility, 1.0);
        // Object 2: Γ = {1} -> Pr(P−Γ) = 0.5... that is ≥ α, so {1} is
        // NOT valid; no Γ works (removing 1 already answers) -> not a
        // cause.
        assert!(out.cause(ObjectId(2)).is_none());
        assert!(out.cause(ObjectId(3)).is_none());
    }

    #[test]
    fn cp_lower_alpha_two_causes() {
        let (ds, q) = fixture();
        let engine = session(ds);
        // α = 0.75: removing object 1 leaves Pr = 0.5 < α -> NOT
        // counterfactual; Γ(1) = {2}, Γ(2) = {1}.
        let out = cp(&engine, &q, ObjectId(0), 0.75).unwrap();
        let c1 = out.cause(ObjectId(1)).expect("cause 1");
        let c2 = out.cause(ObjectId(2)).expect("cause 2");
        assert_eq!(c1.min_contingency, vec![ObjectId(2)]);
        assert_eq!(c2.min_contingency, vec![ObjectId(1)]);
        assert!((c1.responsibility - 0.5).abs() < 1e-12);
        assert!((c2.responsibility - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cp_rejects_answers() {
        let (ds, q) = fixture();
        let engine = session(ds);
        // Object 4 at (2,2): its dominance window [−1,5]² holds no other
        // object, so it IS an answer at any α.
        let err = cp(&engine, &q, ObjectId(4), 0.5).unwrap_err();
        assert!(matches!(err, CrpError::NotANonAnswer { prob } if (prob - 1.0).abs() < 1e-12));
    }

    #[test]
    fn cp_validates_inputs() {
        let (ds, q) = fixture();
        let engine = session(ds);
        assert!(matches!(
            cp(&engine, &q, ObjectId(0), 0.0),
            Err(CrpError::InvalidAlpha(_))
        ));
        assert!(matches!(
            cp(&engine, &q, ObjectId(0), 1.5),
            Err(CrpError::InvalidAlpha(_))
        ));
        assert!(matches!(
            cp(&engine, &q, ObjectId(99), 0.5),
            Err(CrpError::UnknownObject(_))
        ));
        let empty = session(UncertainDataset::new());
        for strategy in [ExplainStrategy::Cp, ExplainStrategy::CpUnindexed] {
            let err = explain(&empty, strategy, &q, ObjectId(0), 0.5).unwrap_err();
            assert_eq!(err, CrpError::EmptyDataset, "{strategy:?}");
        }
    }

    #[test]
    fn indexed_and_unindexed_agree() {
        let (ds, q) = fixture();
        let engine = session(ds);
        for alpha in [0.25, 0.5, 0.75, 1.0] {
            let a = cp(&engine, &q, ObjectId(0), alpha);
            let b = explain(
                &engine,
                ExplainStrategy::CpUnindexed,
                &q,
                ObjectId(0),
                alpha,
            );
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x.causes, y.causes, "alpha {alpha}"),
                (Err(x), Err(y)) => assert_eq!(x, y, "alpha {alpha}"),
                (x, y) => panic!("divergence at alpha {alpha}: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn alpha_one_every_candidate_is_a_cause() {
        let (ds, q) = fixture();
        let engine = session(ds);
        let out = cp(&engine, &q, ObjectId(0), 1.0).unwrap();
        assert_eq!(out.causes.len(), 2); // objects 1 and 2
        for c in &out.causes {
            assert!((c.responsibility - 0.5).abs() < 1e-12, "r = 1/|Cc|");
        }
    }
}
