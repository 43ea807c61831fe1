//! Algorithm 1 (*CP*): causality & responsibility for a non-answer to a
//! probabilistic reverse skyline query, discrete-sample model.
//!
//! Since the `ExplainEngine` refactor these free functions are thin
//! wrappers over the shared `filter → refine → fmcs` pipeline in
//! [`crate::engine`] — the identical code path the engine dispatches;
//! candidate impact ordering lives in the engine's merge stage
//! (`engine::merge`), so there is exactly one implementation of every
//! stage. Prefer [`crate::ExplainEngine`], which owns the R-tree
//! and amortises it across calls.

use crate::config::CpConfig;
use crate::engine::filter::{FilterStage, SampleWindowFilter, ScanFilter};
use crate::engine::pipeline;
use crate::error::CrpError;
use crate::types::{CrpOutcome, RunStats};
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
/// exposed as a free function for the experiment harness.
pub fn collect_candidates(
    ds: &UncertainDataset,
    tree: &RTree<ObjectId>,
    q: &Point,
    an_pos: usize,
    stats: &mut RunStats,
) -> Vec<usize> {
    SampleWindowFilter::new(tree).candidates(ds, q, an_pos, stats)
}

/// The *CP* algorithm: all actual causes, with responsibilities and
/// minimal contingency sets, for the non-answer `an_id` to the
/// probabilistic reverse skyline query `(q, α)` over `ds`.
///
/// `tree` must index the objects' MBRs (see
/// [`crp_skyline::build_object_rtree`]).
///
/// Prefer [`crate::ExplainEngine`] with
/// [`crate::ExplainStrategy::Cp`], which owns `tree` and shares it
/// across calls; this wrapper remains for callers that manage their own
/// index.
///
/// # Errors
///
/// * [`CrpError::InvalidAlpha`] unless `0 < α ≤ 1`,
/// * [`CrpError::EmptyDataset`] / [`CrpError::UnknownObject`],
/// * [`CrpError::NotANonAnswer`] when `Pr(an) ≥ α`,
/// * [`CrpError::BudgetExhausted`] when `config.max_subsets` trips.
#[deprecated(
    since = "0.2.0",
    note = "construct an ExplainEngine and use ExplainStrategy::Cp; the engine owns and reuses the R-tree"
)]
pub fn cp(
    ds: &UncertainDataset,
    tree: &RTree<ObjectId>,
    q: &Point,
    an_id: ObjectId,
    alpha: f64,
    config: &CpConfig,
) -> Result<CrpOutcome, CrpError> {
    pipeline::run_probabilistic(
        ds,
        q,
        an_id,
        alpha,
        config,
        &SampleWindowFilter::new(tree),
        None,
    )
}

/// CP without the R-tree filter: candidates are found by a full scan
/// (every object is tested against Lemma 2 exactly). Used by the filter
/// ablation and as a test cross-check; produces identical causes.
#[deprecated(
    since = "0.2.0",
    note = "use ExplainEngine with ExplainStrategy::CpUnindexed"
)]
pub fn cp_unindexed(
    ds: &UncertainDataset,
    q: &Point,
    an_id: ObjectId,
    alpha: f64,
    config: &CpConfig,
) -> Result<CrpOutcome, CrpError> {
    pipeline::run_probabilistic(ds, q, an_id, alpha, config, &ScanFilter, None)
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
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
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        // α = 0.5: Pr(an) = 0 (object 1 dominates with certainty).
        let out = cp(&ds, &tree, &q, ObjectId(0), 0.5, &CpConfig::default()).unwrap();
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
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        // α = 0.75: removing object 1 leaves Pr = 0.5 < α -> NOT
        // counterfactual; Γ(1) = {2}, Γ(2) = {1}.
        let out = cp(&ds, &tree, &q, ObjectId(0), 0.75, &CpConfig::default()).unwrap();
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
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        // Object 4 at (2,2): its dominance window [−1,5]² holds no other
        // object, so it IS an answer at any α.
        let err = cp(&ds, &tree, &q, ObjectId(4), 0.5, &CpConfig::default()).unwrap_err();
        assert!(matches!(err, CrpError::NotANonAnswer { prob } if (prob - 1.0).abs() < 1e-12));
    }

    #[test]
    fn cp_validates_inputs() {
        let (ds, q) = fixture();
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        assert!(matches!(
            cp(&ds, &tree, &q, ObjectId(0), 0.0, &CpConfig::default()),
            Err(CrpError::InvalidAlpha(_))
        ));
        assert!(matches!(
            cp(&ds, &tree, &q, ObjectId(0), 1.5, &CpConfig::default()),
            Err(CrpError::InvalidAlpha(_))
        ));
        assert!(matches!(
            cp(&ds, &tree, &q, ObjectId(99), 0.5, &CpConfig::default()),
            Err(CrpError::UnknownObject(_))
        ));
        let empty = UncertainDataset::new();
        let err = cp_unindexed(&empty, &q, ObjectId(0), 0.5, &CpConfig::default()).unwrap_err();
        assert_eq!(err, CrpError::EmptyDataset);
    }

    #[test]
    fn indexed_and_unindexed_agree() {
        let (ds, q) = fixture();
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        for alpha in [0.25, 0.5, 0.75, 1.0] {
            let a = cp(&ds, &tree, &q, ObjectId(0), alpha, &CpConfig::default());
            let b = cp_unindexed(&ds, &q, ObjectId(0), alpha, &CpConfig::default());
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
        let tree = build_object_rtree(&ds, RTreeParams::with_fanout(4));
        let out = cp(&ds, &tree, &q, ObjectId(0), 1.0, &CpConfig::default()).unwrap();
        assert_eq!(out.causes.len(), 2); // objects 1 and 2
        for c in &out.causes {
            assert!((c.responsibility - 0.5).abs() < 1e-12, "r = 1/|Cc|");
        }
    }
}
