//! The *CR* algorithm: causality & responsibility for non-answers to
//! plain reverse skyline queries over certain data (Section 4).
//!
//! Lemma 7 makes the certain case verification-free: the candidate causes
//! (every object dominating `q` w.r.t. `an`) are *all* actual causes, each
//! with minimal contingency set `Cc − {c}` and responsibility `1/|Cc|`
//! (Eq. 4). CR therefore issues a single window query and returns.
//!
//! CR runs as [`crate::ExplainStrategy::Cr`]: the certain-data pipeline
//! ([`crate::engine::certain`]) with the
//! [`Lemma7ClosedForm`](crate::engine::certain::Lemma7ClosedForm)
//! verification stage. This module holds its end-to-end tests.

#[cfg(test)]
mod tests {
    use crate::testkit::{explain, session};
    use crate::{CrpError, CrpOutcome, ExplainEngine, ExplainStrategy};
    use crp_geom::Point;
    use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    fn cr(engine: &ExplainEngine, q: &Point, an: ObjectId) -> Result<CrpOutcome, CrpError> {
        explain(engine, ExplainStrategy::Cr, q, an, 0.5)
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
        let engine = session(ds);
        let out = cr(&engine, &q, ObjectId(0)).unwrap();
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
        let engine = session(ds);
        let out = cr(&engine, &q, ObjectId(0)).unwrap();
        assert!(
            out.cause(ObjectId(5)).is_none(),
            "mirror point ties, no strict dim"
        );
    }

    #[test]
    fn single_cause_is_counterfactual() {
        let ds = UncertainDataset::from_points(vec![pt(10.0, 10.0), pt(7.0, 7.0)]).unwrap();
        let engine = session(ds);
        let out = cr(&engine, &pt(5.0, 5.0), ObjectId(0)).unwrap();
        assert_eq!(out.causes.len(), 1);
        assert!(out.causes[0].counterfactual);
        assert_eq!(out.causes[0].responsibility, 1.0);
        assert!(out.causes[0].min_contingency.is_empty());
    }

    #[test]
    fn answer_object_rejected() {
        let (ds, q) = fixture();
        let engine = session(ds);
        // Object 4 at (2,2): dominance window around it w.r.t. q holds no
        // dominator.
        let err = cr(&engine, &q, ObjectId(4)).unwrap_err();
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
        let engine = session(ds);
        assert_eq!(
            cr(&engine, &pt(5.0, 5.0), ObjectId(0)).unwrap_err(),
            CrpError::NotCertainData
        );
    }

    #[test]
    fn unknown_and_empty_inputs() {
        let (ds, q) = fixture();
        let engine = session(ds);
        assert!(matches!(
            cr(&engine, &q, ObjectId(42)),
            Err(CrpError::UnknownObject(_))
        ));
        let empty = session(UncertainDataset::new());
        assert_eq!(
            cr(&empty, &q, ObjectId(0)).unwrap_err(),
            CrpError::EmptyDataset
        );
    }

    #[test]
    fn duplicate_of_an_blocks_it() {
        // A second object at an's own location dominates q w.r.t. an
        // (all-zero distances, strict somewhere because q != an).
        let ds = UncertainDataset::from_points(vec![pt(10.0, 10.0), pt(10.0, 10.0)]).unwrap();
        let engine = session(ds);
        let out = cr(&engine, &pt(5.0, 5.0), ObjectId(0)).unwrap();
        assert_eq!(out.causes.len(), 1);
        assert_eq!(out.causes[0].id, ObjectId(1));
    }
}
