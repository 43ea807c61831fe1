//! The baselines of the paper's evaluation.
//!
//! * **Naive-I** (Fig. 6 comparator): finds candidate causes exactly like
//!   CP, then refines each by enumerating subsets of the *whole*
//!   candidate set in ascending cardinality — no Lemma 4/5/6 pruning, no
//!   `α = 1` fast path. Same I/O as CP, much more CPU.
//! * **Naive-II** (Fig. 11 comparator): finds the candidates of a
//!   non-reverse-skyline object with the CR window query, then *verifies*
//!   each candidate by subset enumeration instead of applying Lemma 7.
//!
//! Both are strategy selections over the shared pipeline:
//! [`crate::ExplainStrategy::NaiveI`] is the probabilistic pipeline
//! with every [`crate::CpConfig`] switch off, and
//! [`crate::ExplainStrategy::NaiveII`] is the certain pipeline with the
//! [`SubsetVerify`](crate::engine::certain::SubsetVerify) stage. This
//! module holds their agreement tests against CP and CR.

#[cfg(test)]
mod tests {
    use crate::engine::budget::CHECK_INTERVAL;
    use crate::testkit::{explain, session};
    use crate::{CrpError, ExplainRequest, ExplainSession, ExplainStrategy, StopReason};
    use crp_geom::Point;
    use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    #[test]
    fn naive_i_matches_cp_on_random_datasets() {
        let mut rng = StdRng::seed_from_u64(404);
        let mut compared = 0;
        for _ in 0..40 {
            let ds = UncertainDataset::from_objects((0..8).map(|i| {
                let l = rng.random_range(1..=3);
                UncertainObject::with_equal_probs(
                    ObjectId(i),
                    (0..l)
                        .map(|_| {
                            pt(
                                rng.random_range(0.0..20.0f64).round(),
                                rng.random_range(0.0..20.0f64).round(),
                            )
                        })
                        .collect::<Vec<_>>(),
                )
                .unwrap()
            }))
            .unwrap();
            let engine = session(ds);
            let q = pt(10.0, 10.0);
            let alpha = [0.3, 0.5, 0.8][rng.random_range(0..3usize)];
            for id in 0..8u32 {
                let a = explain(&engine, ExplainStrategy::Cp, &q, ObjectId(id), alpha);
                let naive = ExplainStrategy::NaiveI { max_subsets: None };
                let b = explain(&engine, naive, &q, ObjectId(id), alpha);
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        let xs: Vec<(ObjectId, usize)> = x
                            .causes
                            .iter()
                            .map(|c| (c.id, c.min_contingency.len()))
                            .collect();
                        let ys: Vec<(ObjectId, usize)> = y
                            .causes
                            .iter()
                            .map(|c| (c.id, c.min_contingency.len()))
                            .collect();
                        assert_eq!(xs, ys);
                        // Identical filter -> identical I/O.
                        assert_eq!(x.stats.query.node_accesses, y.stats.query.node_accesses);
                        compared += 1;
                    }
                    (Err(x), Err(y)) => assert_eq!(x, y),
                    (x, y) => panic!("divergence: {x:?} vs {y:?}"),
                }
            }
        }
        assert!(compared > 10, "exercised {compared} non-answers");
    }

    #[test]
    fn naive_ii_matches_cr() {
        let mut rng = StdRng::seed_from_u64(505);
        let mut compared = 0;
        for _ in 0..30 {
            let ds = UncertainDataset::from_points((0..30).map(|_| {
                pt(
                    rng.random_range(0.0..40.0f64).round(),
                    rng.random_range(0.0..40.0f64).round(),
                )
            }))
            .unwrap();
            let engine = session(ds);
            let q = pt(20.0, 20.0);
            for id in 0..30u32 {
                let a = explain(&engine, ExplainStrategy::Cr, &q, ObjectId(id), 0.5);
                let naive = ExplainStrategy::NaiveII { max_subsets: None };
                let b = explain(&engine, naive, &q, ObjectId(id), 0.5);
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x.causes.len(), y.causes.len());
                        for (cx, cy) in x.causes.iter().zip(y.causes.iter()) {
                            assert_eq!(cx.id, cy.id);
                            assert!((cx.responsibility - cy.responsibility).abs() < 1e-12);
                            assert_eq!(cx.min_contingency.len(), cy.min_contingency.len());
                        }
                        assert_eq!(x.stats.query.node_accesses, y.stats.query.node_accesses);
                        assert!(y.stats.subsets_examined >= x.stats.subsets_examined);
                        compared += 1;
                    }
                    (Err(x), Err(y)) => assert_eq!(x, y),
                    (x, y) => panic!("divergence: {x:?} vs {y:?}"),
                }
                if compared > 40 {
                    return;
                }
            }
        }
    }

    #[test]
    fn naive_ii_budget() {
        // 22 collinear dominators -> 2^21 subsets for the first candidate.
        let mut points = vec![pt(100.0, 100.0)];
        for i in 0..22 {
            points.push(pt(60.0 + i as f64, 60.0 + i as f64));
        }
        let ds = UncertainDataset::from_points(points).unwrap();
        let engine = session(ds);
        let err = engine
            .run(&[ExplainRequest::explain(&pt(50.0, 50.0), ObjectId(0))
                .with_strategy(ExplainStrategy::NaiveII { max_subsets: None })
                .with_check_budget(10_000)])
            .into_single()
            .unwrap_err();
        let CrpError::Partial(progress) = err else {
            panic!("expected a typed Partial, got {err:?}");
        };
        assert_eq!(progress.reason, StopReason::CheckBudget);
        // The cap stops at the next poll: past it, by at most one
        // check interval.
        assert!(progress.subsets_examined > 10_000);
        assert!(progress.subsets_examined <= 10_000 + CHECK_INTERVAL);
        assert_eq!((progress.tasks_total, progress.tasks_completed), (1, 0));
    }

    #[test]
    fn naive_i_validates_like_cp() {
        let ds = UncertainDataset::from_points(vec![pt(0.0, 0.0)]).unwrap();
        let engine = session(ds);
        let naive = ExplainStrategy::NaiveI { max_subsets: None };
        assert!(matches!(
            explain(&engine, naive, &pt(1.0, 1.0), ObjectId(0), 2.0),
            Err(CrpError::InvalidAlpha(_))
        ));
        assert!(matches!(
            explain(&engine, naive, &pt(1.0, 1.0), ObjectId(9), 0.5),
            Err(CrpError::UnknownObject(_))
        ));
    }
}
