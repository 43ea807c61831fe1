//! Extension: CRP for non-answers to **reverse k-skyband** queries — one
//! of the "other queries" the paper's conclusion names as future work.
//!
//! The certain-data analysis generalises Lemma 7 cleanly. Let `D` be the
//! dominators of `q` w.r.t. the non-answer `an` (so `|D| > k`, else `an`
//! would be an answer):
//!
//! * only members of `D` can be causes (the Lemma-1 argument verbatim),
//! * for any `c ∈ D` and any `Γ ⊆ D − {c}` with `|Γ| = |D| − k − 1`:
//!   `|D − Γ| = k + 1 > k` (still a non-answer) and
//!   `|D − Γ − {c}| = k` (answer) — a valid contingency set,
//! * no smaller `Γ` works: `|D − Γ − {c}| ≥ |D| − |Γ| − 1 > k`.
//!
//! Hence **every dominator is an actual cause with responsibility
//! `1/(|D| − k)`**, and `k = 0` recovers the paper's Lemma 7 / Eq. 4
//! exactly. Like CR, the algorithm is a single window query.
//!
//! The algorithm runs as [`crate::ExplainStrategy::CrKskyband`]: the
//! certain-data pipeline with the closed-form verification stage at
//! level `k`. This module holds its tests against the definition-level
//! oracle.

#[cfg(test)]
mod tests {
    use crate::oracle::oracle_crp;
    use crate::testkit::{explain, session};
    use crate::{CrpError, CrpOutcome, ExplainEngine, ExplainStrategy};
    use crp_geom::{dominates, Point};
    use crp_uncertain::{ObjectId, UncertainDataset};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    fn cr_kskyband(
        engine: &ExplainEngine,
        q: &Point,
        an: ObjectId,
        k: usize,
    ) -> Result<CrpOutcome, CrpError> {
        explain(engine, ExplainStrategy::CrKskyband { k }, q, an, 0.5)
    }

    fn fixture() -> (UncertainDataset, Point) {
        // an at (10,10) with 4 dominators of q = (5,5).
        let ds = UncertainDataset::from_points(vec![
            pt(10.0, 10.0),
            pt(7.0, 7.0),
            pt(6.0, 8.0),
            pt(8.0, 6.0),
            pt(9.0, 9.0),
            pt(1.0, 1.0),
        ])
        .unwrap();
        (ds, pt(5.0, 5.0))
    }

    /// The reverse k-skyband of `q` as the engine sees it: every object
    /// the k-skyband strategy reports as an answer (at most `k`
    /// dominators), in dataset order.
    fn band(engine: &ExplainEngine, q: &Point, k: usize) -> Vec<ObjectId> {
        engine
            .dataset()
            .iter()
            .map(|o| o.id())
            .filter(|&id| {
                matches!(
                    cr_kskyband(engine, q, id, k),
                    Err(CrpError::NotANonAnswer { .. })
                )
            })
            .collect()
    }

    /// The dominator count of the object at `index`, by scan.
    fn dominator_count(ds: &UncertainDataset, index: usize, q: &Point) -> usize {
        let p = ds.object_at(index).certain_point();
        ds.iter()
            .enumerate()
            .filter(|(j, o)| *j != index && dominates(o.certain_point(), p, q))
            .count()
    }

    fn random_points(seed: u64, n: usize, side: f64) -> UncertainDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        UncertainDataset::from_points((0..n).map(|_| {
            pt(
                rng.random_range(0.0..side).round(),
                rng.random_range(0.0..side).round(),
            )
        }))
        .unwrap()
    }

    #[test]
    fn zero_band_is_reverse_skyline() {
        let ds = random_points(9, 60, 50.0);
        let q = pt(25.0, 25.0);
        let engine = session(ds.clone());
        assert_eq!(
            band(&engine, &q, 0),
            crp_skyline::reverse_skyline_naive(&ds, &q)
        );
    }

    #[test]
    fn band_grows_with_k() {
        let ds = UncertainDataset::from_points(vec![
            pt(10.0, 10.0),
            pt(7.0, 7.0),
            pt(6.0, 6.0),
            pt(8.0, 8.0),
            pt(2.0, 2.0),
        ])
        .unwrap();
        let q = pt(5.0, 5.0);
        let engine = session(ds);
        let mut previous: Vec<ObjectId> = Vec::new();
        for k in 0..4 {
            let current = band(&engine, &q, k);
            assert!(
                previous.iter().all(|id| current.contains(id)),
                "k-skyband is monotone in k"
            );
            previous = current;
        }
        // With k >= n-1 everything qualifies.
        assert_eq!(band(&engine, &q, 4).len(), 5);
    }

    #[test]
    fn dominator_count_example() {
        // an at (10,10): dominators of q=(5,5) w.r.t. it are (7,7), (6,6),
        // (8,8) -> 3 dominators, hence 3 causes at k = 0.
        let ds = UncertainDataset::from_points(vec![
            pt(10.0, 10.0),
            pt(7.0, 7.0),
            pt(6.0, 6.0),
            pt(8.0, 8.0),
            pt(2.0, 2.0),
        ])
        .unwrap();
        let q = pt(5.0, 5.0);
        let engine = session(ds);
        let out = cr_kskyband(&engine, &q, ObjectId(0), 0).unwrap();
        assert_eq!(out.stats.candidates, 3);
        assert_eq!(out.causes.len(), 3);
        assert!(matches!(
            cr_kskyband(&engine, &q, ObjectId(4), 0),
            Err(CrpError::NotANonAnswer { .. })
        ));
    }

    #[test]
    fn rtree_matches_naive() {
        // 80 points on a fanout-4 index: a multi-level tree whose
        // dominance windows prune at branch level.
        let ds = random_points(77, 80, 60.0);
        let q = pt(30.0, 30.0);
        let engine = session(ds.clone());
        for k in [0usize, 1, 3, 7] {
            let naive: Vec<ObjectId> = (0..ds.len())
                .filter(|&i| dominator_count(&ds, i, &q) <= k)
                .map(|i| ds.object_at(i).id())
                .collect();
            assert_eq!(band(&engine, &q, k), naive, "k = {k}");
        }
    }

    #[test]
    fn k_zero_equals_cr() {
        let (ds, q) = fixture();
        let engine = session(ds);
        let a = explain(&engine, ExplainStrategy::Cr, &q, ObjectId(0), 0.5).unwrap();
        let b = cr_kskyband(&engine, &q, ObjectId(0), 0).unwrap();
        assert_eq!(a.causes.len(), b.causes.len());
        for (x, y) in a.causes.iter().zip(b.causes.iter()) {
            assert_eq!(x.id, y.id);
            assert!((x.responsibility - y.responsibility).abs() < 1e-12);
            assert_eq!(x.min_contingency.len(), y.min_contingency.len());
        }
    }

    #[test]
    fn responsibilities_follow_the_closed_form() {
        let (ds, q) = fixture();
        let engine = session(ds);
        // 4 dominators: at k the responsibility is 1/(4−k).
        for k in 0..4usize {
            let out = cr_kskyband(&engine, &q, ObjectId(0), k).unwrap();
            assert_eq!(out.causes.len(), 4, "every dominator is a cause");
            for c in &out.causes {
                assert!(
                    (c.responsibility - 1.0 / (4 - k) as f64).abs() < 1e-12,
                    "k = {k}"
                );
                assert_eq!(c.min_contingency.len(), 4 - k - 1);
                assert_eq!(c.counterfactual, k == 3);
            }
        }
        // k = 4: an IS in the 4-skyband.
        assert!(matches!(
            cr_kskyband(&engine, &q, ObjectId(0), 4),
            Err(CrpError::NotANonAnswer { .. })
        ));
    }

    #[test]
    fn agrees_with_definition_level_oracle() {
        let mut rng = StdRng::seed_from_u64(808);
        for round in 0..20 {
            let ds = UncertainDataset::from_points((0..9).map(|_| {
                pt(
                    rng.random_range(0.0..12.0f64).round(),
                    rng.random_range(0.0..12.0f64).round(),
                )
            }))
            .unwrap();
            let engine = session(ds.clone());
            let q = pt(6.0, 6.0);
            let k = rng.random_range(0..3usize);
            for an in 0..ds.len() {
                let an_id = ds.object_at(an).id();
                let got = cr_kskyband(&engine, &q, an_id, k);
                // Oracle: an is an answer on P−mask iff its dominator
                // count among the survivors is <= k.
                let an_pt = ds.object_at(an).certain_point().clone();
                let is_answer = |mask: &[bool]| {
                    (0..ds.len())
                        .filter(|&j| {
                            j != an
                                && !mask[j]
                                && dominates(ds.object_at(j).certain_point(), &an_pt, &q)
                        })
                        .count()
                        <= k
                };
                if is_answer(&vec![false; ds.len()]) {
                    assert!(
                        matches!(got, Err(CrpError::NotANonAnswer { .. })),
                        "round {round} an {an}"
                    );
                    continue;
                }
                let expected = oracle_crp(ds.len(), an, is_answer);
                let out = got.expect("non-answer per oracle");
                let got_sig: Vec<(ObjectId, usize)> = out
                    .causes
                    .iter()
                    .map(|c| (c.id, c.min_contingency.len()))
                    .collect();
                let want_sig: Vec<(ObjectId, usize)> = expected
                    .iter()
                    .map(|c| (ds.object_at(c.position).id(), c.min_gamma.len()))
                    .collect();
                assert_eq!(got_sig, want_sig, "round {round} an {an} k {k}");
            }
        }
    }

    #[test]
    fn witness_sets_are_valid() {
        let (ds, q) = fixture();
        let engine = session(ds.clone());
        let k = 1usize;
        let out = cr_kskyband(&engine, &q, ObjectId(0), k).unwrap();
        let an = ds.object_at(0).certain_point();
        for cause in &out.causes {
            let surviving = |removed: &[ObjectId]| {
                ds.iter()
                    .filter(|o| {
                        o.id() != ObjectId(0)
                            && !removed.contains(&o.id())
                            && dominates(o.certain_point(), an, &q)
                    })
                    .count()
            };
            // (P − Γ): still a non-answer.
            assert!(surviving(&cause.min_contingency) > k);
            // (P − Γ − {c}): an answer.
            let mut all = cause.min_contingency.clone();
            all.push(cause.id);
            assert!(surviving(&all) <= k);
        }
    }
}
