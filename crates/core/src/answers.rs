//! The answer side of the CRP, which the paper sets aside as "relatively
//! easy" (Section 1): formalised and proved here.
//!
//! **Proposition (answer-side triviality).** For the probabilistic
//! reverse skyline query, `Pr(an)` is *monotone non-decreasing under
//! deletions*: every factor `(1 − Pr{u' ≺_{an_i} q})` of Eq. 2 lies in
//! `[0, 1]`, so removing an object can only raise the product. An
//! answer-side cause would need a contingency set `Γ` with `(P−Γ) ⊨
//! Q(an)` and `(P−Γ−{p}) ⊭ Q(an)` — but the second state is reached from
//! the first by one more deletion, which cannot lower `Pr(an)` below `α`.
//! Hence **no object of `P` is a cause for an answer**, for PRSQ and RSQ
//! alike.
//!
//! [`answer_causes`] encodes this: it validates that the subject *is* an
//! answer and returns the (provably empty) cause set, so client code can
//! treat answers and non-answers uniformly. The accompanying tests
//! exercise the proposition against the definition-level oracle.

use crate::error::CrpError;
use crate::types::{CrpOutcome, RunStats};
use crp_geom::{Point, PROB_EPSILON};
use crp_skyline::pr_reverse_skyline;
use crp_uncertain::{ObjectId, UncertainDataset};

/// The causality & responsibility set for an *answer* to the
/// probabilistic reverse skyline query — always empty, by the
/// monotonicity proposition above.
///
/// # Errors
///
/// * [`CrpError::InvalidAlpha`] / [`CrpError::UnknownObject`],
/// * [`CrpError::NotANonAnswer`] (carrying the measured probability) when
///   the subject is in fact a non-answer — the caller wants [`crate::ExplainStrategy::Cp`]
///   in that case.
pub fn answer_causes(
    ds: &UncertainDataset,
    q: &Point,
    an_id: ObjectId,
    alpha: f64,
) -> Result<CrpOutcome, CrpError> {
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(CrpError::InvalidAlpha(alpha));
    }
    let pos = ds.index_of(an_id).ok_or(CrpError::UnknownObject(an_id))?;
    let prob = pr_reverse_skyline(ds, pos, q, |_| false);
    if prob < alpha - PROB_EPSILON {
        // The subject is a non-answer: the caller wants `cp`, not this.
        return Err(CrpError::NotANonAnswer { prob });
    }
    Ok(CrpOutcome {
        causes: Vec::new(),
        stats: RunStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_crp;
    use crp_uncertain::UncertainObject;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_ds(rng: &mut StdRng, n: usize) -> UncertainDataset {
        UncertainDataset::from_objects((0..n).map(|i| {
            let l = rng.random_range(1..=3);
            UncertainObject::with_equal_probs(
                ObjectId(i as u32),
                (0..l)
                    .map(|_| {
                        Point::from([
                            rng.random_range(0.0..12.0f64).round(),
                            rng.random_range(0.0..12.0f64).round(),
                        ])
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        }))
        .unwrap()
    }

    #[test]
    fn monotone_under_deletions() {
        // Removing any single object never decreases Pr(an).
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..25 {
            let ds = random_ds(&mut rng, 6);
            let q = Point::from([6.0, 6.0]);
            for target in 0..ds.len() {
                let base = pr_reverse_skyline(&ds, target, &q, |_| false);
                for removed in 0..ds.len() {
                    if removed == target {
                        continue;
                    }
                    let after = pr_reverse_skyline(&ds, target, &q, |j| j == removed);
                    assert!(after + 1e-12 >= base, "deletion lowered Pr(an)");
                }
            }
        }
    }

    #[test]
    fn answers_have_no_causes_per_oracle() {
        // The oracle over the *answer* predicate (flipped contingency
        // conditions) confirms the proposition: no cause ever exists.
        let mut rng = StdRng::seed_from_u64(32);
        let alpha = 0.5;
        let mut checked = 0;
        for _ in 0..20 {
            let ds = random_ds(&mut rng, 6);
            let q = Point::from([6.0, 6.0]);
            for target in 0..ds.len() {
                let prob = pr_reverse_skyline(&ds, target, &q, |_| false);
                if prob < alpha {
                    continue; // only answers are of interest here
                }
                // "Cause for the answer": Γ with (P−Γ) an answer and
                // (P−Γ−{p}) a non-answer — i.e. the oracle over the
                // NEGATED membership predicate finds the flip.
                let causes = oracle_crp(ds.len(), target, |mask| {
                    // is_answer for the *negated* problem: the flip we
                    // look for is answer -> non-answer.
                    pr_reverse_skyline(&ds, target, &q, |j| mask[j]) < alpha
                });
                assert!(causes.is_empty(), "an answer acquired a cause: {causes:?}");
                checked += 1;
            }
        }
        assert!(checked > 10, "checked {checked} answers");
    }

    #[test]
    fn answer_causes_contract() {
        let mut rng = StdRng::seed_from_u64(33);
        let ds = random_ds(&mut rng, 5);
        let q = Point::from([6.0, 6.0]);
        for target in 0..ds.len() {
            let id = ds.object_at(target).id();
            let prob = pr_reverse_skyline(&ds, target, &q, |_| false);
            match answer_causes(&ds, &q, id, 0.5) {
                Ok(out) => {
                    assert!(prob >= 0.5 - PROB_EPSILON);
                    assert!(out.causes.is_empty());
                }
                Err(CrpError::NotANonAnswer { prob: p }) => {
                    assert!(p < 0.5);
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(matches!(
            answer_causes(&ds, &q, ObjectId(99), 0.5),
            Err(CrpError::UnknownObject(_))
        ));
        assert!(matches!(
            answer_causes(&ds, &q, ObjectId(0), 0.0),
            Err(CrpError::InvalidAlpha(_))
        ));
    }
}
