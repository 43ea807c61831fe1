//! Pipeline stage 2 — **refine**: lemma-driven classification of the
//! candidate causes before the contingency search — and [`refine`],
//! which runs it back to back with stage 3 ([`super::fmcs`]).
//!
//! Input: the dominance matrix of a non-answer against its candidate
//! causes. Output: every actual cause with a *minimal* contingency set.
//!
//! The search follows Algorithms 1–2 of the paper:
//!
//! 1. `α = 1` fast path — every candidate is a cause with
//!    responsibility `1/|Cc|` (lines 9–11); the plan is already
//!    complete and stage 3 only sorts it,
//! 2. Lemma 4 — candidates dominating with probability 1 w.r.t. every
//!    sample (`Ca`) are forced into every contingency set,
//! 3. Lemma 5 — counterfactual causes (`Cb`) are reported immediately
//!    and excluded from the other candidates' search spaces,
//! 4. FMCS (stage 3) — for each remaining candidate, enumerate
//!    candidate contingency sets in ascending cardinality (so the first
//!    valid set is minimal); a set `Γ` is valid when `Pr(an | P−Γ) < α`
//!    (still a non-answer) and `Pr(an | P−Γ−{cc}) ≥ α` (becomes an
//!    answer),
//! 5. Lemma 6 — a found minimal set `Γ` of cause `cc` yields, for each
//!    unprocessed `o ∈ Γ` (when `Pr(an | P−(Γ−{o})−{cc}) < α`), the
//!    witness contingency set `(Γ−{o}) ∪ {cc}` of the same size; the
//!    later FMCS run for `o` then only searches *strictly smaller*
//!    cardinalities and falls back to the witness (Algorithm 1,
//!    lines 23–24).
//!
//! Steps 1–3 run here and produce a [`RefinePlan`]; steps 4–5 are
//! stage 3. Every switch honours [`CpConfig`], which is what turns the
//! same stages into the CP refinement or the Naive-I non-refinement.
//!
//! One deliberate deviation from the printed pseudo-code: Algorithm 2
//! starts the subset loop at cardinality 1 above the forced set `G1`,
//! which misses the case where `G1` itself is already a valid contingency
//! set. We start at cardinality 0 (i.e. `Γ = G1`), which matches
//! Definitions 1–2 and the brute-force oracle (pinned by a unit test).

use super::budget::Meter;
use super::fmcs::{self, CauseRec, Checker};
use crate::config::CpConfig;
use crate::error::CrpError;
use crate::matrix::{DominanceMatrix, Scratch};
use crate::types::RunStats;
use crp_geom::PROB_EPSILON;

/// Runs the refinement — stage 2's classification followed by the
/// stage-3 FMCS search — over one dominance matrix. `matrix` must
/// contain only genuine candidates (positive dominance mass; Lemma 1
/// filtering is the caller's job). `scratch` is the reusable hot-path
/// workspace — [`super::pipeline::finish`] lends the per-thread one, so
/// a steady-state explain allocates nothing per candidate.
pub(crate) fn refine(
    matrix: &DominanceMatrix,
    alpha: f64,
    config: &CpConfig,
    stats: &mut RunStats,
    scratch: &mut Scratch,
) -> Result<Vec<CauseRec>, CrpError> {
    // One meter counts the whole refinement's checks: the Lemma 5 sweep
    // and every FMCS walk.
    let mut meter = Meter::active();
    let plan = classify(matrix, alpha, config, stats, scratch, &mut meter);
    let causes = fmcs::search(matrix, alpha, config, plan, stats, scratch, &mut meter);
    meter.finish()?;
    Ok(causes)
}

/// The classification stage's output, consumed by the FMCS stage.
pub(crate) struct RefinePlan<'m> {
    /// `forced_mask[c]`: candidate `c` is in `Ca` (Lemma 4).
    pub forced_mask: Vec<bool>,
    /// `excluded[c]`: candidate `c` is removed from every later search
    /// space (Lemma 5 counterfactuals).
    pub excluded: Vec<bool>,
    /// `done[c]`: candidate `c` needs no FMCS run.
    pub done: Vec<bool>,
    /// Causes already established during classification.
    pub results: Vec<CauseRec>,
    /// True when the plan is final and FMCS has nothing left to search
    /// (the `α = 1` fast path).
    pub complete: bool,
    /// The contingency-condition checker, shared with stage 3 so the
    /// incremental evaluator is built once per non-answer.
    pub checker: Checker<'m>,
}

/// Runs the classification. `matrix` must contain only genuine
/// candidates (positive dominance mass; Lemma 1 filtering is stage 1's
/// job). `scratch` is the per-thread hot-path workspace, re-shaped here
/// (via [`Checker::new`]) and shared with stage 3. The Lemma 5 sweep's
/// singleton checks are counted through `meter`; when it stops them,
/// the sweep classifies nothing and stage 3 stops at its first poll.
fn classify<'m>(
    matrix: &'m DominanceMatrix,
    alpha: f64,
    config: &CpConfig,
    stats: &mut RunStats,
    scratch: &mut Scratch,
    meter: &mut Meter,
) -> RefinePlan<'m> {
    let n = matrix.candidates();
    stats.candidates = n;
    let checker = Checker::new(matrix, scratch);
    let mut results: Vec<CauseRec> = Vec::new();

    // --- α = 1 fast path (Algorithm 1, lines 9–11). -------------------
    if n > 0 && config.alpha_one_fast_path && alpha >= 1.0 - PROB_EPSILON {
        for cand in 0..n {
            let gamma: Vec<usize> = (0..n).filter(|&c| c != cand).collect();
            results.push(CauseRec {
                cand,
                counterfactual: gamma.is_empty(),
                gamma,
            });
        }
        return RefinePlan {
            forced_mask: vec![false; n],
            excluded: vec![false; n],
            done: vec![true; n],
            results,
            complete: true,
            checker,
        };
    }

    // --- Lemma 4: forced contingency members (Ca). ---------------------
    let forced_mask: Vec<bool> = if config.use_lemma4 {
        (0..n).map(|c| matrix.forces_zero(c)).collect()
    } else {
        vec![false; n]
    };
    stats.forced = forced_mask.iter().filter(|f| **f).count();

    // --- Lemma 5: counterfactual causes (Cb). --------------------------
    // `excluded[c]` removes c from every later search space.
    let mut excluded = vec![false; n];
    let mut done = vec![false; n];
    // The singleton probes are subset checks too, counted in bulk so a
    // plan budget meters refine-only explains (certain data under
    // Lemma 7 never reaches the FMCS subset loop).
    if config.use_lemma5 && meter.subsets(n as u128, stats, |_, _| {}) {
        // All |Cc| singleton probabilities in one prefix/suffix pass
        // over the complement matrix, each settled guard-banded.
        checker.batch_singletons(scratch);
        for c in 0..n {
            stats.prsq_evaluations += 1;
            if checker.settle_singleton(c, scratch.batch_prs[c], alpha, &mut stats.query) {
                excluded[c] = true;
                done[c] = true;
                results.push(CauseRec {
                    cand: c,
                    gamma: Vec::new(),
                    counterfactual: true,
                });
            }
        }
        stats.counterfactuals = results.len();
    }

    RefinePlan {
        forced_mask,
        excluded,
        done,
        results,
        complete: n == 0,
        checker,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RunStats;

    /// Matrix helper: `dp[c][i]` rows, equal sample weights.
    fn matrix(rows: &[&[f64]]) -> DominanceMatrix {
        let samples = rows[0].len();
        let weights = vec![1.0 / samples as f64; samples];
        let dp: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        DominanceMatrix::from_parts(dp, weights, rows.len())
    }

    fn run(m: &DominanceMatrix, alpha: f64, config: &CpConfig) -> Vec<CauseRec> {
        let mut stats = RunStats::default();
        crate::matrix::with_scratch(|scratch| refine(m, alpha, config, &mut stats, scratch))
            .expect("no budget configured")
    }

    #[test]
    fn empty_candidate_set() {
        let m = DominanceMatrix::from_parts(Vec::new(), vec![1.0], 0);
        assert!(run(&m, 0.5, &CpConfig::default()).is_empty());
    }

    #[test]
    fn single_counterfactual_cause() {
        // One candidate dominating with prob 0.6: Pr(an) = 0.4 < 0.5;
        // removing it gives 1.0 -> counterfactual.
        let m = matrix(&[&[0.6]]);
        let causes = run(&m, 0.5, &CpConfig::default());
        assert_eq!(causes.len(), 1);
        assert!(causes[0].counterfactual);
        assert!(causes[0].gamma.is_empty());
    }

    #[test]
    fn alpha_one_fast_path_marks_all() {
        let m = matrix(&[&[0.1], &[0.2], &[0.3]]);
        let causes = run(&m, 1.0, &CpConfig::default());
        assert_eq!(causes.len(), 3);
        for c in &causes {
            assert_eq!(c.gamma.len(), 2, "Γ = the other two candidates");
        }
    }

    #[test]
    fn alpha_one_without_fast_path_same_answer() {
        let m = matrix(&[&[0.1], &[0.2], &[0.3]]);
        let cfg = CpConfig {
            alpha_one_fast_path: false,
            ..CpConfig::default()
        };
        let fast = run(&m, 1.0, &CpConfig::default());
        let slow = run(&m, 1.0, &cfg);
        assert_eq!(fast, slow);
    }

    #[test]
    fn forced_member_in_every_gamma() {
        // c0 dominates with prob 1 (forced); c1 with 0.6; α = 0.5.
        // Pr(an) = 0. For c1: Γ must contain c0; Γ = {c0} gives
        // Pr = 0.4 < α (still non-answer) and removing c1 -> 1.0 ≥ α.
        let m = matrix(&[&[1.0], &[0.6]]);
        let causes = run(&m, 0.5, &CpConfig::default());
        let c1 = causes.iter().find(|c| c.cand == 1).expect("c1 is a cause");
        assert_eq!(c1.gamma, vec![0]);
        // c0 itself: Γ = ∅? removing c0 alone gives 0.4 < α -> not
        // counterfactual; Γ = {c1}: still 0 < α, removing c0 -> 1.0 ≥ α.
        let c0 = causes.iter().find(|c| c.cand == 0).expect("c0 is a cause");
        assert_eq!(c0.gamma, vec![1]);
    }

    #[test]
    fn gamma_equal_to_forced_set_found() {
        // Pins the FMCS i=0 fix: the forced set alone is the minimal
        // contingency set. c0 forced (dp 1); c1 and c2 with dp 0.5 each;
        // α = 0.45. Pr = 0. Γ = {c0} leaves 0.25 < α; removing c1 gives
        // 0.5 ≥ α -> Γ_min(c1) = {c0} = G1 exactly.
        let m = matrix(&[&[1.0], &[0.5], &[0.5]]);
        let causes = run(&m, 0.45, &CpConfig::default());
        let c1 = causes.iter().find(|c| c.cand == 1).expect("c1 is a cause");
        assert_eq!(c1.gamma, vec![0]);
        assert_eq!(c1.gamma.len(), 1);
    }

    #[test]
    fn non_cause_candidate_detected() {
        // c0 dominates 0.9; c1 dominates 0.05. α = 0.5.
        // Pr(an) = 0.1·0.95 = 0.095 < α.
        // Removing c1 alone: 0.1 -> still non-answer, not counterfactual.
        // For c1: Γ = {c0}? Then P−Γ has Pr = 0.95 ≥ α -> violates (i).
        // No Γ works for c1 -> c1 is NOT a cause even though it is a
        // candidate. c0: Γ = ∅, removing c0 -> 0.95 ≥ α: counterfactual.
        let m = matrix(&[&[0.9], &[0.05]]);
        let causes = run(&m, 0.5, &CpConfig::default());
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].cand, 0);
        assert!(causes[0].counterfactual);
    }

    /// `an` is an answer on `P − removed`: `Pr ≥ α` up to the shared
    /// probability tolerance, over the exact reference product.
    fn answers(m: &DominanceMatrix, removed: &[bool], alpha: f64) -> bool {
        m.pr_with_removed(removed) >= alpha - PROB_EPSILON
    }

    /// Test-local reference for Definitions 1–2, independent of the
    /// checker: for each candidate, the smallest `Γ` (over all subsets of
    /// the other candidates) with `Pr(an | P−Γ) < α` and
    /// `Pr(an | P−Γ−{c}) ≥ α`, both evaluated by the exact
    /// candidate-major product [`DominanceMatrix::pr_with_removed`].
    /// Returns `(candidate, min |Γ|)` for every actual cause.
    fn brute_force(m: &DominanceMatrix, alpha: f64) -> Vec<(usize, usize)> {
        let n = m.candidates();
        let answer = |removed: &[bool]| answers(m, removed, alpha);
        let mut causes = Vec::new();
        for c in 0..n {
            let mut best: Option<usize> = None;
            for bits in 0u32..(1 << n) {
                if bits & (1 << c) != 0 {
                    continue;
                }
                let size = bits.count_ones() as usize;
                if best.is_some_and(|b| b <= size) {
                    continue;
                }
                let mut removed: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
                if answer(&removed) {
                    continue;
                }
                removed[c] = true;
                if answer(&removed) {
                    best = Some(size);
                }
            }
            if let Some(size) = best {
                causes.push((c, size));
            }
        }
        causes
    }

    /// Asserts `causes` are exactly the brute-force causes, and that every
    /// reported `Γ` satisfies both contingency conditions under the exact
    /// reference product.
    fn assert_matches_definitions(
        m: &DominanceMatrix,
        alpha: f64,
        causes: &[CauseRec],
        expected: &[(usize, usize)],
        context: &str,
    ) {
        let got: Vec<(usize, usize)> = causes.iter().map(|c| (c.cand, c.gamma.len())).collect();
        assert_eq!(got, expected, "{context}");
        for cause in causes {
            assert!(cause.gamma.windows(2).all(|w| w[0] < w[1]), "{context}");
            assert!(!cause.gamma.contains(&cause.cand), "{context}");
            assert_eq!(cause.counterfactual, cause.gamma.is_empty(), "{context}");
            let mut removed = vec![false; m.candidates()];
            for &g in &cause.gamma {
                removed[g] = true;
            }
            let still_non_answer = !answers(m, &removed, alpha);
            removed[cause.cand] = true;
            let becomes_answer = answers(m, &removed, alpha);
            assert!(
                still_non_answer && becomes_answer,
                "{context}: Γ {:?} of candidate {} is not a contingency set",
                cause.gamma,
                cause.cand
            );
        }
    }

    #[test]
    fn all_configs_agree_on_random_matrices() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        let configs = [
            CpConfig::default(),
            CpConfig::naive(),
            CpConfig {
                use_lemma4: false,
                ..CpConfig::default()
            },
            CpConfig {
                use_lemma5: false,
                ..CpConfig::default()
            },
            CpConfig {
                use_lemma6: false,
                ..CpConfig::default()
            },
            CpConfig {
                use_probability_bound: false,
                ..CpConfig::default()
            },
        ];
        for round in 0..60 {
            let n = rng.random_range(1..=12);
            let samples = rng.random_range(1..=4);
            let weights = vec![1.0 / samples as f64; samples];
            let dp: Vec<f64> = (0..n * samples)
                .map(|_| {
                    // Mix exact 0/1 values with fractions to exercise the
                    // forced/counterfactual paths.
                    match rng.random_range(0..4) {
                        0 => 0.0,
                        1 => 1.0,
                        _ => (rng.random_range(1..=9) as f64) / 10.0,
                    }
                })
                .collect();
            let m = DominanceMatrix::from_parts(dp, weights, n);
            // Ensure an is a genuine non-answer for a valid comparison.
            let alpha = 0.5;
            if m.pr_full() >= alpha {
                continue;
            }
            let expected = brute_force(&m, alpha);
            for (ci, cfg) in configs.iter().enumerate() {
                let causes = run(&m, alpha, cfg);
                assert_matches_definitions(
                    &m,
                    alpha,
                    &causes,
                    &expected,
                    &format!("round {round}, config {ci}"),
                );
            }
        }

        // Near-α verdicts. `n` identical candidates at dp = 0.01 give
        // Pr(an | P−Γ) = 0.99^(n−|Γ|); with α = Pr(an | P−Γ) for
        // |Γ| = n − 2 (0.99², computed by the reference product),
        // condition (ii) lands exactly on α for every |Γ| = n − 3, so the
        // guard-banded fast verdict must fall back to the exact product.
        // Within PROB_EPSILON, α and its ±1/±2-ulp neighbours all make
        // every candidate a cause with |Γ| = n − 3. Both sizes run the
        // one checker route (the log-space evaluator). The probability
        // bound skips the smaller cardinalities (their most damaging
        // removals still fall short of α), which is what keeps the
        // 72-candidate search tractable.
        let bounded = [
            CpConfig::default(),
            CpConfig {
                use_lemma6: false,
                ..CpConfig::default()
            },
            // Naive-I's refinement with the bound.
            CpConfig {
                use_lemma4: false,
                use_lemma5: false,
                use_lemma6: false,
                alpha_one_fast_path: false,
                ..CpConfig::default()
            },
        ];
        for n in [48usize, 72] {
            let m = DominanceMatrix::from_parts(vec![0.01; n], vec![1.0], n);
            let removed: Vec<bool> = (0..n).map(|c| c < n - 2).collect();
            let at = m.pr_with_removed(&removed);
            let expected: Vec<(usize, usize)> = (0..n).map(|c| (c, n - 3)).collect();
            for ulps in [-2i64, -1, 0, 1, 2] {
                let alpha = f64::from_bits((at.to_bits() as i64 + ulps) as u64);
                assert!(m.pr_full() < alpha, "fixture must be a non-answer");
                for (ci, cfg) in bounded.iter().enumerate() {
                    let mut stats = RunStats::default();
                    let causes =
                        crate::matrix::with_scratch(|s| refine(&m, alpha, cfg, &mut stats, s))
                            .expect("no budget configured");
                    let context = format!("n = {n}, {ulps:+} ulp, config {ci}");
                    assert_matches_definitions(&m, alpha, &causes, &expected, &context);
                    assert!(
                        stats.query.eval_slow > 0,
                        "{context}: the guard band must route to the exact product"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_exhaustion_errors() {
        use crate::engine::budget::{with_cancel, Cancel, PlanLimits, StopReason};
        let m = matrix(&[&[0.3], &[0.3], &[0.3], &[0.3], &[0.3]]);
        let limits = PlanLimits {
            max_checks: Some(3),
            ..PlanLimits::default()
        };
        let cancel = Cancel::new(limits, 1).expect("a limit is set");
        let mut stats = RunStats::default();
        let err = with_cancel(Some(&cancel), || {
            crate::matrix::with_scratch(|s| refine(&m, 0.9, &CpConfig::default(), &mut stats, s))
        })
        .unwrap_err();
        assert!(
            matches!(&err, CrpError::Partial(p) if p.reason == StopReason::CheckBudget),
            "{err:?}"
        );
    }

    #[test]
    fn stats_are_populated() {
        let m = matrix(&[&[1.0], &[0.6], &[0.05]]);
        let mut stats = RunStats::default();
        let _ =
            crate::matrix::with_scratch(|s| refine(&m, 0.5, &CpConfig::default(), &mut stats, s))
                .unwrap();
        assert_eq!(stats.candidates, 3);
        assert_eq!(stats.forced, 1);
        assert!(stats.subsets_examined > 0);
        assert!(stats.prsq_evaluations > 0);
    }

    #[test]
    fn lemma6_witness_is_used_and_minimal() {
        // Three symmetric candidates each dominating 0.5, α = 0.6:
        // Pr(an) = 0.125. Removing one: 0.25; two: 0.5; all: 1.0.
        // Only Γ of size 2 reaches α when the cause is removed -> every
        // candidate is a cause with |Γ| = 2 (the other two).
        let m = matrix(&[&[0.5], &[0.5], &[0.5]]);
        let causes = run(&m, 0.6, &CpConfig::default());
        assert_eq!(causes.len(), 3);
        for c in &causes {
            assert_eq!(c.gamma.len(), 2, "cand {}", c.cand);
            assert!((1.0 / (1.0 + c.gamma.len() as f64) - 1.0 / 3.0).abs() < 1e-12);
        }
    }
}
