//! Pipeline stage 3 — **FMCS**, the ascending-cardinality minimal
//! contingency search (Algorithm 2), plus the Lemma 6 witness
//! propagation of Algorithm 1.
//!
//! The stage consumes a [`RefinePlan`](super::refine::RefinePlan)
//! produced by stage 2 and emits every actual cause with a minimal
//! contingency set. [`search`] visits the open candidates in ascending
//! order under the global subset budget, seeding Lemma 6 witnesses as
//! it goes.
//!
//! The subset loop is delta-driven: the enumerator reports each subset
//! as add/remove-one moves ([`for_each_combination_delta`]), the
//! [`Checker`] maintains `Pr(an | P − Γ)` incrementally in log space in
//! the per-thread [`Scratch`], and classifications come from the
//! log-domain screens and the fused pair probe of the [`PrEvaluator`],
//! with a guard-banded exact fallback — `O(L)` per subset, no
//! allocation per candidate.

use super::refine::RefinePlan;
use crate::combinations::{for_each_combination_delta, DeltaEvent, DeltaOp};
use crate::config::CpConfig;
use crate::error::CrpError;
use crate::matrix::{DominanceMatrix, FastVerdict, PrEvaluator, Scratch, GUARD};
use crate::types::RunStats;
use crp_geom::PROB_EPSILON;
use crp_rtree::QueryStats;
use std::cell::Cell;

/// A cause expressed in candidate indices (mapped to object ids by the
/// pipeline driver).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CauseRec {
    /// Candidate index of the cause.
    pub cand: usize,
    /// Minimal contingency set (candidate indices, ascending).
    pub gamma: Vec<usize>,
    /// True when `gamma` is empty.
    pub counterfactual: bool,
}

#[inline]
pub(crate) fn is_answer(pr: f64, alpha: f64) -> bool {
    pr >= alpha - PROB_EPSILON
}

/// The contingency-condition checker: every verdict comes from the
/// incremental log-space [`PrEvaluator`], built once per non-answer,
/// and every fast value within `GUARD` of α is re-verified by the
/// exact reference product, so classifications are exact.
///
/// All mutable working state lives in the caller-supplied [`Scratch`]
/// (one per rayon worker), so the checker itself is shared by `&` and
/// every hot-path call allocates nothing.
pub(crate) struct Checker<'m> {
    matrix: &'m DominanceMatrix,
    evaluator: PrEvaluator<'m>,
    /// Memoised log-domain screen threshold, keyed by `α` bits (the
    /// evaluator's weight sum is fixed per checker). A `Cell`, so the
    /// checker stays shared by `&`.
    screen: Cell<(u64, f64)>,
}

impl<'m> Checker<'m> {
    pub(crate) fn new(matrix: &'m DominanceMatrix, scratch: &mut Scratch) -> Self {
        scratch.reset_for(matrix);
        Self {
            matrix,
            evaluator: matrix.evaluator(),
            screen: Cell::new((f64::NAN.to_bits(), f64::NEG_INFINITY)),
        }
    }

    /// The log-domain screen threshold for `α`:
    /// `ln((α − GUARD)/Σw) − margin`, or `-∞` (screen disabled) when the
    /// bound cannot certify anything (`α ≤ GUARD` or degenerate
    /// weights). Memoised per α — the subset loop calls this millions
    /// of times with the same value.
    fn ln_threshold(&self, alpha: f64) -> f64 {
        let key = alpha.to_bits();
        let (cached_key, cached) = self.screen.get();
        if cached_key == key {
            return cached;
        }
        let num = alpha - GUARD;
        let weight_sum = self.evaluator.weight_sum();
        let thr = if num > 0.0 && weight_sum > 0.0 {
            // The 1e-9 log-space margin dominates every rounding step
            // of the screen's bound chain (see `PrEvaluator` docs), so
            // a certified `Below` is certain.
            (num / weight_sum).ln() - 1e-9
        } else {
            f64::NEG_INFINITY
        };
        self.screen.set((key, thr));
        thr
    }

    /// Is `an` an answer on `P − removed`? The removal-*list* entry
    /// point of the Lemma 6 witness check (the subset loop uses the
    /// delta protocol below instead). Clobbers the scratch mask.
    pub(crate) fn is_answer(
        &self,
        removed: &[usize],
        alpha: f64,
        scratch: &mut Scratch,
        query: &mut QueryStats,
    ) -> bool {
        // Walk the list; the `O(|Cc|)` mask is only filled for the exact
        // fallback.
        let fast = self.evaluator.pr_with_removed_list(removed);
        if (fast - alpha).abs() <= GUARD {
            scratch.clear_mask();
            for &c in removed {
                scratch.set_removed(c);
            }
        }
        self.settle(fast, alpha, &scratch.mask, query)
    }

    /// Guard-banded verdict for a fast probability estimate: near the
    /// decision threshold, re-verify with the exact reference product
    /// over `mask`.
    fn settle(&self, fast: f64, alpha: f64, mask: &[bool], query: &mut QueryStats) -> bool {
        if (fast - alpha).abs() <= GUARD {
            query.eval_slow += 1;
            return is_answer(self.matrix.pr_with_removed(mask), alpha);
        }
        query.eval_fast += 1;
        is_answer(fast, alpha)
    }

    /// [`Checker::settle`] with candidate `cc` transiently folded into
    /// the mask for the exact fallback — the condition-(ii) variant.
    fn settle_extra(
        &self,
        cc: usize,
        fast: f64,
        alpha: f64,
        scratch: &mut Scratch,
        query: &mut QueryStats,
    ) -> bool {
        if (fast - alpha).abs() <= GUARD {
            query.eval_slow += 1;
            scratch.set_removed(cc);
            let verdict = is_answer(self.matrix.pr_with_removed(&scratch.mask), alpha);
            scratch.unset_removed(cc);
            return verdict;
        }
        query.eval_fast += 1;
        is_answer(fast, alpha)
    }

    // --- the delta protocol of the subset loop ------------------------

    /// Resets the maintained removal set to exactly `forced` (start of
    /// one cardinality's enumeration).
    fn begin(&self, forced: &[usize], scratch: &mut Scratch) {
        scratch.clear_mask();
        self.evaluator.delta_begin(scratch);
        for &c in forced {
            scratch.set_removed(c);
            self.evaluator.delta_add(c, scratch);
        }
    }

    /// Folds one enumerator move (in search-space coordinates, mapped
    /// through `search`) into the maintained state.
    fn apply(&self, op: DeltaOp, search: &[usize], scratch: &mut Scratch) {
        match op {
            DeltaOp::Add(s) => {
                let c = search[s];
                scratch.set_removed(c);
                self.evaluator.delta_add(c, scratch);
            }
            DeltaOp::Remove(s) => {
                let c = search[s];
                scratch.unset_removed(c);
                self.evaluator.delta_remove(c, scratch);
            }
        }
    }

    /// One FMCS subset check — both conditions for the maintained `Γ`
    /// and its extension candidate `cc`. The caller owns the counter
    /// protocol: `flips` is only meaningful when `answer` is false
    /// (condition (ii) is never *charged* when condition (i) already
    /// holds).
    fn probe(&self, cc: usize, alpha: f64, scratch: &mut Scratch, query: &mut QueryStats) -> Probe {
        // The fused pair probe: the log-domain screens certify almost
        // every deep probe `< α − GUARD` with zero `exp` calls; a value
        // they cannot certify is settled guard-banded, so verdicts are
        // exact.
        let thr = self.ln_threshold(alpha);
        let (keep, drop) = self.evaluator.delta_pair(cc, scratch, thr);
        let answer = match keep {
            FastVerdict::Below => {
                query.eval_fast += 1;
                false
            }
            FastVerdict::Value(fast) => self.settle(fast, alpha, &scratch.mask, query),
        };
        if answer {
            return Probe {
                answer: true,
                flips: false,
            };
        }
        let flips = match drop {
            FastVerdict::Below => {
                query.eval_fast += 1;
                false
            }
            FastVerdict::Value(fast) => self.settle_extra(cc, fast, alpha, scratch, query),
        };
        Probe {
            answer: false,
            flips,
        }
    }

    /// Max per-removal loosening of the cardinality screen over the
    /// search space.
    pub(crate) fn search_neg_bound(&self, search: &[usize]) -> f64 {
        self.evaluator.max_neg_over(search)
    }

    /// Certifies — at the start of one cardinality's enumeration, with
    /// the delta state at the forced base — that every size-`k` subset
    /// keeps both FMCS conditions provably `< α − GUARD` (see
    /// [`PrEvaluator::cardinality_below`]). The caller then replaces
    /// the whole walk's evaluations with counter bookkeeping:
    /// classifications and every counter are exactly what per-subset
    /// probing would produce.
    pub(crate) fn cardinality_is_inert(
        &self,
        cc: usize,
        k: usize,
        search_maxneg: f64,
        alpha: f64,
        scratch: &Scratch,
    ) -> bool {
        let ev = &self.evaluator;
        let thr = self.ln_threshold(alpha);
        ev.cardinality_below(scratch, k, search_maxneg, ev.neg_col_max(cc), thr)
    }

    /// The batched Lemma 5 sweep: fills `scratch.batch_prs` with every
    /// singleton-removal probability in one prefix/suffix pass.
    pub(crate) fn batch_singletons(&self, scratch: &mut Scratch) {
        let mut prefix = std::mem::take(&mut scratch.batch_prefix);
        let mut prs = std::mem::take(&mut scratch.batch_prs);
        self.matrix.singleton_prs(&mut prefix, &mut prs);
        scratch.batch_prefix = prefix;
        scratch.batch_prs = prs;
    }

    /// Settles one batched singleton verdict (`fast` =
    /// `scratch.batch_prs[c]`): near-threshold values re-verify against
    /// the exact singleton reference, so classifications are exact.
    pub(crate) fn settle_singleton(
        &self,
        c: usize,
        fast: f64,
        alpha: f64,
        query: &mut QueryStats,
    ) -> bool {
        if (fast - alpha).abs() <= GUARD {
            query.eval_slow += 1;
            return is_answer(self.matrix.pr_with_removed_singleton(c), alpha);
        }
        query.eval_fast += 1;
        is_answer(fast, alpha)
    }
}

/// Outcome of one [`Checker::probe`]: the condition-(i) verdict and —
/// only meaningful when `answer` is false — whether removing the probe
/// candidate flips `an` into an answer (condition (ii)).
struct Probe {
    answer: bool,
    flips: bool,
}

/// The per-candidate impact scores of a dominance matrix (how much
/// removing each candidate can lift `Pr(an)`), precomputed once per
/// non-answer and shared by every FMCS driver.
pub(crate) fn impacts(matrix: &DominanceMatrix) -> Vec<f64> {
    (0..matrix.candidates()).map(|c| matrix.impact(c)).collect()
}

/// Orders an FMCS search space high-impact-first: the first combination
/// of each cardinality is then the greedy removal set, which on deep
/// non-answers is very likely already a valid contingency set. Any
/// order is correct; this one converges fastest.
pub(crate) fn order_by_impact(search: &mut [usize], impacts: &[f64]) {
    search.sort_by(|&a, &b| impacts[b].partial_cmp(&impacts[a]).expect("finite impacts"));
}

/// FMCS for a single candidate `cc`: enumerate candidate contingency
/// sets in ascending cardinality over the search space (on top of the
/// forced set), strictly below the witness size. Returns the minimal
/// contingency set found below that bound, if any.
#[allow(clippy::too_many_arguments)]
fn search_candidate(
    matrix: &DominanceMatrix,
    alpha: f64,
    config: &CpConfig,
    cc: usize,
    forced_mask: &[bool],
    excluded: &[bool],
    impacts: &[f64],
    witness_len: Option<usize>,
    checker: &Checker<'_>,
    scratch: &mut Scratch,
    stats: &mut RunStats,
) -> Result<Option<Vec<usize>>, CrpError> {
    let n = matrix.candidates();
    // The index buffers are borrowed out of the scratch for the whole
    // candidate search (the checker only touches the mask/delta state).
    let mut forced = std::mem::take(&mut scratch.forced);
    forced.clear();
    forced.extend((0..n).filter(|&c| c != cc && forced_mask[c]));
    let mut search = std::mem::take(&mut scratch.search);
    search.clear();
    search.extend((0..n).filter(|&c| c != cc && !forced_mask[c] && !excluded[c]));
    // Global impact ordering (see [`order_by_impact`]): `impacts` is
    // precomputed once per matrix by the driver — the weighted sum is
    // O(L) and this sort runs per candidate.
    order_by_impact(&mut search, impacts);
    // Search strictly below the witness size (Lemma 6 already proves a
    // set of that size exists); otherwise everything up to the whole
    // search space.
    let upper_exclusive = witness_len.unwrap_or(forced.len() + search.len() + 1);
    // Loosening bound of the cardinality screen (one O(|search|)
    // scan per candidate search).
    let search_maxneg = checker.search_neg_bound(&search);

    let mut budget_hit: Option<u64> = None;
    let mut found: Option<Vec<usize>> = None;
    // Plan-budget seam: poll the scoped cancellation handle every
    // CHECK_INTERVAL subset checks, charging that interval's work into
    // the plan-wide counters first so a `Partial` reports real
    // progress.
    let cancel = super::budget::active();
    let mut cancel_err: Option<CrpError> = None;
    let mut uncharged: u64 = 0;
    for total in forced.len()..upper_exclusive {
        let k = total - forced.len();
        if k > search.len() {
            break;
        }
        // Probability-based pruning (extension): if even the most
        // damaging total+1 removals cannot reach α, no Γ of this size
        // can satisfy condition (ii). Served from the scratch memo,
        // bit-identical to the reference bound.
        if config.use_probability_bound
            && !is_answer(scratch.max_pr_bound(matrix, total + 1), alpha)
        {
            continue;
        }
        let budget = config.max_subsets;
        checker.begin(&forced, scratch);
        // Whole-cardinality certification: when every size-k subset
        // is provably inert, the walk below skips the delta moves
        // and evaluations and only advances the counters — exactly
        // the increments per-subset probing would produce (cond (i)
        // false → both conditions charged, both screened fast).
        let inert = checker.cardinality_is_inert(cc, k, search_maxneg, alpha, scratch);
        for_each_combination_delta(search.len(), k, |event| {
            if let DeltaEvent::Move(op) = event {
                if !inert {
                    checker.apply(op, &search, scratch);
                }
                return false;
            }
            stats.subsets_examined += 1;
            if let Some(max) = budget {
                if stats.subsets_examined > max {
                    budget_hit = Some(stats.subsets_examined);
                    return true;
                }
            }
            uncharged += 1;
            if uncharged >= super::budget::CHECK_INTERVAL {
                if let Some(c) = &cancel {
                    c.charge_subsets(uncharged);
                    if let Err(e) = c.check() {
                        cancel_err = Some(e);
                        return true;
                    }
                }
                uncharged = 0;
            }
            stats.prsq_evaluations += 1;
            if inert {
                stats.prsq_evaluations += 1;
                stats.query.eval_fast += 2;
                return false;
            }
            // Condition (i): P − Γ still a non-answer.
            let probe = checker.probe(cc, alpha, scratch, &mut stats.query);
            if !probe.answer {
                stats.prsq_evaluations += 1;
                // Condition (ii): P − Γ − {cc} becomes an answer.
                if probe.flips {
                    // Γ = the maintained mask, already ascending.
                    found = Some(
                        scratch
                            .mask
                            .iter()
                            .enumerate()
                            .filter_map(|(c, &gone)| gone.then_some(c))
                            .collect(),
                    );
                    return true;
                }
            }
            false
        });
        if budget_hit.is_some() || cancel_err.is_some() || found.is_some() {
            break;
        }
    }
    scratch.forced = forced;
    scratch.search = search;
    if let Some(c) = &cancel {
        c.charge_subsets(uncharged);
    }
    if let Some(e) = cancel_err {
        return Err(e);
    }
    if let Some(examined) = budget_hit {
        return Err(CrpError::BudgetExhausted { examined });
    }
    Ok(found)
}

/// The FMCS driver with Lemma 6 witness propagation — stage 3 of the
/// pipeline.
pub(crate) fn search(
    matrix: &DominanceMatrix,
    alpha: f64,
    config: &CpConfig,
    plan: RefinePlan<'_>,
    stats: &mut RunStats,
    scratch: &mut Scratch,
) -> Result<Vec<CauseRec>, CrpError> {
    let RefinePlan {
        forced_mask,
        excluded,
        mut done,
        mut results,
        complete,
        checker,
    } = plan;
    if complete {
        results.sort_by_key(|r| r.cand);
        return Ok(results);
    }

    let n = matrix.candidates();
    let impacts = impacts(matrix);
    let cancel = super::budget::active();
    let mut witness: Vec<Option<Vec<usize>>> = vec![None; n];
    for cc in 0..n {
        if done[cc] {
            continue;
        }
        // Per-candidate budget poll: a deadline is honored at the next
        // candidate boundary even when each candidate stays under
        // CHECK_INTERVAL subsets.
        if let Some(c) = &cancel {
            c.check()?;
        }
        let found = search_candidate(
            matrix,
            alpha,
            config,
            cc,
            &forced_mask,
            &excluded,
            &impacts,
            witness[cc].as_ref().map(|w| w.len()),
            &checker,
            scratch,
            stats,
        )?;

        // Nothing strictly smaller than the witness: the witness set is
        // minimal (Algorithm 1, lines 23–24).
        let gamma = found.or_else(|| witness[cc].take());
        done[cc] = true;
        let Some(gamma) = gamma else {
            continue; // not an actual cause
        };

        // Lemma 6: seed witnesses for the unprocessed members of Γ.
        if config.use_lemma6 {
            for &o in &gamma {
                if done[o] {
                    continue;
                }
                let better = witness[o].as_ref().is_none_or(|w| w.len() > gamma.len());
                if !better {
                    continue;
                }
                let mut list = std::mem::take(&mut scratch.list);
                list.clear();
                list.extend(gamma.iter().copied().filter(|&g| g != o));
                list.push(cc);
                stats.prsq_evaluations += 1;
                let still_non_answer = !checker.is_answer(&list, alpha, scratch, &mut stats.query);
                scratch.list = list;
                if still_non_answer {
                    // (Γ−{o}) ∪ {cc} is a contingency set for o: condition
                    // (ii) holds because P−Γ−{cc} is an answer already.
                    let mut w: Vec<usize> = gamma.iter().copied().filter(|&g| g != o).collect();
                    w.push(cc);
                    w.sort_unstable();
                    witness[o] = Some(w);
                }
            }
        }

        results.push(CauseRec {
            cand: cc,
            counterfactual: gamma.is_empty(),
            gamma,
        });
    }

    results.sort_by_key(|r| r.cand);
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impact_order_is_descending() {
        // dp rows: candidate 0 weak, candidate 1 strong, candidate 2 mid.
        let m = DominanceMatrix::from_parts(vec![0.1, 0.9, 0.5], vec![1.0], 3);
        let scores = impacts(&m);
        let mut search = vec![0, 1, 2];
        order_by_impact(&mut search, &scores);
        assert_eq!(search, vec![1, 2, 0]);
    }
}
