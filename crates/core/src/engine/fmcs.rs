//! Pipeline stage 3 — **FMCS**, the ascending-cardinality minimal
//! contingency search (Algorithm 2), plus the Lemma 6 witness
//! propagation of Algorithm 1.
//!
//! The stage consumes a [`RefinePlan`](super::refine::RefinePlan)
//! produced by stage 2 and emits every actual cause with a minimal
//! contingency set. [`search`] visits the open candidates in ascending
//! order under the plan's check budget (every subset check and every
//! completion-bound check is charged through one
//! [`Meter`]), seeding Lemma 6 witnesses as it goes.
//!
//! Each cardinality level is one depth-first lexicographic walk over the
//! impact-ordered search space ([`walk_combinations`]): every node adds
//! or removes one candidate, the [`Checker`] maintains `Pr(an | P − Γ)`
//! incrementally in log space in the per-thread [`Scratch`], and
//! classifications come from the log-domain screens and the fused pair
//! probe of the [`PrEvaluator`], with a guard-banded exact fallback —
//! `O(L)` per subset, no allocation per candidate.
//!
//! With the probability bound on (`CpConfig::use_probability_bound`),
//! the search is a branch and bound on one bound, the completion bound
//! ([`PrEvaluator::completion_bound`]), which bounds condition (ii) over
//! every completion of a prefix. At the empty prefix it picks the first
//! level that can hold a contingency set; inside a level, after each
//! add, it bounds the completions of the new prefix, and a subtree
//! whose bound stays below `α − PROB_EPSILON − GUARD` is skipped: it
//! provably holds no contingency set. The visit order is unchanged, so
//! the first set found — the outcome — is the unpruned walk's. With the
//! bound off, the walk visits every subset of a level in order. Either
//! way, a level the cardinality screen certifies inert is counted in
//! closed form instead of walked.

use super::budget::Meter;
use super::refine::RefinePlan;
use crate::combinations::{binomial, walk_combinations, Prefix, SubsetWalk};
use crate::config::CpConfig;
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
    /// one cardinality's walk).
    fn begin(&self, forced: &[usize], scratch: &mut Scratch) {
        scratch.clear_mask();
        self.evaluator.delta_begin(scratch);
        for &c in forced {
            self.add(c, scratch);
        }
    }

    /// Folds candidate `c` into the maintained removal set.
    fn add(&self, c: usize, scratch: &mut Scratch) {
        scratch.set_removed(c);
        self.evaluator.delta_add(c, scratch);
    }

    /// Takes candidate `c` out of the maintained removal set.
    fn remove(&self, c: usize, scratch: &mut Scratch) {
        scratch.unset_removed(c);
        self.evaluator.delta_remove(c, scratch);
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

    /// The prune threshold of the completion bound for `α`, or `None`
    /// when nothing can fall below it.
    fn completion_cut(&self, alpha: f64) -> Option<Cut> {
        let floor = alpha - PROB_EPSILON - GUARD;
        if floor <= 0.0 {
            return None;
        }
        let weight_sum = self.evaluator.weight_sum();
        // The same 1e-9 log-space margin as the pair probe's screen.
        let ln_floor = if weight_sum > 0.0 {
            (floor / weight_sum).ln() - 1e-9
        } else {
            f64::NEG_INFINITY
        };
        Some(Cut { floor, ln_floor })
    }

    /// True when no completion of the maintained prefix by `slots`
    /// members of `search[from..]` can satisfy condition (ii): its
    /// completion bound stays below the cut.
    fn completion_below(
        &self,
        cc: usize,
        from: usize,
        slots: usize,
        cut: Cut,
        scratch: &Scratch,
    ) -> bool {
        match self
            .evaluator
            .completion_bound(cc, from, slots, scratch, cut.ln_floor)
        {
            FastVerdict::Below => true,
            FastVerdict::Value(bound) => bound < cut.floor,
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
    /// [`PrEvaluator::cardinality_below`]). The caller then counts the
    /// level in closed form ([`Meter::subsets`]): classifications
    /// and every counter are exactly what per-subset probing would
    /// produce.
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

/// The prune threshold `α − PROB_EPSILON − GUARD` of the probability
/// bound, with its log-domain screen form (see
/// [`Checker::completion_cut`]).
#[derive(Clone, Copy)]
struct Cut {
    floor: f64,
    ln_floor: f64,
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

/// One cardinality level's walk: the [`SubsetWalk`] consumer of FMCS.
/// Search-space positions map to candidates through `search`.
struct LevelWalk<'a, 'm> {
    checker: &'a Checker<'m>,
    search: &'a [usize],
    cc: usize,
    alpha: f64,
    /// The prune threshold, when the probability bound is on.
    cut: Option<Cut>,
    scratch: &'a mut Scratch,
    stats: &'a mut RunStats,
    meter: &'a mut Meter,
    /// Set when the walk stopped on a contingency set, which is then
    /// the maintained mask.
    found: bool,
}

impl SubsetWalk for LevelWalk<'_, '_> {
    fn add(&mut self, s: usize) {
        self.checker.add(self.search[s], self.scratch);
    }

    fn remove(&mut self, s: usize) {
        self.checker.remove(self.search[s], self.scratch);
    }

    fn prefix(&mut self, from: usize, slots: usize) -> Prefix {
        let Some(cut) = self.cut else {
            return Prefix::Descend;
        };
        if !self.meter.bound_check(self.stats) {
            return Prefix::Stop;
        }
        // Removal only raises `Pr(an)`, and the bound covers every
        // completion, so a skipped subtree holds no set meeting
        // condition (ii): its exact and fast values stay below
        // `α − PROB_EPSILON` with GUARD to spare.
        if self
            .checker
            .completion_below(self.cc, from, slots, cut, self.scratch)
        {
            Prefix::Skip
        } else {
            Prefix::Descend
        }
    }

    fn subset(&mut self) -> bool {
        if !self.meter.subset(self.stats) {
            return true;
        }
        self.stats.prsq_evaluations += 1;
        // Condition (i): P − Γ still a non-answer.
        let probe = self
            .checker
            .probe(self.cc, self.alpha, self.scratch, &mut self.stats.query);
        if probe.answer {
            return false;
        }
        // Condition (ii): P − Γ − {cc} becomes an answer.
        self.stats.prsq_evaluations += 1;
        self.found = probe.flips;
        probe.flips
    }
}

/// FMCS for a single candidate `cc`: walk candidate contingency sets in
/// ascending cardinality over the search space (on top of the forced
/// set), strictly below the witness size, counting every check through
/// `meter`. Returns the minimal contingency set found below that bound,
/// if any, or `None` also when the meter stopped the walk.
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
    meter: &mut Meter,
) -> Option<Vec<usize>> {
    let n = matrix.candidates();
    // The index buffers are borrowed out of the scratch for the whole
    // candidate search (the checker only touches the mask, delta and
    // completion state).
    let mut forced = std::mem::take(&mut scratch.forced);
    forced.clear();
    forced.extend((0..n).filter(|&c| c != cc && forced_mask[c]));
    let mut search = std::mem::take(&mut scratch.search);
    search.clear();
    search.extend((0..n).filter(|&c| c != cc && !forced_mask[c] && !excluded[c]));
    let mut path = std::mem::take(&mut scratch.path);
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
    // Probability pruning: a level whose completion bound at the empty
    // prefix — over this candidate's own search space, forced set and
    // cc removed, the Lemma 5 exclusions kept — stays below
    // α − PROB_EPSILON − GUARD provably holds no Γ: even its most
    // damaging removals leave condition (ii) false under the exact
    // product. The bound never decreases with the level, so once one
    // level reaches the cut every later one does; inside a level the
    // same bound prunes per prefix.
    let cut = config
        .use_probability_bound
        .then(|| checker.completion_cut(alpha))
        .flatten();
    let mut reached = cut.is_none();
    if !reached {
        checker.evaluator.level_tables(&search, scratch);
    }
    // Completion slots the suffix tables cover for this candidate's
    // search space once a level walk needs them; grown (at least
    // doubling) when a deeper level needs more.
    let mut table_slots = 0;
    let mut found: Option<Vec<usize>> = None;
    for total in forced.len()..upper_exclusive {
        let k = total - forced.len();
        if k > search.len() {
            break;
        }
        checker.begin(&forced, scratch);
        if let (Some(cut), false) = (cut, reached) {
            if !meter.bound_check(stats) {
                break;
            }
            if checker.completion_below(cc, 0, k, cut, scratch) {
                continue;
            }
            reached = true;
        }
        // Whole-cardinality certification: when every size-k subset is
        // provably inert, the level is counted, not walked.
        if checker.cardinality_is_inert(cc, k, search_maxneg, alpha, scratch) {
            let credit = |stats: &mut RunStats, subsets: u64| {
                // Both conditions screened fast, per subset.
                stats.prsq_evaluations = stats.prsq_evaluations.saturating_add(2 * subsets);
                stats.query.eval_fast = stats.query.eval_fast.saturating_add(2 * subsets);
            };
            if !meter.subsets(binomial(search.len(), k), stats, credit) {
                break;
            }
            continue;
        }
        // A prefix inside the level leaves at most `k − 1` slots.
        if cut.is_some() && k >= 2 && table_slots < k - 1 {
            table_slots = (k - 1).max(2 * table_slots).max(4).min(search.len() - 1);
            checker
                .evaluator
                .completion_tables(&search, table_slots, scratch);
        }
        let mut level = LevelWalk {
            checker,
            search: &search,
            cc,
            alpha,
            cut,
            scratch,
            stats,
            meter,
            found: false,
        };
        if walk_combinations(search.len(), k, &mut path, &mut level) {
            if level.found {
                // Γ = the maintained mask, already ascending.
                found = Some(
                    scratch
                        .mask
                        .iter()
                        .enumerate()
                        .filter_map(|(c, &gone)| gone.then_some(c))
                        .collect(),
                );
            }
            break;
        }
    }
    scratch.forced = forced;
    scratch.search = search;
    scratch.path = path;
    found
}

/// The FMCS driver with Lemma 6 witness propagation — stage 3 of the
/// pipeline. Counts its checks through `meter`; once the meter stops,
/// the causes found so far are returned and the caller reports the
/// stop.
pub(crate) fn search(
    matrix: &DominanceMatrix,
    alpha: f64,
    config: &CpConfig,
    plan: RefinePlan<'_>,
    stats: &mut RunStats,
    scratch: &mut Scratch,
    meter: &mut Meter,
) -> Vec<CauseRec> {
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
        return results;
    }

    let n = matrix.candidates();
    let impacts = impacts(matrix);
    let mut witness: Vec<Option<Vec<usize>>> = vec![None; n];
    for cc in 0..n {
        if done[cc] {
            continue;
        }
        // Per-candidate budget poll: a deadline is honored at the next
        // candidate boundary even when each candidate stays under
        // CHECK_INTERVAL checks.
        if !meter.poll() {
            break;
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
            meter,
        );
        if meter.stopped() {
            break;
        }

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
    results
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

    /// A certain non-answer facing six candidates of distinct dominance
    /// probabilities, none forced, so a bound (its factors multiplied in
    /// sorted order, or summed in log space) and the exact product (in
    /// dataset order) round differently.
    struct NearAlpha {
        ds: crp_uncertain::UncertainDataset,
        q: crp_geom::Point,
        an: crp_uncertain::ObjectId,
        matrix: DominanceMatrix,
        engine: crate::ExplainEngine,
    }

    impl NearAlpha {
        /// (dominating samples, total samples) per candidate.
        const SHAPES: [(usize, usize); 6] = [(1, 3), (2, 5), (3, 7), (1, 4), (2, 3), (3, 5)];

        fn new() -> Self {
            use crate::{EngineConfig, ExplainEngine};
            use crp_geom::Point;
            use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};

            let q = Point::from([0.0, 0.0]);
            let an = ObjectId(0);
            let mut objects = vec![UncertainObject::certain(an, Point::from([10.0, 10.0]))];
            for (i, &(hits, total)) in Self::SHAPES.iter().enumerate() {
                let samples: Vec<Point> = (0..total)
                    .map(|s| {
                        let at = if s < hits {
                            5.0 + i as f64 * 0.25
                        } else {
                            20.0
                        };
                        Point::from([at, at])
                    })
                    .collect();
                let id = ObjectId(i as u32 + 1);
                objects.push(UncertainObject::with_equal_probs(id, samples).unwrap());
            }
            let ds = UncertainDataset::from_objects(objects).unwrap();
            let positions: Vec<usize> = (1..=Self::SHAPES.len()).collect();
            let matrix = DominanceMatrix::build(&ds, 0, &q, &positions);
            let engine = ExplainEngine::new(ds.clone(), EngineConfig::default()).unwrap();
            Self {
                ds,
                q,
                an,
                matrix,
                engine,
            }
        }

        /// Places α within ±4 ulps of `bound + offset + PROB_EPSILON`
        /// and pins every explain under the default configuration to
        /// the unpruned run and to the oracle. Returns how many α put
        /// `α − PROB_EPSILON − GUARD` below the bound and how many at or
        /// above it.
        fn sweep(&self, bound: f64, context: &str) -> (u32, u32) {
            use crate::{oracle_cp, ExplainStrategy};
            use crp_uncertain::ObjectId;

            let unpruned = CpConfig {
                use_probability_bound: false,
                ..CpConfig::default()
            };
            let explain = |alpha: f64, cp: &CpConfig| {
                self.engine
                    .explain_configured(ExplainStrategy::Cp, &self.q, alpha, self.an, cp)
                    .unwrap_or_else(|e| panic!("α {alpha}: {e}"))
            };
            let (mut below, mut reached) = (0, 0);
            // GUARD: the prune threshold; 0: the answer test's edge.
            for offset in [GUARD, 0.0] {
                let centre = bound + offset + PROB_EPSILON;
                for ulps in -4i64..=4 {
                    let alpha = f64::from_bits((centre.to_bits() as i64 + ulps) as u64);
                    if alpha > 1.0 {
                        continue;
                    }
                    if offset > 0.0 {
                        if alpha - PROB_EPSILON - GUARD < bound {
                            below += 1;
                        } else {
                            reached += 1;
                        }
                    }
                    let got = explain(alpha, &CpConfig::default());
                    let context = format!("{context}, bound {bound}, α {alpha}");
                    assert_eq!(got.causes, explain(alpha, &unpruned).causes, "{context}");
                    let sizes: Vec<(ObjectId, usize)> = got
                        .causes
                        .iter()
                        .map(|c| (c.id, c.min_contingency.len()))
                        .collect();
                    let oracle: Vec<(ObjectId, usize)> =
                        oracle_cp(&self.ds, &self.q, self.an, alpha)
                            .unwrap()
                            .iter()
                            .map(|(id, c)| (*id, c.min_gamma.len()))
                            .collect();
                    assert_eq!(sizes, oracle, "{context}");
                }
            }
            (below, reached)
        }
    }

    /// Near-α at the completion bound's thresholds: α is placed within
    /// a few ulps of the bound of every prefix the walk can test over a
    /// candidate's impact-ordered search space — the empty prefix at
    /// every level (the level bound) and every deeper prefix with at
    /// least one slot left — so that the prune threshold
    /// `α − PROB_EPSILON − GUARD`, or the answer test's edge
    /// `α − PROB_EPSILON`, lands on it.
    #[test]
    fn completion_bound_threshold_agrees_with_oracle() {
        let fx = NearAlpha::new();
        let n = NearAlpha::SHAPES.len();
        let scores = impacts(&fx.matrix);
        let ev = fx.matrix.evaluator();
        let mut scratch = Scratch::default();
        let mut bounds = Vec::new();
        for cc in 0..n {
            let mut search: Vec<usize> = (0..n).filter(|&c| c != cc).collect();
            order_by_impact(&mut search, &scores);
            let width = search.len();
            scratch.reset_for(&fx.matrix);
            ev.completion_tables(&search, width, &mut scratch);
            // Every prefix of positions, with `from` one past its last
            // position: the empty one with every level's slots, the
            // others with 1..=|suffix| slots left.
            for prefix in 0u32..1 << width {
                let from = 32 - prefix.leading_zeros() as usize;
                ev.delta_begin(&mut scratch);
                scratch.clear_mask();
                for (s, &c) in search.iter().enumerate() {
                    if prefix & (1 << s) != 0 {
                        scratch.set_removed(c);
                        ev.delta_add(c, &mut scratch);
                    }
                }
                for slots in usize::from(prefix != 0)..=width - from {
                    let FastVerdict::Value(bound) =
                        ev.completion_bound(cc, from, slots, &scratch, f64::NEG_INFINITY)
                    else {
                        panic!("a disabled screen certified a bound");
                    };
                    bounds.push((bound, cc));
                }
            }
        }
        bounds.sort_by(|a, b| a.0.total_cmp(&b.0));
        bounds.dedup_by(|a, b| a.0 == b.0);
        let (mut below, mut reached) = (0, 0);
        for &(bound, cc) in &bounds {
            let (b, r) = fx.sweep(bound, &format!("cc {cc} prefix bound"));
            below += b;
            reached += r;
        }
        assert!(below > 0 && reached > 0, "{below} below, {reached} reached");
    }
}
