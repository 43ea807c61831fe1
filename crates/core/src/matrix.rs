//! Precomputed dominance probabilities for the refinement phase.
//!
//! During refinement, CP evaluates `Pr(an)` on `P − Γ` for many candidate
//! contingency sets `Γ`. By Lemma 1 (and Lemma 3), only the candidate
//! causes influence `Pr(an)`, so the evaluation reduces to
//!
//! ```text
//! Pr(an | P − Γ) = Σ_i  w_i · Π_{c ∈ Cc − Γ} (1 − dp[c][i])
//! ```
//!
//! where `w_i` is the appearance weight of `an`'s `i`-th sample (or
//! discretisation cell, for the pdf model) and `dp[c][i]` is Eq. 3's
//! probability that candidate `c` dominates `q` w.r.t. that sample.
//!
//! Only the **sample-major complements** are stored —
//! `comp[i][c] = 1 − dp[c][i]`, the exact factors of the survival
//! product — so the per-sample walk of the exact reference evaluation
//! and of the batched singleton sweep streams contiguous memory. The
//! FMCS hot path runs in log space over the [`PrEvaluator`] built from
//! these factors.
//! `dp` values are derived on demand ([`DominanceMatrix::dominance`]);
//! the derivation round-trips exactly for `dp ≥ 0.5` (Sterbenz), which
//! covers every annihilator/forced-membership threshold test.

use crp_geom::{Point, PROB_EPSILON};
use crp_skyline::dominance_probability;
use crp_uncertain::UncertainDataset;

/// Dominance-probability matrix of one non-answer against its candidate
/// causes. Rows are candidates (by *candidate index*, the position within
/// the candidate list); columns are the non-answer's samples/cells.
/// Storage is the sample-major complement layout (see module docs).
#[derive(Clone, Debug)]
pub struct DominanceMatrix {
    /// `1 − dp`, sample-major: `comp[i * candidates + c]`.
    comp: Vec<f64>,
    /// `w_i`: appearance weight per sample/cell of the non-answer.
    weights: Vec<f64>,
    candidates: usize,
}

/// Builds the sample-major complement layout from a row-major `dp`.
fn sample_major_complements(dp: &[f64], candidates: usize, samples: usize) -> Vec<f64> {
    let mut comp = vec![1.0f64; candidates * samples];
    for c in 0..candidates {
        for i in 0..samples {
            comp[i * candidates + c] = 1.0 - dp[c * samples + i];
        }
    }
    comp
}

impl DominanceMatrix {
    /// Builds the matrix for the discrete-sample model: candidate rows
    /// are dataset positions `cand_positions`, columns are the samples of
    /// the object at `an_pos`.
    pub fn build(
        ds: &UncertainDataset,
        an_pos: usize,
        q: &Point,
        cand_positions: &[usize],
    ) -> Self {
        let an = ds.object_at(an_pos);
        let n = cand_positions.len();
        let samples = an.sample_count();
        let mut comp = vec![1.0f64; n * samples];
        for (ci, &c) in cand_positions.iter().enumerate() {
            let obj = ds.object_at(c);
            for (i, s) in an.samples().iter().enumerate() {
                comp[i * n + ci] = 1.0 - dominance_probability(obj, s.point(), q);
            }
        }
        let weights: Vec<f64> = an.samples().iter().map(|s| s.prob()).collect();
        Self {
            comp,
            weights,
            candidates: n,
        }
    }

    /// Builds the matrix from raw parts (used by the pdf model, which
    /// computes `dp` by closed-form box integration).
    ///
    /// # Panics
    ///
    /// Panics if `dp.len() != candidates * weights.len()`.
    pub fn from_parts(dp: Vec<f64>, weights: Vec<f64>, candidates: usize) -> Self {
        assert_eq!(
            dp.len(),
            candidates * weights.len(),
            "matrix shape mismatch"
        );
        let comp = sample_major_complements(&dp, candidates, weights.len());
        Self {
            comp,
            weights,
            candidates,
        }
    }

    /// Number of candidate rows.
    #[inline]
    pub fn candidates(&self) -> usize {
        self.candidates
    }

    /// Number of sample/cell columns.
    #[inline]
    pub fn samples(&self) -> usize {
        self.weights.len()
    }

    /// `dp[c][i]`, derived from the stored complement. Exact for
    /// `dp ≥ 0.5` (in particular at every annihilator threshold); below
    /// that the round trip can differ from the build-time value by one
    /// ulp — irrelevant to the heuristic consumer ([`Self::impact`]).
    #[inline]
    pub fn dominance(&self, c: usize, i: usize) -> f64 {
        1.0 - self.comp[i * self.candidates + c]
    }

    /// Appearance weight of sample/cell `i`.
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// True when candidate `c` dominates `q` w.r.t. every sample with
    /// probability 1 — the Lemma 4 membership test (`c ∈ Ca`).
    /// `comp ≤ ε ⇔ dp ≥ 1 − ε` exactly (the complement of any
    /// `dp ≥ 0.5` is Sterbenz-exact), so the verdicts match the old
    /// `dp`-stored layout bit for bit.
    pub fn forces_zero(&self, c: usize) -> bool {
        let n = self.candidates;
        (0..self.samples()).all(|i| self.comp[i * n + c] <= PROB_EPSILON)
    }

    /// True when candidate `c` has any dominating mass at all; rows that
    /// fail this are not candidates (Lemma 1) and should be filtered out
    /// before refinement.
    pub fn has_mass(&self, c: usize) -> bool {
        let n = self.candidates;
        (0..self.samples()).any(|i| self.comp[i * n + c] < 1.0)
    }

    /// Weighted total dominance mass of candidate `c` — a heuristic for
    /// how much removing `c` can lift `Pr(an)`. Used to order the FMCS
    /// search space so high-impact subsets are tried first (any order is
    /// correct; this one finds valid sets sooner on deep non-answers).
    pub fn impact(&self, c: usize) -> f64 {
        self.weights
            .iter()
            .enumerate()
            .map(|(i, &w)| w * self.dominance(c, i))
            .sum()
    }

    /// `Pr(an | P − Γ)` where `removed[c]` marks candidates in `Γ` — the
    /// exact reference evaluation (sequential product, definitional
    /// order).
    pub fn pr_with_removed(&self, removed: &[bool]) -> f64 {
        debug_assert_eq!(removed.len(), self.candidates);
        let n = self.candidates;
        let mut total = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            let row = &self.comp[i * n..(i + 1) * n];
            let mut survive = w;
            for (c, &gone) in removed.iter().enumerate() {
                if gone {
                    continue;
                }
                survive *= row[c];
                if survive == 0.0 {
                    break;
                }
            }
            total += survive;
        }
        total
    }

    /// Exact `Pr(an | P − {cc})` — the reference evaluation of one
    /// singleton removal, bit-identical to [`Self::pr_with_removed`]
    /// with only `cc` marked (same factors, same order). Allocation-free
    /// fallback for the batched Lemma 5 sweep.
    pub(crate) fn pr_with_removed_singleton(&self, cc: usize) -> f64 {
        let n = self.candidates;
        let mut total = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            let row = &self.comp[i * n..(i + 1) * n];
            let mut survive = w;
            for (c, &f) in row.iter().enumerate() {
                if c == cc {
                    continue;
                }
                survive *= f;
                if survive == 0.0 {
                    break;
                }
            }
            total += survive;
        }
        total
    }

    /// All `|Cc|` singleton-removal probabilities
    /// `Pr(an | P − {c})` in one pass — the batched Lemma 5 sweep. Per
    /// sample row the prefix/suffix product trick serves every
    /// candidate's "product of the others" in `O(|Cc|)` instead of the
    /// sequential sweep's `O(|Cc|²)` (and with zero `exp` calls, unlike
    /// the incremental evaluator's per-candidate path). Guard-banded
    /// fast estimates: `prefix·suffix` reassociates the product.
    /// `prefix` and `out` are caller-owned scratch (resized here).
    pub(crate) fn singleton_prs(&self, prefix: &mut Vec<f64>, out: &mut Vec<f64>) {
        let n = self.candidates;
        out.clear();
        out.resize(n, 0.0);
        prefix.clear();
        prefix.resize(n, 0.0);
        for (i, &w) in self.weights.iter().enumerate() {
            let row = &self.comp[i * n..(i + 1) * n];
            let mut p = 1.0f64;
            for (c, &f) in row.iter().enumerate() {
                prefix[c] = p;
                p *= f;
            }
            let mut s = 1.0f64;
            for (c, &f) in row.iter().enumerate().rev() {
                out[c] += w * (prefix[c] * s);
                s *= f;
            }
        }
    }

    /// `Pr(an)` with nothing removed.
    pub fn pr_full(&self) -> f64 {
        self.pr_with_removed(&vec![false; self.candidates])
    }

    /// Builds the incremental evaluator (see [`PrEvaluator`]).
    pub fn evaluator(&self) -> PrEvaluator<'_> {
        PrEvaluator::new(self)
    }

    /// For each subset size `t`, an upper bound on `Pr(an | P − Γ)` over
    /// all `Γ` with `|Γ| ≤ t`, ranging over every candidate.
    ///
    /// Per sample `i`, removing `Γ` divides out at most the `t` smallest
    /// factors `(1 − dp[c][i])`; dropping those factors entirely bounds
    /// the reachable product from above. Sound because each per-sample
    /// bound is independent of which `Γ` is chosen.
    ///
    /// A test reference only: FMCS prunes with the per-candidate level
    /// bound of `Scratch::level_bounds`, which ranges over one
    /// candidate's own search space and is never above this one.
    pub fn max_pr_after_removing(&self, t: usize) -> f64 {
        let n = self.candidates;
        let mut total = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            // Collect the factors, keep all but the t smallest.
            let mut factors: Vec<f64> = self.comp[i * n..(i + 1) * n].to_vec();
            factors.sort_by(|a, b| a.partial_cmp(b).expect("finite probabilities"));
            let prod: f64 = factors.iter().skip(t.min(factors.len())).product();
            total += w * prod;
        }
        total
    }
}

/// Reusable workspace of the refine/FMCS hot path: every buffer a
/// subset check needs, owned outside the per-explain call chain so the
/// steady state allocates **nothing per candidate** (and nothing per
/// explain once the per-thread pool is warm — see [`with_scratch`]).
///
/// Holds five groups of state:
///
/// * the current **removal mask** over candidates (`true` = removed),
///   maintained by delta moves; the drift-refresh and exact-fallback
///   input and the `Γ` reconstruction source,
/// * the **delta state** of the incremental evaluator — per sample, the
///   annihilator count and log-factor sum of the currently removed set,
///   refreshed from the mask every [`DELTA_REFRESH_INTERVAL`] moves so
///   floating-point drift stays far inside the guard band,
/// * the **level-bound buffers** of the probability pruning: one
///   sample's search-space factors, sorted, and one bound per
///   cardinality level of the current candidate's search,
/// * the **completion tables** of the in-level bound: per search-space
///   suffix and sample, the annihilators left in the suffix and the
///   sums of its largest `−ln(1 − dp)` (see
///   [`PrEvaluator::completion_tables`]),
/// * the **batched-probe buffers** of the Lemma 5 singleton sweep
///   (prefix products and per-candidate probabilities).
///
/// FMCS's forced/search/path/list index buffers ride along and are borrowed
/// by `std::mem::take` while a candidate search runs.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Removal mask: `mask[c]` ⇔ candidate `c` is in the current
    /// removal set.
    pub(crate) mask: Vec<bool>,
    /// Per sample: annihilating members of the current removal set.
    delta_ones: Vec<u32>,
    /// Per sample: `Σ ln(1 − dp)` over the removed regular candidates.
    delta_logq: Vec<f64>,
    /// Delta moves since the last drift refresh.
    delta_moves: u64,
    /// One sample's search-space factors, ascending (level-bound pass).
    bound_factors: Vec<f64>,
    /// Per cardinality level `k`: the current candidate's level bound.
    level_bounds: Vec<f64>,
    /// Completion slots the completion tables cover (see
    /// [`PrEvaluator::completion_tables`]).
    completion_slots: usize,
    /// Per (suffix start, slots, sample): the sum of the `slots`
    /// largest `−ln(1 − dp)` in the suffix.
    completion_top: Vec<f64>,
    /// Per (suffix start, sample): annihilators in the suffix.
    completion_ann: Vec<u32>,
    /// One sample's largest suffix values, descending (table build).
    completion_best: Vec<f64>,
    /// Prefix-product buffer of the batched singleton sweep.
    pub(crate) batch_prefix: Vec<f64>,
    /// Per-candidate singleton probabilities of the batched sweep.
    pub(crate) batch_prs: Vec<f64>,
    /// FMCS forced-set buffer (candidate indices).
    pub(crate) forced: Vec<usize>,
    /// FMCS search-space buffer (candidate indices, impact-ordered).
    pub(crate) search: Vec<usize>,
    /// FMCS walk buffer: search-space positions of the current subset.
    pub(crate) path: Vec<usize>,
    /// Removal-list buffer of the Lemma 6 witness check.
    pub(crate) list: Vec<usize>,
}

/// Delta moves between drift refreshes. Each move perturbs the
/// per-sample log sum by at most one ulp of its magnitude (bounded by
/// `|Γ|·|ln PROB_EPSILON|`), so the accumulated drift between refreshes
/// stays orders of magnitude below the classification guard band.
const DELTA_REFRESH_INTERVAL: u64 = 4096;

impl Scratch {
    /// Re-shapes every buffer for `matrix`, keeping allocations.
    pub(crate) fn reset_for(&mut self, matrix: &DominanceMatrix) {
        let n = matrix.candidates();
        let l = matrix.samples();
        self.mask.clear();
        self.mask.resize(n, false);
        self.delta_ones.clear();
        self.delta_ones.resize(l, 0);
        self.delta_logq.clear();
        self.delta_logq.resize(l, 0.0);
        self.delta_moves = 0;
    }

    /// Marks candidate `c` removed in the mask.
    #[inline]
    pub(crate) fn set_removed(&mut self, c: usize) {
        self.mask[c] = true;
    }

    /// Marks candidate `c` present in the mask.
    #[inline]
    pub(crate) fn unset_removed(&mut self, c: usize) {
        self.mask[c] = false;
    }

    /// True when candidate `c` is in the current removal set.
    #[inline]
    pub(crate) fn is_removed(&self, c: usize) -> bool {
        self.mask[c]
    }

    /// The level bound of one candidate's contingency search: for every
    /// `k` in `0..=search.len()`, an upper bound on `Pr(an | P − R)`
    /// over every removal set `R` whose survivors are the candidates
    /// marked by `kept` plus all but `k` members of `search`.
    ///
    /// FMCS asks it about `R = forced ∪ Γ ∪ {cc}` (condition (ii)),
    /// keeping the factors outside the search space (the Lemma 5
    /// exclusions). Per sample, the `k` removals that leave the largest
    /// product drop the `k` smallest search-space factors; the product
    /// runs from the largest factor down, so every step multiplies by a
    /// factor `≤ 1` and, rounding being monotone, the bound never
    /// decreases in `k` — in floating point too. The caller can therefore
    /// start at the first level that reaches its threshold. Its rounding
    /// differs from the exact product's by at most one step per factor,
    /// far inside the guard band the caller leaves.
    pub(crate) fn level_bounds(
        &mut self,
        matrix: &DominanceMatrix,
        kept: impl Fn(usize) -> bool,
        search: &[usize],
    ) -> &[f64] {
        let n = matrix.candidates();
        let levels = search.len();
        self.level_bounds.clear();
        self.level_bounds.resize(levels + 1, 0.0);
        for (i, &w) in matrix.weights.iter().enumerate() {
            let row = &matrix.comp[i * n..(i + 1) * n];
            let mut product = w;
            for (c, &f) in row.iter().enumerate() {
                if kept(c) {
                    product *= f;
                }
            }
            self.bound_factors.clear();
            self.bound_factors.extend(search.iter().map(|&c| row[c]));
            self.bound_factors.sort_unstable_by(f64::total_cmp);
            self.level_bounds[levels] += product;
            for k in (0..levels).rev() {
                product *= self.bound_factors[k];
                self.level_bounds[k] += product;
            }
        }
        &self.level_bounds
    }

    /// Clears the removal mask (delta state is reset separately by
    /// [`PrEvaluator::delta_begin`]).
    pub(crate) fn clear_mask(&mut self) {
        self.mask.fill(false);
    }
}

thread_local! {
    static SCRATCH_POOL: std::cell::RefCell<Vec<Scratch>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Lends a per-thread [`Scratch`] to `f`. A stack (not a single slot)
/// so re-entrant borrows — a rayon worker stealing another explain
/// while it waits inside `f` — get their own workspace instead of a
/// `RefCell` panic. One scratch per rayon worker on steady state;
/// nothing is allocated once the pool is warm.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_default();
    let out = f(&mut scratch);
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 8 {
            pool.push(scratch);
        }
    });
    out
}

/// Incremental `Pr(an | P − Γ)` evaluation — the one route of every
/// FMCS contingency check, at every candidate count.
///
/// The reference evaluation is `O(|Cc| · L)` per contingency-set check;
/// FMCS on deep non-answers (e.g. the NBA case study, hundreds of
/// candidates) performs millions of checks. This evaluator precomputes,
/// per sample: the count of *annihilating* factors (`dp = 1`, product
/// term 0) and the log-sum of the remaining factors over **all**
/// candidates. A check for a removal list `Γ` then only walks `Γ`:
/// subtract its annihilator count and its log-factors — `O(|Γ| · L)`;
/// the delta-maintained state below makes a subset check `O(L)`.
///
/// Verdicts within `GUARD` of the threshold are re-verified by the exact
/// reference product, so the log-space rounding (≤ ~1e-12 relative here)
/// can never flip a classification relative to [`DominanceMatrix::pr_with_removed`].
pub struct PrEvaluator<'a> {
    matrix: &'a DominanceMatrix,
    /// Per (candidate, sample): `ln(1 − dp)` for regular factors, `0.0`
    /// for annihilators, so folding a column into a log sum never needs
    /// a branch.
    log_factors: Vec<f64>,
    /// Per (candidate, sample): 1 for an annihilator
    /// (`dp ≥ 1 − PROB_EPSILON`), else 0.
    annihilates: Vec<u32>,
    /// Per sample: number of annihilating candidates.
    ones: Vec<u32>,
    /// Per sample: `Σ ln(1 − dp)` over the regular candidates.
    log_prod: Vec<f64>,
    /// `Σ w_i` — the log-domain screen's upper-bound weight.
    weight_sum: f64,
    /// Per candidate: `max_i max(0, −ln(1 − dp))` over its regular
    /// factors — how much removing the candidate can raise any sample's
    /// log term (annihilators act through `ones`, not the log sum, so
    /// their samples contribute 0). The loosening unit of the
    /// cardinality-level screen.
    neg_col_max: Vec<f64>,
}

/// Width of the re-verification band around the decision threshold —
/// shared by every fast evaluation (incremental log-space,
/// delta-maintained, and the batched singleton sweep), whose absolute
/// error is orders of magnitude smaller.
pub(crate) const GUARD: f64 = 1e-6;

/// A fast classification result of one FMCS condition (see
/// [`PrEvaluator::delta_pair`]).
pub(crate) enum FastVerdict {
    /// The fast probability estimate — settle it through the usual
    /// guard-banded comparison.
    Value(f64),
    /// The log-domain screen proved the value below the caller's cut
    /// without evaluating a single `exp` — for a condition probe,
    /// `< α − GUARD`: the verdict is "not an answer", outside the guard
    /// band, with certainty.
    Below,
}

impl<'a> PrEvaluator<'a> {
    fn new(matrix: &'a DominanceMatrix) -> Self {
        let l = matrix.samples();
        let n = matrix.candidates();
        let mut log_factors = vec![0.0f64; n * l];
        let mut annihilates = vec![0u32; n * l];
        let mut ones = vec![0u32; l];
        let mut log_prod = vec![0.0f64; l];
        let mut neg_col_max = vec![0.0f64; n];
        for c in 0..n {
            for i in 0..l {
                // comp ≤ ε ⇔ dp ≥ 1 − ε (exact; see `forces_zero`), and
                // the stored complement IS the old `(1 − dp)` factor, so
                // both the annihilator split and the log factors are
                // bit-identical to the dp-stored layout.
                let q = matrix.comp[i * n + c];
                if q <= crp_geom::PROB_EPSILON {
                    ones[i] += 1;
                    annihilates[c * l + i] = 1;
                } else {
                    let lf = q.ln();
                    log_factors[c * l + i] = lf;
                    log_prod[i] += lf;
                    neg_col_max[c] = neg_col_max[c].max(-lf);
                }
            }
        }
        Self {
            matrix,
            log_factors,
            annihilates,
            ones,
            log_prod,
            weight_sum: matrix.weights.iter().sum(),
            neg_col_max,
        }
    }

    /// `Σ w_i` — the screen threshold's scale (see
    /// [`PrEvaluator::delta_pair`]).
    pub(crate) fn weight_sum(&self) -> f64 {
        self.weight_sum
    }

    /// Per-candidate loosening bound of the cardinality screen (see the
    /// field docs).
    pub(crate) fn neg_col_max(&self, c: usize) -> f64 {
        self.neg_col_max[c]
    }

    /// Max loosening over a candidate list (the FMCS search space).
    pub(crate) fn max_neg_over(&self, cands: &[usize]) -> f64 {
        cands.iter().fold(0.0, |m, &c| m.max(self.neg_col_max[c]))
    }

    /// The cardinality-level screen. With the delta state at the base
    /// removal set `Γ₀` (the forced cohort), certifies that **every**
    /// removal set `Γ₀ ∪ S` — `S` of size `k` drawn from a search space
    /// whose per-candidate loosening is at most `search_maxneg` — plus
    /// optionally one extra candidate whose loosening is `extra`, keeps
    /// the fast probability `< α − GUARD`.
    ///
    /// Soundness: for any sample `i` and any such removal set,
    /// `d_i = log_prod[i] − delta_logq[i]` can exceed the base state's
    /// value by at most `k·search_maxneg + extra` (each removal
    /// subtracts a non-positive log factor bounded by the loosening;
    /// annihilating removals change `ones`, never the log sum), and the
    /// max below ranges over **all** samples — a superset of whichever
    /// samples are `ones`-active for a particular set. So
    /// `fast ≤ Σw·exp(dmax + k·search_maxneg + extra)` for every subset
    /// of the cardinality, and comparing against `ln_threshold`
    /// (margined, see [`PrEvaluator::delta_pair`]) certifies both
    /// FMCS conditions for the entire enumeration: the caller may
    /// replace the whole subset walk with counter bookkeeping.
    pub(crate) fn cardinality_below(
        &self,
        scratch: &Scratch,
        k: usize,
        search_maxneg: f64,
        extra: f64,
        ln_threshold: f64,
    ) -> bool {
        let mut dmax = f64::NEG_INFINITY;
        for (i, &dq) in scratch.delta_logq.iter().enumerate() {
            let d = self.log_prod[i] - dq;
            if d > dmax {
                dmax = d;
            }
        }
        dmax + k as f64 * search_maxneg + extra < ln_threshold
    }

    /// `Pr(an | P − Γ)` for a removal *list* of candidate indices
    /// (duplicates not allowed). Exact up to the guard band: a
    /// classification re-verifies values within `GUARD` of α with the
    /// exact product.
    pub fn pr_with_removed_list(&self, removed: &[usize]) -> f64 {
        let l = self.matrix.samples();
        let mut total = 0.0;
        for i in 0..l {
            let w = self.matrix.weight(i);
            let mut ones = self.ones[i];
            let mut logq = 0.0;
            for &c in removed {
                ones -= self.annihilates[c * l + i];
                logq += self.log_factors[c * l + i];
            }
            if ones == 0 {
                total += w * (self.log_prod[i] - logq).exp().min(1.0);
            }
        }
        total
    }

    // --- delta-maintained state (the FMCS hot path) -------------------
    //
    // Instead of re-walking the removal list per subset, the enumerator
    // reports each successive subset as add/remove-one moves and the
    // per-sample state (annihilator count + log-factor sum of the
    // removed set) is maintained in a [`Scratch`] — `O(L)` per move and
    // `O(L)` per evaluation, independent of `|Γ|`.

    /// Resets the scratch delta state to `Γ = ∅`. The caller owns the
    /// mask and must have cleared it.
    pub(crate) fn delta_begin(&self, scratch: &mut Scratch) {
        scratch.delta_ones.iter_mut().for_each(|o| *o = 0);
        scratch.delta_logq.iter_mut().for_each(|q| *q = 0.0);
        scratch.delta_moves = 0;
    }

    /// Folds candidate `c` into the removed set. `scratch.mask[c]` must
    /// already be set (the periodic drift refresh rebuilds from the
    /// mask).
    pub(crate) fn delta_add(&self, c: usize, scratch: &mut Scratch) {
        debug_assert!(scratch.is_removed(c));
        self.fold_in(c, scratch);
        self.delta_tick(scratch);
    }

    /// Removes candidate `c` from the removed set. `scratch.mask[c]`
    /// must already be cleared.
    pub(crate) fn delta_remove(&self, c: usize, scratch: &mut Scratch) {
        debug_assert!(!scratch.is_removed(c));
        let (ann, lfs) = self.column(c);
        let state = scratch.delta_ones.iter_mut().zip(&mut scratch.delta_logq);
        for ((ones, logq), (&a, &lf)) in state.zip(ann.iter().zip(lfs)) {
            *ones -= a;
            *logq -= lf;
        }
        self.delta_tick(scratch);
    }

    /// Candidate `c`'s per-sample annihilator flags and log factors.
    fn column(&self, c: usize) -> (&[u32], &[f64]) {
        let l = self.matrix.samples();
        let span = c * l..(c + 1) * l;
        (&self.annihilates[span.clone()], &self.log_factors[span])
    }

    /// Adds candidate `c`'s column to the delta state — branch-free: an
    /// annihilator adds 1 to the count and `0.0` to the log sum.
    fn fold_in(&self, c: usize, scratch: &mut Scratch) {
        let (ann, lfs) = self.column(c);
        let state = scratch.delta_ones.iter_mut().zip(&mut scratch.delta_logq);
        for ((ones, logq), (&a, &lf)) in state.zip(ann.iter().zip(lfs)) {
            *ones += a;
            *logq += lf;
        }
    }

    fn delta_tick(&self, scratch: &mut Scratch) {
        scratch.delta_moves += 1;
        if scratch.delta_moves >= DELTA_REFRESH_INTERVAL {
            self.delta_refresh(scratch);
        }
    }

    /// Rebuilds the delta state from the mask, zeroing accumulated
    /// floating-point drift.
    fn delta_refresh(&self, scratch: &mut Scratch) {
        scratch.delta_ones.iter_mut().for_each(|o| *o = 0);
        scratch.delta_logq.iter_mut().for_each(|q| *q = 0.0);
        scratch.delta_moves = 0;
        for c in 0..self.matrix.candidates() {
            if scratch.mask[c] {
                self.fold_in(c, scratch);
            }
        }
    }

    // --- the in-level completion bound ---------------------------------
    //
    // FMCS walks one cardinality level depth first over the impact-ordered
    // search space. At a prefix with `slots` members still to choose, all
    // from the suffix `search[from..]`, condition (ii) of every completion
    // `T` is `Pr(an | P − R − T − {cc})` with `R` the maintained removal
    // set. Per sample, `T` can add at most the `slots` largest
    // `−ln(1 − dp)` of the suffix to the log term, and the sample is live
    // only if the annihilators `R ∪ {cc}` leaves are all in the suffix and
    // fit in `slots`. Removal only raises `Pr(an)`, so the per-sample
    // maximum summed over samples bounds every completion.

    /// Fills the completion tables of one candidate's search space for
    /// completions of up to `slots` members: per suffix start
    /// `from ∈ 0..=search.len()` and sample, the annihilators in
    /// `search[from..]` and, for every `m ≤ slots`, the sum of its `m`
    /// largest `−ln(1 − dp)` (annihilators count 0). `O(|search|·L·slots)`
    /// into reused buffers.
    pub(crate) fn completion_tables(&self, search: &[usize], slots: usize, scratch: &mut Scratch) {
        let l = self.matrix.samples();
        let n = search.len();
        let stride = slots + 1;
        let Scratch {
            completion_slots,
            completion_top,
            completion_ann,
            completion_best: best,
            ..
        } = scratch;
        *completion_slots = slots;
        completion_top.clear();
        completion_top.resize((n + 1) * stride * l, 0.0);
        completion_ann.clear();
        completion_ann.resize((n + 1) * l, 0);
        for i in 0..l {
            best.clear();
            let mut ann = 0;
            for from in (0..=n).rev() {
                if let Some(&c) = search.get(from) {
                    ann += self.annihilates[c * l + i];
                    let v = -self.log_factors[c * l + i];
                    if best.len() < slots || best.last().is_some_and(|&b| v > b) {
                        let at = best.partition_point(|&b| b >= v);
                        best.insert(at, v);
                        best.truncate(slots);
                    }
                }
                completion_ann[from * l + i] = ann;
                let mut sum = 0.0;
                for (m, &v) in best.iter().enumerate() {
                    sum += v;
                    completion_top[(from * stride + m + 1) * l + i] = sum;
                }
                // A suffix shorter than `slots` never serves a wider
                // completion; its entries keep the whole suffix's sum.
                for m in best.len() + 1..=slots {
                    completion_top[(from * stride + m) * l + i] = sum;
                }
            }
        }
    }

    /// Bounds condition (ii) over every completion of the maintained
    /// removal set by `slots` members of `search[from..]` (the search
    /// space the tables were last built for, `slots` within their
    /// range): no `Pr(an | P − R − T − {cc})` exceeds the returned value
    /// beyond rounding far inside the guard band. `cc` must not be
    /// removed. `Below` when the log-domain screen proves the bound
    /// `< e^ln_cut · Σw` without an `exp` (pass `-∞` to always evaluate).
    pub(crate) fn completion_bound(
        &self,
        cc: usize,
        from: usize,
        slots: usize,
        scratch: &Scratch,
        ln_cut: f64,
    ) -> FastVerdict {
        debug_assert!(!scratch.is_removed(cc) && slots <= scratch.completion_slots);
        let l = self.matrix.samples();
        let stride = scratch.completion_slots + 1;
        let top = &scratch.completion_top[(from * stride + slots) * l..][..l];
        let ann = &scratch.completion_ann[from * l..][..l];
        let (cc_ann, cc_logs) = self.column(cc);
        let live = |i: usize| {
            let left = self.ones[i] - scratch.delta_ones[i] - cc_ann[i];
            left == ann[i] && left as usize <= slots
        };
        let d = |i: usize| self.log_prod[i] - scratch.delta_logq[i] - cc_logs[i] + top[i];
        let mut dmax = f64::NEG_INFINITY;
        for i in 0..l {
            dmax = dmax.max(if live(i) { d(i) } else { f64::NEG_INFINITY });
        }
        if dmax < ln_cut {
            return FastVerdict::Below;
        }
        let mut bound = 0.0;
        for (i, &w) in self.matrix.weights.iter().enumerate() {
            if live(i) {
                bound += w * d(i).exp().min(1.0);
            }
        }
        FastVerdict::Value(bound)
    }

    // --- the fused pair probe ------------------------------------------
    //
    // On deep non-answers the subset walk's cost is the `exp` calls of
    // the evaluation, one per sample. Almost every probed subset sits
    // far below α, and that is provable *in log space*: with
    // `d_i = log_prod[i] − delta_logq[i]` over the annihilator-matching
    // samples,
    //
    //   fast = Σ w_i·min(exp(d_i), 1) ≤ (Σ w_i)·exp(max_i d_i)
    //
    // so `max_i d_i < ln((α − GUARD)/Σw) − margin` certifies
    // `fast < α − GUARD` — strictly outside the guard band, verdict
    // "not an answer" — using only compares and subtractions. The
    // `margin` (1e-9 in log space, i.e. ~1e-9 relative headroom) covers
    // every rounding step of the bound chain; when the screen cannot
    // certify, the probe evaluates the value, so classifications never
    // change.

    /// Both FMCS conditions for the delta-maintained removal set `Γ` and
    /// its extension candidate `cc` (which must not be in `Γ`):
    /// condition (i)'s `Pr(an | P − Γ)` and condition (ii)'s
    /// `Pr(an | P − Γ − {cc})`, each `Below` when the log-domain screen
    /// certifies it. `ln_threshold` is
    /// `ln((α − GUARD)/weight_sum) − margin`, or `-∞` to disable.
    ///
    /// One compare-only pass takes both screens' maxima. Only when a
    /// screen cannot certify does a second pass evaluate, sharing one
    /// `exp` per sample between the conditions: (ii)'s factor is (i)'s
    /// divided by `comp[i][cc]`, except on samples `cc` annihilates,
    /// where (i) is 0 and (ii) is the plain exponential. Both values
    /// match the reference product up to the bounded drift the guard
    /// band absorbs.
    pub(crate) fn delta_pair(
        &self,
        cc: usize,
        scratch: &Scratch,
        ln_threshold: f64,
    ) -> (FastVerdict, FastVerdict) {
        debug_assert!(!scratch.is_removed(cc));
        let (cc_ann, cc_logs) = self.column(cc);
        // Sample `i` is live for condition (i) when every annihilator of
        // it is removed, and for (ii) when `cc` is the only one left
        // (then `cc`'s log factor is 0.0). Selects, not branches: the
        // pattern changes with every subset.
        let live = |i: usize| {
            let gone = scratch.delta_ones[i];
            (self.ones[i] == gone, self.ones[i] == gone + cc_ann[i])
        };
        let mut keep_max = f64::NEG_INFINITY;
        let mut drop_max = f64::NEG_INFINITY;
        for (i, &lf) in cc_logs.iter().enumerate() {
            let d = self.log_prod[i] - scratch.delta_logq[i];
            let (keep_live, drop_live) = live(i);
            keep_max = keep_max.max(if keep_live { d } else { f64::NEG_INFINITY });
            drop_max = drop_max.max(if drop_live { d - lf } else { f64::NEG_INFINITY });
        }
        let keep_below = keep_max < ln_threshold;
        let drop_below = drop_max < ln_threshold;
        if keep_below && drop_below {
            return (FastVerdict::Below, FastVerdict::Below);
        }
        let n = self.matrix.candidates;
        let mut keep = 0.0;
        let mut drop = 0.0;
        for (i, &w) in self.matrix.weights.iter().enumerate() {
            // (i) live implies (ii) live: a live (i) sample has no
            // annihilator left, `cc` included.
            let (keep_live, drop_live) = live(i);
            if !drop_live {
                continue;
            }
            let e = (self.log_prod[i] - scratch.delta_logq[i]).exp();
            let cc_factor = if cc_ann[i] == 0 {
                self.matrix.comp[i * n + cc]
            } else {
                1.0
            };
            drop += w * (e / cc_factor).min(1.0);
            if keep_live {
                keep += w * e.min(1.0);
            }
        }
        let verdict = |below, value| {
            if below {
                FastVerdict::Below
            } else {
                FastVerdict::Value(value)
            }
        };
        (verdict(keep_below, keep), verdict(drop_below, drop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_uncertain::{ObjectId, UncertainObject};

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    /// an at (10,10) [certain]; q at (5,5); candidates:
    /// * c0 at (7,7): dominates with prob 1,
    /// * c1 two samples, one dominating: prob 0.5,
    /// * c2 far away: prob 0.
    fn fixture() -> (UncertainDataset, Point) {
        let ds = UncertainDataset::from_objects(vec![
            UncertainObject::certain(ObjectId(0), pt(10.0, 10.0)),
            UncertainObject::certain(ObjectId(1), pt(7.0, 7.0)),
            UncertainObject::with_equal_probs(ObjectId(2), vec![pt(8.0, 9.0), pt(30.0, 30.0)])
                .unwrap(),
            UncertainObject::certain(ObjectId(3), pt(40.0, 40.0)),
        ])
        .unwrap();
        (ds, pt(5.0, 5.0))
    }

    #[test]
    fn matrix_entries() {
        let (ds, q) = fixture();
        let m = DominanceMatrix::build(&ds, 0, &q, &[1, 2, 3]);
        assert_eq!(m.candidates(), 3);
        assert_eq!(m.samples(), 1);
        assert!((m.dominance(0, 0) - 1.0).abs() < 1e-12);
        assert!((m.dominance(1, 0) - 0.5).abs() < 1e-12);
        assert_eq!(m.dominance(2, 0), 0.0);
        assert!(m.forces_zero(0));
        assert!(!m.forces_zero(1));
        assert!(m.has_mass(0) && m.has_mass(1));
        assert!(!m.has_mass(2));
    }

    #[test]
    fn pr_with_removed_matches_reference() {
        let (ds, q) = fixture();
        let m = DominanceMatrix::build(&ds, 0, &q, &[1, 2, 3]);
        // Nothing removed: (1-1)(1-0.5)(1-0) = 0.
        assert_eq!(m.pr_full(), 0.0);
        // Remove c0: (1-0.5) = 0.5.
        assert!((m.pr_with_removed(&[true, false, false]) - 0.5).abs() < 1e-12);
        // Remove c0 and c1: 1.
        assert!((m.pr_with_removed(&[true, true, false]) - 1.0).abs() < 1e-12);
        // Cross-check against the skyline-crate evaluator.
        let reference = crp_skyline::pr_reverse_skyline(&ds, 0, &q, |j| j == 1);
        assert!((m.pr_with_removed(&[true, false, false]) - reference).abs() < 1e-12);
    }

    #[test]
    fn pr_is_monotone_in_removals() {
        let (ds, q) = fixture();
        let m = DominanceMatrix::build(&ds, 0, &q, &[1, 2, 3]);
        let base = m.pr_with_removed(&[false, false, false]);
        let one = m.pr_with_removed(&[true, false, false]);
        let two = m.pr_with_removed(&[true, true, false]);
        assert!(base <= one && one <= two);
    }

    #[test]
    fn probability_bound_is_sound_and_tight_at_extremes() {
        let (ds, q) = fixture();
        let m = DominanceMatrix::build(&ds, 0, &q, &[1, 2, 3]);
        // t = 0: bound equals Pr(an).
        assert!((m.max_pr_after_removing(0) - m.pr_full()).abs() < 1e-12);
        // t = all: bound is 1 (everything removable).
        assert!((m.max_pr_after_removing(3) - 1.0).abs() < 1e-12);
        // Bound dominates every actual removal of size <= t.
        for mask in 0u32..8 {
            let removed: Vec<bool> = (0..3).map(|c| mask & (1 << c) != 0).collect();
            let t = removed.iter().filter(|r| **r).count();
            assert!(
                m.pr_with_removed(&removed) <= m.max_pr_after_removing(t) + 1e-12,
                "mask {mask:b}"
            );
        }
    }

    #[test]
    fn multi_sample_weights() {
        // an with two samples of weight 0.5 each; one candidate dominating
        // w.r.t. sample 0 only.
        let ds = UncertainDataset::from_objects(vec![
            UncertainObject::with_equal_probs(ObjectId(0), vec![pt(10.0, 10.0), pt(0.0, 0.0)])
                .unwrap(),
            UncertainObject::certain(ObjectId(1), pt(7.0, 7.0)),
        ])
        .unwrap();
        let q = pt(5.0, 5.0);
        let m = DominanceMatrix::build(&ds, 0, &q, &[1]);
        assert_eq!(m.samples(), 2);
        // Pr(an) = 0.5·(1-1) + 0.5·(1-dp(sample1)).
        let expected = crp_skyline::pr_reverse_skyline(&ds, 0, &q, |_| false);
        assert!((m.pr_full() - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn from_parts_validates_shape() {
        let _ = DominanceMatrix::from_parts(vec![0.0; 5], vec![1.0; 2], 3);
    }

    #[test]
    fn evaluator_matches_direct_on_random_matrices() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6006);
        for round in 0..40 {
            let n = rng.random_range(1..=120);
            let l = rng.random_range(1..=6);
            let weights = vec![1.0 / l as f64; l];
            let dp: Vec<f64> = (0..n * l)
                .map(|_| match rng.random_range(0..5) {
                    0 => 0.0,
                    1 => 1.0,
                    2 => 1.0 - 1e-12, // inside the "one" tolerance
                    _ => rng.random_range(0.01..0.99),
                })
                .collect();
            let m = DominanceMatrix::from_parts(dp, weights, n);
            let ev = m.evaluator();
            for _ in 0..30 {
                let k = rng.random_range(0..=n.min(20));
                let mut removed: Vec<usize> = (0..n).collect();
                for i in (1..removed.len()).rev() {
                    let j = rng.random_range(0..=i);
                    removed.swap(i, j);
                }
                removed.truncate(k);
                let mut mask = vec![false; n];
                for &c in &removed {
                    mask[c] = true;
                }
                let exact = m.pr_with_removed(&mask);
                let fast = ev.pr_with_removed_list(&removed);
                assert!(
                    (exact - fast).abs() < 1e-9,
                    "round {round}: exact {exact} vs fast {fast}"
                );
                // Classification agreement at assorted thresholds,
                // including right at the computed value, through the
                // FMCS checker's guard-banded removal-list verdict.
                for alpha in [0.1, 0.5, 0.9, exact.clamp(1e-6, 1.0)] {
                    let verdict = with_scratch(|scratch| {
                        let checker = crate::engine::fmcs::Checker::new(&m, scratch);
                        let mut query = crp_rtree::QueryStats::default();
                        checker.is_answer(&removed, alpha, scratch, &mut query)
                    });
                    assert_eq!(
                        verdict,
                        exact >= alpha - crp_geom::PROB_EPSILON,
                        "round {round} alpha {alpha}"
                    );
                }
            }
        }
    }

    /// Random matrix mixing exact 0/1, near-1 and fractional entries —
    /// shared by the evaluator tests below.
    fn random_matrix(rng: &mut rand::rngs::StdRng, n: usize, l: usize) -> DominanceMatrix {
        use rand::Rng;
        let weights = vec![1.0 / l as f64; l];
        let dp: Vec<f64> = (0..n * l)
            .map(|_| match rng.random_range(0..5) {
                0 => 0.0,
                1 => 1.0,
                2 => 1.0 - 1e-12,
                _ => rng.random_range(0.01..0.99),
            })
            .collect();
        DominanceMatrix::from_parts(dp, weights, n)
    }

    /// The first candidate at or after `start` (cyclically) that is not
    /// in the maintained removal set — a valid pair-probe extension.
    fn free_candidate(scratch: &Scratch, start: usize) -> Option<usize> {
        let n = scratch.mask.len();
        (0..n)
            .map(|k| (start + k) % n)
            .find(|&c| !scratch.is_removed(c))
    }

    /// The batched singleton sweep agrees with per-candidate exact
    /// evaluation far inside the guard band on every candidate, and the
    /// exact singleton fallback is bit-identical to the reference.
    #[test]
    fn singleton_batch_matches_sequential_probes() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x5113);
        for round in 0..25 {
            use rand::Rng;
            let n = rng.random_range(1..=120);
            let l = rng.random_range(1..=5);
            let m = random_matrix(&mut rng, n, l);
            let mut prefix = Vec::new();
            let mut prs = Vec::new();
            m.singleton_prs(&mut prefix, &mut prs);
            assert_eq!(prs.len(), n);
            for (c, &fast) in prs.iter().enumerate() {
                let exact = m.pr_with_removed_singleton(c);
                assert!(
                    (exact - fast).abs() < GUARD / 1e3,
                    "round {round} c {c}: exact {exact} vs batched {fast}"
                );
                // The singleton fallback is the reference product itself:
                // bit-identical to a one-hot removal mask.
                let mut removed = vec![false; n];
                removed[c] = true;
                assert_eq!(exact.to_bits(), m.pr_with_removed(&removed).to_bits());
            }
        }
    }

    /// Allocating twin of [`Scratch::level_bounds`]: the same products
    /// in the same order, with fresh vectors per sample.
    fn level_bounds_reference(m: &DominanceMatrix, kept: &[bool], search: &[usize]) -> Vec<f64> {
        let n = m.candidates();
        let mut bounds = vec![0.0; search.len() + 1];
        for i in 0..m.samples() {
            let row = &m.comp[i * n..(i + 1) * n];
            let outside = (0..n)
                .filter(|&c| kept[c])
                .fold(m.weight(i), |p, c| p * row[c]);
            let mut factors: Vec<f64> = search.iter().map(|&c| row[c]).collect();
            factors.sort_by(|a, b| a.partial_cmp(b).expect("finite probabilities"));
            for (k, bound) in bounds.iter_mut().enumerate() {
                *bound += factors[k..].iter().rev().fold(outside, |p, &f| p * f);
            }
        }
        bounds
    }

    /// The scratch-served level bound is bit-identical to its
    /// allocating twin, never decreases with the level, is never above
    /// the global bound over all candidates, and bounds every removal
    /// set it stands for.
    #[test]
    fn scratch_bound_is_bit_identical_to_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB0_07);
        let mut scratch = Scratch::default();
        for round in 0..60 {
            let n: usize = rng.random_range(1..=10);
            let l = rng.random_range(1..=4);
            let m = random_matrix(&mut rng, n, l);
            scratch.reset_for(&m);
            // A random split into cc, forced, kept (excluded) and search.
            let cc = rng.random_range(0..n);
            let role: Vec<u8> = (0..n)
                .map(|c| if c == cc { 3 } else { rng.random_range(0..3) })
                .collect();
            let forced: Vec<usize> = (0..n).filter(|&c| role[c] == 0).collect();
            let kept: Vec<bool> = role.iter().map(|&r| r == 1).collect();
            let search: Vec<usize> = (0..n).filter(|&c| role[c] == 2).collect();
            let reference = level_bounds_reference(&m, &kept, &search);
            let served = scratch.level_bounds(&m, |c| kept[c], &search).to_vec();
            let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&served), bits(&reference), "round {round}");
            for (k, pair) in served.windows(2).enumerate() {
                assert!(
                    pair[0] <= pair[1],
                    "round {round}: level {k} above level {}",
                    k + 1
                );
            }
            for (k, &bound) in served.iter().enumerate() {
                let global = m.max_pr_after_removing(forced.len() + k + 1);
                assert!(bound <= global + 1e-12, "round {round}, k = {k}");
            }
            // Every R = forced ∪ S ∪ {cc} with S ⊆ search stays under
            // its level's bound.
            for subset in 0u32..1 << search.len() {
                let mut removed = vec![false; n];
                removed[cc] = true;
                for &c in &forced {
                    removed[c] = true;
                }
                for (s, &c) in search.iter().enumerate() {
                    removed[c] = subset & (1 << s) != 0;
                }
                let k = subset.count_ones() as usize;
                assert!(
                    m.pr_with_removed(&removed) <= served[k] + 1e-12,
                    "round {round}, subset {subset:b}"
                );
            }
        }
    }

    /// The satellite property test: the delta-maintained evaluator
    /// agrees with direct evaluation (within the guard band) on random
    /// matrices, across removal-set cardinalities, under long
    /// add/remove move sequences including drift refreshes.
    #[test]
    fn delta_state_matches_direct_across_cardinalities() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xDE17A);
        for round in 0..25 {
            let n = rng.random_range(2..=150);
            let l = rng.random_range(1..=5);
            let m = random_matrix(&mut rng, n, l);
            let ev = m.evaluator();
            let mut scratch = Scratch::default();
            scratch.reset_for(&m);
            ev.delta_begin(&mut scratch);
            // A long random walk over removal sets: every prefix is a
            // different cardinality; drift refresh fires on long walks.
            for step in 0..600 {
                let c = rng.random_range(0..n);
                if scratch.is_removed(c) {
                    scratch.unset_removed(c);
                    ev.delta_remove(c, &mut scratch);
                } else {
                    scratch.set_removed(c);
                    ev.delta_add(c, &mut scratch);
                }
                if step % 7 != 0 {
                    continue;
                }
                // The screens disabled (`-∞`), the pair probe returns both
                // values: condition (i) for the maintained set and (ii)
                // with one free candidate folded in.
                let Some(cc) = free_candidate(&scratch, rng.random_range(0..n)) else {
                    continue;
                };
                let (FastVerdict::Value(keep), FastVerdict::Value(drop)) =
                    ev.delta_pair(cc, &scratch, f64::NEG_INFINITY)
                else {
                    panic!("a disabled screen certified a value");
                };
                let exact = m.pr_with_removed(&scratch.mask);
                assert!(
                    (exact - keep).abs() < GUARD / 1e2,
                    "round {round} step {step}: exact {exact} vs delta {keep}"
                );
                let mut mask2 = scratch.mask.clone();
                mask2[cc] = true;
                let exact2 = m.pr_with_removed(&mask2);
                assert!(
                    (exact2 - drop).abs() < GUARD / 1e2,
                    "round {round} step {step}: extra {cc}: {exact2} vs {drop}"
                );
            }
        }
    }

    /// The fused pair probe never contradicts the reference product: a
    /// screened `Below` only stands for a value really `< α − GUARD`,
    /// and every evaluated value lies within `GUARD` of
    /// [`DominanceMatrix::pr_with_removed`] — so screening can never
    /// change a verdict, only skip `exp` calls.
    #[test]
    fn log_screen_never_contradicts_the_fast_value() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5C_12EE);
        let mut screened = 0u32;
        let mut evaluated = 0u32;
        for _ in 0..40 {
            let n = rng.random_range(4..=150);
            let l = rng.random_range(1..=5);
            let m = random_matrix(&mut rng, n, l);
            let ev = m.evaluator();
            let mut scratch = Scratch::default();
            scratch.reset_for(&m);
            ev.delta_begin(&mut scratch);
            for _ in 0..60 {
                let c = rng.random_range(0..n);
                if scratch.is_removed(c) {
                    scratch.unset_removed(c);
                    ev.delta_remove(c, &mut scratch);
                } else {
                    scratch.set_removed(c);
                    ev.delta_add(c, &mut scratch);
                }
                let Some(cc) = free_candidate(&scratch, rng.random_range(0..n)) else {
                    continue;
                };
                let keep_exact = m.pr_with_removed(&scratch.mask);
                let mut with_cc = scratch.mask.clone();
                with_cc[cc] = true;
                let drop_exact = m.pr_with_removed(&with_cc);
                for alpha in [0.05, 0.3, 0.7, 0.99] {
                    // The threshold exactly as the Checker derives it.
                    let thr = ((alpha - GUARD) / ev.weight_sum()).ln() - 1e-9;
                    let (keep, drop) = ev.delta_pair(cc, &scratch, thr);
                    for (verdict, exact) in [(keep, keep_exact), (drop, drop_exact)] {
                        match verdict {
                            FastVerdict::Below => {
                                screened += 1;
                                assert!(
                                    exact < alpha - GUARD,
                                    "screen certified {exact} ≥ α − GUARD (α = {alpha})"
                                );
                            }
                            FastVerdict::Value(v) => {
                                evaluated += 1;
                                assert!(
                                    (v - exact).abs() < GUARD,
                                    "probe value {v} vs reference {exact} (α = {alpha})"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(screened > 0, "the screen never fired — test is vacuous");
        assert!(evaluated > 0, "the probe never evaluated — test is vacuous");
    }

    /// The cardinality-level screen never certifies a cardinality whose
    /// subsets could reach `α − GUARD`: for random matrices, base
    /// removal sets and cardinalities, every sampled size-k extension
    /// (with and without one extra fold-in) stays strictly below.
    #[test]
    fn cardinality_screen_never_contradicts_subset_values() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xCA_2D);
        let mut certified = 0u32;
        for _ in 0..40 {
            let n = rng.random_range(6..=120);
            let l = rng.random_range(1..=5);
            let m = random_matrix(&mut rng, n, l);
            let ev = m.evaluator();
            let mut scratch = Scratch::default();
            scratch.reset_for(&m);
            ev.delta_begin(&mut scratch);
            // A random forced base Γ₀.
            let base: Vec<usize> = (0..n).filter(|_| rng.random_range(0..4) == 0).collect();
            for &c in &base {
                scratch.set_removed(c);
                ev.delta_add(c, &mut scratch);
            }
            let search: Vec<usize> = (0..n).filter(|c| !scratch.is_removed(*c)).collect();
            let k = rng.random_range(0..=search.len().min(3));
            let search_maxneg = ev.max_neg_over(&search);
            for alpha in [0.05, 0.4, 0.9] {
                let thr = ((alpha - GUARD) / ev.weight_sum()).ln() - 1e-9;
                for &cc in search.iter().take(4) {
                    if !ev.cardinality_below(&scratch, k, search_maxneg, ev.neg_col_max(cc), thr) {
                        continue;
                    }
                    certified += 1;
                    // Sample random size-k extensions and verify both
                    // condition values stay below α − GUARD.
                    for _ in 0..10 {
                        let mut pool = search.clone();
                        for i in (1..pool.len()).rev() {
                            let j = rng.random_range(0..=i);
                            pool.swap(i, j);
                        }
                        pool.truncate(k);
                        for &c in &pool {
                            scratch.set_removed(c);
                            ev.delta_add(c, &mut scratch);
                        }
                        // Probe through cc when it is free (then both
                        // conditions are checked), else through any free
                        // candidate; with none free, condition (i) is
                        // the reference product.
                        let probe = free_candidate(&scratch, cc);
                        let (keep, drop) = match probe {
                            Some(p) => match ev.delta_pair(p, &scratch, f64::NEG_INFINITY) {
                                (FastVerdict::Value(keep), FastVerdict::Value(drop)) => {
                                    (keep, drop)
                                }
                                _ => panic!("a disabled screen certified a value"),
                            },
                            None => (m.pr_with_removed(&scratch.mask), f64::NAN),
                        };
                        assert!(
                            keep < alpha - GUARD,
                            "certified cardinality has a subset ≥ α − GUARD (α = {alpha})"
                        );
                        if probe == Some(cc) {
                            assert!(
                                drop < alpha - GUARD,
                                "certified cardinality flips with cc (α = {alpha})"
                            );
                        }
                        for &c in &pool {
                            scratch.unset_removed(c);
                            ev.delta_remove(c, &mut scratch);
                        }
                    }
                }
            }
        }
        assert!(certified > 0, "the cardinality screen never fired");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The completion bound is sound: on random matrices with
        /// annihilators, at every prefix the walk can reach (the empty one
        /// included) and every slot count, it is at least the largest
        /// `Pr(an | P − forced − prefix − T − {cc})` over every completion
        /// `T` drawn from the suffix, and a screened `Below` only stands
        /// for completions that really stay below the cut.
        #[test]
        fn completion_bound_covers_every_completion(seed in proptest::prelude::any::<u64>()) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(2..=12);
            let l = rng.random_range(1..=4);
            let m = random_matrix(&mut rng, n, l);
            let ev = m.evaluator();
            // A random split into cc, forced, kept (excluded) and a
            // shuffled search space (two thirds of the rest).
            let cc = rng.random_range(0..n);
            let role: Vec<u8> = (0..n)
                .map(|c| if c == cc { 3 } else { rng.random_range(0..6u8).min(2) })
                .collect();
            let mut search: Vec<usize> = (0..n).filter(|&c| role[c] == 2).collect();
            for i in (1..search.len()).rev() {
                search.swap(i, rng.random_range(0..=i));
            }
            let width = search.len();
            let mut scratch = Scratch::default();
            scratch.reset_for(&m);
            ev.delta_begin(&mut scratch);
            for c in (0..n).filter(|&c| role[c] == 0) {
                scratch.set_removed(c);
                ev.delta_add(c, &mut scratch);
            }
            ev.completion_tables(&search, width.saturating_sub(1), &mut scratch);
            let cuts: Vec<(f64, f64)> = [0.05, 0.3, 0.6, 0.95]
                .iter()
                .map(|&a: &f64| {
                    let floor = a - PROB_EPSILON - GUARD;
                    (floor, (floor / ev.weight_sum()).ln() - 1e-9)
                })
                .collect();
            // Every prefix is a set of search positions; `from` is one
            // past its last position.
            let mut checked = 0u32;
            for prefix in 0u32..1 << width {
                let from = 32 - prefix.leading_zeros() as usize;
                for (s, &c) in search.iter().enumerate() {
                    if prefix & (1 << s) != 0 {
                        scratch.set_removed(c);
                        ev.delta_add(c, &mut scratch);
                    }
                }
                for slots in 1..=(width - from).min(width.saturating_sub(1)) {
                    let mut best = 0.0f64;
                    crate::combinations::for_each_combination(width - from, slots, |tail| {
                        let mut removed = scratch.mask.clone();
                        removed[cc] = true;
                        for &t in tail {
                            removed[search[from + t]] = true;
                        }
                        best = best.max(m.pr_with_removed(&removed));
                        false
                    });
                    let FastVerdict::Value(bound) =
                        ev.completion_bound(cc, from, slots, &scratch, f64::NEG_INFINITY)
                    else {
                        panic!("a disabled screen certified a bound");
                    };
                    proptest::prop_assert!(
                        bound >= best - 1e-12,
                        "prefix {prefix:b}, slots {slots}: bound {bound} < completion {best}"
                    );
                    for &(floor, ln_cut) in &cuts {
                        if let FastVerdict::Below = ev.completion_bound(cc, from, slots, &scratch, ln_cut) {
                            proptest::prop_assert!(bound < floor && best < floor);
                        }
                    }
                    checked += 1;
                }
                for (s, &c) in search.iter().enumerate() {
                    if prefix & (1 << s) != 0 {
                        scratch.unset_removed(c);
                        ev.delta_remove(c, &mut scratch);
                    }
                }
            }
            proptest::prop_assert!(width < 2 || checked > 0);
        }
    }

    #[test]
    fn evaluator_handles_annihilators() {
        // One annihilating candidate: Pr = 0 until it is removed.
        let m = DominanceMatrix::from_parts(vec![1.0, 0.5], vec![1.0], 2);
        let ev = m.evaluator();
        assert_eq!(ev.pr_with_removed_list(&[]), 0.0);
        assert_eq!(ev.pr_with_removed_list(&[1]), 0.0);
        assert!((ev.pr_with_removed_list(&[0]) - 0.5).abs() < 1e-12);
        assert!((ev.pr_with_removed_list(&[0, 1]) - 1.0).abs() < 1e-12);
    }
}
