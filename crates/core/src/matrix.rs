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
//! product — so the per-sample walk of every kernel (the SIMD/scalar
//! masked product of `crate::kernel` *and* the exact reference
//! evaluation) streams contiguous memory, and the refine working set is
//! half of what the old double `dp` + `comp` layout kept resident.
//! `dp` values are derived on demand ([`DominanceMatrix::dominance`]);
//! the derivation round-trips exactly for `dp ≥ 0.5` (Sterbenz), which
//! covers every annihilator/forced-membership threshold test.

use crate::kernel;
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

    /// [`Self::pr_with_removed`] over the hot path's multiplicative
    /// `f64` mask (`1.0` = removed) — same sequential reference product,
    /// bit-identical to the bool-mask entry point on the equivalent
    /// removal set. This is the exact fallback the guard-banded kernels
    /// re-verify against without converting the mask.
    pub(crate) fn pr_with_removed_fmask(&self, mask: &[f64]) -> f64 {
        debug_assert_eq!(mask.len(), self.candidates);
        let n = self.candidates;
        let mut total = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            let row = &self.comp[i * n..(i + 1) * n];
            let mut survive = w;
            for (c, &m) in mask.iter().enumerate() {
                if m != 0.0 {
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

    /// `Pr(an | P − Γ)` over the sample-major complement layout — the
    /// columnar fast kernel of the refine hot path, dispatched to the
    /// active SIMD/scalar `crate::kernel` dispatch. `mask` is the
    /// multiplicative removal mask (`1.0` = removed, `0.0` = present).
    /// Values can differ from the reference by a few ulp because the
    /// lane chunking reassociates the per-sample product, so
    /// classification call sites re-verify near-threshold verdicts
    /// against the exact reference kernel.
    pub fn pr_with_removed_columnar(&self, mask: &[f64]) -> f64 {
        debug_assert_eq!(mask.len(), self.candidates);
        let n = self.candidates;
        let mut total = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            total += w * kernel::masked_product(&self.comp[i * n..(i + 1) * n], mask);
        }
        total
    }

    /// The batched FMCS condition pair: one streaming pass over the
    /// complement matrix computing **both**
    /// `(Pr(an | P−Γ), Pr(an | P−Γ−{cc}))` for the maintained mask `Γ`
    /// (which must not contain `cc`). The pass masks `cc`, and the
    /// condition-(i) value folds `cc`'s complement back per sample —
    /// halving the matrix traffic of direct-mode subset checks. Both
    /// values are guard-banded fast estimates (reassociation only); the
    /// mask is restored before returning.
    pub(crate) fn pr_pair_with_extra(&self, cc: usize, mask: &mut [f64]) -> (f64, f64) {
        debug_assert_eq!(mask.len(), self.candidates);
        debug_assert_eq!(mask[cc], 0.0, "cc must not already be removed");
        let n = self.candidates;
        mask[cc] = 1.0;
        let mut keep = 0.0; // Pr(an | P − Γ): cc still present
        let mut drop = 0.0; // Pr(an | P − Γ − {cc})
        for (i, &w) in self.weights.iter().enumerate() {
            let row = &self.comp[i * n..(i + 1) * n];
            let without_cc = kernel::masked_product(row, mask);
            drop += w * without_cc;
            keep += w * (without_cc * row[cc]);
        }
        mask[cc] = 0.0;
        (keep, drop)
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
    /// all `Γ` with `|Γ| ≤ t` — the probability-based pruning extension.
    ///
    /// Per sample `i`, removing `Γ` divides out at most the `t` smallest
    /// factors `(1 − dp[c][i])`; dropping those factors entirely bounds
    /// the reachable product from above. Sound because each per-sample
    /// bound is independent of which `Γ` is chosen.
    ///
    /// This is the allocating reference; the hot path serves the same
    /// (bit-identical) values through the scratch workspace's memoised
    /// `max_pr_bound`, which sorts the factors once per matrix and
    /// memoises per `t`.
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
/// Holds four groups of state:
///
/// * the current **removal mask** over candidates — the multiplicative
///   `f64` mask shared with the SIMD kernel (`1.0` = removed, `0.0` =
///   present), maintained by delta moves; also the exact-fallback input
///   and the `Γ` reconstruction source,
/// * the **delta state** of the incremental evaluator — per sample, the
///   annihilator count and log-factor sum of the currently removed set,
///   refreshed from the mask every [`DELTA_REFRESH_INTERVAL`] moves so
///   floating-point drift stays far inside the guard band,
/// * the **probability-bound memo**: per-sample ascending factors sorted
///   once per matrix, plus one memoised bound value per subset size
///   (bit-identical to [`DominanceMatrix::max_pr_after_removing`]),
/// * the **batched-probe buffers** of the Lemma 5 singleton sweep
///   (prefix products and per-candidate probabilities).
///
/// FMCS's forced/search/list index buffers ride along and are borrowed
/// by `std::mem::take` while a candidate search runs.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Multiplicative removal mask: `mask[c] == 1.0` ⇔ candidate `c` is
    /// in the current removal set (`0.0` otherwise; no other values).
    pub(crate) mask: Vec<f64>,
    /// Per sample: annihilating members of the current removal set.
    delta_ones: Vec<u32>,
    /// Per sample: `Σ ln(1 − dp)` over the removed regular candidates.
    delta_logq: Vec<f64>,
    /// Delta moves since the last drift refresh.
    delta_moves: u64,
    /// Per sample, ascending `(1 − dp)` factors (`samples × candidates`,
    /// built lazily on the first bound request).
    sorted_factors: Vec<f64>,
    sorted_built: bool,
    /// Memoised `max_pr_after_removing(t)` per `t` (NaN = unset).
    bound_memo: Vec<f64>,
    /// Prefix-product buffer of the batched singleton sweep.
    pub(crate) batch_prefix: Vec<f64>,
    /// Per-candidate singleton probabilities of the batched sweep.
    pub(crate) batch_prs: Vec<f64>,
    /// FMCS forced-set buffer (candidate indices).
    pub(crate) forced: Vec<usize>,
    /// FMCS search-space buffer (candidate indices, impact-ordered).
    pub(crate) search: Vec<usize>,
    /// General removal-list buffer (Lemma 5/6 checks).
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
        self.mask.resize(n, 0.0);
        self.delta_ones.clear();
        self.delta_ones.resize(l, 0);
        self.delta_logq.clear();
        self.delta_logq.resize(l, 0.0);
        self.delta_moves = 0;
        self.sorted_built = false;
        self.bound_memo.clear();
        self.bound_memo.resize(n + 1, f64::NAN);
    }

    /// Marks candidate `c` removed in the multiplicative mask.
    #[inline]
    pub(crate) fn set_removed(&mut self, c: usize) {
        self.mask[c] = 1.0;
    }

    /// Marks candidate `c` present in the multiplicative mask.
    #[inline]
    pub(crate) fn unset_removed(&mut self, c: usize) {
        self.mask[c] = 0.0;
    }

    /// True when candidate `c` is in the current removal set.
    #[inline]
    pub(crate) fn is_removed(&self, c: usize) -> bool {
        self.mask[c] != 0.0
    }

    /// [`DominanceMatrix::max_pr_after_removing`] without the per-call
    /// allocation and sort: factors are sorted once per matrix, each
    /// subset size is computed at most once, and the product runs in the
    /// reference's exact order — values are bit-identical, so pruning
    /// decisions (and with them every counter) cannot drift between the
    /// reference and the scratch-served path.
    pub(crate) fn max_pr_bound(&mut self, matrix: &DominanceMatrix, t: usize) -> f64 {
        let n = matrix.candidates();
        let l = matrix.samples();
        let t = t.min(n);
        let memo = self.bound_memo[t];
        if !memo.is_nan() {
            return memo;
        }
        if !self.sorted_built {
            self.sorted_factors.clear();
            self.sorted_factors.extend_from_slice(&matrix.comp);
            for i in 0..l {
                self.sorted_factors[i * n..(i + 1) * n]
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite probabilities"));
            }
            self.sorted_built = true;
        }
        let mut total = 0.0;
        for (i, &w) in matrix.weights.iter().enumerate() {
            let mut prod = 1.0f64;
            for &f in &self.sorted_factors[i * n + t..(i + 1) * n] {
                prod *= f;
            }
            total += w * prod;
        }
        self.bound_memo[t] = total;
        total
    }

    /// Clears the removal mask (delta state is reset separately by
    /// [`PrEvaluator::delta_begin`] / the direct-mode checker).
    pub(crate) fn clear_mask(&mut self) {
        self.mask.iter_mut().for_each(|m| *m = 0.0);
    }
}

/// The probability-bound table shared by the candidate-parallel FMCS
/// workers: the per-sample factor sort is paid once at construction
/// (not once per candidate, which a per-worker [`Scratch`] memo would
/// cost), and each subset size's bound is computed at most once across
/// all workers — values are deterministic, so the lock-free publish is
/// idempotent and every reader sees the same (reference-bit-identical)
/// bound.
pub(crate) struct SharedBounds {
    /// Per sample, ascending `(1 − dp)` factors (`samples × candidates`).
    sorted: Vec<f64>,
    /// `max_pr_after_removing(t)` per `t`, as f64 bits; NaN bits = unset
    /// (a bound is a finite probability, so NaN cannot collide).
    memo: Vec<std::sync::atomic::AtomicU64>,
}

impl SharedBounds {
    pub(crate) fn new(matrix: &DominanceMatrix) -> Self {
        let n = matrix.candidates();
        let l = matrix.samples();
        let mut sorted = matrix.comp.clone();
        for i in 0..l {
            sorted[i * n..(i + 1) * n]
                .sort_by(|a, b| a.partial_cmp(b).expect("finite probabilities"));
        }
        Self {
            sorted,
            memo: (0..=n)
                .map(|_| std::sync::atomic::AtomicU64::new(f64::NAN.to_bits()))
                .collect(),
        }
    }

    /// The bound for subset size `t` — bit-identical to
    /// [`DominanceMatrix::max_pr_after_removing`] (same factor order,
    /// same product order).
    pub(crate) fn get(&self, matrix: &DominanceMatrix, t: usize) -> f64 {
        use std::sync::atomic::Ordering;
        let n = matrix.candidates();
        let t = t.min(n);
        let cached = f64::from_bits(self.memo[t].load(Ordering::Relaxed));
        if !cached.is_nan() {
            return cached;
        }
        let mut total = 0.0;
        for (i, &w) in matrix.weights.iter().enumerate() {
            let mut prod = 1.0f64;
            for &f in &self.sorted[i * n + t..(i + 1) * n] {
                prod *= f;
            }
            total += w * prod;
        }
        self.memo[t].store(total.to_bits(), Ordering::Relaxed);
        total
    }
}

thread_local! {
    static SCRATCH_POOL: std::cell::RefCell<Vec<Scratch>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Lends a per-thread [`Scratch`] to `f`. A stack (not a single slot)
/// so re-entrant borrows — the candidate-parallel FMCS driver running a
/// worker item on the calling thread — get their own workspace instead
/// of a `RefCell` panic. One scratch per rayon worker on steady state;
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

/// Incremental `Pr(an | P − Γ)` evaluation for large candidate sets.
///
/// The direct evaluation is `O(|Cc| · L)` per contingency-set check; FMCS
/// on deep non-answers (e.g. the NBA case study, hundreds of candidates)
/// performs millions of checks. This evaluator precomputes, per sample:
/// the count of *annihilating* factors (`dp = 1`, product term 0) and the
/// log-sum of the remaining factors over **all** candidates. A check for
/// a removal list `Γ` then only walks `Γ`: subtract its annihilator
/// count and its log-factors — `O(|Γ| · L)`.
///
/// Verdicts within `GUARD` of the threshold are re-verified by the exact
/// direct evaluation, so the log-space rounding (≤ ~1e-12 relative here)
/// can never flip a classification relative to [`DominanceMatrix::pr_with_removed`].
pub struct PrEvaluator<'a> {
    matrix: &'a DominanceMatrix,
    /// Per (candidate, sample): `ln(1 − dp)` for regular factors, NaN for
    /// annihilators (`dp ≥ 1 − PROB_EPSILON`).
    log_factors: Vec<f64>,
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
/// shared by every fast kernel (incremental log-space, delta-maintained,
/// and the chunked columnar product), whose absolute error is orders of
/// magnitude smaller.
pub(crate) const GUARD: f64 = 1e-6;

/// A fast-kernel classification result (see
/// [`PrEvaluator::delta_verdict`]).
pub(crate) enum FastVerdict {
    /// The fast probability estimate — settle it through the usual
    /// guard-banded comparison.
    Value(f64),
    /// The log-domain screen proved the fast estimate `< α − GUARD`
    /// without evaluating a single `exp`: the verdict is "not an
    /// answer", outside the guard band, with certainty.
    Below,
}

impl<'a> PrEvaluator<'a> {
    fn new(matrix: &'a DominanceMatrix) -> Self {
        let l = matrix.samples();
        let n = matrix.candidates();
        let mut log_factors = vec![f64::NAN; n * l];
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
            ones,
            log_prod,
            weight_sum: matrix.weights.iter().sum(),
            neg_col_max,
        }
    }

    /// `Σ w_i` — the screen threshold's scale (see
    /// [`PrEvaluator::delta_verdict`]).
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
    /// (margined, see [`PrEvaluator::delta_verdict`]) certifies both
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
    /// (duplicates not allowed). Exact up to the guard band; use
    /// [`PrEvaluator::is_answer_with_removed`] for classifications.
    pub fn pr_with_removed_list(&self, removed: &[usize]) -> f64 {
        let l = self.matrix.samples();
        let mut total = 0.0;
        for i in 0..l {
            let w = self.matrix.weight(i);
            let mut ones = self.ones[i];
            let mut logq = 0.0;
            for &c in removed {
                let lf = self.log_factors[c * l + i];
                if lf.is_nan() {
                    ones -= 1;
                } else {
                    logq += lf;
                }
            }
            if ones == 0 {
                total += w * (self.log_prod[i] - logq).exp().min(1.0);
            }
        }
        total
    }

    /// Classifies `Pr(an | P − Γ) ≥ α` (within the shared probability
    /// tolerance), re-verifying near-threshold values with the exact
    /// direct evaluation.
    pub fn is_answer_with_removed(&self, removed: &[usize], alpha: f64) -> bool {
        let fast = self.pr_with_removed_list(removed);
        if (fast - alpha).abs() <= GUARD {
            // Near the decision boundary: recompute exactly.
            let mut mask = vec![false; self.matrix.candidates()];
            for &c in removed {
                mask[c] = true;
            }
            return self.matrix.pr_with_removed(&mask) >= alpha - crp_geom::PROB_EPSILON;
        }
        fast >= alpha - crp_geom::PROB_EPSILON
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
        let l = self.matrix.samples();
        for i in 0..l {
            let lf = self.log_factors[c * l + i];
            if lf.is_nan() {
                scratch.delta_ones[i] += 1;
            } else {
                scratch.delta_logq[i] += lf;
            }
        }
        self.delta_tick(scratch);
    }

    /// Removes candidate `c` from the removed set. `scratch.mask[c]`
    /// must already be cleared.
    pub(crate) fn delta_remove(&self, c: usize, scratch: &mut Scratch) {
        debug_assert!(!scratch.is_removed(c));
        let l = self.matrix.samples();
        for i in 0..l {
            let lf = self.log_factors[c * l + i];
            if lf.is_nan() {
                scratch.delta_ones[i] -= 1;
            } else {
                scratch.delta_logq[i] -= lf;
            }
        }
        self.delta_tick(scratch);
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
        let l = self.matrix.samples();
        for c in 0..self.matrix.candidates() {
            if scratch.mask[c] == 0.0 {
                continue;
            }
            for i in 0..l {
                let lf = self.log_factors[c * l + i];
                if lf.is_nan() {
                    scratch.delta_ones[i] += 1;
                } else {
                    scratch.delta_logq[i] += lf;
                }
            }
        }
    }

    /// `Pr(an | P − Γ)` for the delta-maintained removal set — `O(L)`,
    /// matching [`PrEvaluator::pr_with_removed_list`] up to the bounded
    /// drift the guard band absorbs.
    pub(crate) fn delta_pr(&self, scratch: &Scratch) -> f64 {
        let mut total = 0.0;
        for (i, &w) in self.matrix.weights.iter().enumerate() {
            if self.ones[i] == scratch.delta_ones[i] {
                total += w * (self.log_prod[i] - scratch.delta_logq[i]).exp().min(1.0);
            }
        }
        total
    }

    /// [`PrEvaluator::delta_pr`] with one extra candidate folded in on
    /// the fly — FMCS condition (ii), `Pr(an | P − Γ − {cc})`, without
    /// touching the maintained state.
    pub(crate) fn delta_pr_with_extra(&self, cc: usize, scratch: &Scratch) -> f64 {
        let l = self.matrix.samples();
        let mut total = 0.0;
        for (i, &w) in self.matrix.weights.iter().enumerate() {
            let lf = self.log_factors[cc * l + i];
            let (extra_one, extra_lf) = if lf.is_nan() { (1, 0.0) } else { (0, lf) };
            if self.ones[i] == scratch.delta_ones[i] + extra_one {
                total += w
                    * (self.log_prod[i] - scratch.delta_logq[i] - extra_lf)
                        .exp()
                        .min(1.0);
            }
        }
        total
    }

    // --- the log-domain screen (batched-probe mode) -------------------
    //
    // On deep non-answers the subset walk's cost is the `exp` calls of
    // `delta_pr`/`delta_pr_with_extra`: the candidate counts are huge
    // but L is small, so each check is a handful of transcendentals.
    // Almost every probed subset sits far below α, and that is provable
    // *in log space*: with `d_i = log_prod[i] − delta_logq[i]` over the
    // annihilator-matching samples,
    //
    //   fast = Σ w_i·min(exp(d_i), 1) ≤ (Σ w_i)·exp(max_i d_i)
    //
    // so `max_i d_i < ln((α − GUARD)/Σw) − margin` certifies
    // `fast < α − GUARD` — strictly outside the guard band, verdict
    // "not an answer" — using only compares and subtractions. The
    // `margin` (1e-9 in log space, i.e. ~1e-9 relative headroom) covers
    // every rounding step of the bound chain; when the screen cannot
    // certify, the caller falls through to the exact same evaluation it
    // would have run unscreened, so classifications never change.

    /// Screened FMCS condition (i): the verdict source of the batched
    /// hot path. `ln_threshold` is
    /// `ln((α − GUARD)/weight_sum) − margin`, or `-∞` to disable.
    pub(crate) fn delta_verdict(&self, scratch: &Scratch, ln_threshold: f64) -> FastVerdict {
        let mut dmax = f64::NEG_INFINITY;
        for (i, (&one, &dq)) in self.ones.iter().zip(&scratch.delta_ones).enumerate() {
            if one == dq {
                let d = self.log_prod[i] - dq_logq(&scratch.delta_logq, i);
                if d > dmax {
                    dmax = d;
                }
            }
        }
        if dmax < ln_threshold {
            return FastVerdict::Below;
        }
        FastVerdict::Value(self.delta_pr(scratch))
    }

    /// Screened FMCS condition (ii) — [`PrEvaluator::delta_verdict`]
    /// with candidate `cc` folded in on the fly.
    pub(crate) fn delta_verdict_with_extra(
        &self,
        cc: usize,
        scratch: &Scratch,
        ln_threshold: f64,
    ) -> FastVerdict {
        let l = self.matrix.samples();
        let mut dmax = f64::NEG_INFINITY;
        for i in 0..l {
            let lf = self.log_factors[cc * l + i];
            let (extra_one, extra_lf) = if lf.is_nan() { (1, 0.0) } else { (0, lf) };
            if self.ones[i] == scratch.delta_ones[i] + extra_one {
                let d = self.log_prod[i] - scratch.delta_logq[i] - extra_lf;
                if d > dmax {
                    dmax = d;
                }
            }
        }
        if dmax < ln_threshold {
            return FastVerdict::Below;
        }
        FastVerdict::Value(self.delta_pr_with_extra(cc, scratch))
    }
}

/// `delta_logq[i]` — a free function so the screen loop can zip one
/// slice and index the other without tripping the borrow checker.
#[inline]
fn dq_logq(delta_logq: &[f64], i: usize) -> f64 {
    delta_logq[i]
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

    /// Bool removal set → the hot path's multiplicative f64 mask.
    fn fmask(removed: &[bool]) -> Vec<f64> {
        removed.iter().map(|&r| if r { 1.0 } else { 0.0 }).collect()
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
                // including right at the computed value.
                for alpha in [0.1, 0.5, 0.9, exact.clamp(1e-6, 1.0)] {
                    assert_eq!(
                        ev.is_answer_with_removed(&removed, alpha),
                        exact >= alpha - crp_geom::PROB_EPSILON,
                        "round {round} alpha {alpha}"
                    );
                }
            }
        }
    }

    /// Random matrix mixing exact 0/1, near-1 and fractional entries —
    /// shared by the kernel-agreement tests below.
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

    #[test]
    fn columnar_kernel_matches_reference_within_guard() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC01);
        for round in 0..40 {
            let n = rng.random_range(1..=97);
            let l = rng.random_range(1..=5);
            let m = random_matrix(&mut rng, n, l);
            for _ in 0..20 {
                let removed: Vec<bool> = (0..n).map(|_| rng.random_range(0..3) == 0).collect();
                let exact = m.pr_with_removed(&removed);
                let fast = m.pr_with_removed_columnar(&fmask(&removed));
                // The chunked product only reassociates: agreement far
                // inside the classification guard band.
                assert!(
                    (exact - fast).abs() < GUARD / 1e3,
                    "round {round}: exact {exact} vs columnar {fast}"
                );
            }
        }
    }

    /// The f64-mask reference evaluation is bit-identical to the
    /// bool-mask one on equivalent removal sets (same factors, same
    /// order — it is the exact-fallback path of the hot loop).
    #[test]
    fn fmask_reference_is_bit_identical_to_bool_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xF_3A5);
        for _ in 0..30 {
            let n = rng.random_range(1..=80);
            let l = rng.random_range(1..=5);
            let m = random_matrix(&mut rng, n, l);
            for _ in 0..10 {
                let removed: Vec<bool> = (0..n).map(|_| rng.random_range(0..3) == 0).collect();
                let a = m.pr_with_removed(&removed);
                let b = m.pr_with_removed_fmask(&fmask(&removed));
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Singleton fallback: identical to a one-hot bool mask.
            for cc in [0, n / 2, n - 1] {
                let mut removed = vec![false; n];
                removed[cc] = true;
                assert_eq!(
                    m.pr_with_removed(&removed).to_bits(),
                    m.pr_with_removed_singleton(cc).to_bits()
                );
            }
        }
    }

    /// The fused condition pair agrees with two independent passes far
    /// inside the guard band (and exactly for the cc-removed value).
    #[test]
    fn pair_kernel_matches_two_passes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x9A12);
        for round in 0..30 {
            let n = rng.random_range(2..=70);
            let l = rng.random_range(1..=5);
            let m = random_matrix(&mut rng, n, l);
            for _ in 0..10 {
                let mut mask: Vec<f64> = (0..n)
                    .map(|_| {
                        if rng.random_range(0..3) == 0 {
                            1.0
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let cc = rng.random_range(0..n);
                mask[cc] = 0.0;
                let (keep, drop) = m.pr_pair_with_extra(cc, &mut mask);
                assert_eq!(mask[cc], 0.0, "mask restored");
                let keep_ref = m.pr_with_removed_fmask(&mask);
                mask[cc] = 1.0;
                let drop_ref = m.pr_with_removed_fmask(&mask);
                mask[cc] = 0.0;
                assert!(
                    (keep - keep_ref).abs() < GUARD / 1e3,
                    "round {round}: keep {keep} vs {keep_ref}"
                );
                assert!(
                    (drop - drop_ref).abs() < GUARD / 1e3,
                    "round {round}: drop {drop} vs {drop_ref}"
                );
            }
        }
    }

    /// The batched singleton sweep agrees with per-candidate exact
    /// evaluation far inside the guard band on every candidate.
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
            }
        }
    }

    #[test]
    fn scratch_bound_is_bit_identical_to_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB0_07);
        for _ in 0..20 {
            let n: usize = rng.random_range(0..=40);
            let l = rng.random_range(1..=4);
            let m = random_matrix(&mut rng, n.max(1), l);
            let mut scratch = Scratch::default();
            scratch.reset_for(&m);
            // Query in scattered order so the memo path (not just the
            // lazy sort) is exercised.
            for t in [3usize, 0, 7, 3, n + 5, 1, 0] {
                let reference = m.max_pr_after_removing(t);
                let served = scratch.max_pr_bound(&m, t);
                assert_eq!(reference.to_bits(), served.to_bits(), "t = {t}");
            }
        }
    }

    #[test]
    fn shared_bounds_are_bit_identical_to_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5B_0B);
        for _ in 0..10 {
            let n = rng.random_range(1..=40);
            let l = rng.random_range(1..=4);
            let m = random_matrix(&mut rng, n, l);
            let shared = SharedBounds::new(&m);
            for t in [0usize, 1, 3, n / 2, n, n + 3, 1] {
                let reference = m.max_pr_after_removing(t);
                let served = shared.get(&m, t);
                assert_eq!(reference.to_bits(), served.to_bits(), "t = {t}");
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
                let exact = m.pr_with_removed_fmask(&scratch.mask);
                let fast = ev.delta_pr(&scratch);
                assert!(
                    (exact - fast).abs() < GUARD / 1e2,
                    "round {round} step {step}: exact {exact} vs delta {fast}"
                );
                // Condition (ii) variant: fold one extra candidate in.
                let cc = rng.random_range(0..n);
                if !scratch.is_removed(cc) {
                    let mut mask2 = scratch.mask.clone();
                    mask2[cc] = 1.0;
                    let exact2 = m.pr_with_removed_fmask(&mask2);
                    let fast2 = ev.delta_pr_with_extra(cc, &scratch);
                    assert!(
                        (exact2 - fast2).abs() < GUARD / 1e2,
                        "round {round} step {step}: extra {cc}: {exact2} vs {fast2}"
                    );
                }
            }
        }
    }

    /// The log-domain screen never certifies `Below` unless the fast
    /// value it replaces really is `< α − GUARD` — i.e. screening can
    /// never change a verdict, only skip `exp` calls.
    #[test]
    fn log_screen_never_contradicts_the_fast_value() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5C_12EE);
        let mut screened = 0u32;
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
                for alpha in [0.05, 0.3, 0.7, 0.99] {
                    // The threshold exactly as the Checker derives it.
                    let thr = ((alpha - GUARD) / ev.weight_sum()).ln() - 1e-9;
                    match ev.delta_verdict(&scratch, thr) {
                        FastVerdict::Below => {
                            screened += 1;
                            assert!(
                                ev.delta_pr(&scratch) < alpha - GUARD,
                                "screen certified a value ≥ α − GUARD (α = {alpha})"
                            );
                        }
                        FastVerdict::Value(v) => {
                            assert_eq!(v.to_bits(), ev.delta_pr(&scratch).to_bits());
                        }
                    }
                    let cc = rng.random_range(0..n);
                    if scratch.is_removed(cc) {
                        continue;
                    }
                    match ev.delta_verdict_with_extra(cc, &scratch, thr) {
                        FastVerdict::Below => {
                            screened += 1;
                            assert!(
                                ev.delta_pr_with_extra(cc, &scratch) < alpha - GUARD,
                                "extra-screen certified a value ≥ α − GUARD (α = {alpha})"
                            );
                        }
                        FastVerdict::Value(v) => {
                            assert_eq!(v.to_bits(), ev.delta_pr_with_extra(cc, &scratch).to_bits());
                        }
                    }
                }
            }
        }
        assert!(screened > 0, "the screen never fired — test is vacuous");
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
                        assert!(
                            ev.delta_pr(&scratch) < alpha - GUARD,
                            "certified cardinality has a subset ≥ α − GUARD (α = {alpha})"
                        );
                        if !pool.contains(&cc) {
                            assert!(
                                ev.delta_pr_with_extra(cc, &scratch) < alpha - GUARD,
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
