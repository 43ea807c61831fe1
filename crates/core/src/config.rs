//! Tuning switches for the CP algorithm.

/// Configuration of the CP refinement phase.
///
/// The defaults enable every pruning rule from the paper plus the
/// probability bound — the one configuration the library, the CLI, the
/// server and the benchmarks run. The switches exist for the ablation
/// benchmarks (`ablation_lemmas`) that quantify what each rule
/// contributes, and for the paper-reproduction binaries, which turn the
/// bound off so their subset counts are the paper's. Work caps are not
/// lemma switches: an explain whose exact minimal-contingency search
/// would be astronomically large (the search is NP-hard in general; the
/// paper's Theorem 1 gives `O(|Cc|·2^|Cc−Ca∪Cb|)`) is capped by a plan
/// limit ([`crate::PlanLimits::max_subsets`], set per request with
/// [`crate::ExplainRequest::with_subset_budget`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CpConfig {
    /// Lemma 4: objects dominating `q` w.r.t. *every* sample of `an` with
    /// probability 1 are forced into every contingency set.
    pub use_lemma4: bool,
    /// Lemma 5: counterfactual causes are excluded from the contingency
    /// search space of the remaining candidates.
    pub use_lemma5: bool,
    /// Lemma 6: a found minimal contingency set seeds upper bounds (and
    /// witness sets) for the candidates it contains.
    pub use_lemma6: bool,
    /// The `α = 1` fast path of Algorithm 1 (lines 9–11): every candidate
    /// is a cause with responsibility `1/|Cc|`, skipping refinement.
    pub alpha_one_fast_path: bool,
    /// Probability-based pruning (the paper's "future work" extension):
    /// skip the contingency cardinalities of each candidate, and inside
    /// a cardinality the subtrees of the subset walk, that provably
    /// cannot lift `Pr(an)` to `α` even when removing the most damaging
    /// members of what is left of its search space. Exact: it skips
    /// only levels and subtrees that provably hold no contingency set,
    /// so causes and contingency sets are unchanged; only the search
    /// counters drop.
    pub use_probability_bound: bool,
}

impl Default for CpConfig {
    fn default() -> Self {
        Self {
            use_lemma4: true,
            use_lemma5: true,
            use_lemma6: true,
            alpha_one_fast_path: true,
            use_probability_bound: true,
        }
    }
}

impl CpConfig {
    /// All pruning disabled — the refinement degenerates to Naive-I.
    pub fn naive() -> Self {
        Self {
            use_lemma4: false,
            use_lemma5: false,
            use_lemma6: false,
            alpha_one_fast_path: false,
            use_probability_bound: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_lemmas() {
        let c = CpConfig::default();
        assert!(c.use_lemma4 && c.use_lemma5 && c.use_lemma6 && c.alpha_one_fast_path);
        assert!(c.use_probability_bound);
    }

    #[test]
    fn naive_disables_all() {
        let c = CpConfig::naive();
        assert!(!c.use_lemma4 && !c.use_lemma5 && !c.use_lemma6 && !c.alpha_one_fast_path);
    }
}
