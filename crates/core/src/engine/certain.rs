//! The certain-data pipeline behind CR, Naive-II and the reverse
//! k-skyband extension.
//!
//! All three share stage 1 — one dominance-window query collecting the
//! dominators of `q` w.r.t. `an` — and differ only in the verification
//! stage:
//!
//! * [`Lemma7ClosedForm`] — verification-free: every dominator is an
//!   actual cause with contingency set `Cc − {c}` (Eq. 4), generalised
//!   to the k-skyband closed form `r = 1/(|D| − k)`,
//! * [`SubsetVerify`] — Naive-II's per-candidate ascending-cardinality
//!   subset enumeration, kept as the baseline the figures compare
//!   against.

use crate::combinations::for_each_combination;
use crate::error::CrpError;
use crate::types::{Cause, CrpOutcome, RunStats};
use crp_geom::{dominance_rect, dominates, Point};
use crp_rtree::{AtomicQueryStats, PackedRTree};
use crp_uncertain::{ObjectId, UncertainDataset};

/// Stage 1 of the certain pipeline: one dominance-window traversal of
/// the object tree's packed image — everything inside the dominance
/// rectangle of `(an, q)`, refined by the exact strictness check on each
/// hit's point — returned sorted and deduplicated, without the
/// non-answer itself.
fn collect_dominators(
    ds: &UncertainDataset,
    tree: &PackedRTree<ObjectId>,
    q: &Point,
    an: &Point,
    an_id: ObjectId,
    query: &mut crp_rtree::QueryStats,
) -> Vec<ObjectId> {
    let window = dominance_rect(an, q);
    let mut dominators: Vec<ObjectId> = Vec::new();
    tree.visit_windows(std::slice::from_ref(&window), query, &mut |&id| {
        if id != an_id {
            let p = ds.get(id).expect("indexed ids come from the dataset");
            if dominates(p.certain_point(), an, q) {
                dominators.push(id);
            }
        }
        true
    });
    dominators.sort_unstable();
    dominators.dedup();
    dominators
}

/// Stage 2+3 of the certain pipeline: turns the dominator list into
/// causes (or rejects the object as an answer).
pub trait CertainSearch: Sync {
    fn causes(&self, dominators: &[ObjectId], stats: &mut RunStats)
        -> Result<Vec<Cause>, CrpError>;
}

/// Lemma 7 (and its k-skyband generalisation): every dominator is an
/// actual cause; no verification is performed. `k = 0` is exactly CR.
pub struct Lemma7ClosedForm {
    pub k: usize,
}

impl CertainSearch for Lemma7ClosedForm {
    fn causes(
        &self,
        dominators: &[ObjectId],
        stats: &mut RunStats,
    ) -> Result<Vec<Cause>, CrpError> {
        if dominators.len() <= self.k {
            // an is inside the k-skyband: an answer.
            return Err(CrpError::NotANonAnswer { prob: 1.0 });
        }
        let gamma_size = dominators.len() - self.k - 1;
        let responsibility = 1.0 / (dominators.len() - self.k) as f64;
        let causes = dominators
            .iter()
            .map(|&id| Cause {
                id,
                responsibility,
                // Witness minimal set: the first |D|−k−1 other dominators.
                min_contingency: dominators
                    .iter()
                    .copied()
                    .filter(|&o| o != id)
                    .take(gamma_size)
                    .collect(),
                counterfactual: gamma_size == 0,
            })
            .collect();
        if gamma_size == 0 {
            stats.counterfactuals = dominators.len();
        }
        Ok(causes)
    }
}

/// Naive-II: verifies each candidate by enumerating subsets of the
/// other candidates in ascending cardinality and testing both
/// contingency conditions — the insight-free baseline whose cost IS the
/// motivation for Lemma 7. Its only cap is the plan budget's
/// cancellation poll.
pub struct SubsetVerify;

impl CertainSearch for SubsetVerify {
    fn causes(
        &self,
        dominators: &[ObjectId],
        stats: &mut RunStats,
    ) -> Result<Vec<Cause>, CrpError> {
        if dominators.is_empty() {
            return Err(CrpError::NotANonAnswer { prob: 1.0 });
        }
        // For certain data, `an` is an answer on P − X exactly when X
        // covers all candidates. The naive algorithm does not exploit
        // this (that insight IS Lemma 7); it enumerates subsets in
        // ascending cardinality and tests both contingency conditions
        // per subset, which is what makes it slow.
        let k_total = dominators.len();
        let mut causes: Vec<Cause> = Vec::new();
        let cancel = super::budget::active();
        let mut cancel_err: Option<CrpError> = None;
        let mut uncharged: u64 = 0;
        for cc in 0..k_total {
            // Plan-budget boundary: settle the previous candidate's
            // subset charge and poll before starting the next one.
            if let Some(c) = &cancel {
                c.charge_subsets(uncharged);
                uncharged = 0;
                c.check()?;
            }
            let others: Vec<ObjectId> = dominators
                .iter()
                .copied()
                .filter(|&id| id != dominators[cc])
                .collect();
            let mut found: Option<Vec<ObjectId>> = None;
            'sizes: for k in 0..=others.len() {
                let stop = for_each_combination(others.len(), k, |combo| {
                    stats.subsets_examined += 1;
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
                    stats.prsq_evaluations += 2;
                    // Condition (i): a dominator survives in P − Γ (cc
                    // does, always). Condition (ii): no dominator in
                    // P − Γ − {cc}, i.e. the combination covers every
                    // other candidate.
                    let covers_all = combo.len() == others.len();
                    if covers_all {
                        found = Some(combo.iter().map(|&i| others[i]).collect());
                        return true;
                    }
                    false
                });
                if let Some(e) = cancel_err.take() {
                    return Err(e);
                }
                if stop && found.is_some() {
                    break 'sizes;
                }
            }
            let gamma = found.expect("the full candidate set always verifies");
            causes.push(Cause {
                id: dominators[cc],
                responsibility: 1.0 / (1.0 + gamma.len() as f64),
                counterfactual: gamma.is_empty(),
                min_contingency: gamma,
            });
        }
        if let Some(c) = &cancel {
            c.charge_subsets(uncharged);
        }
        if k_total == 1 {
            stats.counterfactuals = 1;
        }
        Ok(causes)
    }
}

/// The certain-data pipeline: validate, run the dominance-window
/// filter over the object tree's packed image (stage 1), then the selected
/// verification stage. `io` receives the call's node accesses whether
/// it succeeds or errors.
pub(crate) fn run_certain(
    ds: &UncertainDataset,
    tree: &PackedRTree<ObjectId>,
    q: &Point,
    an_id: ObjectId,
    search: &dyn CertainSearch,
    io: &AtomicQueryStats,
) -> Result<CrpOutcome, CrpError> {
    let mut stats = RunStats::default();
    let result = run_certain_inner(ds, tree, q, an_id, search, &mut stats);
    io.absorb(stats.query);
    result.map(|causes| CrpOutcome { causes, stats })
}

fn run_certain_inner(
    ds: &UncertainDataset,
    tree: &PackedRTree<ObjectId>,
    q: &Point,
    an_id: ObjectId,
    search: &dyn CertainSearch,
    stats: &mut RunStats,
) -> Result<Vec<crate::types::Cause>, CrpError> {
    if ds.is_empty() {
        return Err(CrpError::EmptyDataset);
    }
    if !ds.is_certain() {
        return Err(CrpError::NotCertainData);
    }
    let an_pos = ds.index_of(an_id).ok_or(CrpError::UnknownObject(an_id))?;
    let an = ds.object_at(an_pos).certain_point();

    // Stage 1: the dominator window query.
    let dominators = collect_dominators(ds, tree, q, an, an_id, &mut stats.query);
    stats.candidates = dominators.len();

    if dominators.is_empty() {
        // Nothing dominates q w.r.t. an: an is a reverse skyline object.
        return Err(CrpError::NotANonAnswer { prob: 1.0 });
    }

    search.causes(&dominators, stats)
}
