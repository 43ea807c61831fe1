//! Random non-answer selection.
//!
//! The paper "selects randomly 50 non-answers, and reports their
//! average performance". Two practical refinements, documented in
//! DESIGN.md §6:
//!
//! * candidates are scanned in order of distance from the query object —
//!   nearby objects have small dominance windows and are exactly the
//!   non-answers a user would realistically interrogate ("why am I just
//!   outside the result?"),
//! * non-answers whose *free* candidate count (candidates minus Lemma-4
//!   forced members minus counterfactuals) exceeds a tractability cap
//!   are skipped, because the minimal-contingency search is exponential
//!   in that quantity for *every* exact algorithm, including the paper's
//!   (Theorem 1). The cap is part of the experiment configuration and
//!   recorded in EXPERIMENTS.md.

use crp_core::{collect_candidates, DominanceMatrix, RunStats};
use crp_geom::{Point, PROB_EPSILON};
use crp_rtree::RTree;
use crp_uncertain::{ObjectId, UncertainDataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tractability and classification parameters for PRSQ non-answer
/// selection.
#[derive(Clone, Copy, Debug)]
pub struct PrsqSelectionConfig {
    /// Number of non-answers to select.
    pub count: usize,
    /// Objects must be non-answers at this threshold (use the *smallest*
    /// α of a sweep so the selection stays a non-answer everywhere).
    pub alpha_classify: f64,
    /// Tractability is assessed at this threshold (use the *largest* α
    /// of a sweep — contingency sets grow with α).
    pub alpha_tractability: f64,
    /// Skip objects with fewer raw candidates than this (selects
    /// non-answers whose refinement has genuine work to do).
    pub min_candidates: usize,
    /// Skip objects with more raw candidates than this (cheap pre-check).
    pub max_candidates: usize,
    /// Skip objects whose free candidate count (candidates − forced −
    /// counterfactuals) exceeds this.
    pub max_free_candidates: usize,
    /// Seed for the scan-order shuffle.
    pub seed: u64,
}

impl Default for PrsqSelectionConfig {
    fn default() -> Self {
        Self {
            count: 50,
            alpha_classify: 0.6,
            alpha_tractability: 0.6,
            min_candidates: 1,
            max_candidates: 18,
            max_free_candidates: 14,
            seed: 0x5EED,
        }
    }
}

/// Selects random non-answers to the probabilistic reverse skyline query
/// `(q, α)`, nearest-to-`q` first with a shuffled tie order. Returns
/// fewer than `count` ids when the dataset runs out of tractable
/// non-answers.
pub fn select_prsq_non_answers(
    ds: &UncertainDataset,
    tree: &RTree<ObjectId>,
    q: &Point,
    cfg: &PrsqSelectionConfig,
) -> Vec<ObjectId> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..ds.len()).collect();
    // Shuffle, then stable-sort by bucketed distance: random within a
    // distance band, near bands first.
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let band = |pos: usize| -> u64 {
        let e = ds.object_at(pos).expectation();
        (e.distance(q) / 250.0) as u64
    };
    order.sort_by_key(|&pos| band(pos));

    let mut picked = Vec::with_capacity(cfg.count);
    for pos in order {
        if picked.len() >= cfg.count {
            break;
        }
        let mut stats = RunStats::default();
        let candidates = collect_candidates(ds, tree, q, pos, &mut stats);
        if candidates.len() < cfg.min_candidates.max(1) || candidates.len() > cfg.max_candidates {
            continue;
        }
        let matrix = DominanceMatrix::build(ds, pos, q, &candidates);
        // Must be a non-answer at the classification threshold.
        if matrix.pr_full() >= cfg.alpha_classify - PROB_EPSILON {
            continue;
        }
        // Tractability at the (possibly larger) sweep threshold.
        let alpha = cfg.alpha_tractability;
        let n = matrix.candidates();
        let mut forced = 0usize;
        let mut counterfactual = 0usize;
        let mut removal = vec![false; n];
        for c in 0..n {
            if matrix.forces_zero(c) {
                forced += 1;
                continue;
            }
            removal.fill(false);
            removal[c] = true;
            if matrix.pr_with_removed(&removal) >= alpha - PROB_EPSILON {
                counterfactual += 1;
            }
        }
        if n - forced - counterfactual > cfg.max_free_candidates {
            continue;
        }
        picked.push(ds.object_at(pos).id());
    }
    picked
}

/// Selects random non-answers to the plain reverse skyline query of `q`
/// over certain data: objects with at least one dominator, at most
/// `max_candidates` of them when a cap is given (needed when Naive-II
/// verifies the same objects). Nearest-to-`q` first, shuffled within
/// distance bands.
pub fn select_rsq_non_answers(
    ds: &UncertainDataset,
    tree: &RTree<ObjectId>,
    q: &Point,
    count: usize,
    min_candidates: usize,
    max_candidates: Option<usize>,
    seed: u64,
) -> Vec<ObjectId> {
    use crp_geom::{dominance_rect, dominates};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..ds.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    order.sort_by_key(|&pos| (ds.object_at(pos).certain_point().distance(q) / 250.0) as u64);

    let mut picked = Vec::with_capacity(count);
    for pos in order {
        if picked.len() >= count {
            break;
        }
        let an = ds.object_at(pos);
        let window = dominance_rect(an.certain_point(), q);
        let mut dominators = 0usize;
        let cap = max_candidates.unwrap_or(usize::MAX);
        let mut stats = crp_rtree::QueryStats::default();
        tree.range_intersect(&window, &mut stats, |rect, &id| {
            if id != an.id() && dominates(rect.lo(), an.certain_point(), q) {
                dominators += 1;
            }
        });
        if dominators < min_candidates.max(1) || dominators > cap {
            continue;
        }
        picked.push(an.id());
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::explain_with;
    use crp_core::{EngineConfig, ExplainEngine, ExplainStrategy};
    use crp_data::{certain_dataset, uncertain_dataset, CertainConfig, UncertainConfig};
    use crp_rtree::RTreeParams;
    use crp_skyline::{build_object_rtree, pr_reverse_skyline};

    fn small_uncertain() -> UncertainDataset {
        uncertain_dataset(&UncertainConfig {
            cardinality: 2_000,
            dim: 2,
            radius_range: (0.0, 150.0),
            seed: 9,
            ..UncertainConfig::default()
        })
    }

    #[test]
    fn selected_prsq_objects_are_tractable_non_answers() {
        let ds = small_uncertain();
        let tree = build_object_rtree(&ds, RTreeParams::paper_default(2));
        let q = Point::from([5_000.0, 5_000.0]);
        let cfg = PrsqSelectionConfig {
            count: 10,
            alpha_classify: 0.5,
            alpha_tractability: 0.8,
            ..PrsqSelectionConfig::default()
        };
        let picked = select_prsq_non_answers(&ds, &tree, &q, &cfg);
        assert!(!picked.is_empty(), "dense dataset must contain non-answers");
        assert!(picked.len() <= 10);
        for id in &picked {
            let pos = ds.index_of(*id).unwrap();
            let pr = pr_reverse_skyline(&ds, pos, &q, |_| false);
            assert!(pr < 0.5, "selected object must be a non-answer: {pr}");
        }
        // Deterministic given the seed.
        let again = select_prsq_non_answers(&ds, &tree, &q, &cfg);
        assert_eq!(picked, again);
    }

    #[test]
    fn selected_rsq_objects_have_dominators_within_cap() {
        let ds = certain_dataset(&CertainConfig {
            cardinality: 3_000,
            dim: 2,
            seed: 4,
            ..CertainConfig::default()
        });
        let engine = ExplainEngine::new(ds, EngineConfig::default()).expect("valid engine config");
        let q = Point::from([5_000.0, 5_000.0]);
        let picked = select_rsq_non_answers(
            engine.dataset(),
            engine.point_tree(),
            &q,
            12,
            1,
            Some(10),
            3,
        );
        assert!(!picked.is_empty());
        for &id in &picked {
            let out = explain_with(&engine, ExplainStrategy::Cr, &q, 0.5, id)
                .expect("selected = non-answer");
            assert!(!out.causes.is_empty());
            assert!(
                out.causes.len() <= 10,
                "cap respected: {}",
                out.causes.len()
            );
        }
    }
}
