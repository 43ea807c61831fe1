//! Pipeline stage 1 — **filter**: candidate-cause discovery.
//!
//! Per Lemma 1 only objects that dominate `q` w.r.t. some sample of the
//! non-answer with positive probability can be causes, so stage 1's job
//! is to find exactly those objects. Implementations:
//!
//! * [`SampleWindowFilter`] — Lemma 2: one multi-window R-tree
//!   traversal over the dominance rectangles of `an`'s samples (the
//!   `RecList` of Algorithm 1), then exact dominance refinement. The
//!   filter of CP and Naive-I.
//! * [`ScanFilter`] — the same candidate set by a full scan (every
//!   object tested against Lemma 2 exactly); the filter-ablation
//!   baseline behind `cp_unindexed`.
//!
//! The certain-data window filter of CR / Naive-II / the k-skyband
//! extension lives in [`super::certain`], where its output (dominator
//! *ids*) feeds a verification-free closed form rather than a matrix.

use crate::types::RunStats;
use crp_geom::{dominance_rect, HyperRect, Point};
use crp_rtree::{QueryStats, RTree, WindowQuery};
use crp_skyline::dominance_probability;
use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};

/// Stage 1 of the probabilistic pipeline: produces the dataset
/// positions of every candidate cause of `an` (sorted, deduplicated,
/// excluding `an` itself).
pub trait FilterStage: Sync {
    fn candidates(
        &self,
        ds: &UncertainDataset,
        q: &Point,
        an_pos: usize,
        stats: &mut RunStats,
    ) -> Vec<usize>;
}

/// Lemma 2 via the R-tree (the CP filter). Generic over the tree
/// representation — the pointer [`RTree`] (the default, kept as the
/// reference path) or the packed read-only projection
/// ([`crp_rtree::PackedRTree`]) — through [`WindowQuery`]; both
/// produce bit-identical candidates and counters.
pub struct SampleWindowFilter<'t, Q: ?Sized = RTree<ObjectId>> {
    tree: &'t Q,
}

impl<'t, Q: ?Sized> SampleWindowFilter<'t, Q> {
    pub fn new(tree: &'t Q) -> Self {
        Self { tree }
    }
}

impl<Q: WindowQuery<ObjectId> + Sync + ?Sized> FilterStage for SampleWindowFilter<'_, Q> {
    fn candidates(
        &self,
        ds: &UncertainDataset,
        q: &Point,
        an_pos: usize,
        stats: &mut RunStats,
    ) -> Vec<usize> {
        let an = ds.object_at(an_pos);
        let windows: Vec<HyperRect> = an
            .samples()
            .iter()
            .map(|s| dominance_rect(s.point(), q))
            .collect();
        window_candidate_positions(self.tree, ds, an, q, &windows, &mut stats.query)
    }
}

/// The Lemma 2 window filter over one tree/dataset pair: multi-window
/// traversal, then exact dominance refinement (rectangles are a
/// superset of the dominance relation — boundary ties do not dominate).
/// Returns sorted, deduplicated positions in `ds`, excluding `an`.
///
/// The body of [`SampleWindowFilter`], over either view of the tree
/// (pointer or packed — generic through [`WindowQuery`]).
pub(crate) fn window_candidate_positions<Q: WindowQuery<ObjectId> + ?Sized>(
    tree: &Q,
    ds: &UncertainDataset,
    an: &UncertainObject,
    q: &Point,
    windows: &[HyperRect],
    query: &mut QueryStats,
) -> Vec<usize> {
    let mut hits: Vec<usize> = Vec::new();
    tree.visit_windows(windows, query, &mut |&id| {
        if id != an.id() {
            if let Some(pos) = ds.index_of(id) {
                hits.push(pos);
            }
        }
        true
    });
    hits.sort_unstable();
    hits.dedup();
    hits.retain(|&pos| {
        let obj = ds.object_at(pos);
        an.samples()
            .iter()
            .any(|s| dominance_probability(obj, s.point(), q) > 0.0)
    });
    hits
}

/// Lemma 2 by full scan (no index, no node accesses) — the filter
/// ablation and test cross-check; produces identical candidates.
pub struct ScanFilter;

impl FilterStage for ScanFilter {
    fn candidates(
        &self,
        ds: &UncertainDataset,
        q: &Point,
        an_pos: usize,
        _stats: &mut RunStats,
    ) -> Vec<usize> {
        let an = ds.object_at(an_pos);
        (0..ds.len())
            .filter(|&pos| {
                pos != an_pos
                    && an
                        .samples()
                        .iter()
                        .any(|s| dominance_probability(ds.object_at(pos), s.point(), q) > 0.0)
            })
            .collect()
    }
}
