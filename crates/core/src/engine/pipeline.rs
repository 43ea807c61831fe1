//! The shared explain pipeline: `filter → refine → fmcs`.
//!
//! Every probabilistic strategy (CP with either filter, Naive-I, and
//! the pdf variant) runs through [`run_probabilistic`] /
//! [`run_pdf`]; only the stage implementations and the [`CpConfig`]
//! switches differ. The certain-data strategies run through
//! [`super::certain::run_certain`], which shares the same
//! validate-filter-finish shape but replaces refinement with Lemma 7's
//! closed form (or Naive-II's subset verification).

use super::filter::FilterStage;
use crate::config::CpConfig;
use crate::error::CrpError;
use crate::matrix::{with_scratch, DominanceMatrix, Scratch};
use crate::types::{Cause, CrpOutcome, RunStats};
use crp_geom::{dominance_rect, HyperRect, Point, PROB_EPSILON};
use crp_rtree::{AtomicQueryStats, PackedRTree, QueryStats, RTree, WindowQuery};
use crp_uncertain::{ObjectId, PdfDataset, UncertainDataset};

/// Stage 1 of the pdf pipeline, abstracted over the tree view: the ids
/// of every indexed region intersecting any of the per-quadrant filter
/// windows (sorted, deduplicated, `exclude` removed).
///
/// Implemented by the pointer region tree and its packed image; both
/// produce the identical hit list.
pub(crate) trait RegionHitSource: Sync {
    fn region_hits(
        &self,
        windows: &[HyperRect],
        exclude: ObjectId,
        stats: &mut RunStats,
    ) -> Vec<ObjectId>;
}

impl RegionHitSource for RTree<ObjectId> {
    fn region_hits(
        &self,
        windows: &[HyperRect],
        exclude: ObjectId,
        stats: &mut RunStats,
    ) -> Vec<ObjectId> {
        tree_region_hits(self, windows, exclude, &mut stats.query)
    }
}

impl RegionHitSource for PackedRTree<ObjectId> {
    fn region_hits(
        &self,
        windows: &[HyperRect],
        exclude: ObjectId,
        stats: &mut RunStats,
    ) -> Vec<ObjectId> {
        tree_region_hits(self, windows, exclude, &mut stats.query)
    }
}

/// The pdf window traversal over one region tree (pointer or packed —
/// generic through [`WindowQuery`]): ids intersecting any window,
/// `exclude` removed, sorted and deduplicated. The single
/// implementation behind both [`RegionHitSource`] views.
pub(crate) fn tree_region_hits<Q: WindowQuery<ObjectId> + ?Sized>(
    tree: &Q,
    windows: &[HyperRect],
    exclude: ObjectId,
    query: &mut crp_rtree::QueryStats,
) -> Vec<ObjectId> {
    let mut hits: Vec<ObjectId> = Vec::new();
    tree.visit_windows(windows, query, &mut |&id| {
        if id != exclude {
            hits.push(id);
        }
        true
    });
    hits.sort_unstable();
    hits.dedup();
    hits
}

/// Folds the node accesses of one (possibly failed) explain into the
/// engine's session accumulator. Error outcomes (`NotANonAnswer`,
/// `BudgetExhausted`) have already paid their tree traversal, so the
/// session I/O total must include them. The evaluator fast/slow-path
/// taps are *per-explain* refinement counters (like
/// `subsets_examined`), not session I/O — they stay in the outcome's
/// [`RunStats`] and are stripped from the accumulator here.
fn absorb_io(io: &AtomicQueryStats, stats: &RunStats) {
    io.absorb(QueryStats {
        eval_fast: 0,
        eval_slow: 0,
        ..stats.query
    });
}

/// Input validation shared by the probabilistic strategies.
pub(crate) fn validate(
    ds: &UncertainDataset,
    q: &Point,
    an_id: ObjectId,
    alpha: f64,
) -> Result<usize, CrpError> {
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(CrpError::InvalidAlpha(alpha));
    }
    if ds.is_empty() {
        return Err(CrpError::EmptyDataset);
    }
    let an_pos = ds.index_of(an_id).ok_or(CrpError::UnknownObject(an_id))?;
    debug_assert_eq!(
        ds.dim().expect("non-empty dataset"),
        q.dim(),
        "query dimensionality mismatch"
    );
    Ok(an_pos)
}

/// The output of pipeline stage 1 for one non-answer: the candidate
/// cause **ids** (in the pipeline's canonical order — ascending dataset
/// position at computation time) and the dominance matrix whose rows
/// follow that order. Everything the α-dependent stages 2–3 consume;
/// what a plan unit computes once per `(an, q)` and lends to each of
/// its tasks, so an α-sweep re-runs only refinement.
#[derive(Debug)]
pub(crate) struct StageOne {
    pub ids: Vec<ObjectId>,
    pub matrix: DominanceMatrix,
}

/// Stage 1 of the discrete pipeline: filter + matrix build. Fills only
/// the query-side counters of `stats`.
pub(crate) fn stage1_probabilistic(
    ds: &UncertainDataset,
    q: &Point,
    an_pos: usize,
    filter: &dyn FilterStage,
    stats: &mut RunStats,
) -> StageOne {
    let candidates = filter.candidates(ds, q, an_pos, stats);
    let matrix = DominanceMatrix::build(ds, an_pos, q, &candidates);
    let ids = candidates
        .into_iter()
        .map(|pos| ds.object_at(pos).id())
        .collect();
    StageOne { ids, matrix }
}

/// Runs the full pipeline for one non-answer of a probabilistic reverse
/// skyline query over discrete-sample data. `io` receives the call's
/// node accesses whether it succeeds or errors.
pub(crate) fn run_probabilistic(
    ds: &UncertainDataset,
    q: &Point,
    an_id: ObjectId,
    alpha: f64,
    config: &CpConfig,
    filter: &dyn FilterStage,
    io: &AtomicQueryStats,
) -> Result<CrpOutcome, CrpError> {
    let mut stats = RunStats::default();
    let result = with_scratch(|scratch| {
        let an_pos = validate(ds, q, an_id, alpha)?;
        let stage1 = stage1_probabilistic(ds, q, an_pos, filter, &mut stats);
        finish(&stage1.matrix, alpha, config, &mut stats, scratch, |cand| {
            stage1.ids[cand]
        })
    });
    absorb_io(io, &stats);
    result.map(|causes| CrpOutcome { causes, stats })
}

/// Stages 2 + 3 over an already-built dominance matrix, mapping
/// candidate indices back to object ids through `id_of`. Shared by the
/// discrete and pdf variants. `scratch` is the reusable hot-path
/// workspace the caller lends — per-call sites borrow the per-thread
/// pooled one ([`with_scratch`]), the plan executor threads a single
/// workspace through every task of a stage-1 unit.
pub(crate) fn finish(
    matrix: &DominanceMatrix,
    alpha: f64,
    config: &CpConfig,
    stats: &mut RunStats,
    scratch: &mut Scratch,
    id_of: impl Fn(usize) -> ObjectId,
) -> Result<Vec<Cause>, CrpError> {
    // Budget seam: stage 1 is done, so its traversal cost is known —
    // charge it and poll before entering refinement (the part whose
    // cost can explode).
    if let Some(cancel) = super::budget::active() {
        cancel.charge_nodes(stats.query.node_accesses);
        cancel.check()?;
    }
    let pr_an = matrix.pr_full();
    if pr_an >= alpha - PROB_EPSILON {
        return Err(CrpError::NotANonAnswer { prob: pr_an });
    }
    // Stage 2: refine (lemma classification), then stage 3: FMCS — over
    // the lent scratch workspace, so one rayon worker (or one plan
    // unit) reuses a single allocation-free workspace across every
    // explain it serves.
    let recs = super::refine::refine(matrix, alpha, config, stats, scratch)?;
    let causes = recs
        .into_iter()
        .map(|r| {
            let gamma_len = r.gamma.len();
            Cause {
                id: id_of(r.cand),
                responsibility: 1.0 / (1.0 + gamma_len as f64),
                min_contingency: r.gamma.into_iter().map(&id_of).collect(),
                counterfactual: r.counterfactual,
            }
        })
        .collect();
    Ok(causes)
}

/// The pdf-model pipeline (Section 3.2): per-quadrant farthest-corner
/// windows for stage 1 (pointer or packed tree, through [`RegionHitSource`]),
/// closed-form box integrals for the matrix, then the shared
/// stages 2–3.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pdf(
    ds: &PdfDataset,
    source: &dyn RegionHitSource,
    q: &Point,
    an_id: ObjectId,
    alpha: f64,
    resolution: usize,
    config: &CpConfig,
    io: &AtomicQueryStats,
) -> Result<CrpOutcome, CrpError> {
    let mut stats = RunStats::default();
    let result = run_pdf_inner(ds, source, q, an_id, alpha, resolution, config, &mut stats);
    absorb_io(io, &stats);
    result.map(|causes| CrpOutcome { causes, stats })
}

/// Validation shared by the pdf strategies, mirroring
/// [`validate`]'s guard order.
pub(crate) fn validate_pdf(ds: &PdfDataset, an_id: ObjectId, alpha: f64) -> Result<(), CrpError> {
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(CrpError::InvalidAlpha(alpha));
    }
    if ds.is_empty() {
        return Err(CrpError::EmptyDataset);
    }
    if ds.get(an_id).is_none() {
        return Err(CrpError::UnknownObject(an_id));
    }
    Ok(())
}

/// Stage 1 of the pdf pipeline: per-quadrant window traversal, then the
/// closed-form dominance matrix over the non-answer's integration
/// cells. The caller has already validated `an_id`.
pub(crate) fn stage1_pdf(
    ds: &PdfDataset,
    source: &dyn RegionHitSource,
    q: &Point,
    an_id: ObjectId,
    resolution: usize,
    stats: &mut RunStats,
) -> StageOne {
    let an = ds.get(an_id).expect("caller validated the id");

    // Stage 1: multi-window traversal over the per-quadrant windows.
    let windows = crate::pdf::pdf_windows(q, an.region());
    let hits = source.region_hits(&windows, an_id, stats);

    // Integration cells of the non-answer.
    let cells = an.pdf().discretize(resolution);
    let weights: Vec<f64> = cells.iter().map(|(_, w)| *w).collect();

    // Exact dominance probability of each hit per cell; drop hits with
    // no dominating mass anywhere (the exact counterpart of Lemma 2).
    let mut candidates: Vec<ObjectId> = Vec::new();
    let mut dp: Vec<f64> = Vec::new();
    for id in hits {
        let cand = ds.get(id).expect("hit ids come from the dataset");
        let row: Vec<f64> = cells
            .iter()
            .map(|(center, _)| cand.pdf().box_probability(&dominance_rect(center, q)))
            .collect();
        if row.iter().any(|p| *p > 0.0) {
            candidates.push(id);
            dp.extend(row);
        }
    }
    let matrix = DominanceMatrix::from_parts(dp, weights, candidates.len());
    StageOne {
        ids: candidates,
        matrix,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_pdf_inner(
    ds: &PdfDataset,
    source: &dyn RegionHitSource,
    q: &Point,
    an_id: ObjectId,
    alpha: f64,
    resolution: usize,
    config: &CpConfig,
    stats: &mut RunStats,
) -> Result<Vec<Cause>, CrpError> {
    validate_pdf(ds, an_id, alpha)?;
    let stage1 = stage1_pdf(ds, source, q, an_id, resolution, stats);
    with_scratch(|scratch| {
        finish(&stage1.matrix, alpha, config, stats, scratch, |cand| {
            stage1.ids[cand]
        })
    })
}
