//! The **ExplainEngine**: a per-dataset session that answers "why is
//! this object not in the (probabilistic) reverse skyline?" through one
//! explicit three-stage pipeline — `filter → refine → fmcs` — with
//! pluggable stage implementations.
//!
//! The seed implementation exposed the paper's algorithms as free
//! functions (`cp`, `cp_unindexed`, `cr`, `naive_i`, `naive_ii`,
//! `oracle_*`) that each required the caller to build and thread the
//! right R-tree. The engine owns that state instead:
//!
//! * the dataset (discrete-sample or continuous-pdf workload),
//! * lazily built R-trees (object MBRs for CP, points for CR), shared
//!   by every explain call,
//! * an [`AtomicQueryStats`] accumulator so total node accesses can be
//!   reported across a rayon-parallel batch.
//!
//! Every algorithm of the paper is a [`ExplainStrategy`] selection over
//! the same pipeline:
//!
//! | strategy | stage 1 (filter) | stage 2 (refine) | stage 3 (search) |
//! |---|---|---|---|
//! | [`Cp`](ExplainStrategy::Cp) | Lemma 2 R-tree windows | Lemmas 4–5 | FMCS + Lemma 6 |
//! | [`CpUnindexed`](ExplainStrategy::CpUnindexed) | Lemma 2 full scan | Lemmas 4–5 | FMCS + Lemma 6 |
//! | [`NaiveI`](ExplainStrategy::NaiveI) | Lemma 2 R-tree windows | (disabled) | exhaustive FMCS |
//! | [`Cr`](ExplainStrategy::Cr) | dominance window | — | Lemma 7 closed form |
//! | [`CrKskyband`](ExplainStrategy::CrKskyband) | dominance window | — | k-skyband closed form |
//! | [`NaiveII`](ExplainStrategy::NaiveII) | dominance window | — | subset verification |
//! | [`OracleCp`](ExplainStrategy::OracleCp)/[`OracleCr`](ExplainStrategy::OracleCr) | whole dataset | — | Definitions 1–2 brute force |
//!
//! [`ExplainEngine::explain_batch`] answers many non-answers in one
//! call, data-parallel over the batch with `rayon` (order-preserving,
//! so results are **bit-identical** to the serial path — a property the
//! test suite pins).
//!
//! Stage 1 of CP tests each object alone (Lemma 2), so its candidate
//! set splits over any partition of the objects: a multi-process shard
//! worker answers its share with [`merge::shard_share`], and
//! [`merge::merge_candidate_ids`] reassembles the shares into exactly
//! [`ExplainEngine::candidate_ids`].
//!
//! ```
//! use crp_core::{EngineConfig, ExplainEngine};
//! use crp_geom::Point;
//! use crp_uncertain::{ObjectId, UncertainDataset};
//!
//! let ds = UncertainDataset::from_points(vec![
//!     Point::from([10.0, 10.0]),
//!     Point::from([7.0, 7.0]),
//! ])
//! .unwrap();
//! let engine = ExplainEngine::new(ds, EngineConfig::default()).unwrap();
//! let out = engine
//!     .explain(&Point::from([5.0, 5.0]), ObjectId(0))
//!     .unwrap();
//! assert!(out.causes[0].counterfactual);
//! ```

pub mod budget;
pub(crate) mod cache;
pub mod certain;
pub mod filter;
pub(crate) mod fmcs;
pub mod merge;
pub mod mvcc;
pub(crate) mod pipeline;
pub mod plan;
pub(crate) mod refine;
pub mod session;
pub mod window;

pub use budget::{PartialProgress, PlanLimits, StopReason};
pub use plan::{ExplainRequest, PlanCounters, PlanReport};
pub use session::ExplainSession;
pub use window::{
    admission, derive_limits, execute_window, fan_out, Admission, ClientClass, WindowReport,
};

use crate::config::CpConfig;
use crate::error::CrpError;
use crate::oracle::{oracle_cp, oracle_cr, OracleCause};
use crate::types::{Cause, CrpOutcome, RunStats};
use cache::{ExplanationCache, ServeTrace};
use certain::{run_certain, Lemma7ClosedForm, SubsetVerify};
use crp_geom::{HyperRect, Point};
use crp_rtree::{AtomicQueryStats, PackedRTree, QueryStats, RTree, RTreeParams};
use crp_skyline::{build_object_rtree, build_point_rtree};
use crp_uncertain::{
    Epoch, ObjectId, PdfDataset, PdfObject, UncertainDataset, UncertainError, UncertainObject,
    Update,
};
use filter::{FilterStage, SampleWindowFilter, ScanFilter};
use std::sync::OnceLock;

/// Algorithm selection over the shared pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExplainStrategy {
    /// CR for certain data, CP otherwise — what a client that just
    /// wants an explanation should use.
    Auto,
    /// Algorithm 1 (*CP*): R-tree filter + lemma refinement + FMCS.
    Cp,
    /// CP with the filter ablated to a full scan (no index I/O).
    CpUnindexed,
    /// The Naive-I baseline: CP's filter, exhaustive refinement.
    NaiveI {
        /// Subset-examination budget (`None` = unlimited).
        max_subsets: Option<u64>,
    },
    /// The certain-data algorithm *CR* (Lemma 7, verification-free).
    Cr,
    /// CRP for reverse k-skyband non-answers (closed form; `k = 0` is
    /// [`Cr`](ExplainStrategy::Cr)).
    CrKskyband { k: usize },
    /// The Naive-II baseline: CR's filter, subset verification.
    NaiveII {
        /// Subset-examination budget (`None` = unlimited).
        max_subsets: Option<u64>,
    },
    /// Definition-level brute force for probabilistic queries (ground
    /// truth; exponential in the dataset size).
    OracleCp,
    /// Definition-level brute force for certain data.
    OracleCr,
}

impl ExplainStrategy {
    fn name(self) -> &'static str {
        match self {
            ExplainStrategy::Auto => "auto",
            ExplainStrategy::Cp => "cp",
            ExplainStrategy::CpUnindexed => "cp-unindexed",
            ExplainStrategy::NaiveI { .. } => "naive-i",
            ExplainStrategy::Cr => "cr",
            ExplainStrategy::CrKskyband { .. } => "cr-kskyband",
            ExplainStrategy::NaiveII { .. } => "naive-ii",
            ExplainStrategy::OracleCp => "oracle-cp",
            ExplainStrategy::OracleCr => "oracle-cr",
        }
    }
}

/// Session configuration of an [`ExplainEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Probability threshold `α` of the query (ignored by the
    /// certain-data strategies).
    pub alpha: f64,
    /// Strategy used by [`ExplainEngine::explain`] /
    /// [`ExplainEngine::explain_batch`].
    pub strategy: ExplainStrategy,
    /// Lemma switches and budgets for the refinement stages.
    pub cp: CpConfig,
    /// R-tree shape; `None` uses the paper's 4 KiB-page default for the
    /// dataset's dimensionality.
    pub rtree: Option<RTreeParams>,
    /// Run [`ExplainEngine::explain_batch`] data-parallel with rayon.
    pub parallel: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            alpha: 0.5,
            strategy: ExplainStrategy::Auto,
            cp: CpConfig::default(),
            rtree: None,
            parallel: true,
        }
    }
}

impl EngineConfig {
    /// Default configuration at a given `α`.
    pub fn with_alpha(alpha: f64) -> Self {
        Self {
            alpha,
            ..Self::default()
        }
    }

    /// Validates the configuration — every engine constructor calls
    /// this, so misconfigured sessions fail with a typed
    /// [`CrpError::InvalidConfig`] at construction instead of
    /// panicking (degenerate R-tree shapes) or producing garbage
    /// (α outside `(0, 1]`, a zero subset budget) at query time.
    pub fn validate(&self) -> Result<(), CrpError> {
        if !(self.alpha.is_finite() && self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(CrpError::InvalidConfig {
                field: "alpha",
                reason: format!("must be in (0, 1], got {}", self.alpha),
            });
        }
        if let Some(params) = self.rtree {
            if params.min_entries < 1 {
                return Err(CrpError::InvalidConfig {
                    field: "rtree.min_entries",
                    reason: format!("must be ≥ 1, got {}", params.min_entries),
                });
            }
            if params.max_entries < 2 * params.min_entries {
                return Err(CrpError::InvalidConfig {
                    field: "rtree.max_entries",
                    reason: format!(
                        "must be ≥ 2 × min_entries ({} < {})",
                        params.max_entries,
                        2 * params.min_entries
                    ),
                });
            }
        }
        if self.cp.max_subsets == Some(0) {
            return Err(CrpError::InvalidConfig {
                field: "cp.max_subsets",
                reason: "a zero subset budget can never complete a search".into(),
            });
        }
        Ok(())
    }
}

/// Checks the pdf session's discretisation resolution (`resolution^D`
/// integration cells; zero would integrate over nothing).
fn validate_resolution(resolution: usize) -> Result<(), CrpError> {
    if resolution == 0 {
        return Err(CrpError::InvalidConfig {
            field: "resolution",
            reason: "must be ≥ 1".into(),
        });
    }
    Ok(())
}

/// Maps a dataset-mutation failure into the engine's typed error.
fn update_error(e: UncertainError) -> CrpError {
    CrpError::InvalidUpdate {
        reason: e.to_string(),
    }
}

/// The data a session explains over.
#[derive(Clone)]
pub(crate) enum Workload {
    Discrete(UncertainDataset),
    Pdf { ds: PdfDataset, resolution: usize },
}

/// Clones a lazily initialised slot: a built value is cloned into the
/// fork, an unbuilt one stays unbuilt (the fork pays the same lazy
/// build a fresh engine would).
fn clone_slot<T: Clone>(slot: &OnceLock<T>) -> OnceLock<T> {
    let out = OnceLock::new();
    if let Some(value) = slot.get() {
        let _ = out.set(value.clone());
    }
    out
}

/// A per-dataset explain session: owns the dataset, the R-trees and the
/// cross-call accounting. See the [module docs](self) for the pipeline
/// it dispatches.
pub struct ExplainEngine {
    data: Workload,
    config: EngineConfig,
    /// Object-MBR tree (CP filtering) — for pdf workloads, the region
    /// tree. Incrementally patched by [`ExplainEngine::apply`].
    object_tree: OnceLock<RTree<ObjectId>>,
    /// Point tree (CR filtering; certain data only).
    point_tree: OnceLock<RTree<ObjectId>>,
    /// Node accesses, update-path work and cache events accumulated
    /// across every explain/apply call (including parallel batches).
    io: AtomicQueryStats,
    /// Memoised stage-1 rows and outcomes, invalidated geometrically by
    /// [`ExplainEngine::apply`]. See [`cache`].
    cache: ExplanationCache,
}

impl ExplainEngine {
    /// Creates a session over a discrete-sample (or certain) dataset.
    /// Fails with [`CrpError::InvalidConfig`] on an invalid
    /// configuration (see [`EngineConfig::validate`]).
    pub fn new(ds: UncertainDataset, config: EngineConfig) -> Result<Self, CrpError> {
        config.validate()?;
        Ok(Self {
            data: Workload::Discrete(ds),
            config,
            object_tree: OnceLock::new(),
            point_tree: OnceLock::new(),
            io: AtomicQueryStats::new(),
            cache: ExplanationCache::new(),
        })
    }

    /// Creates a session over a continuous-pdf dataset (Section 3.2).
    /// `resolution` controls the midpoint-rule discretisation of
    /// non-answer regions (`resolution^D` cells) and must be ≥ 1.
    pub fn for_pdf(
        ds: PdfDataset,
        resolution: usize,
        config: EngineConfig,
    ) -> Result<Self, CrpError> {
        config.validate()?;
        validate_resolution(resolution)?;
        Ok(Self {
            data: Workload::Pdf { ds, resolution },
            config,
            object_tree: OnceLock::new(),
            point_tree: OnceLock::new(),
            io: AtomicQueryStats::new(),
            cache: ExplanationCache::new(),
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Forks an immutable snapshot of this session, copying pointers
    /// rather than data: the fork shares every object, every R-tree
    /// node and an already-frozen packed image with this engine
    /// through `Arc`s, and a later [`apply`](Self::apply) copies only
    /// the object slot and tree nodes it writes. The I/O accumulator
    /// and the explanation cache start fresh — each epoch gets its own
    /// cache generation, so invalidation never reaches across
    /// snapshots.
    /// Explains against the fork are bit-identical to explains against
    /// the source at the moment of forking; this is the read-side half
    /// of the MVCC session ([`mvcc::MvccEngine`]).
    pub fn fork(&self) -> Self {
        Self {
            data: self.data.clone(),
            config: self.config,
            object_tree: clone_slot(&self.object_tree),
            point_tree: clone_slot(&self.point_tree),
            io: AtomicQueryStats::new(),
            cache: ExplanationCache::new(),
        }
    }

    /// The discrete dataset of this session.
    ///
    /// # Panics
    ///
    /// Panics when the session was built with [`ExplainEngine::for_pdf`].
    pub fn dataset(&self) -> &UncertainDataset {
        match &self.data {
            Workload::Discrete(ds) => ds,
            Workload::Pdf { .. } => panic!("pdf engine has no discrete dataset"),
        }
    }

    /// The pdf dataset and resolution, when this is a pdf session.
    pub fn pdf_dataset(&self) -> Option<(&PdfDataset, usize)> {
        match &self.data {
            Workload::Discrete(_) => None,
            Workload::Pdf { ds, resolution } => Some((ds, *resolution)),
        }
    }

    fn rtree_params(&self, dim: usize) -> RTreeParams {
        self.config
            .rtree
            .unwrap_or_else(|| RTreeParams::paper_default(dim))
    }

    /// The object-MBR R-tree (regions, for pdf sessions), built on
    /// first use and shared by all subsequent calls.
    ///
    /// # Panics
    ///
    /// Panics on an empty dataset (nothing to index).
    pub fn object_tree(&self) -> &RTree<ObjectId> {
        self.object_tree.get_or_init(|| {
            let tree = match &self.data {
                Workload::Discrete(ds) => {
                    let dim = ds.dim().expect("cannot index an empty dataset");
                    build_object_rtree(ds, self.rtree_params(dim))
                }
                Workload::Pdf { ds, .. } => {
                    let dim = ds.dim().expect("cannot index an empty dataset");
                    crate::pdf::build_pdf_rtree(ds, self.rtree_params(dim))
                }
            };
            // The first image is part of the build; only rebuilds after
            // updates count as refreezes.
            tree.frozen();
            tree
        })
    }

    /// The packed image of a built object/region tree: warm after a
    /// build or a publish, rebuilt by the first reader after an update
    /// (counted in [`QueryStats::refreezes`]).
    fn packed<'t>(&self, tree: &'t RTree<ObjectId>) -> &'t PackedRTree<ObjectId> {
        tree.frozen_counted(&self.io)
    }

    /// The point R-tree used by the certain-data strategies, built on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics on an empty, pdf, or genuinely uncertain dataset.
    pub fn point_tree(&self) -> &RTree<ObjectId> {
        self.point_tree.get_or_init(|| {
            let ds = self.dataset();
            assert!(ds.is_certain(), "point tree requires certain data");
            let dim = ds.dim().expect("cannot index an empty dataset");
            build_point_rtree(ds, self.rtree_params(dim))
        })
    }

    /// Total node accesses, update-path work and cache events across
    /// every explain/apply call so far (including parallel batches),
    /// thread-safe.
    pub fn accumulated_io(&self) -> QueryStats {
        let mut stats = self.io.snapshot();
        stats.absorb(self.cache.stats());
        stats
    }

    /// Resets the I/O accumulator, returning the totals so far.
    pub fn reset_io(&self) -> QueryStats {
        let mut stats = self.io.take();
        stats.absorb(self.cache.take_stats());
        stats
    }

    /// The dataset version this session currently serves: advanced by
    /// every applied update.
    pub fn epoch(&self) -> Epoch {
        match &self.data {
            Workload::Discrete(ds) => ds.epoch(),
            Workload::Pdf { ds, .. } => ds.epoch(),
        }
    }

    /// Live (row, outcome) entry counts of the explanation cache.
    pub fn cache_len(&self) -> (usize, usize) {
        self.cache.len()
    }

    /// Applies one update to a discrete-sample session: mutates the
    /// dataset, **incrementally patches** both R-trees (condense +
    /// reinsert; never a bulk rebuild), and evicts exactly the cached
    /// explanations the change could affect (entries whose candidate
    /// region intersects the object's old/new MBR, entries for the
    /// object itself, and — when the dataset's certainty may have
    /// changed — every certain-strategy outcome).
    ///
    /// The packed image of the object tree is not rebuilt here: that
    /// happens once per published batch ([`ExplainEngine::refreeze`])
    /// or lazily on the next read, so a batch of updates pays for one
    /// rebuild, not one per update.
    ///
    /// Returns the new dataset [`Epoch`]. After any sequence of
    /// updates, `explain`/`explain_batch` results are identical to a
    /// fresh engine built on the final dataset (pinned by the
    /// engine-agreement property tests).
    pub fn apply(&mut self, update: Update<UncertainObject>) -> Result<Epoch, CrpError> {
        let Workload::Discrete(_) = &self.data else {
            return Err(CrpError::InvalidUpdate {
                reason: "discrete update applied to a pdf session".into(),
            });
        };
        let was_certain = self.discrete().is_certain();
        let touched = update.id();
        let mut regions: Vec<HyperRect> = Vec::with_capacity(2);
        match update {
            Update::Insert(obj) => {
                let mbr = obj.mbr();
                let certain_point = obj.is_certain().then(|| obj.certain_point().clone());
                self.discrete_mut().push(obj).map_err(update_error)?;
                self.patch_object_tree(None, Some((mbr.clone(), touched)));
                self.patch_point_tree(None, certain_point.map(|p| (p, touched)));
                self.io.absorb(QueryStats {
                    inserts: 1,
                    ..Default::default()
                });
                regions.push(mbr);
            }
            Update::Delete(id) => {
                let old = self
                    .discrete_mut()
                    .remove(id)
                    .ok_or(CrpError::UnknownObject(id))?;
                let old_mbr = old.mbr();
                let old_point = old.is_certain().then(|| old.certain_point().clone());
                self.patch_object_tree(Some((old_mbr.clone(), id)), None);
                self.patch_point_tree(old_point.map(|p| (p, id)), None);
                self.io.absorb(QueryStats {
                    removes: 1,
                    ..Default::default()
                });
                regions.push(old_mbr);
            }
            Update::Replace(obj) => {
                let new_mbr = obj.mbr();
                let new_point = obj.is_certain().then(|| obj.certain_point().clone());
                let old = self.discrete_mut().replace(obj).map_err(update_error)?;
                let old_mbr = old.mbr();
                let old_point = old.is_certain().then(|| old.certain_point().clone());
                self.patch_object_tree(
                    Some((old_mbr.clone(), touched)),
                    Some((new_mbr.clone(), touched)),
                );
                self.patch_point_tree(
                    old_point.map(|p| (p, touched)),
                    new_point.map(|p| (p, touched)),
                );
                self.io.absorb(QueryStats {
                    inserts: 1,
                    removes: 1,
                    ..Default::default()
                });
                regions.push(old_mbr);
                regions.push(new_mbr);
            }
        }
        let flush_certain = !(was_certain && self.discrete().is_certain());
        self.cache.invalidate(touched, &regions, flush_certain);
        Ok(self.discrete().epoch())
    }

    /// [`ExplainEngine::apply`] for continuous-pdf sessions.
    pub fn apply_pdf(&mut self, update: Update<PdfObject>) -> Result<Epoch, CrpError> {
        let Workload::Pdf { .. } = &self.data else {
            return Err(CrpError::InvalidUpdate {
                reason: "pdf update applied to a discrete session".into(),
            });
        };
        let touched = update.id();
        let mut regions: Vec<HyperRect> = Vec::with_capacity(2);
        match update {
            Update::Insert(obj) => {
                let region = obj.region().clone();
                self.pdf_mut().push(obj).map_err(update_error)?;
                self.patch_object_tree(None, Some((region.clone(), touched)));
                self.io.absorb(QueryStats {
                    inserts: 1,
                    ..Default::default()
                });
                regions.push(region);
            }
            Update::Delete(id) => {
                let old = self
                    .pdf_mut()
                    .remove(id)
                    .ok_or(CrpError::UnknownObject(id))?;
                let old_region = old.region().clone();
                self.patch_object_tree(Some((old_region.clone(), id)), None);
                self.io.absorb(QueryStats {
                    removes: 1,
                    ..Default::default()
                });
                regions.push(old_region);
            }
            Update::Replace(obj) => {
                let new_region = obj.region().clone();
                let old = self.pdf_mut().replace(obj).map_err(update_error)?;
                let old_region = old.region().clone();
                self.patch_object_tree(
                    Some((old_region.clone(), touched)),
                    Some((new_region.clone(), touched)),
                );
                self.io.absorb(QueryStats {
                    inserts: 1,
                    removes: 1,
                    ..Default::default()
                });
                regions.push(old_region);
                regions.push(new_region);
            }
        }
        self.cache.invalidate(touched, &regions, false);
        Ok(self.pdf().epoch())
    }

    /// Rebuilds the object tree's packed image if updates invalidated
    /// it, so forks taken afterwards share one warm image and no reader
    /// pays the rebuild inside its latency budget. [`mvcc::MvccEngine`]
    /// calls this once per published batch; a bare engine skips it and
    /// its first post-update read rebuilds lazily. Either way the
    /// rebuild counts once in [`QueryStats::refreezes`]. The point
    /// tree is only read through its node arena, so it has no image
    /// to keep warm.
    pub fn refreeze(&mut self) {
        if let Some(tree) = self.object_tree.get_mut() {
            tree.refreeze();
            self.io.absorb(tree.take_upkeep());
        }
    }

    fn discrete(&self) -> &UncertainDataset {
        match &self.data {
            Workload::Discrete(ds) => ds,
            Workload::Pdf { .. } => unreachable!("guarded by apply"),
        }
    }

    fn discrete_mut(&mut self) -> &mut UncertainDataset {
        match &mut self.data {
            Workload::Discrete(ds) => ds,
            Workload::Pdf { .. } => unreachable!("guarded by apply"),
        }
    }

    fn pdf(&self) -> &PdfDataset {
        match &self.data {
            Workload::Pdf { ds, .. } => ds,
            Workload::Discrete(_) => unreachable!("guarded by apply_pdf"),
        }
    }

    fn pdf_mut(&mut self) -> &mut PdfDataset {
        match &mut self.data {
            Workload::Pdf { ds, .. } => ds,
            Workload::Discrete(_) => unreachable!("guarded by apply_pdf"),
        }
    }

    fn patch_object_tree(
        &mut self,
        remove: Option<(HyperRect, ObjectId)>,
        insert: Option<(HyperRect, ObjectId)>,
    ) {
        patch_rect_tree(&mut self.object_tree, remove, insert, &self.io);
    }

    fn patch_point_tree(
        &mut self,
        remove: Option<(Point, ObjectId)>,
        insert: Option<(Point, ObjectId)>,
    ) {
        let still_certain = match &self.data {
            // The update already landed in the dataset: a now-uncertain
            // dataset invalidates the point tree outright.
            Workload::Discrete(ds) => ds.is_certain(),
            Workload::Pdf { .. } => false,
        };
        patch_point_tree_slot(
            &mut self.point_tree,
            still_certain,
            remove,
            insert,
            &self.io,
        );
    }

    /// Explains one non-answer with the configured strategy and `α` —
    /// a thin shim over the planner: equivalent to running
    /// [`ExplainRequest::explain`] through [`ExplainSession::run`].
    pub fn explain(&self, q: &Point, an: ObjectId) -> Result<CrpOutcome, CrpError> {
        plan::one(self, ExplainRequest::explain(q, an))
    }

    /// Explains one non-answer with an explicit strategy and `α`.
    #[deprecated(
        since = "0.2.0",
        note = "build an `ExplainRequest` (`.with_strategy(..).with_alpha(..)`) and run it \
                through `ExplainSession::run`, which also plans whole workloads"
    )]
    pub fn explain_as(
        &self,
        strategy: ExplainStrategy,
        q: &Point,
        alpha: f64,
        an: ObjectId,
    ) -> Result<CrpOutcome, CrpError> {
        plan::one(
            self,
            ExplainRequest::explain(q, an)
                .with_strategy(strategy)
                .with_alpha(alpha),
        )
    }

    /// Explain with a per-call [`CpConfig`] override — the ablation
    /// experiments sweep lemma switches over one session this way, so
    /// the index is built once per dataset instead of once per
    /// variant. Equivalent to an [`ExplainRequest`] with
    /// `.with_cp(*cp)`.
    pub fn explain_configured(
        &self,
        strategy: ExplainStrategy,
        q: &Point,
        alpha: f64,
        an: ObjectId,
        cp: &CpConfig,
    ) -> Result<CrpOutcome, CrpError> {
        plan::one(
            self,
            ExplainRequest::explain(q, an)
                .with_strategy(strategy)
                .with_alpha(alpha)
                .with_cp(*cp),
        )
    }

    /// The pre-planner per-call dispatch, kept as a benchmarking seam:
    /// `plan_sweep` measures the planner's overhead against this
    /// baseline. Not part of the public API surface.
    #[doc(hidden)]
    pub fn explain_direct(
        &self,
        strategy: ExplainStrategy,
        q: &Point,
        alpha: f64,
        an: ObjectId,
        cp: &CpConfig,
    ) -> Result<CrpOutcome, CrpError> {
        // The pipelines fold their node accesses into `self.io`
        // themselves (passed as the `io` sink below), so error outcomes
        // — which already paid their tree traversal — are counted too.
        self.dispatch(strategy, q, alpha, an, cp)
    }

    /// Explains a batch of non-answers with the configured strategy,
    /// data-parallel over the batch when the session's `parallel` flag
    /// is set. Result order matches `ans`, and each element is
    /// bit-identical to what [`ExplainEngine::explain`] returns. A
    /// thin shim over [`ExplainRequest::batch`].
    pub fn explain_batch(&self, q: &Point, ans: &[ObjectId]) -> Vec<Result<CrpOutcome, CrpError>> {
        plan::execute(self, &[ExplainRequest::batch(q, ans)]).results
    }

    /// [`ExplainEngine::explain_batch`] with an explicit strategy and
    /// `α`.
    #[deprecated(
        since = "0.2.0",
        note = "build an `ExplainRequest::batch(..).with_strategy(..).with_alpha(..)` and run \
                it through `ExplainSession::run`, which also plans whole workloads"
    )]
    pub fn explain_batch_as(
        &self,
        strategy: ExplainStrategy,
        q: &Point,
        alpha: f64,
        ans: &[ObjectId],
    ) -> Vec<Result<CrpOutcome, CrpError>> {
        plan::execute(
            self,
            &[ExplainRequest::batch(q, ans)
                .with_strategy(strategy)
                .with_alpha(alpha)],
        )
        .results
    }

    /// The serial batch path (regardless of the `parallel` flag) — the
    /// reference the parallel path is tested against.
    #[deprecated(
        since = "0.2.0",
        note = "build an `ExplainRequest::batch(..).serial()` and run it through \
                `ExplainSession::run`"
    )]
    pub fn explain_batch_serial_as(
        &self,
        strategy: ExplainStrategy,
        q: &Point,
        alpha: f64,
        ans: &[ObjectId],
    ) -> Vec<Result<CrpOutcome, CrpError>> {
        plan::execute(
            self,
            &[ExplainRequest::batch(q, ans)
                .with_strategy(strategy)
                .with_alpha(alpha)
                .serial()],
        )
        .results
    }

    /// The stage-1 output for one non-answer: every candidate cause id
    /// (ascending) — the set the refinement stage consumes, before any
    /// matrix or FMCS work. For pdf sessions these are the region hits
    /// of the per-quadrant windows.
    ///
    /// A shard worker answers its share of this list with
    /// [`merge::shard_share`]; merging every share with
    /// [`merge::merge_candidate_ids`] gives back exactly this list.
    pub fn candidate_ids(&self, q: &Point, an: ObjectId) -> Result<Vec<ObjectId>, CrpError> {
        match &self.data {
            Workload::Discrete(ds) => {
                if ds.is_empty() {
                    return Err(CrpError::EmptyDataset);
                }
                let an_pos = ds.index_of(an).ok_or(CrpError::UnknownObject(an))?;
                let mut stats = RunStats::default();
                let filter = SampleWindowFilter::new(self.packed(self.object_tree()));
                let positions = filter.candidates(ds, q, an_pos, &mut stats);
                self.io.absorb(stats.query);
                let mut ids: Vec<ObjectId> = positions
                    .into_iter()
                    .map(|pos| ds.object_at(pos).id())
                    .collect();
                ids.sort_unstable();
                Ok(ids)
            }
            Workload::Pdf { ds, .. } => {
                let tree = self.packed(self.guarded_pdf_tree(ds)?);
                let an_obj = ds.get(an).ok_or(CrpError::UnknownObject(an))?;
                let windows = crate::pdf::pdf_windows(q, an_obj.region());
                let mut query = QueryStats::default();
                let hits = pipeline::tree_region_hits(tree, &windows, an, &mut query);
                self.io.absorb(query);
                Ok(hits)
            }
        }
    }

    /// Builds the index a strategy needs *before* a parallel batch, so
    /// tree construction happens once up front instead of inside the
    /// first worker that wins the `OnceLock` race.
    fn prepare(&self, strategy: ExplainStrategy) {
        let strategy = self.resolve(strategy);
        match strategy {
            ExplainStrategy::Cp | ExplainStrategy::NaiveI { .. } if !self.is_empty_data() => {
                self.object_tree();
            }
            ExplainStrategy::Cr
            | ExplainStrategy::CrKskyband { .. }
            | ExplainStrategy::NaiveII { .. } => {
                if let Workload::Discrete(ds) = &self.data {
                    if !ds.is_empty() && ds.is_certain() {
                        self.point_tree();
                    }
                }
            }
            _ => {}
        }
    }

    fn is_empty_data(&self) -> bool {
        match &self.data {
            Workload::Discrete(ds) => ds.is_empty(),
            Workload::Pdf { ds, .. } => ds.is_empty(),
        }
    }

    /// Resolves [`ExplainStrategy::Auto`] against the workload.
    fn resolve(&self, strategy: ExplainStrategy) -> ExplainStrategy {
        match (strategy, &self.data) {
            (ExplainStrategy::Auto, Workload::Discrete(ds))
                if ds.is_certain() && !ds.is_empty() =>
            {
                ExplainStrategy::Cr
            }
            (ExplainStrategy::Auto, _) => ExplainStrategy::Cp,
            (s, _) => s,
        }
    }

    fn dispatch(
        &self,
        strategy: ExplainStrategy,
        q: &Point,
        alpha: f64,
        an: ObjectId,
        cp: &CpConfig,
    ) -> Result<CrpOutcome, CrpError> {
        let strategy = self.resolve(strategy);
        match &self.data {
            Workload::Discrete(ds) => match strategy {
                ExplainStrategy::Cp => self.cached_cp_discrete(ds, q, an, alpha, cp),
                ExplainStrategy::CpUnindexed => {
                    pipeline::run_probabilistic(ds, q, an, alpha, cp, &ScanFilter, Some(&self.io))
                }
                ExplainStrategy::NaiveI { max_subsets } => {
                    let config = CpConfig {
                        max_subsets,
                        ..CpConfig::naive()
                    };
                    pipeline::run_probabilistic(
                        ds,
                        q,
                        an,
                        alpha,
                        &config,
                        &SampleWindowFilter::new(self.packed(self.guarded_object_tree(ds)?)),
                        Some(&self.io),
                    )
                }
                ExplainStrategy::Cr => {
                    self.cached_certain(ds, strategy, q, alpha, an, cp, &Lemma7ClosedForm { k: 0 })
                }
                ExplainStrategy::CrKskyband { k } => {
                    self.cached_certain(ds, strategy, q, alpha, an, cp, &Lemma7ClosedForm { k })
                }
                ExplainStrategy::NaiveII { max_subsets } => self.cached_certain(
                    ds,
                    strategy,
                    q,
                    alpha,
                    an,
                    cp,
                    &SubsetVerify { max_subsets },
                ),
                ExplainStrategy::OracleCp => {
                    oracle_cp(ds, q, an, alpha).map(|causes| oracle_outcome(ds, causes))
                }
                ExplainStrategy::OracleCr => {
                    oracle_cr(ds, q, an).map(|causes| oracle_outcome(ds, causes))
                }
                ExplainStrategy::Auto => unreachable!("resolved above"),
            },
            Workload::Pdf { ds, resolution } => match strategy {
                ExplainStrategy::Cp => self.cached_cp_pdf(ds, q, an, alpha, *resolution, cp),
                ExplainStrategy::NaiveI { max_subsets } => {
                    let config = CpConfig {
                        max_subsets,
                        ..CpConfig::naive()
                    };
                    pipeline::run_pdf(
                        ds,
                        self.packed(self.guarded_pdf_tree(ds)?),
                        q,
                        an,
                        alpha,
                        *resolution,
                        &config,
                        Some(&self.io),
                    )
                }
                other => Err(CrpError::UnsupportedStrategy {
                    strategy: other.name(),
                    workload: "pdf",
                }),
            },
        }
    }

    /// The indexed CP path with the explanation cache in front of it:
    /// outcome hit → return; row hit → re-run only the α-dependent
    /// refinement over the memoised matrix; miss → full pipeline, then
    /// populate both layers. Served results are identical to a fresh
    /// computation (the cached rows carry their original traversal
    /// stats, and refinement is deterministic). The protocol body is
    /// [`cache::serve_cp_discrete`] — the single seam shared with the
    /// plan executor.
    fn cached_cp_discrete(
        &self,
        ds: &UncertainDataset,
        q: &Point,
        an: ObjectId,
        alpha: f64,
        cp: &CpConfig,
    ) -> Result<CrpOutcome, CrpError> {
        crate::matrix::with_scratch(|scratch| {
            cache::serve_cp_discrete(
                &self.cache,
                &self.io,
                ds,
                q,
                an,
                alpha,
                cp,
                &mut ServeTrace::default(),
                scratch,
                |an_pos, stats| self.fresh_stage1_discrete(q, an_pos, stats),
            )
        })
    }

    /// The pdf CP path with the same two-layer cache as
    /// [`ExplainEngine::cached_cp_discrete`].
    fn cached_cp_pdf(
        &self,
        ds: &PdfDataset,
        q: &Point,
        an: ObjectId,
        alpha: f64,
        resolution: usize,
        cp: &CpConfig,
    ) -> Result<CrpOutcome, CrpError> {
        crate::matrix::with_scratch(|scratch| {
            cache::serve_cp_pdf(
                &self.cache,
                &self.io,
                ds,
                q,
                an,
                alpha,
                cp,
                &mut ServeTrace::default(),
                scratch,
                |_windows, stats| self.fresh_stage1_pdf(q, an, resolution, stats),
            )
        })
    }

    /// The certain-data strategies behind the outcome cache. Entries
    /// are flagged `certain` so updates that may change the dataset's
    /// global certainty flush them; within a certain dataset the
    /// dominance window of `(an, q)` is the full dependence region.
    #[allow(clippy::too_many_arguments)]
    fn cached_certain(
        &self,
        ds: &UncertainDataset,
        strategy: ExplainStrategy,
        q: &Point,
        alpha: f64,
        an: ObjectId,
        cp: &CpConfig,
        search: &dyn certain::CertainSearch,
    ) -> Result<CrpOutcome, CrpError> {
        // Preconditions first: failing calls stay uncached (and must
        // not consult the cache, whose entries assume they hold).
        if ds.is_empty() || !ds.is_certain() || ds.index_of(an).is_none() {
            return run_certain(
                ds,
                self.guarded_point_tree(ds)?,
                q,
                an,
                search,
                Some(&self.io),
            );
        }
        if let Some(hit) = self.cache.lookup_outcome(an, q, alpha, strategy, cp) {
            return hit;
        }
        let an_point = ds.get(an).expect("checked above").certain_point();
        let region = crp_geom::dominance_rect(an_point, q);
        let result = run_certain(
            ds,
            self.guarded_point_tree(ds)?,
            q,
            an,
            search,
            Some(&self.io),
        );
        self.cache
            .store_outcome(an, q, alpha, strategy, cp, region, true, &result);
        result
    }

    /// The pdf region tree, with empty datasets surfaced as the
    /// pipeline's `EmptyDataset` error instead of an index-build panic.
    fn guarded_pdf_tree(&self, ds: &PdfDataset) -> Result<&RTree<ObjectId>, CrpError> {
        if ds.is_empty() {
            return Err(CrpError::EmptyDataset);
        }
        Ok(self.object_tree())
    }

    /// The object tree, with empty datasets surfaced as the pipeline's
    /// `EmptyDataset` error instead of an index-build panic.
    fn guarded_object_tree(&self, ds: &UncertainDataset) -> Result<&RTree<ObjectId>, CrpError> {
        if ds.is_empty() {
            return Err(CrpError::EmptyDataset);
        }
        Ok(self.object_tree())
    }

    /// The point tree, with the certain-data preconditions surfaced as
    /// pipeline errors instead of index-build panics.
    fn guarded_point_tree(&self, ds: &UncertainDataset) -> Result<&RTree<ObjectId>, CrpError> {
        if ds.is_empty() {
            return Err(CrpError::EmptyDataset);
        }
        if !ds.is_certain() {
            return Err(CrpError::NotCertainData);
        }
        Ok(self.point_tree())
    }
}

/// The stage-1 seams of the plan executor ([`plan`]): the session
/// serves stage 1 from its single object tree and accounts traversal
/// in its own accumulator.
impl ExplainEngine {
    /// The discrete CP stage 1: the multi-window filter over the object
    /// tree, then the dominance-matrix build.
    fn fresh_stage1_discrete(
        &self,
        q: &Point,
        an_pos: usize,
        stats: &mut RunStats,
    ) -> Result<pipeline::StageOne, CrpError> {
        let ds = self.discrete();
        let tree = self.guarded_object_tree(ds)?;
        Ok(pipeline::stage1_probabilistic(
            ds,
            q,
            an_pos,
            &SampleWindowFilter::new(self.packed(tree)),
            stats,
        ))
    }

    /// The pdf CP stage 1: region hits of the per-quadrant windows,
    /// then the discretised matrix build.
    fn fresh_stage1_pdf(
        &self,
        q: &Point,
        an: ObjectId,
        resolution: usize,
        stats: &mut RunStats,
    ) -> Result<pipeline::StageOne, CrpError> {
        let ds = self.pdf();
        let tree = self.packed(self.guarded_pdf_tree(ds)?);
        Ok(pipeline::stage1_pdf(ds, tree, q, an, resolution, stats))
    }

    /// Every indexed id whose MBR/region intersects `region`
    /// (ascending, deduplicated, `exclude` removed) — the coverage list
    /// containment-derived plan units are filtered from.
    fn coverage_ids(
        &self,
        region: &HyperRect,
        exclude: ObjectId,
        stats: &mut RunStats,
    ) -> Result<Vec<ObjectId>, CrpError> {
        let tree = match &self.data {
            Workload::Discrete(ds) => self.guarded_object_tree(ds)?,
            Workload::Pdf { ds, .. } => self.guarded_pdf_tree(ds)?,
        };
        Ok(pipeline::tree_region_hits(
            self.packed(tree),
            std::slice::from_ref(region),
            exclude,
            &mut stats.query,
        ))
    }

    /// Fuses a plan's traversing units into one grouped descent of the
    /// packed image, each shared upper node read a single time.
    /// Per-group hit lists and counters are exactly what each unit's
    /// solo descent produces (the packed traversal threads group
    /// liveness down the tree), so planned outcomes — including their
    /// per-explain `QueryStats` — stay bit-identical to unfused
    /// execution; only the *physical* node reads shrink, which the
    /// `filter_sweep` bench measures. `None` when the dataset is empty.
    ///
    /// The pre-pass is eager: a unit later served from the session
    /// cache wastes its share of the descent. That trade is accepted —
    /// cold plans (the planner's main workload) fuse fully, and the
    /// wasted share on warm plans is one already-shared descent.
    fn fused_unit_hits(
        &self,
        groups: &[plan::FusedGroup],
    ) -> Option<Vec<(Vec<ObjectId>, QueryStats)>> {
        if self.is_empty_data() {
            return None;
        }
        let packed = self.packed(self.object_tree());
        let window_refs: Vec<&[HyperRect]> = groups.iter().map(|g| g.windows.as_slice()).collect();
        let mut shared = QueryStats::default();
        let mut per_group = vec![QueryStats::default(); groups.len()];
        let mut hits: Vec<Vec<ObjectId>> = vec![Vec::new(); groups.len()];
        packed.visit_grouped_stats(
            &window_refs,
            &mut shared,
            Some(&mut per_group),
            &mut |g, &id| {
                if id != groups[g].exclude {
                    hits[g].push(id);
                }
                true
            },
        );
        // The shared physical cost stays out of the session I/O
        // accumulator on purpose: the session metric is the sum of
        // logical per-query costs (the paper's node-access measure),
        // which the per-group counters preserve exactly.
        Some(
            hits.into_iter()
                .zip(per_group)
                .map(|(mut h, qs)| {
                    h.sort_unstable();
                    h.dedup();
                    (h, qs)
                })
                .collect(),
        )
    }
}

/// Incrementally patches a lazily built object/region tree for one
/// update — `remove` then `insert`, folding the maintenance counters
/// (reinserts; the logical insert/remove is counted by the caller's
/// `apply`) into `io`. An unbuilt tree needs no patch: it will be
/// built lazily from the current dataset. The rare dimension-switch
/// case (the dataset was emptied and restarted with different
/// dimensionality) drops the tree for a lazy rebuild instead.
fn patch_rect_tree(
    slot: &mut OnceLock<RTree<ObjectId>>,
    remove: Option<(HyperRect, ObjectId)>,
    insert: Option<(HyperRect, ObjectId)>,
    io: &AtomicQueryStats,
) {
    let dim = insert.as_ref().or(remove.as_ref()).map(|(r, _)| r.dim());
    match (slot.get().map(|t| t.dim()), dim) {
        (Some(td), Some(d)) if td != d => {
            *slot = OnceLock::new();
            return;
        }
        (None, _) => return,
        _ => {}
    }
    let tree = slot.get_mut().expect("checked above");
    if let Some((rect, id)) = remove {
        let removed = tree.remove(&rect, &id);
        debug_assert!(removed, "indexed object {id} missing from the tree");
    }
    if let Some((rect, id)) = insert {
        tree.insert(rect, id);
    }
    let mut upkeep = tree.take_upkeep();
    upkeep.inserts = 0;
    upkeep.removes = 0;
    io.absorb(upkeep);
}

/// [`patch_rect_tree`] for the certain-data point tree. Non-certain
/// objects cannot be indexed as points: when the dataset is
/// no longer certain, or the touched object had no indexable point on
/// either side, the tree is dropped and rebuilt lazily if/when the
/// data is certain again.
fn patch_point_tree_slot(
    slot: &mut OnceLock<RTree<ObjectId>>,
    still_certain: bool,
    remove: Option<(Point, ObjectId)>,
    insert: Option<(Point, ObjectId)>,
    io: &AtomicQueryStats,
) {
    if slot.get().is_none() {
        return;
    }
    if !still_certain || (remove.is_none() && insert.is_none()) {
        // `remove`/`insert` are both `None` exactly when the update
        // touched a non-certain object, whose point was never indexed —
        // but an earlier certain version of it may be. Dropping the
        // tree is the conservative correct move.
        *slot = OnceLock::new();
        return;
    }
    let (remove, insert) = (
        remove.map(|(p, id)| (HyperRect::from_point(&p), id)),
        insert.map(|(p, id)| (HyperRect::from_point(&p), id)),
    );
    patch_rect_tree(slot, remove, insert, io);
}

/// Converts the oracle's position-level causes into the engine's
/// id-level [`CrpOutcome`].
fn oracle_outcome(ds: &UncertainDataset, causes: Vec<(ObjectId, OracleCause)>) -> CrpOutcome {
    let causes = causes
        .into_iter()
        .map(|(id, c)| Cause {
            id,
            responsibility: c.responsibility(),
            counterfactual: c.min_gamma.is_empty(),
            min_contingency: c
                .min_gamma
                .into_iter()
                .map(|pos| ds.object_at(pos).id())
                .collect(),
        })
        .collect();
    CrpOutcome {
        causes,
        stats: Default::default(),
    }
}

#[cfg(test)]
// The deprecated `explain_*_as` entry points are exercised on purpose:
// these tests pin that the thin shims stay bit-identical to the
// planner path they forward into.
#[allow(deprecated)]
mod tests {
    use super::*;
    use crp_uncertain::UncertainObject;

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    fn uncertain_fixture() -> UncertainDataset {
        UncertainDataset::from_objects(vec![
            UncertainObject::certain(ObjectId(0), pt(10.0, 10.0)),
            UncertainObject::certain(ObjectId(1), pt(7.0, 7.0)),
            UncertainObject::with_equal_probs(ObjectId(2), vec![pt(8.0, 9.0), pt(30.0, 30.0)])
                .unwrap(),
            UncertainObject::certain(ObjectId(3), pt(40.0, 40.0)),
        ])
        .unwrap()
    }

    #[test]
    #[allow(deprecated)]
    fn engine_matches_free_cp() {
        let ds = uncertain_fixture();
        let engine = ExplainEngine::new(ds.clone(), EngineConfig::with_alpha(0.75))
            .expect("valid engine config");
        let tree = build_object_rtree(&ds, RTreeParams::paper_default(2));
        let q = pt(5.0, 5.0);
        let a = engine.explain(&q, ObjectId(0)).unwrap();
        let b = crate::cp(&ds, &tree, &q, ObjectId(0), 0.75, &CpConfig::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            engine.accumulated_io().node_accesses,
            a.stats.query.node_accesses
        );
    }

    #[test]
    fn auto_resolves_by_workload() {
        let certain = UncertainDataset::from_points(vec![pt(10.0, 10.0), pt(7.0, 7.0)]).unwrap();
        let engine =
            ExplainEngine::new(certain, EngineConfig::default()).expect("valid engine config");
        // Auto on certain data runs CR: no α involved, single
        // counterfactual cause.
        let out = engine.explain(&pt(5.0, 5.0), ObjectId(0)).unwrap();
        assert!(out.causes[0].counterfactual);

        let uncertain = uncertain_fixture();
        let engine = ExplainEngine::new(uncertain, EngineConfig::with_alpha(0.75))
            .expect("valid engine config");
        let out = engine.explain(&pt(5.0, 5.0), ObjectId(0)).unwrap();
        assert_eq!(out.causes.len(), 2, "CP path found both causes");
    }

    #[test]
    fn batch_parallel_matches_serial_exactly() {
        let ds = uncertain_fixture();
        let engine =
            ExplainEngine::new(ds, EngineConfig::with_alpha(0.75)).expect("valid engine config");
        let q = pt(5.0, 5.0);
        let ids: Vec<ObjectId> = (0..4).map(ObjectId).collect();
        let par = engine.explain_batch(&q, &ids);
        let ser = engine.explain_batch_serial_as(ExplainStrategy::Auto, &q, 0.75, &ids);
        assert_eq!(par, ser);
    }

    #[test]
    fn strategies_share_the_session() {
        let ds = UncertainDataset::from_points(vec![
            pt(10.0, 10.0),
            pt(7.0, 7.0),
            pt(6.0, 8.0),
            pt(8.0, 6.0),
        ])
        .unwrap();
        let engine = ExplainEngine::new(ds, EngineConfig::default()).expect("valid engine config");
        let q = pt(5.0, 5.0);
        let cr = engine
            .explain_as(ExplainStrategy::Cr, &q, 0.5, ObjectId(0))
            .unwrap();
        let naive = engine
            .explain_as(
                ExplainStrategy::NaiveII { max_subsets: None },
                &q,
                0.5,
                ObjectId(0),
            )
            .unwrap();
        let oracle = engine
            .explain_as(ExplainStrategy::OracleCr, &q, 0.5, ObjectId(0))
            .unwrap();
        assert_eq!(cr.causes.len(), naive.causes.len());
        assert_eq!(cr.causes.len(), oracle.causes.len());
        for ((a, b), c) in cr.causes.iter().zip(&naive.causes).zip(&oracle.causes) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.id, c.id);
            assert_eq!(a.min_contingency.len(), b.min_contingency.len());
            assert_eq!(a.min_contingency.len(), c.min_contingency.len());
        }
        // The kskyband generalisation at k = 0 agrees with CR.
        let ksky = engine
            .explain_as(ExplainStrategy::CrKskyband { k: 0 }, &q, 0.5, ObjectId(0))
            .unwrap();
        assert_eq!(cr, ksky);
    }

    #[test]
    fn invalid_configs_are_rejected_at_construction() {
        let ds = uncertain_fixture();
        for alpha in [0.0, -0.25, 1.5, f64::NAN, f64::INFINITY] {
            let err = ExplainEngine::new(ds.clone(), EngineConfig::with_alpha(alpha))
                .err()
                .expect("construction must fail");
            assert!(
                matches!(err, CrpError::InvalidConfig { field: "alpha", .. }),
                "alpha = {alpha}: {err:?}"
            );
        }
        let bad_tree = EngineConfig {
            rtree: Some(RTreeParams {
                min_entries: 0,
                ..RTreeParams::with_fanout(8)
            }),
            ..EngineConfig::default()
        };
        assert!(matches!(
            ExplainEngine::new(ds.clone(), bad_tree)
                .err()
                .expect("construction must fail"),
            CrpError::InvalidConfig {
                field: "rtree.min_entries",
                ..
            }
        ));
        let lopsided = EngineConfig {
            rtree: Some(RTreeParams {
                min_entries: 5,
                max_entries: 8,
                ..RTreeParams::with_fanout(8)
            }),
            ..EngineConfig::default()
        };
        assert!(matches!(
            ExplainEngine::new(ds.clone(), lopsided)
                .err()
                .expect("construction must fail"),
            CrpError::InvalidConfig {
                field: "rtree.max_entries",
                ..
            }
        ));
        let zero_budget = EngineConfig {
            cp: CpConfig {
                max_subsets: Some(0),
                ..CpConfig::default()
            },
            ..EngineConfig::default()
        };
        assert!(matches!(
            ExplainEngine::new(ds, zero_budget)
                .err()
                .expect("construction must fail"),
            CrpError::InvalidConfig {
                field: "cp.max_subsets",
                ..
            }
        ));
        // The pdf constructor additionally validates the resolution.
        assert!(matches!(
            ExplainEngine::for_pdf(PdfDataset::new(), 0, EngineConfig::default())
                .err()
                .expect("construction must fail"),
            CrpError::InvalidConfig {
                field: "resolution",
                ..
            }
        ));
    }

    #[test]
    fn apply_patches_trees_and_advances_epochs() {
        use crp_uncertain::Epoch;
        let mut engine = ExplainEngine::new(uncertain_fixture(), EngineConfig::with_alpha(0.75))
            .expect("valid engine config");
        let q = pt(5.0, 5.0);
        // Build the tree and a baseline explanation.
        let before = engine.explain(&q, ObjectId(0)).unwrap();
        assert!(!before.causes.is_empty());
        let epoch0 = engine.epoch();
        assert_eq!(epoch0, Epoch(4), "construction pushed four objects");

        // Insert a new dominator between the non-answer and the query.
        // A fork reads the post-insert state (rebuilding its own
        // packed image) without warming the writer's.
        let e1 = engine
            .apply(Update::Insert(UncertainObject::certain(
                ObjectId(9),
                pt(6.5, 6.5),
            )))
            .unwrap();
        assert_eq!(e1, epoch0.next());
        let after_insert = engine.fork().explain(&q, ObjectId(0)).unwrap();
        assert!(
            after_insert.cause(ObjectId(9)).is_some(),
            "inserted object must become a cause"
        );

        // Delete it again, then move object 1 out of the window.
        let e2 = engine.apply(Update::Delete(ObjectId(9))).unwrap();
        assert!(e2 > e1);
        engine
            .apply(Update::Replace(UncertainObject::certain(
                ObjectId(1),
                pt(90.0, 90.0),
            )))
            .unwrap();
        let after_replace = engine.explain(&q, ObjectId(0)).unwrap();
        assert!(after_replace.cause(ObjectId(9)).is_none());
        assert!(after_replace.cause(ObjectId(1)).is_none());
        let fresh = ExplainEngine::new(engine.dataset().clone(), EngineConfig::with_alpha(0.75))
            .unwrap()
            .explain(&q, ObjectId(0))
            .unwrap();
        assert_eq!(after_replace.causes, fresh.causes);

        // The update-path counters surfaced in the session totals.
        let io = engine.accumulated_io();
        assert_eq!(io.inserts, 2, "insert + replace");
        assert_eq!(io.removes, 2, "delete + replace");
        assert!(io.cache_evictions > 0, "updates evicted cached entries");
        // The three applies only invalidated the packed image (the
        // object tree was warm before the first apply; the point tree
        // is never built for this uncertain fixture): the one explain
        // after them rebuilt it once, and a warm image costs nothing.
        assert_eq!(io.refreezes, 1, "one lazy refreeze for three updates");
        engine.explain(&q, ObjectId(2)).unwrap();
        assert_eq!(engine.accumulated_io().refreezes, 1);

        // Error paths: unknown delete, duplicate insert, wrong workload.
        assert_eq!(
            engine.apply(Update::Delete(ObjectId(42))).unwrap_err(),
            CrpError::UnknownObject(ObjectId(42))
        );
        assert!(matches!(
            engine
                .apply(Update::Insert(UncertainObject::certain(
                    ObjectId(0),
                    pt(1.0, 1.0)
                )))
                .unwrap_err(),
            CrpError::InvalidUpdate { .. }
        ));
        assert!(matches!(
            engine.apply_pdf(Update::Delete(ObjectId(0))).unwrap_err(),
            CrpError::InvalidUpdate { .. }
        ));
    }

    #[test]
    fn alpha_sweep_hits_the_row_cache() {
        let engine = ExplainEngine::new(uncertain_fixture(), EngineConfig::with_alpha(0.75))
            .expect("valid engine config");
        let q = pt(5.0, 5.0);
        let first = engine
            .explain_as(ExplainStrategy::Cp, &q, 0.75, ObjectId(0))
            .unwrap();
        let paid = engine.accumulated_io().node_accesses;
        assert!(paid > 0);
        // Different α over the same non-answer: stage 1 is served from
        // the row cache — no further node accesses — and the outcome
        // stats still replay the original traversal cost.
        let swept = engine
            .explain_as(ExplainStrategy::Cp, &q, 0.25, ObjectId(0))
            .unwrap();
        assert_eq!(engine.accumulated_io().node_accesses, paid);
        assert_eq!(
            swept.stats.query.node_accesses,
            first.stats.query.node_accesses
        );
        assert_eq!(
            swept.stats.query.leaf_accesses,
            first.stats.query.leaf_accesses
        );
        // The refinement re-ran at the new α: its evaluator taps are
        // per-call counters, not replayed traversal.
        assert!(swept.stats.query.eval_fast + swept.stats.query.eval_slow > 0);
        // Identical request: outcome cache, bit-identical result.
        let repeat = engine
            .explain_as(ExplainStrategy::Cp, &q, 0.75, ObjectId(0))
            .unwrap();
        assert_eq!(repeat, first);
        let io = engine.accumulated_io();
        assert!(io.cache_hits >= 2, "row hit + outcome hit, got {io:?}");
        let (rows, outcomes) = engine.cache_len();
        assert_eq!(rows, 1);
        assert_eq!(outcomes, 2);
    }

    #[test]
    fn invalidated_explains_coalesce_on_one_computation() {
        // The first-reader stampede: after an update invalidates the
        // cache, many concurrent explains for the same (an, q, α) must
        // coalesce on a single pipeline computation (one traversal, one
        // eval burst) instead of all recomputing.
        let q = pt(5.0, 5.0);
        let make = || {
            let mut engine =
                ExplainEngine::new(uncertain_fixture(), EngineConfig::with_alpha(0.75))
                    .expect("valid engine config");
            let _ = engine.explain(&q, ObjectId(0)).unwrap(); // warm the cache
            engine
                .apply(Update::Insert(UncertainObject::certain(
                    ObjectId(9),
                    pt(6.5, 6.5),
                )))
                .unwrap();
            engine.reset_io();
            engine
        };

        // Reference: what exactly one fresh post-invalidation explain
        // pays (traversal + the single eval_fast/eval_slow burst).
        let solo = make();
        let baseline = solo.explain(&q, ObjectId(0)).unwrap();
        let one_burst = solo.accumulated_io();
        assert!(
            one_burst.node_accesses > 0,
            "fresh explain pays a traversal"
        );
        assert!(
            baseline.stats.query.eval_fast + baseline.stats.query.eval_slow > 0,
            "refinement ran"
        );

        // Eight concurrent explains against one invalidated session.
        let shared = make();
        let outcomes: Vec<CrpOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| shared.explain(&q, ObjectId(0)).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every thread sees the leader's outcome, bit-identical down to
        // the replayed traversal cost and evaluator taps.
        for out in &outcomes {
            assert_eq!(*out, baseline);
        }
        let io = shared.accumulated_io();
        // Exactly one burst was paid: the session totals show a single
        // fresh traversal, not eight.
        assert_eq!(io.node_accesses, one_burst.node_accesses);
        // The other seven explains were served from the outcome layer
        // (waiting out the leader, or hitting the cache outright).
        assert_eq!(io.cache_hits, 7, "got {io:?}");
    }

    #[test]
    fn pdf_workload_supports_cp_only() {
        use crp_geom::HyperRect;
        use crp_uncertain::PdfObject;
        let ds = PdfDataset::from_objects(vec![
            PdfObject::uniform(ObjectId(0), HyperRect::new(pt(9.5, 9.5), pt(10.5, 10.5))),
            PdfObject::uniform(ObjectId(1), HyperRect::new(pt(6.9, 6.9), pt(7.1, 7.1))),
        ])
        .unwrap();
        let engine = ExplainEngine::for_pdf(ds, 3, EngineConfig::with_alpha(0.5))
            .expect("valid engine config");
        let q = pt(5.0, 5.0);
        let out = engine.explain(&q, ObjectId(0)).unwrap();
        assert!(out.cause(ObjectId(1)).is_some());
        assert!(matches!(
            engine.explain_as(ExplainStrategy::Cr, &q, 0.5, ObjectId(0)),
            Err(CrpError::UnsupportedStrategy { .. })
        ));
        // An empty pdf session errors like the discrete path instead of
        // panicking in the index build.
        let empty = ExplainEngine::for_pdf(PdfDataset::new(), 3, EngineConfig::default())
            .expect("valid engine config");
        assert_eq!(
            empty.explain(&q, ObjectId(0)).unwrap_err(),
            CrpError::EmptyDataset
        );
    }
}
