//! The **ExplainEngine**: a per-dataset session that answers "why is
//! this object not in the (probabilistic) reverse skyline?" through one
//! explicit three-stage pipeline — `filter → refine → fmcs` — with
//! pluggable stage implementations.
//!
//! The engine owns the state every algorithm needs:
//!
//! * the dataset (discrete-sample or continuous-pdf workload),
//! * one lazily built R-tree over the object MBRs (regions, for pdf
//!   workloads), shared by every explain call and read through its
//!   packed image — on certain data a one-sample object's MBR is its
//!   point, so CR's dominance window reads the same tree,
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
//! Every explain goes through the planner: build an [`ExplainRequest`]
//! (strategy, α, lemma switches, budgets) and run it with
//! [`ExplainSession::run`]; [`ExplainEngine::explain`] and
//! [`ExplainEngine::explain_batch`] are the session-default shorthands.
//! A batch runs data-parallel with `rayon` (order-preserving, so
//! results are **bit-identical** to the serial path — a property the
//! test suite pins).
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
pub mod certain;
pub mod filter;
pub(crate) mod fmcs;
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
use certain::{run_certain, Lemma7ClosedForm, SubsetVerify};
use crp_geom::{HyperRect, Point};
use crp_rtree::{AtomicQueryStats, PackedRTree, QueryStats, RTree, RTreeParams};
use crp_skyline::build_object_rtree;
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
        /// A check cap (`None` = none). Its only reader is the plan
        /// executor, which merges it into the request's
        /// [`PlanLimits`] (`merge_min`), so it stops with the same
        /// typed `Partial` as
        /// [`ExplainRequest::with_check_budget`]. Kept only because
        /// `perfbench/src/offline.rs` builds `NaiveI { max_subsets:
        /// None }`; the next benchmark change drops it.
        max_subsets: Option<u64>,
    },
    /// The certain-data algorithm *CR* (Lemma 7, verification-free).
    Cr,
    /// CRP for reverse k-skyband non-answers (closed form; `k = 0` is
    /// [`Cr`](ExplainStrategy::Cr)).
    CrKskyband { k: usize },
    /// The Naive-II baseline: CR's filter, subset verification.
    NaiveII {
        /// A check cap, merged into the plan limits exactly like
        /// Naive-I's (and dropped with it).
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
    /// Lemma switches for the refinement stages.
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
    /// (α outside `(0, 1]`) at query time.
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

/// A per-dataset explain session: owns the dataset, the R-tree and the
/// cross-call accounting. See the [module docs](self) for the pipeline
/// it dispatches.
pub struct ExplainEngine {
    data: Workload,
    config: EngineConfig,
    /// Object-MBR tree (CP and CR filtering) — for pdf workloads, the
    /// region tree. Incrementally patched by [`ExplainEngine::apply`].
    object_tree: OnceLock<RTree<ObjectId>>,
    /// Node accesses and update-path work accumulated across every
    /// explain/apply call (including parallel batches).
    io: AtomicQueryStats,
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
            io: AtomicQueryStats::new(),
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
            io: AtomicQueryStats::new(),
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
    /// starts fresh.
    /// Explains against the fork are bit-identical to explains against
    /// the source at the moment of forking; this is the read-side half
    /// of the MVCC session ([`mvcc::MvccEngine`]).
    pub fn fork(&self) -> Self {
        Self {
            data: self.data.clone(),
            config: self.config,
            object_tree: clone_slot(&self.object_tree),
            io: AtomicQueryStats::new(),
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

    /// Total node accesses and update-path work across every
    /// explain/apply call so far (including parallel batches),
    /// thread-safe.
    pub fn accumulated_io(&self) -> QueryStats {
        self.io.snapshot()
    }

    /// Resets the I/O accumulator, returning the totals so far.
    pub fn reset_io(&self) -> QueryStats {
        self.io.take()
    }

    /// The dataset version this session currently serves: advanced by
    /// every applied update.
    pub fn epoch(&self) -> Epoch {
        match &self.data {
            Workload::Discrete(ds) => ds.epoch(),
            Workload::Pdf { ds, .. } => ds.epoch(),
        }
    }

    /// Applies one update to a discrete-sample session: mutates the
    /// dataset and **incrementally patches** the object tree (condense +
    /// reinsert; never a bulk rebuild).
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
        let touched = update.id();
        match update {
            Update::Insert(obj) => {
                let mbr = obj.mbr();
                self.discrete_mut().push(obj).map_err(update_error)?;
                self.patch_object_tree(None, Some((mbr, touched)));
                self.io.absorb(QueryStats {
                    inserts: 1,
                    ..Default::default()
                });
            }
            Update::Delete(id) => {
                let old = self
                    .discrete_mut()
                    .remove(id)
                    .ok_or(CrpError::UnknownObject(id))?;
                self.patch_object_tree(Some((old.mbr(), id)), None);
                self.io.absorb(QueryStats {
                    removes: 1,
                    ..Default::default()
                });
            }
            Update::Replace(obj) => {
                let new_mbr = obj.mbr();
                let old = self.discrete_mut().replace(obj).map_err(update_error)?;
                self.patch_object_tree(Some((old.mbr(), touched)), Some((new_mbr, touched)));
                self.io.absorb(QueryStats {
                    inserts: 1,
                    removes: 1,
                    ..Default::default()
                });
            }
        }
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
        match update {
            Update::Insert(obj) => {
                let region = obj.region().clone();
                self.pdf_mut().push(obj).map_err(update_error)?;
                self.patch_object_tree(None, Some((region, touched)));
                self.io.absorb(QueryStats {
                    inserts: 1,
                    ..Default::default()
                });
            }
            Update::Delete(id) => {
                let old = self
                    .pdf_mut()
                    .remove(id)
                    .ok_or(CrpError::UnknownObject(id))?;
                self.patch_object_tree(Some((old.region().clone(), id)), None);
                self.io.absorb(QueryStats {
                    removes: 1,
                    ..Default::default()
                });
            }
            Update::Replace(obj) => {
                let new_region = obj.region().clone();
                let old = self.pdf_mut().replace(obj).map_err(update_error)?;
                self.patch_object_tree(
                    Some((old.region().clone(), touched)),
                    Some((new_region, touched)),
                );
                self.io.absorb(QueryStats {
                    inserts: 1,
                    removes: 1,
                    ..Default::default()
                });
            }
        }
        Ok(self.pdf().epoch())
    }

    /// Rebuilds the object tree's packed image if updates invalidated
    /// it, so forks taken afterwards share one warm image and no reader
    /// pays the rebuild inside its latency budget. [`mvcc::MvccEngine`]
    /// calls this once per published batch; a bare engine skips it and
    /// its first post-update read rebuilds lazily. Either way the
    /// rebuild counts once in [`QueryStats::refreezes`].
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

    /// Explains one non-answer with the configured strategy and `α` —
    /// a thin shim over the planner: equivalent to running
    /// [`ExplainRequest::explain`] through [`ExplainSession::run`].
    pub fn explain(&self, q: &Point, an: ObjectId) -> Result<CrpOutcome, CrpError> {
        plan::one(self, ExplainRequest::explain(q, an))
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

    /// Explains a batch of non-answers with the configured strategy,
    /// data-parallel over the batch when the session's `parallel` flag
    /// is set. Result order matches `ans`, and each element is
    /// bit-identical to what [`ExplainEngine::explain`] returns. A
    /// thin shim over [`ExplainRequest::batch`].
    pub fn explain_batch(&self, q: &Point, ans: &[ObjectId]) -> Vec<Result<CrpOutcome, CrpError>> {
        plan::execute(self, &[ExplainRequest::batch(q, ans)]).results
    }

    /// The stage-1 output for one non-answer: every candidate cause id
    /// (ascending) — the set the refinement stage consumes, before any
    /// matrix or FMCS work. For pdf sessions these are the region hits
    /// of the per-quadrant windows.
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
        let indexed = match self.resolve(strategy) {
            ExplainStrategy::Cp | ExplainStrategy::NaiveI { .. } => true,
            ExplainStrategy::Cr
            | ExplainStrategy::CrKskyband { .. }
            | ExplainStrategy::NaiveII { .. } => {
                matches!(&self.data, Workload::Discrete(ds) if ds.is_certain())
            }
            _ => false,
        };
        if indexed && !self.is_empty_data() {
            self.object_tree();
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

    /// The per-call strategies: everything but CP, which the planner
    /// always runs through a stage-1 unit.
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
                ExplainStrategy::CpUnindexed => {
                    pipeline::run_probabilistic(ds, q, an, alpha, cp, &ScanFilter, &self.io)
                }
                ExplainStrategy::NaiveI { .. } => {
                    self.run_indexed(ds, q, an, alpha, &CpConfig::naive())
                }
                ExplainStrategy::Cr => self.explain_certain(ds, q, an, &Lemma7ClosedForm { k: 0 }),
                ExplainStrategy::CrKskyband { k } => {
                    self.explain_certain(ds, q, an, &Lemma7ClosedForm { k })
                }
                ExplainStrategy::NaiveII { .. } => self.explain_certain(ds, q, an, &SubsetVerify),
                ExplainStrategy::OracleCp => {
                    oracle_cp(ds, q, an, alpha).map(|causes| oracle_outcome(ds, causes))
                }
                ExplainStrategy::OracleCr => {
                    oracle_cr(ds, q, an).map(|causes| oracle_outcome(ds, causes))
                }
                ExplainStrategy::Auto | ExplainStrategy::Cp => {
                    unreachable!("CP tasks run through a stage-1 unit")
                }
            },
            Workload::Pdf { ds, resolution } => match strategy {
                ExplainStrategy::Auto | ExplainStrategy::Cp => {
                    unreachable!("CP tasks run through a stage-1 unit")
                }
                ExplainStrategy::NaiveI { .. } => {
                    self.run_indexed_pdf(ds, q, an, alpha, *resolution, &CpConfig::naive())
                }
                other => Err(CrpError::UnsupportedStrategy {
                    strategy: other.name(),
                    workload: "pdf",
                }),
            },
        }
    }

    /// The indexed probabilistic pipeline with Naive-I's lemma
    /// switches over the packed object tree. Validation runs
    /// before the index is touched, so errors keep their precedence:
    /// α, then an empty dataset, then an unknown id.
    fn run_indexed(
        &self,
        ds: &UncertainDataset,
        q: &Point,
        an: ObjectId,
        alpha: f64,
        cp: &CpConfig,
    ) -> Result<CrpOutcome, CrpError> {
        pipeline::validate(ds, q, an, alpha)?;
        let filter = SampleWindowFilter::new(self.packed(self.object_tree()));
        pipeline::run_probabilistic(ds, q, an, alpha, cp, &filter, &self.io)
    }

    /// [`ExplainEngine::run_indexed`] for continuous-pdf sessions.
    fn run_indexed_pdf(
        &self,
        ds: &PdfDataset,
        q: &Point,
        an: ObjectId,
        alpha: f64,
        resolution: usize,
        cp: &CpConfig,
    ) -> Result<CrpOutcome, CrpError> {
        pipeline::validate_pdf(ds, an, alpha)?;
        let tree = self.packed(self.object_tree());
        pipeline::run_pdf(ds, tree, q, an, alpha, resolution, cp, &self.io)
    }

    /// The certain-data strategies over the object tree's packed image.
    /// The certain-data preconditions surface as pipeline errors —
    /// `EmptyDataset`, then `NotCertainData` — before the index is
    /// touched.
    fn explain_certain(
        &self,
        ds: &UncertainDataset,
        q: &Point,
        an: ObjectId,
        search: &dyn certain::CertainSearch,
    ) -> Result<CrpOutcome, CrpError> {
        if ds.is_empty() {
            return Err(CrpError::EmptyDataset);
        }
        if !ds.is_certain() {
            return Err(CrpError::NotCertainData);
        }
        run_certain(ds, self.packed(self.object_tree()), q, an, search, &self.io)
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
mod tests {
    use super::*;
    use crate::testkit::explain;
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
    fn engine_matches_free_cp() {
        let ds = uncertain_fixture();
        let engine = ExplainEngine::new(ds.clone(), EngineConfig::with_alpha(0.75))
            .expect("valid engine config");
        // The free pipeline over a caller-built tree's image.
        let tree = build_object_rtree(&ds, RTreeParams::paper_default(2));
        let q = pt(5.0, 5.0);
        let a = engine.explain(&q, ObjectId(0)).unwrap();
        let filter = SampleWindowFilter::new(tree.frozen());
        let b = pipeline::run_probabilistic(
            &ds,
            &q,
            ObjectId(0),
            0.75,
            &CpConfig::default(),
            &filter,
            &AtomicQueryStats::new(),
        )
        .unwrap();
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
        let ser = engine
            .run(&[ExplainRequest::batch(&q, &ids).with_alpha(0.75).serial()])
            .results;
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
        let cr = explain(&engine, ExplainStrategy::Cr, &q, ObjectId(0), 0.5).unwrap();
        let naive_ii = ExplainStrategy::NaiveII { max_subsets: None };
        let naive = explain(&engine, naive_ii, &q, ObjectId(0), 0.5).unwrap();
        let oracle = explain(&engine, ExplainStrategy::OracleCr, &q, ObjectId(0), 0.5).unwrap();
        assert_eq!(cr.causes.len(), naive.causes.len());
        assert_eq!(cr.causes.len(), oracle.causes.len());
        for ((a, b), c) in cr.causes.iter().zip(&naive.causes).zip(&oracle.causes) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.id, c.id);
            assert_eq!(a.min_contingency.len(), b.min_contingency.len());
            assert_eq!(a.min_contingency.len(), c.min_contingency.len());
        }
        // The kskyband generalisation at k = 0 agrees with CR.
        let ksky = explain(
            &engine,
            ExplainStrategy::CrKskyband { k: 0 },
            &q,
            ObjectId(0),
            0.5,
        )
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
            ExplainEngine::new(ds, lopsided)
                .err()
                .expect("construction must fail"),
            CrpError::InvalidConfig {
                field: "rtree.max_entries",
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
        // The three applies only invalidated the packed image (the
        // object tree was warm before the first apply): the one explain
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
    fn alpha_sweep_pays_one_traversal() {
        let q = pt(5.0, 5.0);
        let alphas = [0.25, 0.5, 0.75, 0.9];
        let fresh = || {
            ExplainEngine::new(uncertain_fixture(), EngineConfig::with_alpha(0.75))
                .expect("valid engine config")
        };
        let solo_io = {
            let engine = fresh();
            engine.explain(&q, ObjectId(0)).unwrap();
            engine.accumulated_io().node_accesses
        };
        assert!(solo_io > 0);

        // Four α over one non-answer: one stage-1 unit, one traversal.
        let engine = fresh();
        let report = engine
            .run(&[ExplainRequest::alpha_sweep(&q, ObjectId(0), alphas)
                .with_strategy(ExplainStrategy::Cp)]);
        assert_eq!(report.counters.stage1_units, 1);
        assert_eq!(report.counters.stage1_traversals, 1);
        assert_eq!(engine.accumulated_io().node_accesses, solo_io);

        // Every α is bit-identical to a fresh engine's solo explain,
        // stats included: each task's `stats.query` starts from the
        // unit's traversal, then adds its own refinement taps.
        for (alpha, swept) in alphas.iter().zip(&report.results) {
            let solo = fresh().explain_configured(
                ExplainStrategy::Cp,
                &q,
                *alpha,
                ObjectId(0),
                &CpConfig::default(),
            );
            assert_eq!(swept, &solo, "α = {alpha}");
        }
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
            explain(&engine, ExplainStrategy::Cr, &q, ObjectId(0), 0.5),
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
