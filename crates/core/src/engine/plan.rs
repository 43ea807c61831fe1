//! The **query planner**: `Request → Plan → Execute` over one engine
//! session.
//!
//! The paper's CP/CR algorithms are almost always invoked as
//! *workloads* — the same non-answer at many `α`, many non-answers at
//! one `q`, what-if re-explains of a whole grid of nearby queries —
//! yet per-call entry points can only see one `(q, an, α)` triple at a
//! time. This module adds the missing layer:
//!
//! 1. **Request** — a typed, builder-style [`ExplainRequest`]
//!    describing a workload (query grid × non-answer set × α list,
//!    with optional strategy/lemma-config overrides),
//! 2. **Plan** — the planner compiles one or more requests into
//!    *stage-1 work units*, deduplicated across the whole workload:
//!    one dominance-row computation per distinct `(an, q)`, which the
//!    unit hands to each of its tasks (an α-sweep pays one traversal),
//!    and — the cross-query rule — a unit whose filter-window bounding
//!    box is **contained** in another unit's box for the same `an` is
//!    *derived* from the larger unit's coverage list instead of paying
//!    its own R-tree traversal,
//! 3. **Execute** — the executor drives the plan over the
//!    [`ExplainEngine`], rayon-parallel across units, and returns a
//!    [`PlanReport`] with per-plan [`PlanCounters`].
//!
//! ## Why window containment is sound
//!
//! Stage 1 of CP finds every object with positive dominance
//! probability w.r.t. some sample of `an` (Lemmas 1–2). Such an object
//! has a sample strictly inside one of the per-sample filter windows,
//! so its MBR intersects the windows' bounding box (the *candidate
//! region*). If the candidate region of `(an, q')` is contained in the
//! candidate region of `(an, q)`, every stage-1 candidate of `q'`
//! therefore appears in the **coverage list** of `q` — all objects
//! whose MBR intersects `q`'s region, collected by one single-window
//! traversal. Re-running only the exact Lemma 2 test (and the matrix
//! build, which genuinely depends on `q'`) over that list reproduces
//! the traversal's candidate set bit-for-bit at zero node accesses. The
//! engine-agreement property tests pin this equivalence; the
//! `plan_sweep` bench measures what it saves.
//!
//! Single-task plans skip coverage mode entirely: one leaf unit pays
//! exactly one explain's traversal, so a one-request plan's outcome
//! *and* I/O counters are those of a solo explain.
//!
//! [`ExplainEngine`]: super::ExplainEngine

use super::budget::{self, Cancel, PlanLimits};
use super::filter;
use super::pipeline::{self, StageOne};
use super::{ExplainEngine, ExplainStrategy, Workload};
use crate::config::CpConfig;
use crate::error::CrpError;
use crate::matrix::{with_scratch, DominanceMatrix};
use crate::types::{CrpOutcome, RunStats};
use crp_geom::{HyperRect, Point};
use crp_rtree::QueryStats;
use crp_uncertain::{ObjectId, PdfDataset, UncertainDataset};
use rayon::prelude::*;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A declarative explain workload: the cross product of a query grid,
/// a non-answer set and an α list, with optional per-request strategy
/// and lemma-configuration overrides (session defaults otherwise).
///
/// Build one with the constructors ([`ExplainRequest::explain`],
/// [`ExplainRequest::batch`], [`ExplainRequest::alpha_sweep`],
/// [`ExplainRequest::query_sweep`]) and the `with_*` refiners, then
/// hand it — together with any other requests of the same workload —
/// to [`ExplainSession::run`](super::session::ExplainSession::run),
/// which plans stage-1 work units across *all* requests at once.
///
/// Result order is the nested expansion order: queries (outer), then
/// non-answers, then α values — so
/// [`ExplainRequest::batch`]`(q, ans)` produces one result per `an` in
/// input order.
#[derive(Clone, Debug, PartialEq)]
pub struct ExplainRequest {
    queries: Vec<Point>,
    objects: Vec<ObjectId>,
    /// Empty means "the session α".
    alphas: Vec<f64>,
    strategy: Option<ExplainStrategy>,
    cp: Option<CpConfig>,
    serial: bool,
    limits: PlanLimits,
}

impl ExplainRequest {
    /// One explanation: `(q, an)` at the session α and strategy.
    pub fn explain(q: &Point, an: ObjectId) -> Self {
        Self {
            queries: vec![q.clone()],
            objects: vec![an],
            alphas: Vec::new(),
            strategy: None,
            cp: None,
            serial: false,
            limits: PlanLimits::default(),
        }
    }

    /// Many non-answers at one query — the batch workload.
    pub fn batch(q: &Point, ans: &[ObjectId]) -> Self {
        Self {
            objects: ans.to_vec(),
            ..Self::explain(q, ObjectId(0))
        }
    }

    /// One non-answer across an α list — the threshold-sensitivity
    /// workload. Every α shares one stage-1 computation.
    pub fn alpha_sweep(q: &Point, an: ObjectId, alphas: impl Into<Vec<f64>>) -> Self {
        Self {
            alphas: alphas.into(),
            ..Self::explain(q, an)
        }
    }

    /// A fixed non-answer set across a query grid — the what-if
    /// workload the cross-query containment rule deduplicates.
    pub fn query_sweep(queries: impl Into<Vec<Point>>, ans: &[ObjectId]) -> Self {
        Self {
            queries: queries.into(),
            objects: ans.to_vec(),
            alphas: Vec::new(),
            strategy: None,
            cp: None,
            serial: false,
            limits: PlanLimits::default(),
        }
    }

    /// Replaces the query grid.
    pub fn with_queries(mut self, queries: impl Into<Vec<Point>>) -> Self {
        self.queries = queries.into();
        self
    }

    /// Replaces the non-answer set.
    pub fn with_objects(mut self, ans: &[ObjectId]) -> Self {
        self.objects = ans.to_vec();
        self
    }

    /// Pins a single α (instead of the session default).
    pub fn with_alpha(self, alpha: f64) -> Self {
        self.with_alphas(vec![alpha])
    }

    /// Replaces the α list; an empty list means "the session α".
    pub fn with_alphas(mut self, alphas: impl Into<Vec<f64>>) -> Self {
        self.alphas = alphas.into();
        self
    }

    /// Overrides the session strategy for this request.
    pub fn with_strategy(mut self, strategy: ExplainStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Overrides the session lemma configuration for this request —
    /// the ablation experiments sweep lemma switches this way without
    /// rebuilding the session.
    pub fn with_cp(mut self, cp: CpConfig) -> Self {
        self.cp = Some(cp);
        self
    }

    /// Forces serial execution of the whole plan this request joins
    /// (the reference mode the parallel paths are tested against).
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Wall deadline in milliseconds: past it, unfinished tasks return
    /// [`CrpError::Partial`] (honored within one cancellation-check
    /// interval, [`budget::CHECK_INTERVAL`] subset checks).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.limits.deadline_ms = Some(ms);
        self
    }

    /// Caps R-tree node accesses across the plan this request joins.
    pub fn with_node_budget(mut self, max: u64) -> Self {
        self.limits.max_node_accesses = Some(max);
        self
    }

    /// Caps FMCS subset checks across the plan this request joins
    /// (plan-wide, unlike the per-explain
    /// [`CpConfig::max_subsets`](crate::CpConfig::max_subsets)).
    pub fn with_subset_budget(mut self, max: u64) -> Self {
        self.limits.max_subsets = Some(max);
        self
    }

    /// Replaces every execution limit at once.
    pub fn with_limits(mut self, limits: PlanLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The execution limits of this request.
    pub fn limits(&self) -> &PlanLimits {
        &self.limits
    }

    /// The query grid.
    pub fn queries(&self) -> &[Point] {
        &self.queries
    }

    /// The non-answer set.
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }

    /// The α list resolved against a session default.
    pub fn alphas_or(&self, default: f64) -> Vec<f64> {
        if self.alphas.is_empty() {
            vec![default]
        } else {
            self.alphas.clone()
        }
    }

    /// Tasks this request expands to (queries × objects × α values).
    pub fn task_count(&self) -> usize {
        self.queries.len() * self.objects.len() * self.alphas.len().max(1)
    }
}

/// Per-plan execution counters: how much stage-1 work the planner
/// found, shared or derived.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounters {
    /// Explain cells across every request (`Σ` queries × objects × α).
    pub tasks: usize,
    /// Tasks executed through the per-call path (strategies the
    /// planner does not dedup: CR and friends, oracles, unindexed CP).
    pub per_call_tasks: usize,
    /// CP tasks that needed stage-1 dominance rows.
    pub stage1_tasks: usize,
    /// Distinct `(an, q)` stage-1 work units after planning.
    pub stage1_units: usize,
    /// CP tasks beyond the first of their unit — α-sweep sharing.
    pub stage1_shared_tasks: usize,
    /// Units computed from a containing unit's coverage list instead
    /// of their own traversal (the cross-query dedup).
    pub stage1_derived: usize,
    /// Always 0: there is no session cache. Kept only because
    /// `perfbench/src/trace.rs` reads it.
    pub stage1_cache_served: usize,
    /// Units that paid a filter traversal of the index.
    pub stage1_traversals: usize,
}

impl fmt::Display for PlanCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} task(s) → {} stage-1 unit(s): {} traversal(s), {} derived by containment; \
             {} task(s) shared a unit's rows; {} per-call task(s)",
            self.tasks,
            self.stage1_units,
            self.stage1_traversals,
            self.stage1_derived,
            self.stage1_shared_tasks,
            self.per_call_tasks
        )
    }
}

/// The output of one planned execution: per-task results in request
/// expansion order, plus the plan's counters.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// One result per task, ordered request by request, each request
    /// expanded queries-outer / objects / α-inner.
    pub results: Vec<Result<CrpOutcome, CrpError>>,
    /// What the planner did to serve them.
    pub counters: PlanCounters,
}

impl PlanReport {
    /// Consumes a single-task report.
    ///
    /// # Panics
    ///
    /// Panics when the report holds more or fewer than one result.
    pub fn into_single(self) -> Result<CrpOutcome, CrpError> {
        let mut results = self.results;
        assert_eq!(results.len(), 1, "expected a single-task plan");
        results.pop().expect("checked above")
    }
}

/// One group of a fused stage-1 descent: a traversing unit's filter
/// windows and the non-answer its hit list excludes.
pub(crate) struct FusedGroup {
    pub unit: usize,
    pub windows: Vec<HyperRect>,
    pub exclude: ObjectId,
}

/// The filter windows a traversing unit's solo descent would use —
/// discrete leaves test the per-sample dominance windows, coverage
/// roots their single bounding box, pdf leaves the per-quadrant
/// windows. `None` for units the serve path will fail before stage 1
/// (unknown non-answer, dimension mismatch), which must keep surfacing
/// their errors through the unfused path.
fn unit_windows(workload: &Workload, unit: &Unit, q: &Point) -> Option<Vec<HyperRect>> {
    unit.region.as_ref()?;
    if unit.kind == UnitKind::CoverageRoot {
        return unit.region.clone().map(|r| vec![r]);
    }
    match workload {
        Workload::Discrete(ds) => {
            let an = ds.get(unit.an)?;
            Some(
                an.samples()
                    .iter()
                    .map(|s| crp_geom::dominance_rect(s.point(), q))
                    .collect(),
            )
        }
        Workload::Pdf { ds, .. } => {
            let an = ds.get(unit.an)?;
            Some(crate::pdf::pdf_windows(q, an.region()))
        }
    }
}

/// One explain cell of the expanded workload.
#[derive(Clone, Copy)]
struct Task {
    /// Index into the plan's deduplicated query table.
    q: usize,
    an: ObjectId,
    alpha: f64,
    /// The request's strategy, unresolved (per-call dispatch resolves
    /// `Auto` itself).
    strategy: ExplainStrategy,
    cp: CpConfig,
    /// The stage-1 unit serving this task (`None` for per-call
    /// strategies).
    unit: Option<usize>,
}

/// How a stage-1 unit obtains its dominance rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UnitKind {
    /// Own traversal through the sample-window filter.
    Leaf,
    /// Own traversal in coverage mode (single bounding-box window),
    /// keeping the raw coverage list for derived children.
    CoverageRoot,
    /// Filtered from the parent unit's coverage list — no traversal.
    Derived { parent: usize },
}

/// One distinct `(an, q)` stage-1 computation.
struct Unit {
    an: ObjectId,
    q: usize,
    /// Bounding box of the unit's filter windows (`None` when the
    /// non-answer is unknown or the dataset empty — the serve path
    /// will produce the proper error).
    region: Option<HyperRect>,
    kind: UnitKind,
    /// Task indices served by this unit, in task order.
    tasks: Vec<usize>,
}

/// How one unit obtained its stage 1.
#[derive(Clone, Copy, Default)]
struct UnitFlags {
    traversed: bool,
    derived: bool,
}

/// The compiled plan: deduplicated queries, expanded tasks, linked
/// stage-1 units.
struct Plan {
    qtable: Vec<Point>,
    tasks: Vec<Task>,
    units: Vec<Unit>,
    serial_forced: bool,
}

/// Bit-exact hash key for a query point (planning treats queries as
/// exact coordinate vectors).
fn qbits(q: &Point) -> Vec<u64> {
    q.coords().iter().map(|c| c.to_bits()).collect()
}

/// The candidate region of a prospective unit — discrete: the bounding
/// box of the per-sample dominance windows; pdf: the bounding box of
/// the per-quadrant windows. `None` when the serve path would error
/// before reaching stage 1 anyway.
fn unit_region(workload: &Workload, an: ObjectId, q: &Point) -> Option<HyperRect> {
    match workload {
        Workload::Discrete(ds) => {
            let obj = ds.get(an)?;
            if obj.mbr().dim() != q.dim() {
                return None;
            }
            Some(filter::candidate_region(obj, q))
        }
        Workload::Pdf { ds, .. } => {
            let obj = ds.get(an)?;
            if obj.region().dim() != q.dim() {
                return None;
            }
            filter::windows_region(&crate::pdf::pdf_windows(q, obj.region()))
        }
    }
}

/// Compiles `requests` against an engine: expand tasks, dedup `(an, q)`
/// units, link containment derivations.
fn compile(engine: &ExplainEngine, requests: &[ExplainRequest]) -> Plan {
    let config = &engine.config;
    let workload = &engine.data;

    let mut qtable: Vec<Point> = Vec::new();
    let mut qindex: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut tasks: Vec<Task> = Vec::new();
    let mut serial_forced = false;

    for req in requests {
        serial_forced |= req.serial;
        let strategy = req.strategy.unwrap_or(config.strategy);
        let cp = req.cp.unwrap_or(config.cp);
        let alphas = req.alphas_or(config.alpha);
        for q in &req.queries {
            let qi = *qindex.entry(qbits(q)).or_insert_with(|| {
                qtable.push(q.clone());
                qtable.len() - 1
            });
            for &an in &req.objects {
                for &alpha in &alphas {
                    tasks.push(Task {
                        q: qi,
                        an,
                        alpha,
                        strategy,
                        cp,
                        unit: None,
                    });
                }
            }
        }
    }

    // Stage-1 units: one per distinct (an, q) over the CP tasks.
    let mut units: Vec<Unit> = Vec::new();
    let mut unit_index: HashMap<(ObjectId, usize), usize> = HashMap::new();
    for (ti, task) in tasks.iter_mut().enumerate() {
        if engine.resolve(task.strategy) != ExplainStrategy::Cp {
            continue;
        }
        let ui = *unit_index.entry((task.an, task.q)).or_insert_with(|| {
            units.push(Unit {
                an: task.an,
                q: task.q,
                region: unit_region(workload, task.an, &qtable[task.q]),
                kind: UnitKind::Leaf,
                tasks: Vec::new(),
            });
            units.len() - 1
        });
        task.unit = Some(ui);
        units[ui].tasks.push(ti);
    }

    // Containment linking, per non-answer: order candidate units by
    // descending region volume, greedily accept roots, and derive any
    // unit whose region fits inside an accepted root's. Derivation is
    // single-level (every derived unit points at a traversed root), so
    // execution is two phases, not a dependency graph.
    let mut by_an: HashMap<ObjectId, Vec<usize>> = HashMap::new();
    for (ui, unit) in units.iter().enumerate() {
        if unit.region.is_some() {
            by_an.entry(unit.an).or_default().push(ui);
        }
    }
    for group in by_an.values_mut() {
        if group.len() < 2 {
            continue;
        }
        group.sort_by(|&a, &b| {
            let (va, vb) = (
                units[a].region.as_ref().expect("filtered above").volume(),
                units[b].region.as_ref().expect("filtered above").volume(),
            );
            vb.partial_cmp(&va).expect("finite volumes").then(a.cmp(&b))
        });
        let mut roots: Vec<usize> = Vec::new();
        for &ui in group.iter() {
            let region = units[ui].region.as_ref().expect("filtered above");
            match roots
                .iter()
                .find(|&&r| {
                    units[r]
                        .region
                        .as_ref()
                        .expect("roots keep their regions")
                        .contains_rect(region)
                })
                .copied()
            {
                Some(parent) => {
                    units[ui].kind = UnitKind::Derived { parent };
                    units[parent].kind = UnitKind::CoverageRoot;
                }
                None => roots.push(ui),
            }
        }
    }

    Plan {
        qtable,
        tasks,
        units,
        serial_forced,
    }
}

/// Maps candidate ids to their positions in the dataset, sorted
/// ascending — exactly the candidate list the window filter produces,
/// which is what makes the planner's containment-derived stage 1
/// bit-identical to a traversal.
///
/// Ids unknown to `ds` are ignored.
fn global_positions(ds: &UncertainDataset, ids: &[ObjectId]) -> Vec<usize> {
    let mut positions: Vec<usize> = ids.iter().filter_map(|&id| ds.index_of(id)).collect();
    positions.sort_unstable();
    positions.dedup();
    positions
}

/// Discrete stage 1 from a coverage superset: map ids to positions,
/// re-run the exact Lemma 2 test, build the matrix — bit-identical
/// candidates and rows to the traversal path (see the module docs for
/// the soundness argument), zero node accesses.
fn stage1_discrete_from_coverage(
    ds: &UncertainDataset,
    q: &Point,
    an_pos: usize,
    coverage: &[ObjectId],
) -> StageOne {
    let an = ds.object_at(an_pos);
    let mut positions = global_positions(ds, coverage);
    positions.retain(|&pos| pos != an_pos);
    filter::retain_causal(ds, an, q, &mut positions);
    let matrix = DominanceMatrix::build(ds, an_pos, q, &positions);
    let ids = positions
        .into_iter()
        .map(|pos| ds.object_at(pos).id())
        .collect();
    StageOne { ids, matrix }
}

/// Pdf stage 1 from a coverage superset: keep ids whose region
/// intersects any per-quadrant window (what the tree traversal
/// returns), then the shared integration tail.
fn stage1_pdf_from_coverage(
    ds: &PdfDataset,
    q: &Point,
    an: ObjectId,
    resolution: usize,
    windows: &[HyperRect],
    coverage: &[ObjectId],
) -> StageOne {
    let hits: Vec<ObjectId> = coverage
        .iter()
        .copied()
        .filter(|&id| {
            id != an
                && ds
                    .get(id)
                    .is_some_and(|o| windows.iter().any(|w| w.intersects(o.region())))
        })
        .collect();
    pipeline::stage1_pdf_from_hits(ds, q, an, resolution, hits)
}

/// Executes one unit's stage 1 (discrete): derive from the parent's
/// coverage when possible, consume the fused pre-pass's hit list when
/// one exists, else traverse — in coverage mode when children depend
/// on this unit. The fused hit list is exactly what this unit's solo
/// traversal would return (and its counters the solo counters), so all
/// three paths produce the identical [`StageOne`].
#[allow(clippy::too_many_arguments)]
fn unit_stage1_discrete(
    engine: &ExplainEngine,
    units: &[Unit],
    ui: usize,
    coverage: &[OnceLock<Arc<Vec<ObjectId>>>],
    fused: &[Option<(Vec<ObjectId>, QueryStats)>],
    ds: &UncertainDataset,
    q: &Point,
    an_pos: usize,
    stats: &mut RunStats,
    flags: &mut UnitFlags,
) -> Result<StageOne, CrpError> {
    if let UnitKind::Derived { parent } = units[ui].kind {
        if let Some(cov) = coverage[parent].get() {
            flags.derived = true;
            return Ok(stage1_discrete_from_coverage(ds, q, an_pos, cov));
        }
        // The parent failed or was cancelled before its traversal:
        // fall through to this unit's own computation.
    }
    flags.traversed = true;
    if let Some((hits, qs)) = &fused[ui] {
        stats.query += *qs;
        if units[ui].kind == UnitKind::CoverageRoot {
            let cov = Arc::new(hits.clone());
            let stage1 = stage1_discrete_from_coverage(ds, q, an_pos, &cov);
            let _ = coverage[ui].set(cov);
            return Ok(stage1);
        }
        return Ok(stage1_discrete_from_coverage(ds, q, an_pos, hits));
    }
    if units[ui].kind == UnitKind::CoverageRoot {
        let region = units[ui]
            .region
            .clone()
            .expect("coverage roots have regions");
        let cov = Arc::new(engine.coverage_ids(&region, units[ui].an, stats)?);
        let stage1 = stage1_discrete_from_coverage(ds, q, an_pos, &cov);
        let _ = coverage[ui].set(cov);
        return Ok(stage1);
    }
    engine.fresh_stage1_discrete(q, an_pos, stats)
}

/// [`unit_stage1_discrete`] for pdf workloads.
#[allow(clippy::too_many_arguments)]
fn unit_stage1_pdf(
    engine: &ExplainEngine,
    units: &[Unit],
    ui: usize,
    coverage: &[OnceLock<Arc<Vec<ObjectId>>>],
    fused: &[Option<(Vec<ObjectId>, QueryStats)>],
    ds: &PdfDataset,
    q: &Point,
    resolution: usize,
    windows: &[HyperRect],
    stats: &mut RunStats,
    flags: &mut UnitFlags,
) -> Result<StageOne, CrpError> {
    let an = units[ui].an;
    if let UnitKind::Derived { parent } = units[ui].kind {
        if let Some(cov) = coverage[parent].get() {
            flags.derived = true;
            return Ok(stage1_pdf_from_coverage(
                ds, q, an, resolution, windows, cov,
            ));
        }
    }
    flags.traversed = true;
    if let Some((hits, qs)) = &fused[ui] {
        stats.query += *qs;
        if units[ui].kind == UnitKind::CoverageRoot {
            let cov = Arc::new(hits.clone());
            let stage1 = stage1_pdf_from_coverage(ds, q, an, resolution, windows, &cov);
            let _ = coverage[ui].set(cov);
            return Ok(stage1);
        }
        return Ok(pipeline::stage1_pdf_from_hits(
            ds,
            q,
            an,
            resolution,
            hits.clone(),
        ));
    }
    if units[ui].kind == UnitKind::CoverageRoot {
        let region = units[ui]
            .region
            .clone()
            .expect("coverage roots have regions");
        let cov = Arc::new(engine.coverage_ids(&region, an, stats)?);
        let stage1 = stage1_pdf_from_coverage(ds, q, an, resolution, windows, &cov);
        let _ = coverage[ui].set(cov);
        return Ok(stage1);
    }
    engine.fresh_stage1_pdf(q, an, resolution, stats)
}

/// The stage 1 of one unit: candidate ids and dominance matrix, plus
/// the traversal cost that computing them paid.
type UnitRows = Result<(StageOne, QueryStats), CrpError>;

/// Computes one unit's stage 1 for an already-validated non-answer —
/// derived, fused or traversed (see [`unit_stage1_discrete`]) — and
/// folds the traversal it paid into the session I/O once.
fn unit_rows(
    engine: &ExplainEngine,
    plan: &Plan,
    ui: usize,
    coverage: &[OnceLock<Arc<Vec<ObjectId>>>],
    fused: &[Option<(Vec<ObjectId>, QueryStats)>],
    flags: &mut UnitFlags,
) -> UnitRows {
    let unit = &plan.units[ui];
    let q = &plan.qtable[unit.q];
    let mut stats = RunStats::default();
    let stage1 = match &engine.data {
        Workload::Discrete(ds) => {
            let an_pos = ds.index_of(unit.an).expect("validated by the caller");
            unit_stage1_discrete(
                engine,
                &plan.units,
                ui,
                coverage,
                fused,
                ds,
                q,
                an_pos,
                &mut stats,
                flags,
            )
        }
        Workload::Pdf { ds, resolution } => {
            let an = ds.get(unit.an).expect("validated by the caller");
            let windows = crate::pdf::pdf_windows(q, an.region());
            unit_stage1_pdf(
                engine,
                &plan.units,
                ui,
                coverage,
                fused,
                ds,
                q,
                *resolution,
                &windows,
                &mut stats,
                flags,
            )
        }
    }?;
    engine.io.absorb(stats.query);
    Ok((stage1, stats.query))
}

/// Runs every task of one unit: each task is validated on its own (α,
/// then an empty dataset, then an unknown id — the per-call
/// precedence), the first valid one computes the unit's stage 1, and
/// every valid task refines over those same rows. Each task's
/// `stats.query` starts from the unit's traversal cost, so its outcome
/// is bit-identical to a solo explain. Fills `results` and returns the
/// unit's execution flags.
fn run_unit(
    engine: &ExplainEngine,
    plan: &Plan,
    ui: usize,
    coverage: &[OnceLock<Arc<Vec<ObjectId>>>],
    fused: &[Option<(Vec<ObjectId>, QueryStats)>],
    cancel: Option<&Arc<Cancel>>,
    results: &[OnceLock<Result<CrpOutcome, CrpError>>],
) -> UnitFlags {
    let mut flags = UnitFlags::default();
    let unit = &plan.units[ui];
    let q = &plan.qtable[unit.q];
    let mut rows: Option<UnitRows> = None;
    // Install the plan's budget handle on *this* thread (rayon workers
    // included) so the pipeline and FMCS loops below can poll it.
    budget::with_cancel(cancel, || {
        with_scratch(|scratch| {
            for &ti in &unit.tasks {
                if let Some(c) = cancel {
                    if let Err(partial) = c.check() {
                        results[ti]
                            .set(Err(partial))
                            .expect("each task executes exactly once");
                        continue;
                    }
                }
                let task = &plan.tasks[ti];
                let outcome = validate_task(&engine.data, q, task).and_then(|()| {
                    let (stage1, query) = rows
                        .get_or_insert_with(|| {
                            unit_rows(engine, plan, ui, coverage, fused, &mut flags)
                        })
                        .as_ref()
                        .map_err(Clone::clone)?;
                    let mut stats = RunStats {
                        query: *query,
                        ..RunStats::default()
                    };
                    pipeline::finish(
                        &stage1.matrix,
                        task.alpha,
                        &task.cp,
                        &mut stats,
                        scratch,
                        |c| stage1.ids[c],
                    )
                    .map(|causes| CrpOutcome { causes, stats })
                });
                let finished = !matches!(outcome, Err(CrpError::Partial(_)));
                results[ti]
                    .set(outcome)
                    .expect("each task executes exactly once");
                if finished {
                    if let Some(c) = cancel {
                        c.task_completed();
                    }
                }
            }
        })
    });
    flags
}

/// The per-call input checks of one CP task, in their precedence.
fn validate_task(workload: &Workload, q: &Point, task: &Task) -> Result<(), CrpError> {
    match workload {
        Workload::Discrete(ds) => pipeline::validate(ds, q, task.an, task.alpha).map(drop),
        Workload::Pdf { ds, .. } => pipeline::validate_pdf(ds, task.an, task.alpha),
    }
}

/// Compiles and executes a workload over one engine — the single body
/// behind [`ExplainSession::run`](super::session::ExplainSession::run)
/// and the engine's `explain*` shorthands.
pub(crate) fn execute(engine: &ExplainEngine, requests: &[ExplainRequest]) -> PlanReport {
    let plan = compile(engine, requests);
    let config = &engine.config;
    // One budget handle for the whole plan: the most restrictive limit
    // of each kind across the joined requests. `None` (the common
    // case) costs nothing on the hot paths.
    let limits = requests
        .iter()
        .fold(PlanLimits::default(), |acc, r| acc.merge_min(r.limits));
    let cancel = Cancel::new(limits, plan.tasks.len() as u64);
    let cancel = cancel.as_ref();
    // Batches (> 1 task) run task-parallel; a single task runs inline.
    let parallel = config.parallel && !plan.serial_forced && plan.tasks.len() > 1;
    if parallel {
        let mut prepared: Vec<ExplainStrategy> = Vec::new();
        for task in &plan.tasks {
            if !prepared.contains(&task.strategy) {
                prepared.push(task.strategy);
                engine.prepare(task.strategy);
            }
        }
    }

    let results: Vec<OnceLock<Result<CrpOutcome, CrpError>>> =
        (0..plan.tasks.len()).map(|_| OnceLock::new()).collect();
    let coverage: Vec<OnceLock<Arc<Vec<ObjectId>>>> =
        (0..plan.units.len()).map(|_| OnceLock::new()).collect();

    // Phase 1: traversing units (leaves + coverage roots); phase 2:
    // derived units, whose parents' coverage lists now exist; phase 3:
    // per-call tasks. Each phase is rayon-parallel when the session is.
    let phase1: Vec<usize> = (0..plan.units.len())
        .filter(|&ui| !matches!(plan.units[ui].kind, UnitKind::Derived { .. }))
        .collect();
    let phase2: Vec<usize> = (0..plan.units.len())
        .filter(|&ui| matches!(plan.units[ui].kind, UnitKind::Derived { .. }))
        .collect();

    // Fused stage-1 pre-pass: when the engine can fuse and at least two
    // phase-1 units would traverse, one grouped packed descent computes
    // every unit's hit list up front — shared upper nodes read once.
    // Units the serve path fails before stage 1 (no windows) stay
    // unfused so their errors surface identically.
    let mut fused: Vec<Option<(Vec<ObjectId>, QueryStats)>> =
        (0..plan.units.len()).map(|_| None).collect();
    if phase1.len() >= 2 {
        let workload = &engine.data;
        let groups: Vec<FusedGroup> = phase1
            .iter()
            .filter_map(|&ui| {
                let unit = &plan.units[ui];
                Some(FusedGroup {
                    unit: ui,
                    windows: unit_windows(workload, unit, &plan.qtable[unit.q])?,
                    exclude: unit.an,
                })
            })
            .collect();
        if groups.len() >= 2 {
            if let Some(hits) = engine.fused_unit_hits(&groups) {
                for (group, hit) in groups.into_iter().zip(hits) {
                    fused[group.unit] = Some(hit);
                }
            }
        }
    }

    let run_units = |unit_ids: &[usize]| -> Vec<(usize, UnitFlags)> {
        let one_unit = |ui: usize| {
            (
                ui,
                run_unit(engine, &plan, ui, &coverage, &fused, cancel, &results),
            )
        };
        if parallel && unit_ids.len() > 1 {
            unit_ids.par_iter().map(|&ui| one_unit(ui)).collect()
        } else {
            unit_ids.iter().map(|&ui| one_unit(ui)).collect()
        }
    };
    let mut unit_flags: Vec<(usize, UnitFlags)> = run_units(&phase1);
    unit_flags.extend(run_units(&phase2));

    let per_call: Vec<usize> = (0..plan.tasks.len())
        .filter(|&ti| plan.tasks[ti].unit.is_none())
        .collect();
    let run_per_call = |ti: usize| {
        if let Some(c) = cancel {
            if let Err(partial) = c.check() {
                results[ti]
                    .set(Err(partial))
                    .expect("each task executes exactly once");
                return;
            }
        }
        let task = &plan.tasks[ti];
        let outcome = budget::with_cancel(cancel, || {
            engine.dispatch(
                task.strategy,
                &plan.qtable[task.q],
                task.alpha,
                task.an,
                &task.cp,
            )
        });
        let finished = !matches!(outcome, Err(CrpError::Partial(_)));
        results[ti]
            .set(outcome)
            .expect("each task executes exactly once");
        if finished {
            if let Some(c) = cancel {
                c.task_completed();
            }
        }
    };
    if parallel && per_call.len() > 1 {
        let _: Vec<()> = per_call.par_iter().map(|&ti| run_per_call(ti)).collect();
    } else {
        per_call.iter().for_each(|&ti| run_per_call(ti));
    }

    // Fold the counters.
    let mut counters = PlanCounters {
        tasks: plan.tasks.len(),
        per_call_tasks: per_call.len(),
        stage1_units: plan.units.len(),
        ..PlanCounters::default()
    };
    counters.stage1_tasks = counters.tasks - counters.per_call_tasks;
    counters.stage1_shared_tasks = counters.stage1_tasks - counters.stage1_units;
    for (_, flags) in &unit_flags {
        if flags.derived {
            counters.stage1_derived += 1;
        }
        if flags.traversed {
            counters.stage1_traversals += 1;
        }
    }

    PlanReport {
        results: results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every task executed"))
            .collect(),
        counters,
    }
}

/// Plans and executes a single-task request, unwrapping the one result
/// — the tail of the engine's single-explain shorthands.
pub(crate) fn one(engine: &ExplainEngine, request: ExplainRequest) -> Result<CrpOutcome, CrpError> {
    debug_assert_eq!(request.task_count(), 1);
    execute(engine, std::slice::from_ref(&request)).into_single()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    #[test]
    fn request_builder_expands_the_cross_product() {
        let req = ExplainRequest::query_sweep(vec![pt(1.0, 1.0), pt(2.0, 2.0)], &[ObjectId(3)])
            .with_alphas(vec![0.25, 0.5, 0.75]);
        assert_eq!(req.task_count(), 6);
        assert_eq!(req.queries().len(), 2);
        assert_eq!(req.objects(), &[ObjectId(3)]);
        assert_eq!(req.alphas_or(0.9), vec![0.25, 0.5, 0.75]);

        let single = ExplainRequest::explain(&pt(1.0, 1.0), ObjectId(0));
        assert_eq!(single.task_count(), 1);
        assert_eq!(single.alphas_or(0.9), vec![0.9], "session α by default");

        let batch = ExplainRequest::batch(&pt(1.0, 1.0), &[ObjectId(0), ObjectId(1)]).serial();
        assert_eq!(batch.task_count(), 2);
        assert!(batch.serial);
    }

    #[test]
    fn positions_restore_global_order() {
        // Dataset positions follow insertion order, not id order.
        let ds = UncertainDataset::from_objects(vec![
            crp_uncertain::UncertainObject::certain(ObjectId(9), pt(0.0, 0.0)),
            crp_uncertain::UncertainObject::certain(ObjectId(1), pt(1.0, 1.0)),
            crp_uncertain::UncertainObject::certain(ObjectId(5), pt(2.0, 2.0)),
        ])
        .unwrap();
        // Position order: 9 is at 0, 5 is at 2.
        assert_eq!(
            global_positions(&ds, &[ObjectId(5), ObjectId(9)]),
            vec![0, 2]
        );
        // Foreign ids are ignored, not a panic.
        assert_eq!(global_positions(&ds, &[ObjectId(42)]), Vec::<usize>::new());
    }

    #[test]
    fn counters_render_human_readably() {
        let counters = PlanCounters {
            tasks: 12,
            stage1_tasks: 10,
            stage1_units: 5,
            stage1_shared_tasks: 5,
            stage1_derived: 3,
            stage1_traversals: 2,
            per_call_tasks: 2,
            ..PlanCounters::default()
        };
        let s = counters.to_string();
        assert!(s.contains("12 task(s)"), "{s}");
        assert!(s.contains("3 derived by containment"), "{s}");
    }
}
