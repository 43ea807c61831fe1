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
//!    one dominance-row computation per distinct `(an, q)` — a single
//!    filter traversal of the index (Algorithm 1's RecList descent) —
//!    which the unit hands to each of its tasks, so an α-sweep pays one
//!    traversal,
//! 3. **Execute** — the executor drives the plan over the
//!    [`ExplainEngine`], rayon-parallel across units, and returns a
//!    [`PlanReport`] with per-plan [`PlanCounters`].
//!
//! Each task's `stats.query` starts from its unit's traversal cost, so
//! a planned outcome — causes, search counters *and* I/O counters — is
//! the outcome of a solo explain, whatever else shares its plan.
//!
//! [`ExplainEngine`]: super::ExplainEngine

use super::budget::{self, Cancel, PlanLimits};
use super::pipeline::{self, StageOne};
use super::{ExplainEngine, ExplainStrategy, Workload};
use crate::config::CpConfig;
use crate::error::CrpError;
use crate::matrix::with_scratch;
use crate::types::{CrpOutcome, RunStats};
use crp_geom::Point;
use crp_rtree::QueryStats;
use crp_uncertain::ObjectId;
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
    /// workload: one stage-1 unit per `(an, q)` cell.
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
    /// interval, [`budget::CHECK_INTERVAL`] checks).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.limits.deadline_ms = Some(ms);
        self
    }

    /// Caps R-tree node accesses across the plan this request joins.
    pub fn with_node_budget(mut self, max: u64) -> Self {
        self.limits.max_node_accesses = Some(max);
        self
    }

    /// Caps checks across the plan this request joins — the library's
    /// one work cap: every subset check (FMCS, Naive-I, Naive-II and
    /// the Lemma 5 sweep) and every completion-bound check of the
    /// pruned FMCS walk counts one. Past it, unfinished tasks return
    /// [`CrpError::Partial`] with
    /// [`StopReason::CheckBudget`](super::StopReason::CheckBudget), up
    /// to one [`budget::CHECK_INTERVAL`] of checks past the cap. On a
    /// single explain this caps that explain; tasks of a larger plan
    /// share it, as they share the deadline.
    pub fn with_check_budget(mut self, max: u64) -> Self {
        self.limits.max_checks = Some(max);
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
/// found and how much of it was shared.
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
    /// Always 0: every unit pays its own traversal. Kept only because
    /// `perfbench/src/trace.rs` reads it.
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
            "{} task(s) → {} stage-1 unit(s): {} traversal(s); \
             {} task(s) shared a unit's rows; {} per-call task(s)",
            self.tasks,
            self.stage1_units,
            self.stage1_traversals,
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

/// One distinct `(an, q)` stage-1 computation.
struct Unit {
    an: ObjectId,
    q: usize,
    /// Task indices served by this unit, in task order.
    tasks: Vec<usize>,
}

/// The compiled plan: deduplicated queries, expanded tasks, stage-1
/// units.
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

/// Compiles `requests` against an engine: expand tasks, dedup `(an, q)`
/// units.
fn compile(engine: &ExplainEngine, requests: &[ExplainRequest]) -> Plan {
    let config = &engine.config;

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
                tasks: Vec::new(),
            });
            units.len() - 1
        });
        task.unit = Some(ui);
        units[ui].tasks.push(ti);
    }

    Plan {
        qtable,
        tasks,
        units,
        serial_forced,
    }
}

/// The stage 1 of one unit: candidate ids and dominance matrix, plus
/// the traversal cost that computing them paid.
type UnitRows = Result<(StageOne, QueryStats), CrpError>;

/// Computes one unit's stage 1 for an already-validated non-answer —
/// its own filter traversal, then the matrix build — and folds the
/// traversal it paid into the session I/O once.
fn unit_rows(engine: &ExplainEngine, unit: &Unit, q: &Point) -> UnitRows {
    let mut stats = RunStats::default();
    let stage1 = match &engine.data {
        Workload::Discrete(ds) => {
            let an_pos = ds.index_of(unit.an).expect("validated by the caller");
            engine.fresh_stage1_discrete(q, an_pos, &mut stats)
        }
        Workload::Pdf { resolution, .. } => {
            engine.fresh_stage1_pdf(q, unit.an, *resolution, &mut stats)
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
/// is bit-identical to a solo explain. Fills `results` and returns
/// whether the unit traversed the index.
fn run_unit(
    engine: &ExplainEngine,
    plan: &Plan,
    unit: &Unit,
    cancel: Option<&Arc<Cancel>>,
    results: &[OnceLock<Result<CrpOutcome, CrpError>>],
) -> bool {
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
                        .get_or_insert_with(|| unit_rows(engine, unit, q))
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
    rows.is_some()
}

/// The per-call input checks of one CP task, in their precedence.
fn validate_task(workload: &Workload, q: &Point, task: &Task) -> Result<(), CrpError> {
    match workload {
        Workload::Discrete(ds) => pipeline::validate(ds, q, task.an, task.alpha).map(drop),
        Workload::Pdf { ds, .. } => pipeline::validate_pdf(ds, task.an, task.alpha),
    }
}

/// The cap a Naive strategy carries in its own field, as a plan check
/// limit; no limit for every other strategy.
fn strategy_limits(strategy: ExplainStrategy) -> PlanLimits {
    match strategy {
        ExplainStrategy::NaiveI { max_subsets } | ExplainStrategy::NaiveII { max_subsets } => {
            PlanLimits {
                max_checks: max_subsets,
                ..PlanLimits::default()
            }
        }
        _ => PlanLimits::default(),
    }
}

/// Compiles and executes a workload over one engine — the single body
/// behind [`ExplainSession::run`](super::session::ExplainSession::run)
/// and the engine's `explain*` shorthands.
pub(crate) fn execute(engine: &ExplainEngine, requests: &[ExplainRequest]) -> PlanReport {
    let plan = compile(engine, requests);
    let config = &engine.config;
    // One budget handle for the whole plan: the most restrictive limit
    // of each kind across the joined requests (a Naive strategy's own
    // cap field included). `None` (the common case) costs nothing on
    // the hot paths.
    let limits = requests.iter().fold(PlanLimits::default(), |acc, r| {
        let strategy = r.strategy.unwrap_or(config.strategy);
        acc.merge_min(r.limits).merge_min(strategy_limits(strategy))
    });
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

    // Stage-1 units, then per-call tasks; each phase is rayon-parallel
    // when the session is.
    let one_unit = |unit: &Unit| run_unit(engine, &plan, unit, cancel, &results);
    let traversed: Vec<bool> = if parallel && plan.units.len() > 1 {
        plan.units.par_iter().map(one_unit).collect()
    } else {
        plan.units.iter().map(one_unit).collect()
    };

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
        stage1_traversals: traversed.iter().filter(|&&t| t).count(),
        ..PlanCounters::default()
    };
    counters.stage1_tasks = counters.tasks - counters.per_call_tasks;
    counters.stage1_shared_tasks = counters.stage1_tasks - counters.stage1_units;

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
    fn counters_render_human_readably() {
        let counters = PlanCounters {
            tasks: 12,
            stage1_tasks: 10,
            stage1_units: 5,
            stage1_shared_tasks: 5,
            stage1_traversals: 5,
            per_call_tasks: 2,
            ..PlanCounters::default()
        };
        let s = counters.to_string();
        assert!(s.contains("12 task(s)"), "{s}");
        assert!(s.contains("5 traversal(s)"), "{s}");
        assert!(!s.contains("derived"), "{s}");
    }
}
