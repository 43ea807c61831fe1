//! Shared experiment execution: run an algorithm over a set of selected
//! non-answers, averaging the paper's two metrics (node accesses and CPU
//! time) plus refinement counters.
//!
//! Every runner drives the shared [`ExplainEngine`] so the R-tree is
//! built once per dataset and its cost stays out of the per-non-answer
//! measurements (the index build can be measured separately with
//! [`time`](crate::measure::time) around [`ExplainEngine::object_tree`]).

use crate::measure::AggregateStats;
use crp_core::{
    CpConfig, CrpError, CrpOutcome, ExplainEngine, ExplainRequest, ExplainSession, ExplainStrategy,
    StopReason,
};
use crp_geom::Point;
use crp_uncertain::{ObjectId, UncertainDataset};
use std::time::Instant;

/// Aggregated metrics of one algorithm over a set of non-answers.
#[derive(Clone, Debug, Default)]
pub struct MeasuredAlgo {
    /// R-tree node accesses per non-answer.
    pub io: AggregateStats,
    /// Wall-clock milliseconds per non-answer.
    pub cpu_ms: AggregateStats,
    /// Candidate causes per non-answer.
    pub candidates: AggregateStats,
    /// Candidate contingency sets examined per non-answer.
    pub subsets: AggregateStats,
    /// Actual causes found per non-answer.
    pub causes: AggregateStats,
    /// Threshold evaluations of Pr(an) per non-answer.
    pub prsq_evals: AggregateStats,
    /// Non-answers skipped (a check cap tripped, or the classification
    /// flipped).
    pub skipped: usize,
}

impl MeasuredAlgo {
    fn absorb(&mut self, out: &CrpOutcome, ms: f64) {
        self.io.push(out.stats.query.node_accesses as f64);
        self.cpu_ms.push(ms);
        self.candidates.push(out.stats.candidates as f64);
        self.subsets.push(out.stats.subsets_examined as f64);
        self.causes.push(out.causes.len() as f64);
        self.prsq_evals.push(out.stats.prsq_evaluations as f64);
    }
}

fn record(
    agg: &mut MeasuredAlgo,
    result: Result<CrpOutcome, CrpError>,
    start: Instant,
    id: ObjectId,
) {
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match result {
        Ok(out) => agg.absorb(&out, ms),
        Err(CrpError::Partial(p)) if p.reason == StopReason::CheckBudget => agg.skipped += 1,
        Err(CrpError::NotANonAnswer { .. }) => agg.skipped += 1,
        Err(e) => panic!("experiment failure on {id}: {e}"),
    }
}

/// The paper's CP configuration: every lemma, no probability bound. The
/// paper-reproduction binaries run it so their subset counts stay the
/// paper's; the library default adds the bound.
pub fn paper_cp() -> CpConfig {
    CpConfig {
        use_probability_bound: false,
        ..CpConfig::default()
    }
}

/// One explain of `an` under `strategy` at `alpha`: a single-request
/// plan through [`ExplainSession::run`].
pub fn explain_with(
    engine: &ExplainEngine,
    strategy: ExplainStrategy,
    q: &Point,
    alpha: f64,
    an: ObjectId,
) -> Result<CrpOutcome, CrpError> {
    engine
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(strategy)
            .with_alpha(alpha)])
        .into_single()
}

/// One batch of `ids` under `strategy` at `alpha` through
/// [`ExplainSession::run`]; `serial` forces the serial path, else the
/// engine parallelises when its `parallel` flag is set.
pub fn batch_with(
    engine: &ExplainEngine,
    strategy: ExplainStrategy,
    q: &Point,
    alpha: f64,
    ids: &[ObjectId],
    serial: bool,
) -> Vec<Result<CrpOutcome, CrpError>> {
    let request = ExplainRequest::batch(q, ids)
        .with_strategy(strategy)
        .with_alpha(alpha);
    let request = if serial { request.serial() } else { request };
    engine.run(&[request]).results
}

/// Runs one single-explain request per non-answer serially (per-call
/// timing), averaging metrics.
fn run_over(
    engine: &ExplainEngine,
    ids: &[ObjectId],
    request: impl Fn(ObjectId) -> ExplainRequest,
) -> MeasuredAlgo {
    let mut agg = MeasuredAlgo::default();
    for &id in ids {
        let start = Instant::now();
        let result = engine.run(&[request(id)]).into_single();
        record(&mut agg, result, start, id);
    }
    agg
}

/// Runs one strategy over each non-answer serially (per-call timing),
/// averaging metrics.
pub fn run_strategy_over(
    engine: &ExplainEngine,
    strategy: ExplainStrategy,
    q: &Point,
    ids: &[ObjectId],
    alpha: f64,
) -> MeasuredAlgo {
    run_over(engine, ids, |id| {
        ExplainRequest::explain(q, id)
            .with_strategy(strategy)
            .with_alpha(alpha)
    })
}

/// Runs CP over each non-answer with an explicit [`CpConfig`] (the
/// lemma-ablation sweeps vary it over one session).
pub fn run_cp_over(
    engine: &ExplainEngine,
    q: &Point,
    ids: &[ObjectId],
    alpha: f64,
    config: &CpConfig,
) -> MeasuredAlgo {
    run_over(engine, ids, |id| {
        ExplainRequest::explain(q, id)
            .with_strategy(ExplainStrategy::Cp)
            .with_alpha(alpha)
            .with_cp(*config)
    })
}

/// Runs a baseline over each non-answer under a per-explain check cap;
/// a capped explain is counted as skipped.
fn run_capped_over(
    engine: &ExplainEngine,
    strategy: ExplainStrategy,
    q: &Point,
    ids: &[ObjectId],
    alpha: f64,
    max_checks: u64,
) -> MeasuredAlgo {
    run_over(engine, ids, |id| {
        ExplainRequest::explain(q, id)
            .with_strategy(strategy)
            .with_alpha(alpha)
            .with_check_budget(max_checks)
    })
}

/// Runs Naive-I over each non-answer under a check cap.
pub fn run_naive_i_over(
    engine: &ExplainEngine,
    q: &Point,
    ids: &[ObjectId],
    alpha: f64,
    max_checks: u64,
) -> MeasuredAlgo {
    let naive = ExplainStrategy::NaiveI { max_subsets: None };
    run_capped_over(engine, naive, q, ids, alpha, max_checks)
}

/// Runs CR over each non-answer.
pub fn run_cr_over(engine: &ExplainEngine, q: &Point, ids: &[ObjectId]) -> MeasuredAlgo {
    run_strategy_over(engine, ExplainStrategy::Cr, q, ids, 0.5)
}

/// Runs Naive-II over each non-answer under a check cap.
pub fn run_naive_ii_over(
    engine: &ExplainEngine,
    q: &Point,
    ids: &[ObjectId],
    max_checks: u64,
) -> MeasuredAlgo {
    let naive = ExplainStrategy::NaiveII { max_subsets: None };
    run_capped_over(engine, naive, q, ids, 0.5, max_checks)
}

/// One timed [`batch_with`] call: total wall-clock
/// milliseconds and the per-call outcomes (order matches `ids`).
pub struct BatchRun {
    /// Total wall-clock milliseconds for the whole batch.
    pub wall_ms: f64,
    /// Per-non-answer outcomes.
    pub outcomes: Vec<Result<CrpOutcome, CrpError>>,
}

/// Times one batch call — the engine parallelises internally when its
/// `parallel` flag is set.
pub fn run_batch_over(
    engine: &ExplainEngine,
    strategy: ExplainStrategy,
    q: &Point,
    ids: &[ObjectId],
    alpha: f64,
) -> BatchRun {
    let start = Instant::now();
    let outcomes = batch_with(engine, strategy, q, alpha, ids, false);
    BatchRun {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        outcomes,
    }
}

/// A query object at the coordinate-wise centroid of the dataset — a
/// deterministic, distribution-appropriate query for every family
/// (uniform, skewed, clustered, …).
pub fn centroid_query(ds: &UncertainDataset) -> Point {
    let dim = ds.dim().expect("non-empty dataset");
    let mut acc = vec![0.0; dim];
    for o in ds.iter() {
        let e = o.expectation();
        for (i, a) in acc.iter_mut().enumerate() {
            *a += e[i];
        }
    }
    for a in &mut acc {
        *a /= ds.len() as f64;
    }
    Point::new(acc)
}

/// Tiny argv helper: `--name value`.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Tiny argv helper: presence of `--name`.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Standard output directory for CSV series.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("bench_out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::{select_prsq_non_answers, PrsqSelectionConfig};
    use crp_core::EngineConfig;
    use crp_data::{uncertain_dataset, UncertainConfig};

    #[test]
    fn cp_and_naive_agree_and_aggregate() {
        let ds = uncertain_dataset(&UncertainConfig {
            cardinality: 1_500,
            dim: 2,
            radius_range: (0.0, 120.0),
            seed: 77,
            ..UncertainConfig::default()
        });
        let alpha = 0.5;
        let engine =
            ExplainEngine::new(ds, EngineConfig::with_alpha(alpha)).expect("valid engine config");
        let q = Point::from([5_000.0, 5_000.0]);
        let ids = select_prsq_non_answers(
            engine.dataset(),
            engine.object_tree(),
            &q,
            &PrsqSelectionConfig {
                count: 6,
                alpha_classify: alpha,
                alpha_tractability: alpha,
                min_candidates: 1,
                max_candidates: 12,
                max_free_candidates: 10,
                seed: 2,
            },
        );
        assert!(!ids.is_empty());
        let a = run_cp_over(&engine, &q, &ids, alpha, &paper_cp());
        let b = run_naive_i_over(&engine, &q, &ids, alpha, 5_000_000);
        assert_eq!(a.io.count(), b.io.count());
        // Same filter -> identical average node accesses (Fig. 6's claim).
        assert!((a.io.mean() - b.io.mean()).abs() < 1e-9);
        // Naive refinement examines at least as many subsets.
        assert!(b.subsets.mean() >= a.subsets.mean());
        assert_eq!(a.causes.mean(), b.causes.mean());
        // The engine accumulated I/O across both runs.
        assert!(engine.accumulated_io().node_accesses > 0);
    }

    #[test]
    fn batch_runner_matches_serial_runner() {
        let ds = uncertain_dataset(&UncertainConfig {
            cardinality: 800,
            dim: 2,
            radius_range: (0.0, 100.0),
            seed: 99,
            ..UncertainConfig::default()
        });
        let alpha = 0.5;
        let engine =
            ExplainEngine::new(ds, EngineConfig::with_alpha(alpha)).expect("valid engine config");
        let q = Point::from([5_000.0, 5_000.0]);
        let ids = select_prsq_non_answers(
            engine.dataset(),
            engine.object_tree(),
            &q,
            &PrsqSelectionConfig {
                count: 8,
                alpha_classify: alpha,
                alpha_tractability: alpha,
                min_candidates: 1,
                max_candidates: 12,
                max_free_candidates: 10,
                seed: 3,
            },
        );
        assert!(!ids.is_empty());
        let batch = run_batch_over(&engine, ExplainStrategy::Cp, &q, &ids, alpha);
        let serial = batch_with(&engine, ExplainStrategy::Cp, &q, alpha, &ids, true);
        assert_eq!(batch.outcomes, serial);
    }
}
