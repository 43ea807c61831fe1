//! Plan-layer sweep: measures what planning a workload as one request
//! saves over a per-call loop of one-request plans on the two
//! workloads the planner was built for, asserts planned outcomes are
//! **bit-identical** to per-call explains, and writes the series to
//! `bench_out/BENCH_plan.json`.
//!
//! Workloads:
//!
//! * `alpha_sweep` — every selected non-answer at several α over one
//!   query: the planner computes each non-answer's stage-1 rows once
//!   and refines them at every α, where the per-call loop traverses
//!   once per explain — the ≥ 2× stage-1 dedup acceptance criterion of
//!   the plan layer (the measured factor is the α count), with fewer
//!   node accesses than the per-call loop,
//! * `nearby_q` — a grid of queries stepped toward the data from a
//!   base query over a fixed non-answer set: both sides pay one
//!   stage-1 traversal per `(an, q)`; acceptance is bit-identity and no
//!   wall-clock regression,
//! * `single_explain` — the latency path: the `explain()` shorthand
//!   against one `ExplainSession::run` of a one-request plan;
//!   acceptance is no wall-clock regression.
//!
//! Each side runs on its own session whose indexes are built and warmed
//! by one untimed probe before any clock starts, so the timings measure
//! the workload, not the lazy R-tree build. Wall-clock gates compare
//! medians of [`REPEATS`] runs per side, with the two sides interleaved
//! (alternating which runs first) so host noise lands on both alike.
//!
//! ```text
//! cargo run -p crp-bench --release --bin plan_sweep -- --quick
//! ```

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir};
use crp_bench::report::fnum;
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_core::{
    CrpError, CrpOutcome, EngineConfig, ExplainEngine, ExplainRequest, ExplainSession,
    ExplainStrategy, PlanCounters,
};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_geom::Point;
use crp_skyline::build_object_rtree;
use crp_uncertain::{ObjectId, UncertainDataset};
use std::fmt::Write as _;
use std::time::Instant;

const ALPHA: f64 = 0.6;
const ALPHAS: [f64; 6] = [0.25, 0.35, 0.45, 0.55, 0.65, 0.75];
/// Timed runs per side of each wall-clock comparison.
const REPEATS: usize = 41;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// One explain as its own one-request plan.
fn run_one(
    engine: &ExplainEngine,
    q: &Point,
    an: ObjectId,
    alpha: f64,
) -> Result<CrpOutcome, CrpError> {
    engine
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(ExplainStrategy::Cp)
            .with_alpha(alpha)])
        .into_single()
}

/// Runs `a` and `b` [`REPEATS`] times each, interleaved and alternating
/// which goes first, and returns their median wall-clock times.
fn interleaved_medians(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64) {
    let (mut a_ms, mut b_ms) = (Vec::new(), Vec::new());
    for rep in 0..REPEATS {
        if rep % 2 == 0 {
            a_ms.push(a());
            b_ms.push(b());
        } else {
            b_ms.push(b());
            a_ms.push(a());
        }
    }
    (median(a_ms), median(b_ms))
}

/// One workload measurement: the per-call loop against the planned
/// run, with the stage-1 traversal counts that explain the difference.
struct WorkloadRow {
    name: &'static str,
    tasks: usize,
    naive_ms: f64,
    planned_ms: f64,
    naive_traversals: usize,
    planned: PlanCounters,
    naive_node_accesses: u64,
    planned_node_accesses: u64,
    bit_identical: bool,
}

/// A session over `ds` whose lazily built indexes are built and warmed
/// by one untimed explain of `an` at `q`; its I/O counter is reset
/// afterwards.
fn warm_engine(ds: &UncertainDataset, q: &Point, an: ObjectId) -> ExplainEngine {
    let engine =
        ExplainEngine::new(ds.clone(), EngineConfig::with_alpha(ALPHA)).expect("valid config");
    engine.object_tree();
    let _ = run_one(&engine, q, an, ALPHA);
    engine.reset_io();
    engine
}

/// The per-call reference: each task as its own one-request plan, in
/// the same task order the planner expands. Returns the outcomes, the
/// wall-clock and the node accesses of the run.
fn naive_loop(
    engine: &ExplainEngine,
    queries: &[Point],
    ans: &[ObjectId],
    alphas: &[f64],
) -> (Vec<Result<CrpOutcome, CrpError>>, f64, u64) {
    engine.reset_io();
    let start = Instant::now();
    let mut outcomes = Vec::with_capacity(queries.len() * ans.len() * alphas.len());
    for q in queries {
        for &an in ans {
            for &alpha in alphas {
                outcomes.push(run_one(engine, q, an, alpha));
            }
        }
    }
    let wall = ms(start);
    (outcomes, wall, engine.reset_io().node_accesses)
}

/// The planned run: the same workload as one request.
fn planned_run(
    engine: &ExplainEngine,
    queries: &[Point],
    ans: &[ObjectId],
    alphas: &[f64],
) -> (Vec<Result<CrpOutcome, CrpError>>, f64, PlanCounters, u64) {
    let request = ExplainRequest::query_sweep(queries.to_vec(), ans)
        .with_strategy(ExplainStrategy::Cp)
        .with_alphas(alphas.to_vec());
    engine.reset_io();
    let start = Instant::now();
    let report = engine.run(std::slice::from_ref(&request));
    let wall = ms(start);
    (
        report.results,
        wall,
        report.counters,
        engine.reset_io().node_accesses,
    )
}

fn measure_workload(
    name: &'static str,
    ds: &UncertainDataset,
    queries: &[Point],
    ans: &[ObjectId],
    alphas: &[f64],
) -> WorkloadRow {
    let naive_engine = warm_engine(ds, &queries[0], ans[0]);
    let planned_engine = warm_engine(ds, &queries[0], ans[0]);
    // An untimed first pass per side supplies the outcomes and
    // counters (deterministic); timing follows.
    let (naive, _, naive_io) = naive_loop(&naive_engine, queries, ans, alphas);
    let (planned, _, counters, planned_io) = planned_run(&planned_engine, queries, ans, alphas);
    let (naive_ms, planned_ms) = interleaved_medians(
        || naive_loop(&naive_engine, queries, ans, alphas).1,
        || planned_run(&planned_engine, queries, ans, alphas).1,
    );

    // The per-call loop pays one stage-1 traversal per explain; the
    // planner pays one per distinct (an, q) unit.
    let naive_traversals = queries.len() * ans.len() * alphas.len();
    WorkloadRow {
        name,
        tasks: naive.len(),
        naive_ms,
        planned_ms,
        naive_traversals,
        planned: counters,
        naive_node_accesses: naive_io,
        planned_node_accesses: planned_io,
        // Whole outcomes, `stats.query` included: every planned task
        // reports its solo explain's counters.
        bit_identical: naive == planned,
    }
}

/// The nearby-query grid: steps from `q` toward the selected
/// non-answers' sample cloud, per-dimension clamped so every stepped
/// query stays between `q` and **every** sample coordinate.
fn nearby_grid(ds: &UncertainDataset, q: &Point, ans: &[ObjectId], steps: usize) -> Vec<Point> {
    let dim = q.dim();
    let mut target: Vec<f64> = vec![f64::INFINITY; dim];
    for &an in ans {
        let obj = ds.get(an).expect("selected ids are resident");
        for s in obj.samples() {
            for (t, c) in target.iter_mut().zip(s.point().coords()) {
                *t = t.min(*c);
            }
        }
    }
    // A dimension where some sample sits below q cannot move (the
    // stepped query must stay between q and every sample).
    for (t, qc) in target.iter_mut().zip(q.coords()) {
        *t = t.max(*qc);
    }
    let mut grid = vec![q.clone()];
    for step in 1..=steps {
        let t = 0.3 * step as f64 / steps as f64;
        grid.push(Point::new(
            q.coords()
                .iter()
                .zip(&target)
                .map(|(c, m)| c + t * (m - c))
                .collect::<Vec<f64>>(),
        ));
    }
    grid
}

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 60_000 });
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 16 } else { 40 });
    let grid_steps: usize = arg_value("--grid-steps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

    let cfg = UncertainConfig {
        cardinality,
        dim: 3,
        radius_range: (0.0, 5.0),
        seed: 0x914A_A5, // the plan-sweep workload seed
        ..UncertainConfig::default()
    };
    let ds = uncertain_dataset(&cfg);
    // An off-centre query: the data bulk sits above it per dimension,
    // so the nearby grid has room to step toward the samples.
    let centroid = centroid_query(&ds);
    let q = Point::new(
        centroid
            .coords()
            .iter()
            .map(|c| 0.55 * c)
            .collect::<Vec<f64>>(),
    );
    let tree = build_object_rtree(&ds, crp_rtree::RTreeParams::paper_default(3));
    let candidates = select_prsq_non_answers(
        &ds,
        &tree,
        &q,
        &PrsqSelectionConfig {
            count: trials * 6,
            alpha_classify: ALPHA,
            alpha_tractability: ALPHA,
            ..PrsqSelectionConfig::default()
        },
    );
    // Keep only non-answers wholly in q's upper quadrant, so a query
    // stepped from q toward the samples stays between q and every
    // sample.
    let ans: Vec<ObjectId> = candidates
        .into_iter()
        .filter(|&an| {
            let obj = ds.get(an).expect("selected ids are resident");
            obj.samples().iter().all(|s| {
                s.point()
                    .coords()
                    .iter()
                    .zip(q.coords())
                    .all(|(c, qc)| c > qc)
            })
        })
        .take(trials)
        .collect();
    assert!(
        ans.len() >= 4,
        "workload selection found only {} tractable upper-quadrant non-answers",
        ans.len()
    );
    println!(
        "plan_sweep: {} objects, {} non-answers, α grid {:?}, q grid 1+{}",
        ds.len(),
        ans.len(),
        ALPHAS,
        grid_steps
    );

    let alpha_row = measure_workload("alpha_sweep", &ds, std::slice::from_ref(&q), &ans, &ALPHAS);
    let grid = nearby_grid(&ds, &q, &ans, grid_steps);
    let nearby_row = measure_workload("nearby_q", &ds, &grid, &ans, &[ALPHA]);

    // Single-explain latency: the `explain()` shorthand against one
    // `run` of a one-request plan, warmed sessions, identical call
    // sequences.
    let run_engine = warm_engine(&ds, &q, ans[0]);
    let explain_engine = warm_engine(&ds, &q, ans[0]);
    let (run_ms, explain_ms) = interleaved_medians(
        || {
            let start = Instant::now();
            for &an in &ans {
                let _ = run_one(&run_engine, &q, an, ALPHA);
            }
            ms(start) / ans.len() as f64
        },
        || {
            let start = Instant::now();
            for &an in &ans {
                let _ = explain_engine.explain(&q, an);
            }
            ms(start) / ans.len() as f64
        },
    );
    let single_ratio = explain_ms / run_ms.max(1e-9);

    for row in [&alpha_row, &nearby_row] {
        println!(
            "{:>12}: {} tasks | naive {} ms / {} traversal(s) | planned {} ms / {} traversal(s) \
             | identical: {}",
            row.name,
            row.tasks,
            fnum(row.naive_ms),
            row.naive_traversals,
            fnum(row.planned_ms),
            row.planned.stage1_traversals,
            row.bit_identical
        );
    }
    println!(
        "single_explain: run {} ms/call vs explain() {} ms/call (ratio {}, medians of {REPEATS})",
        fnum(run_ms),
        fnum(explain_ms),
        fnum(single_ratio)
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"cardinality\": {}, \"dim\": 3, \"alpha\": {ALPHA}, \
         \"non_answers\": {}, \"alphas\": {}, \"grid\": {}, \"repeats\": {REPEATS}}},",
        ds.len(),
        ans.len(),
        ALPHAS.len(),
        grid.len()
    );
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, row) in [&alpha_row, &nearby_row].into_iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"tasks\": {}, \"naive_ms\": {}, \"planned_ms\": {}, \
             \"naive_stage1_traversals\": {}, \"planned_stage1_traversals\": {}, \
             \"shared_tasks\": {}, \"naive_node_accesses\": {}, \
             \"planned_node_accesses\": {}, \"dedup_factor\": {}, \"bit_identical\": {}}}{}",
            row.name,
            row.tasks,
            fnum(row.naive_ms),
            fnum(row.planned_ms),
            row.naive_traversals,
            row.planned.stage1_traversals,
            row.planned.stage1_shared_tasks,
            row.naive_node_accesses,
            row.planned_node_accesses,
            fnum(row.naive_traversals as f64 / row.planned.stage1_traversals.max(1) as f64),
            row.bit_identical,
            if i == 0 { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"single_explain\": {{\"run_ms_per_call\": {}, \"explain_ms_per_call\": {}, \
         \"ratio\": {}}}",
        fnum(run_ms),
        fnum(explain_ms),
        fnum(single_ratio)
    );
    let _ = writeln!(json, "}}");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("bench_out");
    let path = dir.join("BENCH_plan.json");
    std::fs::write(&path, json).expect("write BENCH_plan.json");
    println!("wrote {}", path.display());

    // ---- acceptance ----
    assert!(
        alpha_row.bit_identical,
        "alpha_sweep diverged from per-call"
    );
    assert!(nearby_row.bit_identical, "nearby_q diverged from per-call");
    let dedup =
        alpha_row.naive_traversals as f64 / alpha_row.planned.stage1_traversals.max(1) as f64;
    assert!(
        dedup >= 2.0,
        "alpha-sweep stage-1 dedup {dedup:.2}× is below the 2× acceptance \
         (naive {}, planned {})",
        alpha_row.naive_traversals,
        alpha_row.planned.stage1_traversals
    );
    assert!(
        alpha_row.planned_node_accesses < alpha_row.naive_node_accesses,
        "shared stage-1 rows must save index I/O ({} vs {})",
        alpha_row.planned_node_accesses,
        alpha_row.naive_node_accesses
    );
    // Wall-clock medians: planned may not regress (generous noise
    // margin — the planner never does more stage-1 work than the
    // per-call loop).
    for row in [&alpha_row, &nearby_row] {
        assert!(
            row.planned_ms <= row.naive_ms * 1.25,
            "{}: planned median {} ms regressed past naive median {} ms",
            row.name,
            row.planned_ms,
            row.naive_ms
        );
    }
    assert!(
        single_ratio <= 1.5,
        "single-explain planner overhead ratio {single_ratio:.2} is above tolerance"
    );
    println!(
        "acceptance: alpha-sweep dedup {dedup:.1}× (≥ 2×), single-explain ratio {single_ratio:.2}, \
         all outcomes bit-identical"
    );
}
