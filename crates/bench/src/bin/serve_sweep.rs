//! Serving-layer sweep: measures what planner-window batching buys a
//! set of concurrent clients over per-request serving, asserts the
//! served outcomes are **bit-identical** to an offline serial planner
//! run, and writes the series to `bench_out/BENCH_serve.json`.
//!
//! Workload: 16 read-modify-write clients over real TCP. Each round,
//! every client ingests one record (an insert far outside the hot
//! region, so explain outcomes stay comparable to offline) and then
//! explains that round's non-answer at its own *nearby-grid* query
//! (every step is fresh, so every `(an, q)` pays its own stage-1
//! traversal in either mode). Windowed serving wins on two counts:
//!
//! * the round's 16 inserts **group-commit** into one backend batch —
//!   one snapshot publish instead of sixteen (publishing forks the
//!   engine, the dominant per-write cost);
//! * the round's 16 explains share one planner window — one plan over
//!   one pinned snapshot — where per-request serving closes, plans and
//!   pins a window per request.
//!
//! * `per_request` — the same server with `window_max = 1`: every
//!   request is its own planner window, executed in arrival order,
//! * `windowed` — `window_max = 16`, few-ms gather deadline: concurrent
//!   requests compile into one plan per window.
//!
//! Acceptance: windowed aggregate explains/sec ≥ 2× per-request, all
//! outcomes bit-identical to offline.
//!
//! ```text
//! cargo run -p crp-bench --release --bin serve_sweep -- --quick
//! ```

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir};
use crp_bench::report::fnum;
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_core::{
    ClientClass, CrpError, CrpOutcome, EngineConfig, ExplainEngine, ExplainRequest, ExplainSession,
};
use crp_data::wire::{WireCause, WireResult};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_geom::Point;
use crp_serve::{Client, ServeConfig, Server, VolatileBackend};
use crp_skyline::build_object_rtree;
use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject, Update};
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const ALPHA: f64 = 0.6;
const CLIENTS: usize = 16;

/// The same outcome → wire mapping the server applies, duplicated here
/// so the offline reference is computed independently of the crate
/// under test.
fn offline_wire(result: &Result<CrpOutcome, CrpError>) -> WireResult {
    match result {
        Ok(outcome) => WireResult::Causes(
            outcome
                .causes
                .iter()
                .map(|c| WireCause {
                    id: c.id,
                    responsibility: c.responsibility,
                    counterfactual: c.counterfactual,
                    contingency: c.min_contingency.clone(),
                })
                .collect(),
        ),
        Err(CrpError::NotANonAnswer { prob }) => WireResult::Answer { prob: *prob },
        Err(other) => WireResult::Failed {
            message: other.to_string(),
        },
    }
}

/// The nearby-query grid (same construction as `plan_sweep`): steps
/// from `q` toward the selected non-answers' sample cloud, clamped so
/// every stepped query stays between `q` and every sample coordinate.
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
    for (t, qc) in target.iter_mut().zip(q.coords()) {
        *t = t.max(*qc);
    }
    (1..=steps)
        .map(|step| {
            let t = 0.3 * step as f64 / steps as f64;
            Point::new(
                q.coords()
                    .iter()
                    .zip(&target)
                    .map(|(c, m)| c + t * (m - c))
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

/// Forces the engine's lazy index build (and nothing else: the probe
/// query sits away from the benchmarked grid segment) so neither
/// serving mode pays it inside its first timed window.
fn warm(engine: &ExplainEngine, ds: &UncertainDataset) {
    let centroid = centroid_query(ds);
    let probe = Point::new(
        centroid
            .coords()
            .iter()
            .map(|c| 0.9 * c)
            .collect::<Vec<f64>>(),
    );
    let _ = ExplainSession::candidate_ids(engine, &probe, ObjectId(0));
}

struct ServeRun {
    wall_ms: f64,
    rps: f64,
    windows: u64,
    dedup_pct: u64,
    updates: u64,
    update_batches: u64,
    p50_us: u64,
    p99_us: u64,
    /// `results[client][round]` in send order.
    results: Vec<Vec<Vec<WireResult>>>,
}

/// Serves the whole grid workload through one server: `CLIENTS`
/// threads, each a real TCP client, lockstep rounds (a client sends
/// round `r+1` only after its round-`r` reply). Every round a client
/// first ingests one far-off record (acked before its explain goes
/// out), then explains at `queries[c][r]`, client `c`'s query for
/// round `r`.
fn serve_run(
    ds: &UncertainDataset,
    config: ServeConfig,
    queries: &[Vec<Point>],
    ans: &[ObjectId],
) -> ServeRun {
    let engine = ExplainEngine::new(ds.clone(), EngineConfig::with_alpha(ALPHA))
        .expect("valid server engine");
    warm(&engine, ds);
    let server =
        Server::start(Arc::new(VolatileBackend::new(engine)), config).expect("bind server");
    let addr = server.local_addr();
    let stats = server.stats();
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));

    let rounds = queries[0].len();
    let ingest_base = ds.len() as u32;
    let dim = ds.dim().expect("discrete dataset");
    let (results, wall_ms) = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(c, mine)| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    // Batch class: no deadline or node ceiling, and
                    // these explains stay far below the check ceiling
                    // every class shares, so outcomes are deterministic
                    // and comparable to offline.
                    let (mut client, _) =
                        Client::connect_as(addr, ClientClass::Batch).expect("connect client");
                    barrier.wait();
                    mine.iter()
                        .enumerate()
                        .map(|(r, q)| {
                            // Ingest one record far outside the hot
                            // region, acked before the read goes out.
                            let id = ingest_base + (c * rounds + r) as u32;
                            client
                                .update(vec![Update::Insert(UncertainObject::certain(
                                    ObjectId(id),
                                    Point::new(vec![1e7 + f64::from(id); dim]),
                                ))])
                                .expect("acked ingest");
                            let round_an = [ans[r % ans.len()]];
                            let (_, results) = client
                                .explain(&round_an, Some(q), &[])
                                .expect("served explain");
                            results
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, start.elapsed().as_secs_f64() * 1e3)
    });

    let run = ServeRun {
        wall_ms,
        rps: (CLIENTS * rounds) as f64 / (wall_ms / 1e3),
        windows: stats.windows(),
        dedup_pct: stats.dedup_pct(),
        updates: stats.updates(),
        update_batches: stats.update_batches(),
        p50_us: stats.quantile_us(50),
        p99_us: stats.quantile_us(99),
        results,
    };
    server.request_shutdown();
    server.join();
    run
}

/// The offline serial reference: every (client, round) request as its
/// own plan on one local session, in client-major order.
fn offline_reference(
    ds: &UncertainDataset,
    queries: &[Vec<Point>],
    ans: &[ObjectId],
) -> Vec<Vec<Vec<WireResult>>> {
    let engine = ExplainEngine::new(ds.clone(), EngineConfig::with_alpha(ALPHA))
        .expect("valid offline engine");
    queries
        .iter()
        .map(|mine| {
            mine.iter()
                .enumerate()
                .map(|(r, q)| {
                    let round_an = [ans[r % ans.len()]];
                    let request = ExplainRequest::batch(q, &round_an).with_alphas(Vec::new());
                    engine
                        .run(std::slice::from_ref(&request))
                        .results
                        .iter()
                        .map(offline_wire)
                        .collect::<Vec<_>>()
                })
                .collect()
        })
        .collect()
}

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 40_000 });
    let rounds: usize = arg_value("--rounds")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 3 } else { 6 });
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 6 } else { 8 });

    let cfg = UncertainConfig {
        cardinality,
        dim: 3,
        radius_range: (0.0, 5.0),
        seed: 0x914A_A5, // the plan-sweep workload seed: the serving
        // layer is benchmarked on the same nearby-grid geometry
        ..UncertainConfig::default()
    };
    let ds = uncertain_dataset(&cfg);
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
    // Upper-quadrant non-answers only, so every stepped query stays
    // between q and every sample.
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

    // One fresh grid step per (client, round): nothing repeats, so no
    // two requests share a stage-1 unit.
    let grid = nearby_grid(&ds, &q, &ans, CLIENTS * rounds);
    let queries: Vec<Vec<Point>> = (0..CLIENTS)
        .map(|c| (0..rounds).map(|r| grid[c * rounds + r].clone()).collect())
        .collect();
    println!(
        "serve_sweep: {} objects, {} non-answers, {} clients × {} rounds",
        ds.len(),
        ans.len(),
        CLIENTS,
        rounds
    );

    let per_request = serve_run(
        &ds,
        ServeConfig {
            window_max: 1,
            ..ServeConfig::default()
        },
        &queries,
        &ans,
    );
    let windowed = serve_run(
        &ds,
        ServeConfig {
            window_max: CLIENTS,
            window_ms: 8,
            ..ServeConfig::default()
        },
        &queries,
        &ans,
    );
    let speedup = windowed.rps / per_request.rps.max(1e-9);

    let offline = offline_reference(&ds, &queries, &ans);
    let bit_identical = windowed.results == offline && per_request.results == offline;

    for (name, run) in [("per_request", &per_request), ("windowed", &windowed)] {
        println!(
            "{name:>12}: {} ms wall | {} explains/s | {} window(s), dedup {}% | \
             {} update(s) in {} publish(es) | p50 {} µs, p99 {} µs",
            fnum(run.wall_ms),
            fnum(run.rps),
            run.windows,
            run.dedup_pct,
            run.updates,
            run.update_batches,
            run.p50_us,
            run.p99_us
        );
    }
    println!(
        "speedup {}× | bit-identical to offline: {bit_identical}",
        fnum(speedup)
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"cardinality\": {}, \"dim\": 3, \"alpha\": {ALPHA}, \
         \"non_answers\": {}, \"clients\": {CLIENTS}, \"rounds\": {rounds}}},",
        ds.len(),
        ans.len()
    );
    for (name, run) in [("per_request", &per_request), ("windowed", &windowed)] {
        let _ = writeln!(
            json,
            "  \"{name}\": {{\"wall_ms\": {}, \"explains_per_sec\": {}, \"windows\": {}, \
             \"dedup_pct\": {}, \"updates\": {}, \"update_batches\": {}, \
             \"p50_us\": {}, \"p99_us\": {}}},",
            fnum(run.wall_ms),
            fnum(run.rps),
            run.windows,
            run.dedup_pct,
            run.updates,
            run.update_batches,
            run.p50_us,
            run.p99_us,
        );
    }
    let _ = writeln!(
        json,
        "  \"speedup\": {}, \"bit_identical\": {bit_identical}",
        fnum(speedup)
    );
    let _ = writeln!(json, "}}");
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("bench_out");
    let path = dir.join("BENCH_serve.json");
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());

    // ---- acceptance ----
    assert!(
        bit_identical,
        "served outcomes diverged from the offline serial reference"
    );
    assert!(
        speedup >= 2.0,
        "windowed serving {speedup:.2}× per-request is below the 2× acceptance \
         ({} vs {} explains/s)",
        fnum(windowed.rps),
        fnum(per_request.rps)
    );
    println!("acceptance: {speedup:.1}× aggregate throughput (≥ 2×), identity holds");
}
