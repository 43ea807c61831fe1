//! Live-dataset maintenance sweep: measures a mutable
//! [`ExplainEngine`] session absorbing small mutation batches (≤ 1 % of
//! the dataset per batch) through **incremental index maintenance**
//! (`apply`: condense + reinsert on the R*-tree, one packed-image
//! refreeze per batch) against the pre-update alternative — rebuilding
//! the index from scratch after every batch — and writes the series to
//! `bench_out/BENCH_updates.json`.
//!
//! Also reported:
//!
//! * one planned α-sweep over a non-answer of the final dataset: its
//!   stage-1 traversals (one for every α) and node accesses against a
//!   single explain's,
//! * a correctness pin: after every batch, explains from the mutated
//!   session match a fresh engine built on the current dataset.
//!
//! ```text
//! cargo run -p crp-bench --release --bin update_sweep -- --quick
//! ```

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir};
use crp_bench::report::fnum;
use crp_core::{
    Cause, CrpError, CrpOutcome, EngineConfig, ExplainEngine, ExplainRequest, ExplainSession,
    ExplainStrategy, Update,
};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_geom::Point;
use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const ALPHA: f64 = 0.6;

/// The check cap of every explain in the sweep: like the CLI's, it
/// and the default probability bound keep adversarial non-answers
/// (centroid queries over large cardinalities can have thousands of
/// candidates) from hijacking the measurement.
const SUBSET_BUDGET: u64 = 2_000_000;

/// The session configuration of every engine in the sweep.
fn sweep_config() -> EngineConfig {
    EngineConfig::with_alpha(ALPHA)
}

/// One capped CP explain of `an`. A capped outcome is a typed
/// `Partial` whose counters are deterministic for a one-task plan.
fn explain(engine: &ExplainEngine, q: &Point, an: ObjectId) -> Result<CrpOutcome, CrpError> {
    engine
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(ExplainStrategy::Cp)
            .with_alpha(ALPHA)
            .with_check_budget(SUBSET_BUDGET)])
        .into_single()
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// A fresh uncertain object near a random domain position — the
/// insert/replace payload of the synthetic update stream.
fn random_object(rng: &mut StdRng, id: ObjectId, dim: usize, domain: f64) -> UncertainObject {
    let center: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..domain)).collect();
    let radius: f64 = rng.random_range(0.5..5.0);
    let samples = rng.random_range(2..=4);
    let points: Vec<Point> = (0..samples)
        .map(|_| {
            Point::new(
                center
                    .iter()
                    .map(|c| c + rng.random_range(-radius..radius))
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();
    UncertainObject::with_equal_probs(id, points).expect("non-empty samples")
}

/// One mutation batch: ~45 % inserts, ~45 % deletes, ~10 % replaces,
/// resolved against the live id set so the cardinality stays stable.
fn make_batch(
    rng: &mut StdRng,
    live: &mut Vec<ObjectId>,
    next_id: &mut u32,
    size: usize,
    dim: usize,
    domain: f64,
) -> Vec<Update<UncertainObject>> {
    let mut batch = Vec::with_capacity(size);
    for _ in 0..size {
        let roll = rng.random_range(0.0..1.0f64);
        if roll < 0.45 || live.is_empty() {
            let id = ObjectId(*next_id);
            *next_id += 1;
            live.push(id);
            batch.push(Update::Insert(random_object(rng, id, dim, domain)));
        } else if roll < 0.9 {
            let victim = rng.random_range(0..live.len());
            batch.push(Update::Delete(live.swap_remove(victim)));
        } else {
            let id = live[rng.random_range(0..live.len())];
            batch.push(Update::Replace(random_object(rng, id, dim, domain)));
        }
    }
    batch
}

/// Causes (or error) of one explain — the comparison signature that
/// ignores node-access counters, which legitimately differ between an
/// incrementally maintained tree and a bulk-loaded one, and a capped
/// outcome's wall clock (`elapsed_ms`), the one field of its progress
/// that is not deterministic.
fn signature(result: Result<CrpOutcome, CrpError>) -> Result<Vec<Cause>, CrpError> {
    match result {
        Ok(o) => Ok(o.causes),
        Err(CrpError::Partial(mut p)) => {
            p.elapsed_ms = 0;
            Err(CrpError::Partial(p))
        }
        Err(e) => Err(e),
    }
}

struct BatchRow {
    batch: usize,
    updates: usize,
    incremental_ms: f64,
    rebuild_ms: f64,
    reinserts: u64,
    identical: bool,
}

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 10_000 } else { 50_000 });
    let batches: usize = arg_value("--batches")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 5 } else { 10 });
    // ≤ 1 % of the dataset per batch — the live-service regime where
    // rebuild-from-scratch is pure waste.
    let batch_size: usize = arg_value("--batch-size")
        .and_then(|v| v.parse().ok())
        .unwrap_or((cardinality / 100).max(1));
    assert!(
        batch_size * 100 <= cardinality.max(100),
        "mutation batches must stay ≤ 1 % of the dataset"
    );

    let cfg = UncertainConfig {
        cardinality,
        dim: 3,
        radius_range: (0.0, 5.0),
        seed: 0x11FE_0, // the live-dataset workload seed
        ..UncertainConfig::default()
    };
    eprintln!("[update_sweep] generating lUrU ({cardinality} objects)…");
    let ds = uncertain_dataset(&cfg);
    let dim = ds.dim().expect("non-empty dataset");
    let q = centroid_query(&ds);

    // The mutable session under test (incremental maintenance)…
    let mut incremental = ExplainEngine::new(ds.clone(), sweep_config()).expect("valid config");
    let t = Instant::now();
    incremental.object_tree();
    let initial_build_ms = ms(t);
    // …and the baseline: the dataset is kept current, but every batch
    // ends in a full index rebuild (what the engine did before updates
    // existed).
    let mut rebuild_ds = ds.clone();

    let mut rng = StdRng::seed_from_u64(0x5EED_11FE);
    let mut live: Vec<ObjectId> = ds.iter().map(|o| o.id()).collect();
    let mut next_id = live.iter().map(|id| id.0).max().unwrap_or(0) + 1;

    let mut rows: Vec<BatchRow> = Vec::new();
    for batch_idx in 0..batches {
        let batch = make_batch(
            &mut rng,
            &mut live,
            &mut next_id,
            batch_size,
            dim,
            cfg.domain,
        );

        // Pick cheap explain targets once per batch: stage-1 candidate
        // counts are one traversal each, and small candidate sets keep
        // the (quadratic-in-candidates) refinement out of the
        // maintenance measurement — centroid-adjacent objects can carry
        // thousands of candidates and cost seconds per explain.
        let scan: Vec<ObjectId> = live.iter().take(16).copied().collect();
        let mut by_cost: Vec<(usize, ObjectId)> = scan
            .iter()
            .map(|&an| {
                let n = incremental
                    .candidate_ids(&q, an)
                    .map(|c| c.len())
                    .unwrap_or(usize::MAX);
                (n, an)
            })
            .collect();
        by_cost.sort_unstable();
        let probe: Vec<ObjectId> = by_cost.iter().take(4).map(|&(_, an)| an).collect();

        let before = incremental.accumulated_io();

        // Incremental: apply the deltas; both trees stay live. The
        // packed image is rebuilt once for the batch, as a publish does.
        let t = Instant::now();
        for update in &batch {
            incremental
                .apply(update.clone())
                .expect("synthetic updates are valid");
        }
        incremental.refreeze();
        let incremental_ms = ms(t);
        let after = incremental.accumulated_io();

        // Rebuild baseline: mutate the dataset, then build a fresh
        // index over the full cardinality.
        let t = Instant::now();
        for update in &batch {
            rebuild_ds
                .apply(update.clone())
                .expect("synthetic updates are valid");
        }
        let rebuilt = ExplainEngine::new(rebuild_ds.clone(), sweep_config()).expect("valid config");
        rebuilt.object_tree();
        let rebuild_ms = ms(t);

        // Correctness pin: the mutated session answers like the freshly
        // rebuilt engine — full pipeline on the cheap probe targets,
        // stage-1 candidate sets on a wider sample spread across the
        // dataset (traversal-only, so the pin stays cheap at any
        // cardinality; full bit-identity is the property-test suite's
        // job).
        let mut identical = true;
        for &an in &probe {
            let reference = signature(explain(&rebuilt, &q, an));
            let got = signature(explain(&incremental, &q, an));
            if got != reference {
                identical = false;
            }
        }
        for &an in live.iter().step_by(live.len() / 32 + 1) {
            let reference = rebuilt.candidate_ids(&q, an).ok();
            if incremental.candidate_ids(&q, an).ok() != reference {
                identical = false;
            }
        }

        rows.push(BatchRow {
            batch: batch_idx,
            updates: batch.len(),
            incremental_ms,
            rebuild_ms,
            reinserts: after.reinserts - before.reinserts,
            identical,
        });
        eprintln!(
            "[update_sweep] batch {batch_idx}: incr {} ms, rebuild {} ms",
            fnum(incremental_ms),
            fnum(rebuild_ms)
        );
    }

    // --- α-sweep over one non-answer ---------------------------------
    // Smallest non-empty candidate set among a sample of live ids: the
    // sweep should measure stage-1 sharing, not an adversarial
    // refinement.
    let mut sweep_candidates: Vec<(usize, ObjectId)> = live
        .iter()
        .take(16)
        .map(|&an| {
            let n = incremental
                .candidate_ids(&q, an)
                .map(|c| c.len())
                .unwrap_or(usize::MAX);
            (n, an)
        })
        .filter(|&(n, _)| n > 0)
        .collect();
    sweep_candidates.sort_unstable();
    let sweep_target = sweep_candidates
        .iter()
        .map(|&(_, an)| an)
        .find(|&an| explain(&incremental, &q, an).is_ok())
        .unwrap_or(live[0]);
    let sweep_engine = ExplainEngine::new(
        UncertainDataset::from_objects(incremental.dataset().iter().cloned())
            .expect("live dataset stays valid"),
        sweep_config(),
    )
    .expect("valid config");
    sweep_engine.object_tree();
    let alphas: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    // What one explain pays, on a fork sharing the warm index.
    let solo = sweep_engine.fork();
    let _ = explain(&solo, &q, sweep_target);
    let solo_io = solo.accumulated_io().node_accesses;
    // The planned sweep: one stage-1 unit whose rows every α refines.
    let t = Instant::now();
    let report = sweep_engine.run(&[
        ExplainRequest::alpha_sweep(&q, sweep_target, alphas.clone())
            .with_strategy(ExplainStrategy::Cp)
            .with_check_budget(SUBSET_BUDGET),
    ]);
    let sweep_ms = ms(t);
    let sweep_traversals = report.counters.stage1_traversals;
    let sweep_io = sweep_engine.accumulated_io().node_accesses;

    // --- report ------------------------------------------------------
    let total_incremental: f64 = rows.iter().map(|r| r.incremental_ms).sum();
    let total_rebuild: f64 = rows.iter().map(|r| r.rebuild_ms).sum();
    let all_identical = rows.iter().all(|r| r.identical);
    let speedup = total_rebuild / total_incremental.max(1e-9);

    println!(
        "\nUpdate sweep — lUrU |P| = {cardinality}, d = 3, α = {ALPHA}, {batches} batches × \
         {batch_size} updates (≤1 %), initial build {} ms",
        fnum(initial_build_ms)
    );
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>10} {:>7}",
        "batch", "updates", "incr(ms)", "rebuild(ms)", "reinserts", "ok"
    );
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>10} {:>12} {:>10} {:>7}",
            r.batch,
            r.updates,
            fnum(r.incremental_ms),
            fnum(r.rebuild_ms),
            r.reinserts,
            r.identical
        );
    }
    println!(
        "totals: incremental {} ms, rebuild {} ms → {speedup:.1}× | α-sweep: {} α in {} ms, \
         {sweep_traversals} stage-1 traversal(s), {sweep_io} node accesses (one explain: \
         {solo_io})",
        fnum(total_incremental),
        fnum(total_rebuild),
        alphas.len(),
        fnum(sweep_ms)
    );

    // --- JSON series -------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"family\": \"lUrU\", \"cardinality\": {cardinality}, \"dim\": 3, \
         \"alpha\": {ALPHA}, \"batches\": {batches}, \"batch_size\": {batch_size}, \
         \"mutation_fraction\": {:.4}, \"initial_build_ms\": {initial_build_ms:.3}}},",
        batch_size as f64 / cardinality as f64
    );
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"batch\": {}, \"updates\": {}, \"incremental_ms\": {:.3}, \
             \"rebuild_ms\": {:.3}, \"reinserts\": {}, \"identical\": {}}}{}",
            r.batch,
            r.updates,
            r.incremental_ms,
            r.rebuild_ms,
            r.reinserts,
            r.identical,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"alpha_sweep\": {{\"target\": {}, \"alphas\": {}, \"sweep_ms\": {sweep_ms:.3}, \
         \"stage1_traversals\": {sweep_traversals}, \"node_accesses\": {sweep_io}, \
         \"solo_node_accesses\": {solo_io}}},",
        sweep_target.0,
        alphas.len()
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"metric\": \"incremental maintenance vs rebuild-from-scratch\", \
         \"incremental_ms\": {total_incremental:.3}, \"rebuild_ms\": {total_rebuild:.3}, \
         \"speedup\": {speedup:.3}, \"met\": {}, \"identical\": {all_identical}}}",
        total_incremental < total_rebuild && all_identical
    );
    let _ = writeln!(json, "}}");

    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("bench_out directory");
    let path = dir.join("BENCH_updates.json");
    std::fs::write(&path, &json).expect("BENCH_updates.json written");
    println!("\nwrote {}", path.display());

    assert!(
        all_identical,
        "mutated sessions diverged from a fresh engine on the final dataset"
    );
    if total_incremental >= total_rebuild {
        eprintln!(
            "[update_sweep] WARNING: incremental maintenance ({total_incremental:.1} ms) did \
             not beat rebuild ({total_rebuild:.1} ms)"
        );
        std::process::exit(2);
    }
    println!("incremental maintenance beats rebuild-from-scratch by {speedup:.1}× on ≤1 % batches");
}
