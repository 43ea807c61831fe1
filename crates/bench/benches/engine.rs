//! Benchmarks of the `ExplainEngine` batch mode: one rayon-parallel
//! `explain_batch` call against the per-call serial loop over the same
//! non-answers — the speedup the engine refactor exists to deliver.
//!
//! Before timing anything, the harness asserts the parallel batch is
//! **bit-identical** to the serial path (the engine's contract), so
//! `cargo bench -p crp-bench --bench engine -- --test` doubles as a
//! smoke check of that contract in CI.

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crp_bench::exp::{batch_with, centroid_query, explain_with};
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_core::{EngineConfig, ExplainEngine, ExplainStrategy};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_uncertain::ObjectId;
use std::hint::black_box;

const ALPHA: f64 = 0.6;

struct Fixture {
    engine: ExplainEngine,
    q: crp_geom::Point,
    ids: Vec<ObjectId>,
}

/// The 20k-object fixture: a session and the PRSQ non-answers it
/// explains.
fn fixture() -> Fixture {
    let ds = uncertain_dataset(&UncertainConfig {
        cardinality: 20_000,
        dim: 3,
        radius_range: (0.0, 5.0),
        seed: 0xBA7C4,
        ..UncertainConfig::default()
    });
    let engine =
        ExplainEngine::new(ds, EngineConfig::with_alpha(ALPHA)).expect("valid engine config");
    let q = centroid_query(engine.dataset());
    let ids = select_prsq_non_answers(
        engine.dataset(),
        engine.object_tree(),
        &q,
        &PrsqSelectionConfig {
            count: 64,
            alpha_classify: ALPHA,
            alpha_tractability: ALPHA,
            min_candidates: 4,
            max_candidates: 18,
            max_free_candidates: 12,
            seed: 0x5EED_BA7,
        },
    );
    assert!(
        ids.len() >= 32,
        "batch benchmark needs >= 32 non-answers, selected {}",
        ids.len()
    );
    Fixture { engine, q, ids }
}

fn bench_engine_batch(c: &mut Criterion) {
    let Fixture { engine, q, ids } = &fixture();
    eprintln!(
        "[engine bench] {} non-answers, {} rayon threads",
        ids.len(),
        rayon::current_num_threads()
    );

    // Contract check: the parallel batch must be bit-identical to the
    // serial path before its speedup means anything.
    let parallel = batch_with(engine, ExplainStrategy::Cp, q, ALPHA, ids, false);
    let serial = batch_with(engine, ExplainStrategy::Cp, q, ALPHA, ids, true);
    assert_eq!(parallel, serial, "parallel batch diverged from serial");

    let mut group = c.benchmark_group("engine/batch");
    group.bench_with_input(BenchmarkId::new("per_call_cp", ids.len()), ids, |b, ids| {
        b.iter(|| {
            for &id in ids.iter() {
                black_box(explain_with(engine, ExplainStrategy::Cp, q, ALPHA, id).unwrap());
            }
        })
    });
    group.bench_with_input(
        BenchmarkId::new("explain_batch_rayon", ids.len()),
        ids,
        |b, ids| {
            b.iter(|| {
                black_box(batch_with(
                    engine,
                    ExplainStrategy::Cp,
                    q,
                    ALPHA,
                    ids,
                    false,
                ))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_engine_batch);
criterion_main!(benches);
