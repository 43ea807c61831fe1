//! Benchmarks of the certain-data algorithm: CR against Naive-II (the
//! wall-clock counterpart of Fig. 11 at criterion precision).

use criterion::{criterion_group, criterion_main, Criterion};
use crp_bench::exp::{centroid_query, explain_with};
use crp_bench::selection::select_rsq_non_answers;
use crp_core::{EngineConfig, ExplainEngine, ExplainStrategy};
use crp_data::{certain_dataset, CertainConfig, CertainKind};
use std::hint::black_box;

fn bench_cr(c: &mut Criterion) {
    let ds = certain_dataset(&CertainConfig {
        kind: CertainKind::Independent,
        cardinality: 20_000,
        dim: 3,
        seed: 0xBC,
        ..CertainConfig::default()
    });
    let engine = ExplainEngine::new(ds, EngineConfig::default()).expect("valid engine config");
    let q = centroid_query(engine.dataset());
    let ids = select_rsq_non_answers(
        engine.dataset(),
        engine.object_tree().frozen(),
        &q,
        8,
        8,
        Some(16),
        4,
    );
    assert!(!ids.is_empty());

    let mut group = c.benchmark_group("cr/verification");
    group.bench_function("cr_lemma7", |b| {
        b.iter(|| {
            for &id in &ids {
                black_box(explain_with(&engine, ExplainStrategy::Cr, &q, 0.5, id).unwrap());
            }
        })
    });
    group.sample_size(10);
    group.bench_function("naive_ii", |b| {
        b.iter(|| {
            for &id in &ids {
                let naive = ExplainStrategy::NaiveII { max_subsets: None };
                black_box(explain_with(&engine, naive, &q, 0.5, id).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cr);
criterion_main!(benches);
