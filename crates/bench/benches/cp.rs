//! Benchmarks of the paper's core contribution: CP against Naive-I, and
//! the lemma ablations, on a fixed synthetic workload (the wall-clock
//! counterpart of Fig. 6 at criterion precision).

use criterion::{criterion_group, criterion_main, Criterion};
use crp_bench::exp::{centroid_query, explain_with};
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_core::{CpConfig, EngineConfig, ExplainEngine, ExplainStrategy};
use crp_data::{uncertain_dataset, UncertainConfig};
use std::hint::black_box;

fn bench_cp(c: &mut Criterion) {
    let ds = uncertain_dataset(&UncertainConfig {
        cardinality: 20_000,
        dim: 3,
        radius_range: (0.0, 5.0),
        seed: 0xBE,
        ..UncertainConfig::default()
    });
    let alpha = 0.6;
    let engine =
        ExplainEngine::new(ds, EngineConfig::with_alpha(alpha)).expect("valid engine config");
    let q = centroid_query(engine.dataset());
    let ids = select_prsq_non_answers(
        engine.dataset(),
        engine.object_tree(),
        &q,
        &PrsqSelectionConfig {
            count: 8,
            alpha_classify: alpha,
            alpha_tractability: alpha,
            min_candidates: 5,
            max_candidates: 16,
            max_free_candidates: 11,
            seed: 3,
        },
    );
    assert!(!ids.is_empty());

    let mut group = c.benchmark_group("cp/refinement");
    group.bench_function("cp_default", |b| {
        b.iter(|| {
            for &id in &ids {
                black_box(explain_with(&engine, ExplainStrategy::Cp, &q, alpha, id).unwrap());
            }
        })
    });
    for (name, cfg) in [
        (
            "cp_no_lemma4",
            CpConfig {
                use_lemma4: false,
                ..CpConfig::default()
            },
        ),
        (
            "cp_no_lemma5",
            CpConfig {
                use_lemma5: false,
                ..CpConfig::default()
            },
        ),
        (
            "cp_no_lemma6",
            CpConfig {
                use_lemma6: false,
                ..CpConfig::default()
            },
        ),
        (
            "cp_no_probability_bound",
            CpConfig {
                use_probability_bound: false,
                ..CpConfig::default()
            },
        ),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for &id in &ids {
                    black_box(
                        engine
                            .explain_configured(ExplainStrategy::Cp, &q, alpha, id, &cfg)
                            .unwrap(),
                    );
                }
            })
        });
    }
    group.sample_size(10);
    group.bench_function("naive_i", |b| {
        b.iter(|| {
            for &id in &ids {
                let naive = ExplainStrategy::NaiveI { max_subsets: None };
                black_box(explain_with(&engine, naive, &q, alpha, id).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cp);
criterion_main!(benches);
