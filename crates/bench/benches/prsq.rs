//! Microbenchmarks of the probabilistic reverse skyline substrate:
//! `Pr(u)` evaluation (Eq. 2) with and without the R-tree filter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_geom::Point;
use crp_rtree::{QueryStats, RTreeParams};
use crp_skyline::{build_object_rtree, pr_reverse_skyline, pr_reverse_skyline_indexed};
use std::hint::black_box;

fn bench_pr(c: &mut Criterion) {
    let mut group = c.benchmark_group("prsq/pr_reverse_skyline");
    for &n in &[1_000usize, 10_000] {
        let ds = uncertain_dataset(&UncertainConfig {
            cardinality: n,
            dim: 3,
            radius_range: (0.0, 50.0),
            seed: 7,
            ..UncertainConfig::default()
        });
        let tree = build_object_rtree(&ds, RTreeParams::paper_default(3));
        let q = Point::from([5_000.0, 5_000.0, 5_000.0]);
        // A target near the query (realistic explanation subject).
        let target = (0..ds.len())
            .min_by_key(|&i| ds.object_at(i).expectation().distance(&q) as u64)
            .unwrap();
        group.bench_with_input(BenchmarkId::new("full_scan", n), &target, |b, &t| {
            b.iter(|| black_box(pr_reverse_skyline(&ds, t, &q, |_| false)))
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &target, |b, &t| {
            b.iter(|| {
                let mut stats = QueryStats::default();
                black_box(pr_reverse_skyline_indexed(
                    &ds,
                    tree.frozen(),
                    t,
                    &q,
                    &mut stats,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pr);
criterion_main!(benches);
