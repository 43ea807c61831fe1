//! Microbenchmarks of the R*-tree substrate: construction strategies and
//! window queries at the paper's page-derived fanout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crp_geom::{dominance_rect, HyperRect, Point};
use crp_rtree::{QueryStats, RTree, RTreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_points(n: usize, dim: usize, seed: u64) -> Vec<(Point, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            (
                Point::new(
                    (0..dim)
                        .map(|_| rng.random_range(0.0..10_000.0f64))
                        .collect::<Vec<_>>(),
                ),
                i as u32,
            )
        })
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtree/build");
    for &n in &[1_000usize, 10_000] {
        let pts = random_points(n, 3, 1);
        group.bench_with_input(BenchmarkId::new("bulk_str", n), &pts, |b, pts| {
            b.iter(|| {
                let t: RTree<u32> =
                    RTree::bulk_load_points(3, RTreeParams::paper_default(3), pts.clone());
                black_box(t.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("insert", n), &pts, |b, pts| {
            b.iter(|| {
                let mut t: RTree<u32> = RTree::with_paper_params(3);
                for (p, i) in pts {
                    t.insert_point(p.clone(), *i);
                }
                black_box(t.len())
            })
        });
    }
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let pts = random_points(100_000, 3, 2);
    let tree: RTree<u32> = RTree::bulk_load_points(3, RTreeParams::paper_default(3), pts);
    let image = tree.frozen();
    let mut group = c.benchmark_group("rtree/query");
    let q = Point::from([5_000.0, 5_000.0, 5_000.0]);
    for &half in &[100.0f64, 500.0, 2_000.0] {
        let window = HyperRect::centered(&q, &[half, half, half]);
        group.bench_with_input(
            BenchmarkId::new("window", half as u64),
            &window,
            |b, window| {
                b.iter(|| {
                    let mut stats = QueryStats::default();
                    let mut hits = 0u64;
                    image.visit_windows(std::slice::from_ref(window), &mut stats, &mut |_| {
                        hits += 1;
                        true
                    });
                    black_box((hits, stats.node_accesses))
                })
            },
        );
    }
    // The CP filter pattern: several dominance windows in one traversal.
    let centers = [
        Point::from([6_000.0, 6_100.0, 5_900.0]),
        Point::from([6_050.0, 6_000.0, 6_010.0]),
        Point::from([5_990.0, 6_060.0, 6_000.0]),
    ];
    let windows: Vec<HyperRect> = centers.iter().map(|c| dominance_rect(c, &q)).collect();
    group.bench_function("reclist_multi_window", |b| {
        b.iter(|| {
            let mut stats = QueryStats::default();
            let mut hits = 0u64;
            image.visit_windows(&windows, &mut stats, &mut |_| {
                hits += 1;
                true
            });
            black_box((hits, stats.node_accesses))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_build, bench_queries);
criterion_main!(benches);
