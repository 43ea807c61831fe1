//! Stage-1 filter throughput sweep — the R*-tree read-path trajectory
//! of the packed-SoA rewrite, written to `bench_out/BENCH_filter.json`.
//!
//! Three representations of the same window-filter work, on one
//! bulk-loaded 100k-entry tree:
//!
//! 1. `pointer` — the mutable arena traversal (per-entry `HyperRect`
//!    objects, heap-boxed coordinates, child pointers),
//! 2. `packed-scalar` — the frozen level-order SoA image
//!    (cache-line-aligned per-axis `lo[]`/`hi[]` slabs) with the
//!    portable scalar rect kernel pinned,
//! 3. `packed-simd` — the same image through the AVX2 kernel (falls
//!    back to scalar where AVX2 is unavailable).
//!
//! Each runs the **single-query** protocol (one descent per window of a
//! nearby-query grid). Reported per variant: windows/sec, modeled rect
//! checks/sec (node accesses × the representation's per-node scan
//! width; padded slots for the packed kernels, live entries for the
//! pointer tree), and the effective coordinate-slab GB/s that implies.
//!
//! Acceptance (enforced only for the auto-dispatched run):
//! `packed-simd` ≥ 2× `pointer` windows/sec on the 100k tree, and every
//! representation returning identical hit sets.
//!
//! Setting `CRP_KERNEL` (e.g. `scalar` on the CI fallback leg) pins the
//! rect kernel for every packed variant, writes
//! `BENCH_filter_<kernel>.json`, and reports the speedups without
//! enforcing the bar (the bar is only meaningful under auto dispatch).
//!
//! ```text
//! cargo run -p crp-bench --release --bin filter_sweep -- --quick
//! ```

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, out_dir};
use crp_bench::report::fnum;
use crp_geom::{HyperRect, Point};
use crp_rtree::{
    rect_simd_supported, set_rect_kernel, QueryStats, RTree, RTreeParams, RectKernel, WindowQuery,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const DOMAIN: f64 = 1000.0;

/// Uniform random boxes with a small extent — the sample-window regime
/// of the stage-1 filter (each window keeps selectivity well under 1%).
fn build_tree(cardinality: usize, dim: usize) -> RTree<u32> {
    let mut rng = StdRng::seed_from_u64(0xF17_7E2);
    let items: Vec<(HyperRect, u32)> = (0..cardinality)
        .map(|i| {
            let lo: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..DOMAIN)).collect();
            let hi: Vec<f64> = lo.iter().map(|&c| c + rng.random_range(0.1..2.0)).collect();
            (HyperRect::new(Point::new(lo), Point::new(hi)), i as u32)
        })
        .collect();
    RTree::bulk_load(dim, RTreeParams::default(), items)
}

/// The nearby-query grid: `n` windows jittered around one anchor, the
/// regime of the plan layer's query sweeps against a common non-answer
/// neighbourhood.
fn nearby_windows(n: usize, dim: usize, side: f64) -> Vec<HyperRect> {
    let mut rng = StdRng::seed_from_u64(0x6E42_B7);
    let anchor: Vec<f64> = (0..dim)
        .map(|_| rng.random_range(0.3 * DOMAIN..0.6 * DOMAIN))
        .collect();
    (0..n)
        .map(|_| {
            let lo: Vec<f64> = anchor
                .iter()
                .map(|&c| c + rng.random_range(-0.5 * side..0.5 * side))
                .collect();
            let hi: Vec<f64> = lo.iter().map(|&c| c + side).collect();
            HyperRect::new(Point::new(lo), Point::new(hi))
        })
        .collect()
}

/// One pass of the single-query protocol: one descent per window.
/// Returns the hit count of the pass.
fn single_pass(tree: &dyn WindowQuery<u32>, windows: &[HyperRect], stats: &mut QueryStats) -> u64 {
    let mut hits = 0u64;
    for w in windows {
        tree.visit_windows(std::slice::from_ref(w), stats, &mut |_| {
            hits += 1;
            true
        });
    }
    hits
}

struct VariantRun {
    name: &'static str,
    kernel: String,
    windows_per_sec: f64,
    checks_per_sec: f64,
    effective_gbps: f64,
    node_accesses_per_pass: u64,
    hits_per_pass: u64,
}

/// Repeats `pass` until the measurement is long enough to trust and
/// returns (elapsed seconds, passes, node accesses, hits of one pass).
fn measure(mut pass: impl FnMut(&mut QueryStats) -> u64, min_seconds: f64) -> (f64, u64, u64, u64) {
    // Warm-up grows the thread-local traversal scratch and faults the
    // slabs in; steady-state passes allocate nothing.
    let mut stats = QueryStats::default();
    let hits = pass(&mut stats);
    let mut stats = QueryStats::default();
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        let got = pass(&mut stats);
        assert_eq!(got, hits, "hit count drifted between passes");
        passes += 1;
        if start.elapsed().as_secs_f64() >= min_seconds && passes >= 2 {
            break;
        }
    }
    (
        start.elapsed().as_secs_f64(),
        passes,
        stats.node_accesses,
        hits,
    )
}

/// Sorted hit ids of one single-query pass — the identity signature.
fn hit_ids(tree: &dyn WindowQuery<u32>, windows: &[HyperRect]) -> Vec<(usize, u32)> {
    let mut ids = Vec::new();
    let mut stats = QueryStats::default();
    for (qi, w) in windows.iter().enumerate() {
        tree.visit_windows(std::slice::from_ref(w), &mut stats, &mut |&id| {
            ids.push((qi, id));
            true
        });
    }
    ids.sort_unstable();
    ids
}

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let dim: usize = arg_value("--dim").and_then(|v| v.parse().ok()).unwrap_or(2);
    let queries: usize = arg_value("--queries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let min_seconds = if quick { 0.3 } else { 1.5 };

    // A set CRP_KERNEL pins the packed kernels (the CI scalar-fallback
    // leg); the env seeds the dispatch on first use, so the sweep must
    // not override it with set_rect_kernel.
    let kernel_forced = std::env::var("CRP_KERNEL").ok();
    let simd_kind = if rect_simd_supported() {
        RectKernel::Simd
    } else {
        RectKernel::Scalar
    };

    eprintln!("[filter_sweep] building {cardinality}-entry dim-{dim} tree…");
    let tree = build_tree(cardinality, dim);
    let packed = tree.freeze();
    let windows = nearby_windows(queries, dim, 0.012 * DOMAIN);
    let avg_pointer = packed.entry_count() as f64 / packed.node_count() as f64;
    let avg_packed = packed.slot_count() as f64 / packed.node_count() as f64;

    // Identity: all three representations agree per window before any
    // clock starts.
    let reference = hit_ids(&tree, &windows);
    let mut identical = true;
    for kernel in [RectKernel::Scalar, simd_kind] {
        if kernel_forced.is_none() {
            set_rect_kernel(kernel).expect("requested rect kernel resolves");
        }
        if hit_ids(&packed, &windows) != reference {
            eprintln!("[filter_sweep] packed hit set diverged from pointer ({kernel:?})");
            identical = false;
        }
    }

    // --- throughput sweep -------------------------------------------
    let mut runs: Vec<VariantRun> = Vec::new();
    let specs: [(&'static str, Option<RectKernel>); 3] = [
        ("pointer", None),
        ("packed-scalar", Some(RectKernel::Scalar)),
        ("packed-simd", Some(simd_kind)),
    ];
    for (name, kernel) in specs {
        if let (Some(k), None) = (kernel, &kernel_forced) {
            set_rect_kernel(k).expect("requested rect kernel resolves");
        }
        let (elapsed_s, passes, accesses, hits) = match kernel {
            None => measure(|stats| single_pass(&tree, &windows, stats), min_seconds),
            Some(_) => measure(|stats| single_pass(&packed, &windows, stats), min_seconds),
        };
        let per_node = if kernel.is_some() {
            avg_packed
        } else {
            avg_pointer
        };
        let checks_per_sec = accesses as f64 * per_node / elapsed_s;
        runs.push(VariantRun {
            name,
            kernel: match kernel {
                None => "-".to_string(),
                Some(_) => crp_rtree::active_rect_kernel().to_string(),
            },
            windows_per_sec: (passes * windows.len() as u64) as f64 / elapsed_s,
            checks_per_sec,
            effective_gbps: packed.node_scan_bytes(checks_per_sec as usize) as f64 / 1e9,
            node_accesses_per_pass: accesses / passes,
            hits_per_pass: hits,
        });
    }

    if kernel_forced.is_none() {
        set_rect_kernel(RectKernel::Auto).expect("auto always resolves");
    }

    // --- report ------------------------------------------------------
    println!("\nStage-1 filter sweep — window-query throughput per representation");
    println!(
        "{:>13} {:>7} {:>13} {:>9} {:>15} {:>8} {:>12} {:>8}",
        "variant", "kernel", "windows/s", "speedup", "checks/s", "GB/s", "nodes/pass", "hits"
    );
    let base = runs[0].windows_per_sec;
    for r in &runs {
        println!(
            "{:>13} {:>7} {:>13} {:>8.2}x {:>15} {:>8.2} {:>12} {:>8}",
            r.name,
            r.kernel,
            fnum(r.windows_per_sec),
            r.windows_per_sec / base,
            fnum(r.checks_per_sec),
            r.effective_gbps,
            r.node_accesses_per_pass,
            r.hits_per_pass
        );
    }
    println!("hit sets identical across representations: {identical}");

    let simd_speedup = runs[2].windows_per_sec / runs[0].windows_per_sec;
    let enforce = kernel_forced.is_none();
    let met = simd_speedup >= 2.0 && identical;

    // --- JSON series -------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"cardinality\": {cardinality}, \"dim\": {dim}, \"queries\": \
         {queries}, \"quick\": {quick}}},"
    );
    let _ = writeln!(
        json,
        "  \"tree\": {{\"nodes\": {}, \"avg_entries_per_node\": {:.2}, \
         \"avg_padded_slots_per_node\": {:.2}}}, \"kernel_forced\": {},",
        packed.node_count(),
        avg_pointer,
        avg_packed,
        match &kernel_forced {
            Some(k) => format!("\"{k}\""),
            None => "null".to_string(),
        }
    );
    let _ = writeln!(json, "  \"sweep\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"kernel\": \"{}\", \"windows_per_sec\": {:.1}, \
             \"speedup_vs_pointer\": {:.3}, \"checks_per_sec\": {:.1}, \"effective_gbps\": \
             {:.3}, \"node_accesses_per_pass\": {}, \"hits_per_pass\": {}}}{}",
            r.name,
            r.kernel,
            r.windows_per_sec,
            r.windows_per_sec / base,
            r.checks_per_sec,
            r.effective_gbps,
            r.node_accesses_per_pass,
            r.hits_per_pass,
            if i + 1 == runs.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"metric\": \"single-query windows/sec, packed-simd vs pointer, \
         {cardinality}-entry tree\", \"speedup\": {simd_speedup:.3}, \"threshold\": 2.0, \
         \"identical\": {identical}, \
         \"enforced\": {enforce}, \"met\": {met}}}"
    );
    let _ = writeln!(json, "}}");

    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("bench_out directory");
    let fname = match &kernel_forced {
        Some(k) => format!("BENCH_filter_{k}.json"),
        None => "BENCH_filter.json".to_string(),
    };
    let path = dir.join(fname);
    std::fs::write(&path, &json).expect("BENCH_filter.json written");
    println!("\nwrote {}", path.display());

    assert!(identical, "filter representations diverged");
    if simd_speedup < 2.0 {
        eprintln!(
            "[filter_sweep] WARNING: packed-simd speedup {simd_speedup:.2}× below the 2× \
             acceptance bar"
        );
        if enforce {
            std::process::exit(2);
        }
    }
    println!(
        "packed-simd beats the pointer traversal by {simd_speedup:.1}× on the \
         {cardinality}-entry tree"
    );
}
