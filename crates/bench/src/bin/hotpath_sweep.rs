//! Refine/FMCS hot-path throughput sweep, written to
//! `bench_out/BENCH_hotpath.json`.
//!
//! Two measurements:
//!
//! * **Throughput** (matrix level, via the `crp_core::hotpath` bench
//!   seam): subset-checks/second of the refine kernel on synthetic
//!   dominance matrices, once per dominance-kernel dispatch —
//!
//!   1. `scalar` — the portable scalar `masked_product`,
//!   2. `simd` — the AVX2 kernel (falls back to scalar where AVX2 is
//!      unavailable).
//!
//!   Both run the one FMCS path: delta-driven subset enumeration with
//!   candidate-batched probes (the fused condition-(i)/(ii) pair in
//!   direct mode, the prefix/suffix Lemma 5 singleton sweep, and the
//!   log-domain screen in evaluator mode). Each variant reports
//!   checks/sec, modeled effective GB/s (see
//!   `hotpath::modeled_bytes_per_check` — cache-resident kernels can
//!   legitimately exceed DRAM peak), and %-of-peak against an in-bench
//!   single-core streaming-read probe. The headline workload is the
//!   10k-candidate deep non-answer (a 64-strong Lemma 4 forced cohort,
//!   the regime of the paper's NBA case study); a small direct-mode
//!   workload rides along.
//! * **Identity** (engine level): CP explain outcomes on a small
//!   discrete dataset must match the definition-level oracle — the
//!   same causes, minimal-contingency sizes and errors.
//!
//! Acceptance: every identity check green (the sweep panics
//! otherwise). The `simd`/`scalar` ratio is reported, not gated.
//!
//! Setting `CRP_KERNEL` (e.g. `scalar` on the CI fallback leg) pins
//! both variants to that kernel and writes `BENCH_hotpath_<kernel>.json`.
//!
//! ```text
//! cargo run -p crp-bench --release --bin hotpath_sweep -- --quick
//! ```

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir};
use crp_bench::report::fnum;
use crp_core::hotpath::{modeled_bytes_per_check, refine_matrix};
use crp_core::{
    active_kernel, oracle_cp, set_kernel, simd_supported, CpConfig, CrpError, DominanceMatrix,
    EngineConfig, ExplainEngine, ExplainStrategy, KernelKind,
};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_uncertain::ObjectId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// One synthetic refine workload: a dominance matrix plus the α and
/// budget that shape the search.
struct Workload {
    name: &'static str,
    matrix: DominanceMatrix,
    alpha: f64,
    budget: u64,
}

/// The 10k-candidate deep non-answer: `forced` candidates dominate with
/// probability 1 w.r.t. every sample (Lemma 4's `Ca` — every Γ carries
/// them), the rest carry small fractional mass so the
/// ascending-cardinality search sweeps whole cardinalities under the
/// subset budget.
fn deep_workload(candidates: usize, forced: usize, samples: usize, budget: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(0x407_A7);
    let mut dp = Vec::with_capacity(candidates * samples);
    for c in 0..candidates {
        for _ in 0..samples {
            if c < forced {
                dp.push(1.0);
            } else {
                dp.push(rng.random_range(0.001..0.01));
            }
        }
    }
    Workload {
        name: "deep-10k",
        matrix: DominanceMatrix::from_parts(dp, vec![1.0 / samples as f64; samples], candidates),
        alpha: 0.5,
        budget,
    }
}

/// A small matrix below the incremental threshold: exercises the
/// direct-mode kernels (the SIMD/scalar masked product behind the fused
/// condition pair).
fn direct_workload(budget: u64) -> Workload {
    let candidates = 48;
    let samples = 2;
    let mut rng = StdRng::seed_from_u64(0xD12EC7);
    let dp: Vec<f64> = (0..candidates * samples)
        .map(|_| rng.random_range(0.005..0.02))
        .collect();
    Workload {
        name: "direct-48",
        matrix: DominanceMatrix::from_parts(dp, vec![1.0 / samples as f64; samples], candidates),
        alpha: 0.6,
        budget,
    }
}

/// One kernel variant of the sweep.
struct VariantSpec {
    name: &'static str,
    kernel: KernelKind,
}

struct VariantRun {
    name: &'static str,
    /// The dispatch actually used (`active_kernel()` after the run).
    kernel: String,
    elapsed_s: f64,
    subsets: u64,
    evaluations: u64,
    checks_per_sec: f64,
    bytes_per_check: f64,
    effective_gbps: f64,
    pct_of_peak: f64,
}

/// Runs one workload under the active kernel, repeating until the
/// measurement is long enough to trust, and returns aggregate
/// throughput.
fn measure(w: &Workload, min_seconds: f64) -> (f64, u64, u64) {
    let config = CpConfig::with_budget(w.budget);
    let mut subsets = 0u64;
    let mut evaluations = 0u64;
    let start = Instant::now();
    let mut reps = 0u32;
    loop {
        let (result, stats) = refine_matrix(&w.matrix, w.alpha, &config);
        match result {
            Ok(_) | Err(CrpError::BudgetExhausted { .. }) => {}
            Err(e) => panic!("unexpected refine outcome on {}: {e:?}", w.name),
        }
        subsets += stats.subsets_examined;
        evaluations += stats.prsq_evaluations;
        reps += 1;
        if start.elapsed().as_secs_f64() >= min_seconds && reps >= 2 {
            break;
        }
    }
    (start.elapsed().as_secs_f64(), subsets, evaluations)
}

/// Single-core streaming-read peak: sums ~128 MB of f64 through four
/// accumulators (enough ILP to saturate one core's load ports) and
/// takes the best of three passes. The %-of-peak column is relative to
/// this in-situ number, not a spec-sheet figure.
fn streaming_peak_gbps() -> f64 {
    const N: usize = 16 * 1024 * 1024; // 128 MB of f64
    let buf = vec![1.0f64; N];
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let mut acc = [0.0f64; 4];
        let mut i = 0;
        while i + 4 <= N {
            acc[0] += buf[i];
            acc[1] += buf[i + 1];
            acc[2] += buf[i + 2];
            acc[3] += buf[i + 3];
            i += 4;
        }
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        best = best.max((N * 8) as f64 / elapsed / 1e9);
    }
    best
}

/// The engine-level identity pin: CP outcomes on a small discrete
/// dataset against the definition-level oracle. Causes are compared as
/// (id, |Γ|, counterfactual) — minimal contingency sets of the same size
/// may differ in membership, the definition only pins the size — and
/// error outcomes must match exactly.
fn identity_checks() -> bool {
    let mut ok = true;
    let cfg = UncertainConfig {
        cardinality: 10,
        dim: 2,
        seed: 0x1D_B17,
        ..UncertainConfig::default()
    };
    let ds = uncertain_dataset(&cfg);
    let q = centroid_query(&ds);
    let ids: Vec<ObjectId> = ds.iter().map(|o| o.id()).collect();
    for &alpha in &[0.3, 0.7, 1.0] {
        let engine =
            ExplainEngine::new(ds.clone(), EngineConfig::with_alpha(alpha)).expect("valid config");
        for &an in &ids {
            let got = engine
                .explain_configured(ExplainStrategy::Cp, &q, alpha, an, &CpConfig::default())
                .map(|out| {
                    out.causes
                        .iter()
                        .map(|c| (c.id, c.min_contingency.len(), c.counterfactual))
                        .collect::<Vec<_>>()
                });
            let want = oracle_cp(&ds, &q, an, alpha).map(|causes| {
                causes
                    .iter()
                    .map(|(id, c)| (*id, c.min_gamma.len(), c.min_gamma.is_empty()))
                    .collect::<Vec<_>>()
            });
            if got != want {
                eprintln!("[hotpath_sweep] oracle divergence (α={alpha}, an={an:?})");
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let quick = arg_flag("--quick");
    let candidates: usize = arg_value("--candidates")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let budget: u64 = arg_value("--budget")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 60_000 } else { 400_000 });
    let min_seconds = if quick { 0.3 } else { 1.5 };

    // A set CRP_KERNEL pins every variant (the CI scalar-fallback leg);
    // the env seeds the dispatch on first kernel use, so the sweep must
    // not override it with set_kernel.
    let kernel_forced = std::env::var("CRP_KERNEL").ok();
    let simd_kind = if simd_supported() {
        KernelKind::Simd
    } else {
        KernelKind::Scalar
    };
    let specs = [
        VariantSpec {
            name: "scalar",
            kernel: KernelKind::Scalar,
        },
        VariantSpec {
            name: "simd",
            kernel: simd_kind,
        },
    ];

    eprintln!("[hotpath_sweep] probing single-core streaming peak…");
    let peak_gbps = streaming_peak_gbps();
    eprintln!("[hotpath_sweep] streaming peak {peak_gbps:.1} GB/s (single core)");

    eprintln!("[hotpath_sweep] building workloads ({candidates} candidates, budget {budget})…");
    let workloads = [
        deep_workload(candidates, 64, 4, budget),
        direct_workload(budget.min(120_000)),
    ];

    let mut rows: Vec<(String, Vec<VariantRun>)> = Vec::new();
    for w in &workloads {
        let mut runs = Vec::new();
        for spec in &specs {
            if kernel_forced.is_none() {
                set_kernel(spec.kernel).expect("requested kernel resolves");
            }
            // Warm once (kernel dispatch, evaluator build, scratch
            // pool, page-in), then measure.
            let _ = measure(w, 0.0);
            let (elapsed_s, subsets, evaluations) = measure(w, min_seconds);
            let checks_per_sec = subsets as f64 / elapsed_s;
            let bytes_per_check =
                modeled_bytes_per_check(w.matrix.candidates(), w.matrix.samples());
            let effective_gbps = checks_per_sec * bytes_per_check / 1e9;
            runs.push(VariantRun {
                name: spec.name,
                kernel: active_kernel().to_string(),
                elapsed_s,
                subsets,
                evaluations,
                checks_per_sec,
                bytes_per_check,
                effective_gbps,
                pct_of_peak: 100.0 * effective_gbps / peak_gbps,
            });
        }
        let base = runs[0].checks_per_sec; // the scalar baseline
        eprintln!(
            "[hotpath_sweep] {}: {}",
            w.name,
            runs.iter()
                .map(|r| format!(
                    "{} {} ({:.2}×)",
                    r.name,
                    fnum(r.checks_per_sec),
                    r.checks_per_sec / base
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
        rows.push((w.name.to_string(), runs));
    }

    // Identity checks run under the default dispatch (or the forced
    // kernel).
    if kernel_forced.is_none() {
        set_kernel(KernelKind::Auto).expect("auto always resolves");
    }
    eprintln!("[hotpath_sweep] running engine-vs-oracle identity checks…");
    let identical = identity_checks();

    // --- report ------------------------------------------------------
    println!("\nHot-path sweep — refine subset-check throughput per kernel variant");
    println!(
        "{:>10} {:>13} {:>7} {:>15} {:>9} {:>9} {:>7} {:>12}",
        "workload", "variant", "kernel", "checks/s", "speedup", "GB/s", "%peak", "evals"
    );
    for (name, runs) in &rows {
        let base = runs[0].checks_per_sec;
        for r in runs {
            println!(
                "{:>10} {:>13} {:>7} {:>15} {:>8.2}x {:>9.2} {:>6.1}% {:>12}",
                name,
                r.name,
                r.kernel,
                fnum(r.checks_per_sec),
                r.checks_per_sec / base,
                r.effective_gbps,
                r.pct_of_peak,
                r.evaluations
            );
        }
    }
    println!("identity: engine CP outcomes vs oracle {identical}");

    let headline_runs = &rows
        .iter()
        .find(|(name, _)| name == "deep-10k")
        .expect("headline workload present")
        .1;
    let headline_speedup = headline_runs[1].checks_per_sec / headline_runs[0].checks_per_sec;

    // --- JSON series -------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"candidates\": {candidates}, \"forced\": 64, \"samples\": 4, \
         \"budget\": {budget}, \"quick\": {quick}}},"
    );
    let _ = writeln!(
        json,
        "  \"peak_gbps\": {peak_gbps:.2}, \"kernel_forced\": {},",
        match &kernel_forced {
            Some(k) => format!("\"{k}\""),
            None => "null".to_string(),
        }
    );
    let _ = writeln!(json, "  \"sweep\": [");
    for (wi, (name, runs)) in rows.iter().enumerate() {
        let base = runs[0].checks_per_sec;
        let _ = writeln!(json, "    {{\"workload\": \"{name}\", \"variants\": [");
        for (i, r) in runs.iter().enumerate() {
            let _ = writeln!(
                json,
                "      {{\"name\": \"{}\", \"kernel\": \"{}\", \"checks_per_sec\": {:.1}, \
                 \"speedup_vs_scalar\": {:.3}, \"bytes_per_check\": {:.1}, \
                 \"effective_gbps\": {:.3}, \"pct_of_peak\": {:.2}, \"elapsed_s\": {:.3}, \
                 \"subsets\": {}, \"evaluations\": {}}}{}",
                r.name,
                r.kernel,
                r.checks_per_sec,
                r.checks_per_sec / base,
                r.bytes_per_check,
                r.effective_gbps,
                r.pct_of_peak,
                r.elapsed_s,
                r.subsets,
                r.evaluations,
                if i + 1 == runs.len() { "" } else { "," }
            );
        }
        let _ = writeln!(
            json,
            "    ]}}{}",
            if wi + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"identity\": {{\"discrete_vs_oracle\": {identical}}},"
    );
    let _ = writeln!(
        json,
        "  \"acceptance\": {{\"metric\": \"engine CP outcomes identical to the \
         definition-level oracle\", \"identical\": {identical}, \"met\": {identical}, \
         \"simd_vs_scalar\": {headline_speedup:.3}}}"
    );
    let _ = writeln!(json, "}}");

    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("bench_out directory");
    let fname = match &kernel_forced {
        Some(k) => format!("BENCH_hotpath_{k}.json"),
        None => "BENCH_hotpath.json".to_string(),
    };
    let path = dir.join(fname);
    std::fs::write(&path, &json).expect("BENCH_hotpath.json written");
    println!("\nwrote {}", path.display());

    assert!(identical, "engine outcomes diverged from the oracle");
    println!("simd runs at {headline_speedup:.2}× the scalar kernel on the 10k-candidate workload");
}
