//! Figure 6: CP versus Naive-I on the four synthetic uncertain families
//! (lUrU, lUrG, lSrU, lSrG). Expected shape: identical node accesses
//! (both algorithms spend all I/O in the shared filtering step), CP's CPU
//! time well below Naive-I's.

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{
    arg_flag, arg_value, centroid_query, out_dir, paper_cp, run_cp_over, run_naive_i_over,
};
use crp_bench::report::{fnum, Table};
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_core::{EngineConfig, ExplainEngine};
use crp_data::{uncertain_dataset, CenterDistribution, RadiusDistribution, UncertainConfig};

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 100_000 });
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20 } else { 50 });
    let alpha = 0.6;

    let families = [
        (CenterDistribution::Uniform, RadiusDistribution::Uniform),
        (CenterDistribution::Uniform, RadiusDistribution::Gaussian),
        (CenterDistribution::Skewed, RadiusDistribution::Uniform),
        (CenterDistribution::Skewed, RadiusDistribution::Gaussian),
    ];

    let mut table = Table::new(
        format!("Fig. 6 — CP vs Naive-I (|P| = {cardinality}, d = 3, α = {alpha})"),
        &[
            "dataset",
            "algo",
            "node accesses",
            "CPU (ms)",
            "subsets",
            "causes",
            "skipped",
        ],
    );

    for (centers, radii) in families {
        let cfg = UncertainConfig {
            cardinality,
            dim: 3,
            centers,
            radii,
            radius_range: (0.0, 5.0),
            seed: 0xF16_6,
            ..UncertainConfig::default()
        };
        let name = cfg.family_name();
        eprintln!("[fig6] generating {name} ({cardinality} objects)…");
        let engine = ExplainEngine::new(uncertain_dataset(&cfg), EngineConfig::default())
            .expect("valid engine config");
        let q = centroid_query(engine.dataset());
        let ids = select_prsq_non_answers(
            engine.dataset(),
            engine.object_tree(),
            &q,
            &PrsqSelectionConfig {
                count: trials,
                alpha_classify: alpha,
                alpha_tractability: alpha,
                min_candidates: 4,
                max_candidates: 18,
                max_free_candidates: 12,
                seed: 0x5EED_6,
            },
        );
        eprintln!("[fig6] {name}: {} non-answers selected", ids.len());

        let cp_run = run_cp_over(&engine, &q, &ids, alpha, &paper_cp());
        let nv_run = run_naive_i_over(&engine, &q, &ids, alpha, Some(20_000_000));
        for (algo, m) in [("CP", &cp_run), ("Naive-I", &nv_run)] {
            table.row(vec![
                name.into(),
                algo.into(),
                fnum(m.io.mean()),
                fnum(m.cpu_ms.mean()),
                fnum(m.subsets.mean()),
                fnum(m.causes.mean()),
                m.skipped.to_string(),
            ]);
        }
    }

    table.print();
    table
        .write_csv(out_dir(), "fig6_cp_vs_naive")
        .expect("CSV written");
}
