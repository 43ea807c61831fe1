//! Figure 9: CP cost versus dimensionality d ∈ {2, 3, 4, 5}. Expected
//! shape: both metrics *drop* as d grows — in higher dimensions an
//! object is dominated by fewer objects, so non-answers have fewer
//! candidate causes.

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir, paper_cp, run_cp_over};
use crp_bench::report::{fnum, Table};
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_core::{EngineConfig, ExplainEngine};
use crp_data::{uncertain_dataset, UncertainConfig};

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 100_000 });
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20 } else { 50 });
    let alpha = 0.6;

    let mut table = Table::new(
        format!(
            "Fig. 9 — CP cost vs dimensionality (|P| = {cardinality}, α = {alpha}, radius [0,5])"
        ),
        &[
            "d",
            "node accesses",
            "CPU (ms)",
            "candidates",
            "causes",
            "skipped",
        ],
    );

    for dim in [2usize, 3, 4, 5] {
        let cfg = UncertainConfig {
            cardinality,
            dim,
            radius_range: (0.0, 5.0),
            seed: 0xF16_9,
            ..UncertainConfig::default()
        };
        eprintln!("[fig9] d = {dim}…");
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
                min_candidates: 1,
                max_candidates: 150,
                max_free_candidates: 13,
                seed: 0x5EED_9,
            },
        );
        let m = run_cp_over(&engine, &q, &ids, alpha, &paper_cp());
        table.row(vec![
            dim.to_string(),
            fnum(m.io.mean()),
            fnum(m.cpu_ms.mean()),
            fnum(m.candidates.mean()),
            fnum(m.causes.mean()),
            m.skipped.to_string(),
        ]);
    }
    table.print();
    table
        .write_csv(out_dir(), "fig9_cp_dim")
        .expect("CSV written");
}
