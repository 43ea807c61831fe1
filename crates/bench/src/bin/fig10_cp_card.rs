//! Figure 10: CP cost versus dataset cardinality
//! |P| ∈ {10K, 50K, 100K, 500K, 1000K}. Expected shape: both node
//! accesses and CPU time grow with |P| — denser data means more
//! candidate causes per non-answer and a deeper index.

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir, paper_cp, run_cp_over};
use crp_bench::report::{fnum, Table};
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_core::{EngineConfig, ExplainEngine};
use crp_data::{uncertain_dataset, UncertainConfig};

fn main() {
    let quick = arg_flag("--quick");
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20 } else { 50 });
    let alpha = 0.6;
    let sweep: Vec<usize> = if quick {
        vec![10_000, 20_000, 50_000, 100_000, 200_000]
    } else {
        vec![10_000, 50_000, 100_000, 500_000, 1_000_000]
    };

    let mut table = Table::new(
        format!("Fig. 10 — CP cost vs cardinality (d = 3, α = {alpha}, radius [0,5])"),
        &[
            "|P|",
            "node accesses",
            "CPU (ms)",
            "candidates",
            "causes",
            "skipped",
        ],
    );

    for &cardinality in &sweep {
        let cfg = UncertainConfig {
            cardinality,
            dim: 3,
            radius_range: (0.0, 5.0),
            seed: 0xF16_10,
            ..UncertainConfig::default()
        };
        eprintln!("[fig10] |P| = {cardinality}…");
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
                min_candidates: 8,
                max_candidates: 150,
                max_free_candidates: 13,
                seed: 0x5EED_10,
            },
        );
        let m = run_cp_over(&engine, &q, &ids, alpha, &paper_cp());
        table.row(vec![
            cardinality.to_string(),
            fnum(m.io.mean()),
            fnum(m.cpu_ms.mean()),
            fnum(m.candidates.mean()),
            fnum(m.causes.mean()),
            m.skipped.to_string(),
        ]);
    }
    table.print();
    table
        .write_csv(out_dir(), "fig10_cp_card")
        .expect("CSV written");
}
