//! Figure 8: CP cost versus the uncertain-region radius range
//! `[r_min, r_max]` ∈ {`[0,2]` … `[0,10]`}. Expected
//! shape: both node accesses and CPU time grow with the radius — larger
//! regions enlarge the filter windows, which admits more candidates.

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
        format!("Fig. 8 — CP cost vs radius range (|P| = {cardinality}, d = 3, α = {alpha})"),
        &[
            "radius",
            "node accesses",
            "CPU (ms)",
            "candidates",
            "subsets",
            "skipped",
        ],
    );

    for rmax in [2.0, 3.0, 5.0, 8.0, 10.0] {
        let cfg = UncertainConfig {
            cardinality,
            dim: 3,
            radius_range: (0.0, rmax),
            seed: 0xF16_8,
            ..UncertainConfig::default()
        };
        eprintln!("[fig8] radius [0,{rmax}]…");
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
                min_candidates: 3,
                max_candidates: 150,
                max_free_candidates: 13,
                seed: 0x5EED_8,
            },
        );
        let m = run_cp_over(&engine, &q, &ids, alpha, &paper_cp());
        table.row(vec![
            format!("[0,{rmax}]"),
            fnum(m.io.mean()),
            fnum(m.cpu_ms.mean()),
            fnum(m.candidates.mean()),
            fnum(m.subsets.mean()),
            m.skipped.to_string(),
        ]);
    }
    table.print();
    table
        .write_csv(out_dir(), "fig8_cp_radius")
        .expect("CSV written");
}
