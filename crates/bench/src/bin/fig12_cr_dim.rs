//! Figure 12: CR cost versus dimensionality d ∈ {2, 3, 4, 5} on the four
//! certain families. Expected shape: cost drops with d (fewer dominators
//! per object in higher dimensions).

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir, run_cr_over};
use crp_bench::report::{fnum, Table};
use crp_bench::selection::select_rsq_non_answers;
use crp_core::{EngineConfig, ExplainEngine};
use crp_data::{certain_dataset, CertainConfig, CertainKind};

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 100_000 });
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20 } else { 50 });

    let mut table = Table::new(
        format!("Fig. 12 — CR cost vs dimensionality (|P| = {cardinality})"),
        &[
            "dataset",
            "d",
            "node accesses",
            "CPU (ms)",
            "causes",
            "skipped",
        ],
    );

    for kind in [
        CertainKind::Independent,
        CertainKind::Correlated,
        CertainKind::Clustered,
        CertainKind::Anticorrelated,
    ] {
        for dim in [2usize, 3, 4, 5] {
            let cfg = CertainConfig {
                kind,
                cardinality,
                dim,
                seed: 0xF16_12,
                ..CertainConfig::default()
            };
            eprintln!("[fig12] {} d = {dim}…", kind.short_name());
            let engine = ExplainEngine::new(certain_dataset(&cfg), EngineConfig::default())
                .expect("valid engine config");
            let q = centroid_query(engine.dataset());
            let ids = select_rsq_non_answers(
                engine.dataset(),
                engine.object_tree().frozen(),
                &q,
                trials,
                1,
                None,
                0x5EED_12,
            );
            let m = run_cr_over(&engine, &q, &ids);
            table.row(vec![
                kind.short_name().into(),
                dim.to_string(),
                fnum(m.io.mean()),
                fnum(m.cpu_ms.mean()),
                fnum(m.causes.mean()),
                m.skipped.to_string(),
            ]);
        }
    }
    table.print();
    table
        .write_csv(out_dir(), "fig12_cr_dim")
        .expect("CSV written");
}
