//! Figure 13: CR cost versus cardinality |P| ∈ {10K … 1000K} on the four
//! certain families. Expected shape: both metrics grow with |P| (denser
//! data, more dominators, deeper index).

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir, run_cr_over};
use crp_bench::report::{fnum, Table};
use crp_bench::selection::select_rsq_non_answers;
use crp_core::{EngineConfig, ExplainEngine};
use crp_data::{certain_dataset, CertainConfig, CertainKind};

fn main() {
    let quick = arg_flag("--quick");
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20 } else { 50 });
    let sweep: Vec<usize> = if quick {
        vec![10_000, 20_000, 50_000, 100_000, 200_000]
    } else {
        vec![10_000, 50_000, 100_000, 500_000, 1_000_000]
    };

    let mut table = Table::new(
        "Fig. 13 — CR cost vs cardinality (d = 3)".to_string(),
        &[
            "dataset",
            "|P|",
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
        for &cardinality in &sweep {
            let cfg = CertainConfig {
                kind,
                cardinality,
                dim: 3,
                seed: 0xF16_13,
                ..CertainConfig::default()
            };
            eprintln!("[fig13] {} |P| = {cardinality}…", kind.short_name());
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
                0x5EED_13,
            );
            let m = run_cr_over(&engine, &q, &ids);
            table.row(vec![
                kind.short_name().into(),
                cardinality.to_string(),
                fnum(m.io.mean()),
                fnum(m.cpu_ms.mean()),
                fnum(m.causes.mean()),
                m.skipped.to_string(),
            ]);
        }
    }
    table.print();
    table
        .write_csv(out_dir(), "fig13_cr_card")
        .expect("CSV written");
}
