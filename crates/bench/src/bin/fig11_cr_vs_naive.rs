//! Figure 11: CR versus Naive-II on the four certain synthetic families
//! (IND, COR, CLU, ANT) plus the CarDB stand-in. Expected shape:
//! identical node accesses (both spend their I/O in the shared window
//! query), CR's CPU time far below Naive-II's (Lemma 7 removes the
//! verification entirely).

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{
    arg_flag, arg_value, centroid_query, out_dir, run_cr_over, run_naive_ii_over,
};
use crp_bench::report::{fnum, Table};
use crp_bench::selection::select_rsq_non_answers;
use crp_core::{EngineConfig, ExplainEngine};
use crp_data::{cardb_dataset, certain_dataset, CarDbConfig, CertainConfig, CertainKind};
use crp_uncertain::UncertainDataset;

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 100_000 });
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20 } else { 50 });

    let mut table = Table::new(
        format!("Fig. 11 — CR vs Naive-II (|P| = {cardinality}, d = 3; CarDB d = 2)"),
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

    let mut datasets: Vec<(String, UncertainDataset)> = Vec::new();
    for kind in [
        CertainKind::Independent,
        CertainKind::Correlated,
        CertainKind::Clustered,
        CertainKind::Anticorrelated,
    ] {
        let cfg = CertainConfig {
            kind,
            cardinality,
            dim: 3,
            seed: 0xF16_11,
            ..CertainConfig::default()
        };
        eprintln!("[fig11] generating {}…", kind.short_name());
        datasets.push((kind.short_name().to_string(), certain_dataset(&cfg)));
    }
    let cardb = cardb_dataset(&CarDbConfig {
        listings: if quick { 10_000 } else { 45_311 },
        seed: 0xCA7,
    });
    datasets.push(("CarDB".into(), cardb));

    for (name, ds) in datasets {
        let engine = ExplainEngine::new(ds, EngineConfig::default()).expect("valid engine config");
        let q = centroid_query(engine.dataset());
        let ids = select_rsq_non_answers(
            engine.dataset(),
            engine.object_tree().frozen(),
            &q,
            trials,
            8,
            Some(18),
            0x5EED_11,
        );
        eprintln!("[fig11] {name}: {} non-answers selected", ids.len());

        let cr_run = run_cr_over(&engine, &q, &ids);
        let nv_run = run_naive_ii_over(&engine, &q, &ids, 20_000_000);
        for (algo, m) in [("CR", &cr_run), ("Naive-II", &nv_run)] {
            table.row(vec![
                name.clone(),
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
        .write_csv(out_dir(), "fig11_cr_vs_naive")
        .expect("CSV written");
}
