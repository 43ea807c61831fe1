//! Ablation: the R-tree filter versus a full scan. CP's filtering step
//! (Lemma 2 via the RecList window query) is compared against
//! `ExplainStrategy::CpUnindexed`, which tests every object exactly. Causes are
//! identical; the index trades a handful of node accesses for avoiding a
//! linear scan per query.

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, explain_with, out_dir, paper_cp};
use crp_bench::report::{fnum, Table};
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_bench::AggregateStats;
use crp_core::{EngineConfig, ExplainEngine, ExplainStrategy};
use crp_data::{uncertain_dataset, UncertainConfig};
use std::time::Instant;

fn main() {
    let quick = arg_flag("--quick");
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 15 } else { 40 });
    let alpha = 0.6;
    let sweep: Vec<usize> = if quick {
        vec![5_000, 20_000, 50_000]
    } else {
        vec![10_000, 50_000, 100_000, 500_000]
    };

    let mut table = Table::new(
        "Ablation — R-tree filter vs full scan",
        &["|P|", "variant", "node accesses", "CPU (ms)"],
    );

    for &cardinality in &sweep {
        let cfg = UncertainConfig {
            cardinality,
            dim: 3,
            radius_range: (0.0, 5.0),
            seed: 0xAB1A_F1,
            ..UncertainConfig::default()
        };
        eprintln!("[ablation-filter] |P| = {cardinality}…");
        let config = EngineConfig {
            cp: paper_cp(),
            ..EngineConfig::with_alpha(alpha)
        };
        let engine =
            ExplainEngine::new(uncertain_dataset(&cfg), config).expect("valid engine config");
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
                max_candidates: 18,
                max_free_candidates: 12,
                seed: 0x5EED_F1,
            },
        );

        let mut idx_io = AggregateStats::new();
        let mut idx_ms = AggregateStats::new();
        let mut scan_ms = AggregateStats::new();
        for &id in &ids {
            let t0 = Instant::now();
            let a = explain_with(&engine, ExplainStrategy::Cp, &q, alpha, id)
                .expect("selected non-answers are tractable");
            idx_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            idx_io.push(a.stats.query.node_accesses as f64);
            let t1 = Instant::now();
            let b = explain_with(&engine, ExplainStrategy::CpUnindexed, &q, alpha, id)
                .expect("same classification");
            scan_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            assert_eq!(a.causes, b.causes, "filter must not change the causes");
        }
        table.row(vec![
            cardinality.to_string(),
            "R-tree filter".into(),
            fnum(idx_io.mean()),
            fnum(idx_ms.mean()),
        ]);
        table.row(vec![
            cardinality.to_string(),
            "full scan".into(),
            "0".into(),
            fnum(scan_ms.mean()),
        ]);
    }
    table.print();
    table
        .write_csv(out_dir(), "ablation_filter")
        .expect("CSV written");
}
