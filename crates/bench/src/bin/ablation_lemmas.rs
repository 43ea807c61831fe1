//! Ablation: what does each pruning rule of CP buy? Runs the same
//! non-answers with Lemma 4 / 5 / 6 individually disabled, with the
//! probability-bound extension enabled, and with everything off
//! (= Naive-I's refinement), reporting CPU time and subsets examined.
//! The causes found are identical by construction (asserted).

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, centroid_query, out_dir, paper_cp, run_cp_over};
use crp_bench::report::{fnum, Table};
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_core::{CpConfig, EngineConfig, ExplainEngine};
use crp_data::{uncertain_dataset, UncertainConfig};

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 100_000 });
    let trials: usize = arg_value("--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 15 } else { 40 });
    let alpha = 0.6;

    let cfg = UncertainConfig {
        cardinality,
        dim: 3,
        radius_range: (0.0, 5.0),
        seed: 0xAB1A_7E,
        ..UncertainConfig::default()
    };
    eprintln!("[ablation] generating dataset…");
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
            seed: 0x5EED_AB,
        },
    );
    eprintln!("[ablation] {} non-answers selected", ids.len());

    // Every row but the bound row runs the paper's configuration (no
    // probability bound), so the lemma rows reproduce the paper's counts.
    let paper = paper_cp();
    let variants: [(&str, CpConfig); 6] = [
        ("CP (all lemmas)", paper),
        (
            "no Lemma 4 (forced members)",
            CpConfig {
                use_lemma4: false,
                ..paper
            },
        ),
        (
            "no Lemma 5 (counterfactual excl.)",
            CpConfig {
                use_lemma5: false,
                ..paper
            },
        ),
        (
            "no Lemma 6 (bound propagation)",
            CpConfig {
                use_lemma6: false,
                ..paper
            },
        ),
        ("+ probability bound (extension)", CpConfig::default()),
        ("none (Naive-I refinement)", CpConfig::naive()),
    ];

    let mut table = Table::new(
        format!("Ablation — CP pruning rules (|P| = {cardinality}, α = {alpha})"),
        &["variant", "CPU (ms)", "subsets", "Pr-evals", "causes"],
    );
    let mut baseline_causes = None;
    for (name, config) in &variants {
        let m = run_cp_over(&engine, &q, &ids, alpha, config);
        match baseline_causes {
            None => baseline_causes = Some(m.causes.mean()),
            Some(b) => assert!(
                (b - m.causes.mean()).abs() < 1e-9,
                "ablation changed the causes — correctness bug"
            ),
        }
        table.row(vec![
            (*name).into(),
            fnum(m.cpu_ms.mean()),
            fnum(m.subsets.mean()),
            fnum(m.prsq_evals.mean()),
            fnum(m.causes.mean()),
        ]);
    }
    table.print();
    table
        .write_csv(out_dir(), "ablation_lemmas")
        .expect("CSV written");
}
