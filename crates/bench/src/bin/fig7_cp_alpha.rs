//! Figure 7: CP cost versus the probability threshold α ∈ {0.2 … 1.0}.
//! Expected shape: node accesses flat (filtering is independent of α);
//! CPU time grows with α — larger α means larger minimal contingency
//! sets — then drops sharply at α = 1 (the fast path skips refinement).
//!
//! As in the paper, the same non-answers are used at every α: they are
//! classified at the smallest α of the sweep (a non-answer at α = 0.2 is
//! a non-answer at every larger threshold).

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

    let cfg = UncertainConfig {
        cardinality,
        dim: 3,
        radius_range: (0.0, 5.0),
        seed: 0xF16_7,
        ..UncertainConfig::default()
    };
    eprintln!("[fig7] generating lUrU ({cardinality} objects)…");
    let engine = ExplainEngine::new(uncertain_dataset(&cfg), EngineConfig::default())
        .expect("valid engine config");
    let q = centroid_query(engine.dataset());

    let sweep = [0.2, 0.4, 0.6, 0.8, 1.0];
    let ids = select_prsq_non_answers(
        engine.dataset(),
        engine.object_tree(),
        &q,
        &PrsqSelectionConfig {
            count: trials,
            alpha_classify: sweep[0],
            alpha_tractability: 0.8, // the most demanding refinement of the sweep
            min_candidates: 10,
            max_candidates: 150,
            max_free_candidates: 13,
            seed: 0x5EED_7,
        },
    );
    eprintln!("[fig7] {} non-answers selected", ids.len());

    let mut table = Table::new(
        format!("Fig. 7 — CP cost vs α (|P| = {cardinality}, d = 3, radius [0,5])"),
        &[
            "alpha",
            "node accesses",
            "CPU (ms)",
            "subsets",
            "causes",
            "skipped",
        ],
    );
    for &alpha in &sweep {
        let m = run_cp_over(&engine, &q, &ids, alpha, &paper_cp());
        table.row(vec![
            format!("{alpha}"),
            fnum(m.io.mean()),
            fnum(m.cpu_ms.mean()),
            fnum(m.subsets.mean()),
            fnum(m.causes.mean()),
            m.skipped.to_string(),
        ]);
    }
    table.print();
    table
        .write_csv(out_dir(), "fig7_cp_alpha")
        .expect("CSV written");
}
