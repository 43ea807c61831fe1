//! Table 3: the NBA case study. A "new position" query profile
//! q = (3500 PTS, 1500 FGM, 600 REB, 800 AST), probability threshold
//! α = 0.5; the subject is a journeyman player absent from the
//! probabilistic reverse skyline, and the output lists every cause of
//! that absence — in the paper, a who's-who of stars with
//! responsibilities between 1/16 and 1/24.
//!
//! The league is the synthetic stand-in (see crp-data::nba); the paper's
//! player "Steve John" is matched by scanning for a non-answer whose
//! cause structure resembles the published one (a few dozen dominating
//! stars).

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, out_dir};
use crp_bench::report::Table;
use crp_bench::selection::{select_prsq_non_answers, PrsqSelectionConfig};
use crp_core::{EngineConfig, ExplainEngine, ExplainRequest, ExplainSession, ExplainStrategy};
use crp_data::{nba_dataset, nba_position_query, NbaConfig};

fn main() {
    let quick = arg_flag("--quick");
    // The case-study league is capped below the real 3,542 players: the
    // synthetic frontier at full size is denser than the historical one,
    // which makes every subject's exact minimal-contingency search
    // intractable (the paper's own Theorem 1 bound). 1,500 players give
    // the Table-3 structure (a subject blocked by a star list) at exact-
    // search scale; see EXPERIMENTS.md.
    let config = NbaConfig {
        players: if quick { 1_200 } else { 1_500 },
        ..NbaConfig::default()
    };
    eprintln!("[table3] generating league ({} players)…", config.players);
    let alpha = 0.5;
    let engine = ExplainEngine::new(nba_dataset(&config), EngineConfig::with_alpha(alpha))
        .expect("valid engine config");
    let ds = engine.dataset();
    let q = nba_position_query();

    // Find subjects: non-answers with a tractable, Table-3-sized cause
    // structure (tens of candidates, small free residue).
    let subjects = select_prsq_non_answers(
        ds,
        engine.object_tree(),
        &q,
        &PrsqSelectionConfig {
            count: 20,
            alpha_classify: alpha,
            alpha_tractability: alpha,
            min_candidates: 15,
            max_candidates: 400,
            max_free_candidates: 40,
            seed: 0x7AB1E_3,
        },
    );
    // Prefer a subject with a rich cause list, like the paper's.
    let mut best: Option<(crp_uncertain::ObjectId, crp_core::CrpOutcome)> = None;
    for id in subjects {
        // Deep non-answers need the probability bound (on by default): it skips
        // contingency cardinalities that provably cannot reach α, which is
        // what makes the Table-3-sized cases (|Γ| in the tens) tractable.
        let request = ExplainRequest::explain(&q, id)
            .with_strategy(ExplainStrategy::Cp)
            .with_subset_budget(20_000_000);
        let out = match engine.run(&[request]).into_single() {
            Ok(o) => o,
            Err(_) => continue,
        };
        let better = best
            .as_ref()
            .is_none_or(|(_, b)| out.causes.len() > b.causes.len());
        if better {
            best = Some((id, out));
        }
    }
    let (subject, outcome) = best.expect("league contains a tractable non-answer");
    let name = ds
        .get(subject)
        .and_then(|o| o.label())
        .unwrap_or("<unnamed>");
    println!(
        "Subject: {name} — not in the probabilistic reverse skyline of q = {q} at α = {alpha}"
    );
    println!(
        "(candidates: {}, forced into every contingency set: {}, counterfactuals: {})",
        outcome.stats.candidates, outcome.stats.forced, outcome.stats.counterfactuals
    );

    let mut table = Table::new(
        format!("Table 3 — causality & responsibility for {name}"),
        &["cause", "responsibility", "|min contingency set|"],
    );
    for cause in outcome.by_responsibility() {
        let cname = ds
            .get(cause.id)
            .and_then(|o| o.label())
            .unwrap_or("<unnamed>")
            .to_string();
        table.row(vec![
            cname,
            format!("1/{}", cause.min_contingency.len() + 1),
            cause.min_contingency.len().to_string(),
        ]);
    }
    table.print();
    table
        .write_csv(out_dir(), "table3_nba")
        .expect("CSV written");
}
