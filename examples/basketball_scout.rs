//! The paper's motivating scenario (Section 1): a coach posts a "new
//! position" profile; players whose dynamic skyline contains the profile
//! with high probability are candidates. A player missing from the
//! candidate list asks *"what causes me to be unqualified for this
//! position, and what are the degrees of those causes?"*
//!
//! ```text
//! cargo run --release --example basketball_scout
//! ```

use prsq_crp::data::{nba_dataset, nba_position_query, NbaConfig};
use prsq_crp::prelude::*;

fn main() {
    // A synthetic league standing in for the NBA dataset (see DESIGN.md).
    let engine = ExplainEngine::new(
        nba_dataset(&NbaConfig {
            players: 800,
            ..NbaConfig::default()
        }),
        EngineConfig::default(),
    )
    .expect("valid engine config");
    let ds = engine.dataset();
    let q = nba_position_query();
    let alpha = 0.5;
    println!(
        "league of {} players, {} season records; position profile q = {q} (PTS, FGM, REB, AST)",
        ds.len(),
        ds.total_samples()
    );

    // Scan near-elite players first (small dominance windows, the
    // tractable "why am I just outside the candidate list?" cases) and
    // explain the first couple whose cause lists print nicely.
    let mut order: Vec<&UncertainObject> = ds.iter().collect();
    order.sort_by_key(|o| o.expectation().distance(&q) as u64);
    let mut explained = 0;
    for obj in order {
        if explained >= 2 {
            break;
        }
        // A check cap skips the deep non-answers (a capped explain
        // stops with a typed `Partial`).
        let request = ExplainRequest::explain(&q, obj.id())
            .with_strategy(ExplainStrategy::Cp)
            .with_alpha(alpha)
            .with_check_budget(2_000_000);
        let outcome = match engine.run(&[request]).into_single() {
            Ok(o) if (3..=60).contains(&o.causes.len()) => o,
            _ => continue,
        };
        explained += 1;
        println!(
            "\n=== {} is NOT a candidate (α = {alpha}) — the competition: ===",
            obj.label().unwrap_or("player")
        );
        for cause in outcome.by_responsibility() {
            let player = ds.get(cause.id).expect("cause exists");
            let e = player.expectation();
            println!(
                "  {:<28} responsibility 1/{:<3} career avgs: {:.0} pts, {:.0} fgm, {:.0} reb, {:.0} ast",
                player.label().unwrap_or("player"),
                cause.min_contingency.len() + 1,
                e[0],
                e[1],
                e[2],
                e[3],
            );
        }
        println!(
            "  ({} candidate rivals, {} of them block every contingency set)",
            outcome.stats.candidates, outcome.stats.forced
        );
    }
    if explained == 0 {
        println!("no tractable non-candidate found — try a different seed or α");
    }
}
