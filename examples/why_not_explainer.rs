//! A generic "why-not" explainer over any generated dataset: classifies
//! an object against the query, and if it is a non-answer produces the
//! full causality & responsibility report — including the actual minimal
//! contingency sets, which tell the user the *cheapest way to flip the
//! outcome* ("if these k objects were gone, removing the cause would put
//! you in the result").
//!
//! ```text
//! cargo run --release --example why_not_explainer [object-id]
//! ```

use prsq_crp::data::{uncertain_dataset, UncertainConfig};
use prsq_crp::prelude::*;
use prsq_crp::skyline::pr_reverse_skyline;

fn main() {
    let ds = uncertain_dataset(&UncertainConfig {
        cardinality: 5_000,
        dim: 2,
        radius_range: (0.0, 150.0),
        seed: 0xE1,
        ..UncertainConfig::default()
    });
    let q = Point::from([5_000.0, 5_000.0]);
    let alpha = 0.6;
    let engine =
        ExplainEngine::new(ds, EngineConfig::with_alpha(alpha)).expect("valid engine config");
    let ds = engine.dataset();

    // Subject: from argv, or scan for an interesting non-answer.
    let subject: ObjectId = match std::env::args().nth(1).and_then(|s| s.parse().ok()) {
        Some(raw) => ObjectId(raw),
        None => {
            let mut pick = None;
            for obj in ds.iter() {
                let request = ExplainRequest::explain(&q, obj.id())
                    .with_strategy(ExplainStrategy::Cp)
                    .with_subset_budget(500_000);
                if let Ok(out) = engine.run(&[request]).into_single() {
                    if out.causes.len() >= 3 {
                        pick = Some(obj.id());
                        break;
                    }
                }
            }
            pick.expect("dataset contains explainable non-answers")
        }
    };

    let pos = ds.index_of(subject).expect("subject exists");
    let prob = pr_reverse_skyline(ds, pos, &q, |_| false);
    println!("subject {subject}: Pr(reverse-skyline) = {prob:.4}, threshold α = {alpha}");

    match engine.explain(&q, subject) {
        Ok(outcome) => {
            println!(
                "NON-ANSWER — {} actual cause(s) of the absence:",
                outcome.causes.len()
            );
            for cause in outcome.by_responsibility() {
                println!(
                    "  {} responsibility = {:.4}",
                    cause.id, cause.responsibility
                );
                if cause.counterfactual {
                    println!("    counterfactual: deleting it alone flips the result");
                } else {
                    let ids: Vec<String> = cause
                        .min_contingency
                        .iter()
                        .map(|g| g.to_string())
                        .collect();
                    println!(
                        "    pivotal once {{{}}} are removed (minimal contingency set, size {})",
                        ids.join(", "),
                        cause.min_contingency.len()
                    );
                }
            }
            println!(
                "work: {} candidates, {} contingency sets examined, {} Pr evaluations, {} node accesses",
                outcome.stats.candidates,
                outcome.stats.subsets_examined,
                outcome.stats.prsq_evaluations,
                outcome.stats.query.node_accesses,
            );
        }
        Err(CrpError::NotANonAnswer { prob }) => {
            println!("ANSWER — the object is in the probabilistic reverse skyline (Pr = {prob:.4})")
        }
        Err(e) => println!("cannot explain: {e}"),
    }
}
