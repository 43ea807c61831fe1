//! A **live dataset** session: one mutable engine absorbing a stream of
//! inserts/deletes/replaces while explanations keep being served.
//!
//! Shows the two pillars of the live path:
//!
//! * **incremental index maintenance** — every update patches the
//!   R-trees in place (condense + reinsert); the session never
//!   re-indexes, and epochs track which dataset version each answer
//!   reflects,
//! * **planned α-sweeps** — one request over several α values of the
//!   same non-answer pays its stage-1 traversal once and refines the
//!   shared rows at every α.
//!
//! ```text
//! cargo run --release --example live_session
//! ```

use prsq_crp::data::{uncertain_dataset, UncertainConfig};
use prsq_crp::prelude::*;
use prsq_crp::uncertain::Update;

fn main() {
    let ds = uncertain_dataset(&UncertainConfig {
        cardinality: 20_000,
        dim: 2,
        radius_range: (0.0, 5.0),
        seed: 0x11FE,
        ..UncertainConfig::default()
    });
    let q = Point::from([5_000.0, 5_000.0]);
    let alpha = 0.6;

    let mut live = ExplainEngine::new(ds, EngineConfig::with_alpha(alpha)).expect("valid config");

    // Pick a non-answer to keep asking about.
    let an = live
        .dataset()
        .iter()
        .map(|o| o.id())
        .find(|&id| live.explain(&q, id).is_ok())
        .expect("some object is a non-answer");
    let baseline = live.explain(&q, an).expect("non-answer");
    println!(
        "epoch {}: {} has {} cause(s)",
        live.epoch(),
        an,
        baseline.causes.len()
    );

    // --- α-sweep: one planned request, stage 1 paid once. -------------
    let before = live.accumulated_io().node_accesses;
    let alphas = [0.2, 0.4, 0.8];
    let sweep =
        live.run(&[ExplainRequest::alpha_sweep(&q, an, alphas).with_strategy(ExplainStrategy::Cp)]);
    for (alpha, out) in alphas.iter().zip(sweep.results) {
        println!(
            "  α = {alpha}: {}",
            match out {
                Ok(o) => format!("{} cause(s)", o.causes.len()),
                Err(CrpError::NotANonAnswer { prob }) => format!("answer (Pr = {prob:.2})"),
                Err(e) => format!("{e}"),
            }
        );
    }
    println!(
        "the sweep: {} stage-1 traversal(s) for {} α, {} node accesses",
        sweep.counters.stage1_traversals,
        alphas.len(),
        live.accumulated_io().node_accesses - before
    );

    // --- stream updates while explaining ------------------------------
    let mut next_id = live.dataset().iter().map(|o| o.id().0).max().unwrap() + 1;
    let mut explained = 0usize;
    for step in 0..500u32 {
        // A tight cluster of new objects near the query, plus churn:
        // every third step retires the object inserted three steps ago.
        let jitter = f64::from(step % 17);
        let obj = UncertainObject::certain(
            ObjectId(next_id),
            Point::from([4_000.0 + 10.0 * jitter, 4_000.0 + 7.0 * jitter]),
        );
        let update = Update::Insert(obj);
        live.apply(update).expect("valid update");
        next_id += 1;
        if step % 3 == 2 {
            let retired = ObjectId(next_id - 3);
            live.apply(Update::Delete(retired)).expect("valid update");
        }
        if step % 50 == 0 {
            // The session answers against the current version.
            live.explain(&q, an).expect("still a non-answer");
            explained += 1;
        }
    }
    println!(
        "\nstreamed 500 insert(s) + 166 delete(s); explained {} time(s) mid-stream; \
         now at epoch {}",
        explained,
        live.epoch()
    );

    let io = live.accumulated_io();
    println!(
        "session: {} inserted, {} removed, {} reinserted by tree maintenance",
        io.inserts, io.removes, io.reinserts
    );

    // The answers still match a fresh engine built on the final data.
    let fresh = ExplainEngine::new(
        UncertainDataset::from_objects(live.dataset().iter().cloned()).expect("valid dataset"),
        EngineConfig::with_alpha(alpha),
    )
    .expect("valid config");
    let a = live.explain(&q, an).expect("non-answer");
    let b = fresh.explain(&q, an).expect("non-answer");
    assert_eq!(a.causes, b.causes, "live session drifted from the data");
    println!("\nlive session still agrees with a fresh engine on the final dataset ✓");
}
