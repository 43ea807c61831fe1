//! Certain-data scenario (Section 4 / Table 4): a dealer checks why a
//! particular listing does not appear in the reverse skyline of a
//! buyer's reference configuration — i.e. why the listing is not a
//! "potential sale" for buyers anchored at q — and CR returns every
//! competing listing that is strictly closer to the subject's profile
//! than the reference, each with responsibility 1/|Cc| (Lemma 7).
//!
//! ```text
//! cargo run --release --example car_market
//! ```

use prsq_crp::data::{cardb_dataset, CarDbConfig};
use prsq_crp::prelude::*;

fn main() {
    let engine = ExplainEngine::new(
        cardb_dataset(&CarDbConfig {
            listings: 8_000,
            seed: 0xCA7,
        }),
        EngineConfig::default(),
    )
    .expect("valid engine config");
    let ds = engine.dataset();
    let q = Point::from([11_580.0, 49_000.0]); // the paper's reference car
    println!(
        "{} listings; buyer reference q = (${}, {} mi)",
        ds.len(),
        q[0],
        q[1]
    );

    // First: which listings ARE in the reverse skyline of q? (The
    // packed image of the engine's object tree serves the membership
    // query too.)
    let mut stats = QueryStats::default();
    let rs = reverse_skyline_rtree(ds, engine.object_tree().frozen(), &q, &mut stats);
    println!(
        "reverse skyline size: {} ({} node accesses)",
        rs.len(),
        stats.node_accesses
    );

    // Explain a few absences.
    let mut explained = 0;
    for obj in ds.iter() {
        if explained >= 3 {
            break;
        }
        let outcome = match engine.explain(&q, obj.id()) {
            Ok(o) if (2..=8).contains(&o.causes.len()) => o,
            _ => continue,
        };
        explained += 1;
        let an = obj.certain_point();
        println!(
            "\n=== {} at (${}, {} mi) is outside the reverse skyline — blocked by: ===",
            obj.label().unwrap_or("listing"),
            an[0],
            an[1]
        );
        for cause in &outcome.causes {
            let c = ds.get(cause.id).expect("cause exists");
            let p = c.certain_point();
            println!(
                "  {:<28} (${:>6}, {:>6} mi)  responsibility 1/{}",
                c.label().unwrap_or("listing"),
                p[0],
                p[1],
                cause.min_contingency.len() + 1
            );
        }
    }
}
