//! The continuous-pdf model (Section 3.2): uncertain objects are regions
//! with densities instead of sample lists. This example builds a small
//! pdf dataset, explains a non-answer through a pdf engine session
//! (candidates are integrated in closed form), and shows convergence to
//! the discrete algorithm as the integration resolution grows.
//!
//! ```text
//! cargo run --release --example pdf_model
//! ```

use prsq_crp::prelude::*;
use prsq_crp::uncertain::ContinuousPdf;

fn main() {
    // A 2-D market of uncertain "offers": each offer is a price/latency
    // region the vendor guarantees, uniform within the region.
    let rect = |lo: [f64; 2], hi: [f64; 2]| HyperRect::new(Point::from(lo), Point::from(hi));
    let ds = PdfDataset::from_objects(vec![
        PdfObject::uniform(ObjectId(0), rect([9.0, 9.0], [11.0, 11.0])).with_label("our offer"),
        PdfObject::uniform(ObjectId(1), rect([6.5, 6.5], [7.5, 7.5])).with_label("sharp rival"),
        PdfObject::new(
            ObjectId(2),
            ContinuousPdf::uniform(rect([6.0, 2.0], [9.0, 6.5])),
        )
        .with_label("broad rival"),
        PdfObject::uniform(ObjectId(3), rect([30.0, 30.0], [34.0, 31.0])).with_label("distant"),
    ])
    .unwrap();
    let q = Point::from([5.0, 5.0]);
    let alpha = 0.5;

    println!("explaining the absence of 'our offer' from the probabilistic reverse skyline…");
    // The integration resolution is a session parameter: one pdf engine
    // per resolution (each owns its region R-tree).
    for resolution in [2usize, 4, 8] {
        let engine =
            ExplainEngine::for_pdf(ds.clone(), resolution, EngineConfig::with_alpha(alpha))
                .expect("valid engine config");
        match engine.explain(&q, ObjectId(0)) {
            Ok(out) => {
                println!(
                    "\nresolution {resolution} ({} integration cells):",
                    resolution * resolution
                );
                for cause in out.by_responsibility() {
                    println!(
                        "  {:<14} responsibility 1/{}",
                        ds.get(cause.id).and_then(|o| o.label()).unwrap_or("?"),
                        cause.min_contingency.len() + 1
                    );
                }
            }
            Err(e) => println!("resolution {resolution}: {e}"),
        }
    }

    // Cross-check: the discrete algorithm on the discretised dataset.
    let disc_engine = ExplainEngine::new(ds.discretize(8), EngineConfig::with_alpha(alpha))
        .expect("valid engine config");
    let disc = disc_engine.dataset();
    let out = disc_engine
        .run(&[ExplainRequest::explain(&q, ObjectId(0)).with_strategy(ExplainStrategy::Cp)])
        .into_single()
        .expect("still a non-answer after discretisation");
    println!(
        "\ndiscretised check (resolution 8): {} causes",
        out.causes.len()
    );
    for cause in out.by_responsibility() {
        println!(
            "  {:<14} responsibility 1/{}",
            disc.get(cause.id).and_then(|o| o.label()).unwrap_or("?"),
            cause.min_contingency.len() + 1
        );
    }
}
