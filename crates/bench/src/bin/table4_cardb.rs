//! Table 4: the CarDB case study. A buyer's reference car
//! q = (11,580 $, 49,000 mi); the subject `an` is a listing outside the
//! reverse skyline, and CR lists the causes — every car strictly closer
//! to the subject's profile than q is, i.e. |cause − an| < |q − an| in
//! both price and mileage (the "better than q w.r.t. an" sense the paper
//! verifies for its first cause).

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, out_dir};
use crp_bench::report::Table;
use crp_bench::selection::select_rsq_non_answers;
use crp_core::{EngineConfig, ExplainEngine};
use crp_data::{cardb_dataset, CarDbConfig};
use crp_geom::Point;

fn main() {
    let quick = arg_flag("--quick");
    let engine = ExplainEngine::new(
        cardb_dataset(&CarDbConfig {
            listings: if quick { 10_000 } else { 45_311 },
            seed: 0xCA7,
        }),
        EngineConfig::default(),
    )
    .expect("valid engine config");
    let ds = engine.dataset();
    eprintln!("[table4] {} listings generated", ds.len());
    let q = Point::from([11_580.0, 49_000.0]);

    // A subject like the paper's an(7510, 10180): a non-answer with a
    // handful of causes.
    let subjects = select_rsq_non_answers(
        ds,
        engine.object_tree().frozen(),
        &q,
        20,
        4,
        Some(15),
        0x7AB1E_4,
    );
    let mut best = None;
    for id in subjects {
        let out = engine
            .explain(&q, id)
            .expect("selected subjects are non-answers");
        let better = best
            .as_ref()
            .is_none_or(|(_, b): &(_, crp_core::CrpOutcome)| out.causes.len() > b.causes.len());
        if better {
            best = Some((id, out));
        }
    }
    let (subject, outcome) = best.expect("market contains non-answers");
    let an = ds.get(subject).expect("subject is in the dataset");
    let an_pt = an.certain_point();
    println!(
        "Subject: {} at (price ${}, mileage {} mi) — not in the reverse skyline of q = (${}, {} mi)",
        an.label().unwrap_or("<listing>"),
        an_pt[0],
        an_pt[1],
        q[0],
        q[1]
    );

    let mut table = Table::new(
        "Table 4 — causes for the non-reverse-skyline listing",
        &[
            "cause",
            "price ($)",
            "mileage (mi)",
            "responsibility",
            "closer than q? (price/mileage)",
        ],
    );
    for cause in &outcome.causes {
        let c = ds.get(cause.id).expect("cause is in the dataset");
        let cp = c.certain_point();
        let closer_price = (cp[0] - an_pt[0]).abs() < (q[0] - an_pt[0]).abs();
        let closer_mileage = (cp[1] - an_pt[1]).abs() < (q[1] - an_pt[1]).abs();
        table.row(vec![
            c.label().unwrap_or("<listing>").to_string(),
            format!("{}", cp[0]),
            format!("{}", cp[1]),
            format!("1/{}", cause.min_contingency.len() + 1),
            format!("{closer_price}/{closer_mileage}"),
        ]);
    }
    table.print();
    table
        .write_csv(out_dir(), "table4_cardb")
        .expect("CSV written");

    // Sanity note mirroring the paper's check of its first cause: every
    // cause must be coordinate-wise at least as close to an as q is.
    let all_meaningful = outcome.causes.iter().all(|cause| {
        let cp = ds.get(cause.id).expect("cause").certain_point();
        (0..2).all(|i| (cp[i] - an_pt[i]).abs() <= (q[i] - an_pt[i]).abs())
    });
    println!("all causes dominate q w.r.t. the subject: {all_meaningful}");
}
