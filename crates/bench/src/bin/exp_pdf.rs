//! Extension experiment: CP under the continuous pdf model
//! (Section 3.2). Sweeps the integration resolution and reports timing
//! plus agreement with the discrete algorithm run on the discretised
//! dataset — the two must converge as the resolution grows.

#![allow(clippy::unusual_byte_groupings)] // mnemonic experiment seeds

use crp_bench::exp::{arg_flag, arg_value, explain_with, out_dir, paper_cp};
use crp_bench::report::{fnum, Table};
use crp_bench::AggregateStats;
use crp_core::{EngineConfig, ExplainEngine, ExplainRequest, ExplainSession, ExplainStrategy};
use crp_data::{pdf_dataset, UncertainConfig};
use crp_geom::Point;
use crp_uncertain::ObjectId;
use std::time::Instant;

fn main() {
    let quick = arg_flag("--quick");
    let cardinality: usize = arg_value("--cardinality")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2_000 } else { 10_000 });
    let alpha = 0.5;

    let cfg = UncertainConfig {
        cardinality,
        dim: 2,
        radius_range: (0.0, 60.0),
        seed: 0xFDF,
        ..UncertainConfig::default()
    };
    let ds = pdf_dataset(&cfg);
    let q = Point::from([5_000.0, 5_000.0]);
    let paper = paper_cp();
    let session = EngineConfig {
        cp: paper,
        ..EngineConfig::with_alpha(alpha)
    };
    // One pdf session per integration resolution (the resolution is a
    // session parameter); the coarse session doubles as the selector.
    let coarse = ExplainEngine::for_pdf(ds.clone(), 2, session).expect("valid engine config");

    // Subjects: pdf objects that the pdf engine classifies as tractable
    // non-answers at a coarse resolution.
    let mut subjects: Vec<ObjectId> = Vec::new();
    let mut order: Vec<usize> = (0..ds.len()).collect();
    order.sort_by_key(|&i| ds.objects()[i].region().center().distance(&q) as u64);
    for i in order {
        if subjects.len() >= if quick { 10 } else { 25 } {
            break;
        }
        let id = ds.objects()[i].id();
        let request = ExplainRequest::explain(&q, id)
            .with_strategy(ExplainStrategy::Cp)
            .with_subset_budget(200_000);
        if let Ok(out) = coarse.run(&[request]).into_single() {
            if !out.causes.is_empty() && out.stats.candidates <= 16 {
                subjects.push(id);
            }
        }
    }
    eprintln!("[pdf] {} subjects selected", subjects.len());

    let mut table = Table::new(
        format!("Extension — pdf-model CP vs discretised CP (|P| = {cardinality}, α = {alpha})"),
        &[
            "resolution",
            "pdf CPU (ms)",
            "discrete CPU (ms)",
            "agreement",
            "pdf causes",
        ],
    );

    for resolution in [2usize, 3, 4, 6] {
        let pdf_engine =
            ExplainEngine::for_pdf(ds.clone(), resolution, session).expect("valid engine config");
        let disc_engine =
            ExplainEngine::new(ds.discretize(resolution), session).expect("valid engine config");
        let mut pdf_ms = AggregateStats::new();
        let mut disc_ms = AggregateStats::new();
        let mut causes = AggregateStats::new();
        let mut agree = 0usize;
        let mut total = 0usize;
        for &id in &subjects {
            let t0 = Instant::now();
            let a = pdf_engine.explain(&q, id);
            pdf_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t1 = Instant::now();
            let b = explain_with(&disc_engine, ExplainStrategy::Cp, &q, alpha, id);
            disc_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            total += 1;
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    causes.push(x.causes.len() as f64);
                    let xs: Vec<ObjectId> = x.causes.iter().map(|c| c.id).collect();
                    let ys: Vec<ObjectId> = y.causes.iter().map(|c| c.id).collect();
                    if xs == ys {
                        agree += 1;
                    }
                }
                (Err(_), Err(_)) => agree += 1,
                _ => {}
            }
        }
        table.row(vec![
            resolution.to_string(),
            fnum(pdf_ms.mean()),
            fnum(disc_ms.mean()),
            format!("{agree}/{total}"),
            fnum(causes.mean()),
        ]);
    }
    table.print();
    table.write_csv(out_dir(), "exp_pdf").expect("CSV written");
}
