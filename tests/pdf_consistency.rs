//! Cross-model consistency: the continuous-pdf CP (Section 3.2) must
//! converge to the discrete-sample CP as resolution grows, and its
//! filter windows must be sound.

use prsq_crp::data::{pdf_dataset, UncertainConfig};
use prsq_crp::prelude::*;

/// One CP explain of `an` at `alpha` under a 200k-subset cap.
fn cp(engine: &ExplainEngine, q: &Point, an: ObjectId, alpha: f64) -> Result<CrpOutcome, CrpError> {
    engine
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(ExplainStrategy::Cp)
            .with_alpha(alpha)
            .with_subset_budget(200_000)])
        .into_single()
}

fn fixture(seed: u64) -> PdfDataset {
    // Regions small relative to the window geometry: the discrete twin's
    // cell-centre dominance then matches the exact integrals except on a
    // thin boundary set, making cause-level agreement a meaningful test
    // (convergence of the integrals themselves is tested separately).
    pdf_dataset(&UncertainConfig {
        cardinality: 400,
        dim: 2,
        radius_range: (0.0, 60.0),
        seed,
        ..UncertainConfig::default()
    })
}

#[test]
fn pdf_cp_agrees_with_discretised_cp_at_matching_resolution() {
    let ds = fixture(0xDF1);
    let q = Point::from([5_000.0, 5_000.0]);
    let alpha = 0.5;
    let resolution = 4;
    let config = EngineConfig::default();
    let disc = ExplainEngine::new(ds.discretize(resolution), config).expect("valid config");
    let engine = ExplainEngine::for_pdf(ds.clone(), resolution, config).expect("valid config");

    let mut compared = 0;
    let mut agreements = 0;
    for obj in ds.iter().take(80) {
        let a = cp(&engine, &q, obj.id(), alpha);
        let b = cp(&disc, &q, obj.id(), alpha);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                compared += 1;
                let xs: Vec<ObjectId> = x.causes.iter().map(|c| c.id).collect();
                let ys: Vec<ObjectId> = y.causes.iter().map(|c| c.id).collect();
                // The pdf run integrates candidates exactly while the
                // discrete run discretises them, so borderline dominance
                // probabilities can differ; causes agree in the vast
                // majority of cases.
                if xs == ys {
                    agreements += 1;
                }
            }
            (Err(_), Err(_)) => {}
            _ => {
                // Classification differs only for Pr(an) right at α.
                compared += 1;
            }
        }
    }
    assert!(compared >= 5, "compared only {compared} subjects");
    assert!(
        agreements * 10 >= compared * 8,
        "agreement too low: {agreements}/{compared}"
    );
}

#[test]
fn pdf_causes_satisfy_contingency_conditions_under_pdf_semantics() {
    // Verify Definition 1 directly under the continuous model: evaluate
    // Pr(an) with exact candidate integrals over a fine grid of an.
    use crp_geom::dominance_rect;
    let ds = fixture(0xDF2);
    let q = Point::from([5_000.0, 5_000.0]);
    let alpha = 0.5;
    let resolution = 5;
    let engine = ExplainEngine::for_pdf(ds.clone(), resolution, EngineConfig::default())
        .expect("valid config");

    let pr_without = |an: &PdfObject, removed: &[ObjectId]| -> f64 {
        let cells = an.pdf().discretize(resolution);
        cells
            .iter()
            .map(|(center, w)| {
                let mut survive = *w;
                for other in ds.iter() {
                    if other.id() == an.id() || removed.contains(&other.id()) {
                        continue;
                    }
                    let p = other.pdf().box_probability(&dominance_rect(center, &q));
                    survive *= 1.0 - p;
                }
                survive
            })
            .sum()
    };

    let mut verified = 0;
    for obj in ds.iter().take(80) {
        let Ok(out) = cp(&engine, &q, obj.id(), alpha) else {
            continue;
        };
        for cause in out.causes.iter().take(3) {
            let gamma = cause.min_contingency.clone();
            let pr_g = pr_without(ds.get(obj.id()).unwrap(), &gamma);
            assert!(pr_g < alpha, "condition (i): {pr_g}");
            let mut gamma_c = gamma.clone();
            gamma_c.push(cause.id);
            let pr_gc = pr_without(ds.get(obj.id()).unwrap(), &gamma_c);
            assert!(pr_gc >= alpha - 1e-9, "condition (ii): {pr_gc}");
            verified += 1;
        }
        if verified >= 10 {
            break;
        }
    }
    assert!(verified >= 5, "verified only {verified} causes");
}

#[test]
fn discretisation_converges() {
    // Pr(an) estimates at increasing resolution converge (Cauchy-style
    // check between consecutive resolutions).
    use crp_geom::dominance_rect;
    let ds = fixture(0xDF3);
    let q = Point::from([5_000.0, 5_000.0]);
    let subject = ds
        .iter()
        .min_by_key(|o| o.region().center().distance(&q) as u64)
        .unwrap();
    let pr_at = |resolution: usize| -> f64 {
        subject
            .pdf()
            .discretize(resolution)
            .iter()
            .map(|(center, w)| {
                let mut survive = *w;
                for other in ds.iter() {
                    if other.id() == subject.id() {
                        continue;
                    }
                    survive *= 1.0 - other.pdf().box_probability(&dominance_rect(center, &q));
                }
                survive
            })
            .sum()
    };
    let estimates: Vec<f64> = [2, 4, 8, 16].iter().map(|&r| pr_at(r)).collect();
    let d1 = (estimates[1] - estimates[0]).abs();
    let d3 = (estimates[3] - estimates[2]).abs();
    assert!(
        d3 <= d1 + 1e-9,
        "refinement must not diverge: {estimates:?}"
    );
}
