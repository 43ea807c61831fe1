//! End-to-end flows over generated workloads: generate → index → query →
//! explain → verify the explanation against the query semantics.

use prsq_crp::data::{
    cardb_dataset, certain_dataset, nba_dataset, nba_position_query, uncertain_dataset,
    CarDbConfig, CertainConfig, CertainKind, NbaConfig, UncertainConfig,
};
use prsq_crp::prelude::*;
use prsq_crp::skyline::{is_reverse_skyline_object, pr_reverse_skyline};

/// A session over a copy of `ds` with the paper's default index.
fn session(ds: &UncertainDataset) -> ExplainEngine {
    ExplainEngine::new(ds.clone(), EngineConfig::default()).expect("valid engine config")
}

/// One explain under `strategy` at `alpha` with lemma switches `cp`.
fn explain(
    engine: &ExplainEngine,
    strategy: ExplainStrategy,
    q: &Point,
    an: ObjectId,
    alpha: f64,
    cp: CpConfig,
) -> Result<CrpOutcome, CrpError> {
    engine
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(strategy)
            .with_alpha(alpha)
            .with_cp(cp)])
        .into_single()
}

/// One CP explain capped at `max_subsets` subset checks.
fn capped_cp(
    engine: &ExplainEngine,
    q: &Point,
    an: ObjectId,
    alpha: f64,
    max_subsets: u64,
) -> Result<CrpOutcome, CrpError> {
    engine
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(ExplainStrategy::Cp)
            .with_alpha(alpha)
            .with_check_budget(max_subsets)])
        .into_single()
}

#[test]
fn synthetic_uncertain_pipeline() {
    let ds = uncertain_dataset(&UncertainConfig {
        cardinality: 1_200,
        dim: 3,
        radius_range: (0.0, 120.0),
        seed: 0xE2E,
        ..UncertainConfig::default()
    });
    let engine = session(&ds);
    let q = Point::from([5_000.0, 5_000.0, 5_000.0]);
    let alpha = 0.6;

    // Near-q subjects first: small dominance windows, tractable cases.
    let mut order: Vec<&UncertainObject> = ds.iter().collect();
    order.sort_by_key(|o| o.expectation().distance(&q) as u64);
    let mut explained = 0;
    for obj in order.into_iter().take(200) {
        if explained >= 6 {
            break;
        }
        let Ok(out) = capped_cp(&engine, &q, obj.id(), alpha, 50_000) else {
            continue;
        };
        explained += 1;
        let an_pos = ds.index_of(obj.id()).unwrap();
        // Every reported cause must satisfy Definition 1 against the
        // real query semantics (not the algorithm's internal matrix).
        for cause in &out.causes {
            let gamma: Vec<usize> = cause
                .min_contingency
                .iter()
                .map(|id| ds.index_of(*id).unwrap())
                .collect();
            let c_pos = ds.index_of(cause.id).unwrap();
            let pr_minus_gamma = pr_reverse_skyline(&ds, an_pos, &q, |j| gamma.contains(&j));
            assert!(pr_minus_gamma < alpha, "condition (i) violated");
            let pr_minus_all =
                pr_reverse_skyline(&ds, an_pos, &q, |j| j == c_pos || gamma.contains(&j));
            assert!(pr_minus_all >= alpha - 1e-9, "condition (ii) violated");
            assert!(
                (cause.responsibility - 1.0 / (1.0 + gamma.len() as f64)).abs() < 1e-12,
                "responsibility formula"
            );
        }
    }
    assert!(
        explained >= 2,
        "found only {explained} explainable non-answers"
    );
}

#[test]
fn certain_pipeline_cr_matches_definition() {
    for kind in [
        CertainKind::Independent,
        CertainKind::Correlated,
        CertainKind::Clustered,
        CertainKind::Anticorrelated,
    ] {
        let ds = certain_dataset(&CertainConfig {
            kind,
            cardinality: 2_000,
            dim: 2,
            seed: 0xE2E,
            ..CertainConfig::default()
        });
        let engine = session(&ds);
        let q = Point::from([5_000.0, 5_000.0]);
        let mut explained = 0;
        for obj in ds.iter() {
            if explained >= 5 {
                break;
            }
            let cp = CpConfig::default();
            let Ok(out) = explain(&engine, ExplainStrategy::Cr, &q, obj.id(), 0.5, cp) else {
                continue;
            };
            explained += 1;
            let an_pos = ds.index_of(obj.id()).unwrap();
            assert!(
                !is_reverse_skyline_object(&ds, an_pos, &q),
                "{kind:?}: explained object must be a non-answer"
            );
            // Lemma 7 shape: equal responsibilities, Γ = Cc − {c}.
            let k = out.causes.len();
            for cause in &out.causes {
                assert!((cause.responsibility - 1.0 / k as f64).abs() < 1e-12);
                assert_eq!(cause.min_contingency.len(), k - 1);
            }
        }
        assert!(explained > 0, "{kind:?}: no non-answers found");
    }
}

#[test]
fn nba_case_study_pipeline() {
    let ds = nba_dataset(&NbaConfig {
        players: 600,
        seed: 0xE2E,
        ..NbaConfig::default()
    });
    let engine = session(&ds);
    let q = nba_position_query();
    // Near-elite players first: they have small dominance windows, the
    // tractable Table-3-style subjects. Deep journeymen are skipped via
    // the work budget; the probability bound makes feasible cardinality
    // skipping cheap.
    let mut order: Vec<&UncertainObject> = ds.iter().collect();
    order.sort_by_key(|o| o.expectation().distance(&q) as u64);
    let mut explained = 0;
    for obj in order.into_iter().take(80) {
        if explained >= 2 {
            break;
        }
        let Ok(out) = capped_cp(&engine, &q, obj.id(), 0.5, 60_000) else {
            continue;
        };
        if out.causes.is_empty() {
            continue;
        }
        explained += 1;
        // Causes carry labels (the Table 3 presentation needs them).
        for cause in &out.causes {
            assert!(ds.get(cause.id).unwrap().label().is_some());
            assert!(cause.responsibility > 0.0 && cause.responsibility <= 1.0);
        }
    }
    assert!(explained > 0, "league must contain explainable players");
}

#[test]
fn cardb_case_study_pipeline() {
    let ds = cardb_dataset(&CarDbConfig {
        listings: 4_000,
        seed: 0xE2E,
    });
    let engine = session(&ds);
    let q = Point::from([11_580.0, 49_000.0]);
    let mut explained = 0;
    for obj in ds.iter() {
        if explained >= 5 {
            break;
        }
        let cp = CpConfig::default();
        let Ok(out) = explain(&engine, ExplainStrategy::Cr, &q, obj.id(), 0.5, cp) else {
            continue;
        };
        explained += 1;
        let an = obj.certain_point();
        // The paper's Table 4 sanity check: every cause is coordinate-
        // wise at least as close to an as q is (it dominates q w.r.t. an).
        for cause in &out.causes {
            let c = ds.get(cause.id).unwrap().certain_point();
            for d in 0..2 {
                assert!(
                    (c[d] - an[d]).abs() <= (q[d] - an[d]).abs(),
                    "cause must be closer than q on axis {d}"
                );
            }
        }
    }
    assert!(explained > 0, "market must contain non-answers");
}

#[test]
fn query_results_consistent_between_engines() {
    // The PRSQ answer set computed naively must agree with per-object
    // indexed classification — ties the engines together end-to-end.
    let ds = uncertain_dataset(&UncertainConfig {
        cardinality: 300,
        dim: 2,
        radius_range: (0.0, 400.0),
        seed: 0xE2E2,
        ..UncertainConfig::default()
    });
    let tree = build_object_rtree(&ds, RTreeParams::paper_default(2));
    let q = Point::from([5_000.0, 5_000.0]);
    let alpha = 0.5;
    let answers = prsq_crp::skyline::probabilistic_reverse_skyline(&ds, &q, alpha);
    for (i, obj) in ds.iter().enumerate() {
        let mut stats = QueryStats::default();
        let pr =
            prsq_crp::skyline::pr_reverse_skyline_indexed(&ds, tree.frozen(), i, &q, &mut stats);
        let in_answers = answers.iter().any(|(id, _)| *id == obj.id());
        assert_eq!(
            PrsqMembership::from_prob(pr, alpha).is_answer(),
            in_answers,
            "object {}",
            obj.id()
        );
    }
}

#[test]
fn reverse_skyline_over_a_multi_level_image_matches_naive() {
    // The window evaluator over the packed image of a paper-fanout tree
    // deep enough to prune at branch level, against the O(n²) scan.
    for kind in [CertainKind::Independent, CertainKind::Anticorrelated] {
        let ds = certain_dataset(&CertainConfig {
            kind,
            cardinality: 2_000,
            dim: 2,
            seed: 0x2C0,
            ..CertainConfig::default()
        });
        let tree = build_object_rtree(&ds, RTreeParams::paper_default(2));
        assert!(
            tree.height() >= 2,
            "{kind:?}: the image must be multi-level"
        );
        let q = Point::from([5_000.0, 5_000.0]);
        let mut stats = QueryStats::default();
        let mut fast = reverse_skyline_rtree(&ds, tree.frozen(), &q, &mut stats);
        let mut naive = reverse_skyline_naive(&ds, &q);
        fast.sort_unstable();
        naive.sort_unstable();
        assert!(!naive.is_empty());
        assert_eq!(fast, naive, "{kind:?}");
    }
}
