//! Plan execution budgets: a budgeted plan either finishes or returns
//! [`CrpError::Partial`] — never a wrong or torn answer. Exhausted
//! budgets surface as typed [`StopReason`]s with monotone progress
//! counters, generous budgets are bit-identical to unbudgeted runs,
//! and a starved plan leaves nothing behind that a rerun would replay.

use crp_core::{
    CrpError, EngineConfig, ExplainEngine, ExplainRequest, ExplainSession, ExplainStrategy,
    PlanLimits, StopReason,
};
use crp_geom::Point;
use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};

fn pt(x: f64, y: f64) -> Point {
    Point::from([x, y])
}

/// Enough objects clustered around the query that every explain does
/// real stage-1 traversal and FMCS subset work.
fn fixture() -> ExplainEngine {
    let mut objects = vec![
        UncertainObject::certain(ObjectId(0), pt(10.0, 10.0)),
        UncertainObject::certain(ObjectId(1), pt(7.0, 7.0)),
        UncertainObject::with_equal_probs(ObjectId(2), vec![pt(8.0, 9.0), pt(6.0, 6.5)]).unwrap(),
        UncertainObject::certain(ObjectId(3), pt(40.0, 40.0)),
    ];
    for i in 0..12u32 {
        let x = 6.0 + (i % 4) as f64 * 0.8;
        let y = 6.2 + (i / 4) as f64 * 0.9;
        objects.push(UncertainObject::certain(ObjectId(100 + i), pt(x, y)));
    }
    let ds = UncertainDataset::from_objects(objects).unwrap();
    ExplainEngine::new(ds, EngineConfig::with_alpha(0.75)).unwrap()
}

fn request() -> ExplainRequest {
    // Three tasks, serial so task order (and therefore which task trips
    // a budget first) is deterministic.
    ExplainRequest::batch(&pt(5.0, 5.0), &[ObjectId(0), ObjectId(1), ObjectId(3)]).serial()
}

fn progress_of(
    result: &Result<crp_core::CrpOutcome, CrpError>,
) -> Option<&crp_core::PartialProgress> {
    match result {
        Err(CrpError::Partial(p)) => Some(p),
        _ => None,
    }
}

#[test]
fn zero_deadline_returns_partial_before_any_work() {
    let engine = fixture();
    let report = engine.run(&[request().with_deadline_ms(0)]);
    assert_eq!(report.results.len(), 3);
    for result in &report.results {
        let progress = progress_of(result).expect("an expired deadline must yield Partial");
        assert_eq!(progress.reason, StopReason::DeadlineExceeded);
        assert_eq!(progress.tasks_completed, 0, "no task can finish in 0 ms");
        assert_eq!(progress.tasks_total, 3);
    }
}

#[test]
fn subset_budget_trips_with_typed_reason_and_consistent_progress() {
    let engine = fixture();
    // Baseline: the fixture must do real subset work, or the budget
    // has nothing to meter.
    let baseline = engine.run(&[request()]);
    let total_subsets: u64 = baseline
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|o| o.stats.subsets_examined)
        .sum();
    assert!(total_subsets > 0, "fixture examines no subsets — rework it");

    // A fresh engine, so this run is independent of the baseline.
    let report = fixture().run(&[request().with_check_budget(0)]);
    let partials: Vec<_> = report.results.iter().filter_map(progress_of).collect();
    assert!(
        !partials.is_empty(),
        "a zero check budget must cut the batch short: {:?}",
        report.results
    );
    for progress in &partials {
        assert_eq!(progress.reason, StopReason::CheckBudget);
        assert!(progress.subsets_examined > 0, "the trip records the charge");
        assert!(progress.tasks_completed < progress.tasks_total);
        assert_eq!(progress.tasks_total, 3);
    }
    // Whatever finished before the trip is bit-identical to the
    // unbudgeted run — Partial truncates, it never corrupts.
    for (budgeted, reference) in report.results.iter().zip(&baseline.results) {
        if let Ok(outcome) = budgeted {
            assert_eq!(
                outcome.causes,
                reference.as_ref().unwrap().causes,
                "completed tasks must not be affected by the budget"
            );
        }
    }
}

#[test]
fn node_budget_trips_during_stage1() {
    let engine = fixture();
    let report = engine.run(&[request().with_node_budget(0)]);
    let progress = report
        .results
        .iter()
        .filter_map(progress_of)
        .next()
        .expect("a zero node budget must trip in stage 1");
    assert_eq!(progress.reason, StopReason::NodeAccessBudget);
    assert!(progress.node_accesses > 0, "the trip records the charge");
}

#[test]
fn progress_is_monotone_in_the_budget() {
    let mut last_completed = 0u64;
    for budget in [0u64, 1, 10, 1_000, 1_000_000] {
        // A fresh engine per budget keeps the runs independent.
        let report = fixture().run(&[request().with_check_budget(budget)]);
        let completed = report
            .results
            .iter()
            .filter(|r| !matches!(r, Err(CrpError::Partial(_))))
            .count() as u64;
        assert!(
            completed >= last_completed,
            "raising the check budget to {budget} lost progress \
             ({completed} < {last_completed})"
        );
        last_completed = completed;
        if let Some(progress) = report.results.iter().filter_map(progress_of).next() {
            assert_eq!(
                progress.tasks_completed,
                completed.min(progress.tasks_total)
            );
        }
    }
    assert_eq!(last_completed, 3, "an ample budget must finish everything");
}

#[test]
fn generous_budgets_are_bit_identical_to_unbudgeted_runs() {
    let reference = fixture().run(&[request()]);
    let limits = PlanLimits {
        deadline_ms: Some(3_600_000),
        max_node_accesses: Some(u64::MAX),
        max_checks: Some(u64::MAX),
    };
    // A fresh engine, so the budgeted run is independent of the
    // reference run.
    let budgeted = fixture().run(&[request().with_limits(limits)]);
    assert_eq!(reference.results.len(), budgeted.results.len());
    for (want, got) in reference.results.iter().zip(&budgeted.results) {
        match (want, got) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.causes, b.causes);
                assert_eq!(a.stats.subsets_examined, b.stats.subsets_examined);
            }
            (
                Err(CrpError::NotANonAnswer { prob: a }),
                Err(CrpError::NotANonAnswer { prob: b }),
            ) => {
                assert_eq!(a, b)
            }
            other => panic!("budgeted outcome diverged: {other:?}"),
        }
    }
}

#[test]
fn partial_outcomes_are_never_cached() {
    let engine = fixture();
    let starved = engine.run(&[request().with_deadline_ms(0)]);
    assert!(starved.results.iter().all(|r| progress_of(r).is_some()));
    // The same session must now answer in full: a starved run must
    // not leave Partials behind for the rerun to replay.
    let rerun = engine.run(&[request()]);
    let fresh = fixture().run(&[request()]);
    for (got, want) in rerun.results.iter().zip(&fresh.results) {
        match (got, want) {
            (Ok(a), Ok(b)) => assert_eq!(a.causes, b.causes),
            (
                Err(CrpError::NotANonAnswer { prob: a }),
                Err(CrpError::NotANonAnswer { prob: b }),
            ) => {
                assert_eq!(a, b)
            }
            other => panic!("a starved run poisoned the session: {other:?}"),
        }
    }
}

/// Every check cap is one mechanism: on the same hard explain, a Naive
/// strategy's own cap field, `with_check_budget` and `with_limits`
/// stop at equal typed progress, and a one-task plan stops at the same
/// progress on every run. The wall clock (`elapsed_ms`) is the only
/// field left out.
#[test]
fn every_subset_cap_stops_at_the_same_typed_progress() {
    let q = pt(5.0, 5.0);
    let naive = |max_subsets| {
        ExplainRequest::explain(&q, ObjectId(0))
            .with_strategy(ExplainStrategy::NaiveI { max_subsets })
    };
    let cap = 5_000;
    // The explain is hard: uncapped, Naive-I walks several cancellation
    // intervals past the cap.
    let full = fixture()
        .run(&[naive(None)])
        .into_single()
        .expect("a non-answer");
    assert!(full.stats.subsets_examined > 4 * cap);
    let stopped = |request: ExplainRequest| {
        let err = fixture()
            .run(&[request])
            .into_single()
            .expect_err("the cap must stop the explain");
        let CrpError::Partial(mut progress) = err else {
            panic!("expected a typed Partial, got {err:?}");
        };
        progress.elapsed_ms = 0;
        *progress
    };
    let by_field = stopped(naive(Some(cap)));
    assert_eq!(by_field.reason, StopReason::CheckBudget);
    assert_eq!((by_field.tasks_total, by_field.tasks_completed), (1, 0));
    assert!(by_field.subsets_examined > cap);
    let by_budget = stopped(naive(None).with_check_budget(cap));
    assert_eq!(by_field, by_budget, "the strategy field is a plan limit");
    let limits = PlanLimits {
        max_checks: Some(cap),
        ..PlanLimits::default()
    };
    assert_eq!(stopped(naive(None).with_limits(limits)), by_budget);
    assert_eq!(
        stopped(naive(None).with_check_budget(cap)),
        by_budget,
        "a rerun must stop at the same progress"
    );
}

/// The check cap bounds a pruned CP search: on the synthetic NBA league
/// at q = (3500, 1500, 600, 800), α = 0.5, objects 24, 23 and 10 are deep
/// non-answers whose branch and bound spends most of its work on
/// completion-bound checks. Under a 100,000-check cap each stops with a
/// typed `CheckBudget` partial within one poll interval of the cap,
/// however its work splits between subset and bound checks.
#[test]
fn check_budget_bounds_the_pruned_search() {
    use crp_core::engine::budget::CHECK_INTERVAL;
    use crp_data::{nba_dataset, NbaConfig};

    let cap = 100_000;
    let engine = ExplainEngine::new(
        nba_dataset(&NbaConfig::default()),
        EngineConfig::with_alpha(0.5),
    )
    .unwrap();
    let q = Point::from([3500.0, 1500.0, 600.0, 800.0]);
    for an in [24, 23, 10] {
        let err = engine
            .run(&[ExplainRequest::explain(&q, ObjectId(an)).with_check_budget(cap)])
            .into_single()
            .expect_err("the cap must stop the explain");
        let CrpError::Partial(progress) = err else {
            panic!("object {an}: expected a typed Partial, got {err:?}");
        };
        assert_eq!(progress.reason, StopReason::CheckBudget, "object {an}");
        let checks = progress.subsets_examined + progress.bound_checks;
        assert!(
            checks > cap && checks <= cap + CHECK_INTERVAL,
            "object {an}: {} subset + {} bound checks against a cap of {cap}",
            progress.subsets_examined,
            progress.bound_checks
        );
    }
}
