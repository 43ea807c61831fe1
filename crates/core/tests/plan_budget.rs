//! Plan execution budgets: a budgeted plan either finishes or returns
//! [`CrpError::Partial`] — never a wrong or torn answer. Exhausted
//! budgets surface as typed [`StopReason`]s with monotone progress
//! counters, generous budgets are bit-identical to unbudgeted runs,
//! and a starved plan leaves nothing behind that a rerun would replay.

use crp_core::{
    CrpError, EngineConfig, ExplainEngine, ExplainRequest, ExplainSession, PlanLimits, StopReason,
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
    let report = fixture().run(&[request().with_subset_budget(0)]);
    let partials: Vec<_> = report.results.iter().filter_map(progress_of).collect();
    assert!(
        !partials.is_empty(),
        "a zero subset budget must cut the batch short: {:?}",
        report.results
    );
    for progress in &partials {
        assert_eq!(progress.reason, StopReason::SubsetBudget);
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
        let report = fixture().run(&[request().with_subset_budget(budget)]);
        let completed = report
            .results
            .iter()
            .filter(|r| !matches!(r, Err(CrpError::Partial(_))))
            .count() as u64;
        assert!(
            completed >= last_completed,
            "raising the subset budget to {budget} lost progress \
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
        max_subsets: Some(u64::MAX),
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
