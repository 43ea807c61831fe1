//! Plan execution budgets: wall deadlines, node-access and check
//! limits with **cooperative cancellation** and a typed `Partial`
//! outcome.
//!
//! Responsibility computation is NP-hard in general (Meliou et al.),
//! so one adversarial request — a huge α-sweep, a candidate set whose
//! FMCS search space explodes — can monopolize the engine forever.
//! [`PlanLimits`] bounds a single
//! [`ExplainRequest`](super::ExplainRequest)'s execution:
//!
//! * **wall deadline** (`deadline_ms`) — measured from the moment the
//!   plan starts executing,
//! * **node accesses** (`max_node_accesses`) — R-tree nodes read by
//!   stage-1 traversals across the whole plan,
//! * **checks** (`max_checks`) — the work units of the subset walks
//!   across the whole plan: every candidate contingency set examined
//!   (FMCS, Naive-I, Naive-II and the Lemma 5 singleton sweep alike)
//!   and every completion bound the pruned FMCS walk evaluates.
//!
//! These are the library's only work caps. A one-task plan (a single
//! [`ExplainRequest::explain`](super::ExplainRequest::explain)) caps
//! that one explain; a multi-task plan shares each cap across its
//! tasks, as it shares the deadline.
//!
//! Enforcement is cooperative: the executor threads one shared
//! `Cancel` handle through its workers (via a scoped thread-local,
//! so rayon-spawned unit tasks see it too) and the hot loops poll it
//! at bounded intervals — before each task, at the refinement
//! entry, per FMCS candidate, and every [`CHECK_INTERVAL`] checks.
//! Every walk counts its checks through one `Meter`, the only code
//! that charges them, so a check cap stops up to one interval past its
//! limit. A tripped budget surfaces as [`CrpError::Partial`]
//! carrying a
//! [`PartialProgress`]: monotone counters of the work completed, never
//! a wrong or torn result. Finished tasks keep their real outcomes;
//! only the tasks the budget cut short report `Partial`.

use crate::error::CrpError;
use crate::types::RunStats;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many checks (subset checks and completion-bound checks alike)
/// may pass between two cancellation polls — deadlines and the check
/// cap are honored within one such interval.
pub const CHECK_INTERVAL: u64 = 4096;

/// Per-request execution limits (all optional; `default()` is
/// unlimited). Attached to an
/// [`ExplainRequest`](super::ExplainRequest) via its `with_*` budget
/// builders; when several requests execute as one plan, the
/// most-restrictive limit of each kind applies to the whole plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanLimits {
    /// Wall-clock deadline in milliseconds from plan start.
    pub deadline_ms: Option<u64>,
    /// Ceiling on R-tree node accesses across the plan.
    pub max_node_accesses: Option<u64>,
    /// Ceiling on checks across the plan: subset checks plus
    /// completion-bound checks.
    pub max_checks: Option<u64>,
}

impl PlanLimits {
    /// The check ceiling the `crp` CLI and `crp serve` apply when none
    /// is given: a plan whose searches outgrow it stops with a typed
    /// `Partial` instead of holding its thread.
    pub const DEFAULT_MAX_CHECKS: u64 = 5_000_000;

    /// True when no limit is set — the executor skips all polling.
    pub fn is_unlimited(&self) -> bool {
        self.deadline_ms.is_none() && self.max_node_accesses.is_none() && self.max_checks.is_none()
    }

    /// The most restrictive combination of two limit sets (used when
    /// several requests join one plan).
    pub fn merge_min(self, other: PlanLimits) -> PlanLimits {
        fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        PlanLimits {
            deadline_ms: min_opt(self.deadline_ms, other.deadline_ms),
            max_node_accesses: min_opt(self.max_node_accesses, other.max_node_accesses),
            max_checks: min_opt(self.max_checks, other.max_checks),
        }
    }
}

/// Which limit stopped a budgeted plan first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The wall deadline passed.
    DeadlineExceeded,
    /// The node-access ceiling was reached.
    NodeAccessBudget,
    /// The check ceiling was reached.
    CheckBudget,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::DeadlineExceeded => write!(f, "wall deadline exceeded"),
            StopReason::NodeAccessBudget => write!(f, "node-access budget exhausted"),
            StopReason::CheckBudget => write!(f, "check budget exhausted"),
        }
    }
}

/// Monotone progress counters carried by a
/// [`CrpError::Partial`] outcome: how much of
/// the plan completed before the budget tripped. Counters only grow as
/// a plan runs, so a larger budget on the same workload never reports
/// less progress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialProgress {
    /// Which limit tripped.
    pub reason: StopReason,
    /// Tasks in the whole plan.
    pub tasks_total: u64,
    /// Tasks that finished with a real outcome before the trip.
    pub tasks_completed: u64,
    /// R-tree node accesses charged so far.
    pub node_accesses: u64,
    /// Subset checks charged so far.
    pub subsets_examined: u64,
    /// Completion-bound checks charged so far.
    pub bound_checks: u64,
    /// Wall milliseconds from plan start to the trip.
    pub elapsed_ms: u64,
}

impl fmt::Display for PartialProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} task(s) done, {} node access(es), {} subset check(s), {} bound check(s), {} ms",
            self.reason,
            self.tasks_completed,
            self.tasks_total,
            self.node_accesses,
            self.subsets_examined,
            self.bound_checks,
            self.elapsed_ms
        )
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_NODES: u8 = 2;
const TRIP_CHECKS: u8 = 3;

/// The shared cancellation handle of one budgeted plan: the deadline
/// instant plus atomic usage counters. Workers charge work into it and
/// poll [`Cancel::check`]; the first poll past a limit latches the
/// stop reason so every subsequent poll reports the same `Partial`.
pub(crate) struct Cancel {
    started: Instant,
    deadline: Option<Instant>,
    max_nodes: Option<u64>,
    max_checks: Option<u64>,
    tasks_total: u64,
    tasks_completed: AtomicU64,
    nodes: AtomicU64,
    subsets: AtomicU64,
    bound_checks: AtomicU64,
    tripped: AtomicU8,
}

impl Cancel {
    /// A handle for `limits`, or `None` when nothing is limited (the
    /// executor then skips all polling).
    pub(crate) fn new(limits: PlanLimits, tasks_total: u64) -> Option<Arc<Cancel>> {
        if limits.is_unlimited() {
            return None;
        }
        let started = Instant::now();
        Some(Arc::new(Cancel {
            started,
            deadline: limits
                .deadline_ms
                .map(|ms| started + Duration::from_millis(ms)),
            max_nodes: limits.max_node_accesses,
            max_checks: limits.max_checks,
            tasks_total,
            tasks_completed: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
            subsets: AtomicU64::new(0),
            bound_checks: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
        }))
    }

    pub(crate) fn charge_nodes(&self, n: u64) {
        if n > 0 {
            self.nodes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Charges a [`Meter`]'s checks since its last poll.
    fn charge_checks(&self, subsets: u64, bound_checks: u64) {
        if subsets > 0 {
            self.subsets.fetch_add(subsets, Ordering::Relaxed);
        }
        if bound_checks > 0 {
            self.bound_checks.fetch_add(bound_checks, Ordering::Relaxed);
        }
    }

    pub(crate) fn task_completed(&self) {
        self.tasks_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Polls every limit; `Err(Partial)` once any has tripped. The trip
    /// latches: later polls keep failing with the same reason.
    pub(crate) fn check(&self) -> Result<(), CrpError> {
        let tripped = match self.tripped.load(Ordering::Relaxed) {
            TRIP_NONE => {
                let hit = if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    TRIP_DEADLINE
                } else if self
                    .max_nodes
                    .is_some_and(|max| self.nodes.load(Ordering::Relaxed) > max)
                {
                    TRIP_NODES
                } else if self.max_checks.is_some_and(|max| {
                    let checks = self.subsets.load(Ordering::Relaxed)
                        + self.bound_checks.load(Ordering::Relaxed);
                    checks > max
                }) {
                    TRIP_CHECKS
                } else {
                    return Ok(());
                };
                // First writer wins; a concurrent racer's reason is as
                // valid as ours, so keep whichever latched.
                let _ = self.tripped.compare_exchange(
                    TRIP_NONE,
                    hit,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                self.tripped.load(Ordering::Relaxed)
            }
            hit => hit,
        };
        let reason = match tripped {
            TRIP_DEADLINE => StopReason::DeadlineExceeded,
            TRIP_NODES => StopReason::NodeAccessBudget,
            _ => StopReason::CheckBudget,
        };
        Err(CrpError::Partial(Box::new(PartialProgress {
            reason,
            tasks_total: self.tasks_total,
            tasks_completed: self.tasks_completed.load(Ordering::Relaxed),
            node_accesses: self.nodes.load(Ordering::Relaxed),
            subsets_examined: self.subsets.load(Ordering::Relaxed),
            bound_checks: self.bound_checks.load(Ordering::Relaxed),
            elapsed_ms: self.started.elapsed().as_millis() as u64,
        })))
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<Cancel>>> = const { RefCell::new(None) };
}

/// Runs `f` with `cancel` installed as this thread's active budget
/// handle (restored afterwards, panic included). The executor wraps
/// each unit/per-call task body in this — *inside* the rayon worker —
/// so the deep pipeline and FMCS loops can poll without new
/// parameters on every seam.
pub(crate) fn with_cancel<R>(cancel: Option<&Arc<Cancel>>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Cancel>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|slot| *slot.borrow_mut() = self.0.take());
        }
    }
    let previous = ACTIVE.with(|slot| slot.replace(cancel.cloned()));
    let _restore = Restore(previous);
    f()
}

/// The budget handle installed on this thread, if any.
pub(crate) fn active() -> Option<Arc<Cancel>> {
    ACTIVE.with(|slot| slot.borrow().clone())
}

/// The one work meter of the subset walks: FMCS (Naive-I included),
/// Naive-II's subset verification and the Lemma 5 singleton sweep
/// count every check through it, and it is the only code that charges
/// checks to a plan's [`Cancel`].
///
/// It keeps one tally: every subset check and every completion-bound
/// check is one unit. Every [`CHECK_INTERVAL`] units it charges them
/// and polls the plan budget, so a check cap or a deadline stops a walk
/// within one interval however heavily it prunes. An unlimited plan
/// has no `Cancel`, and then nothing is tallied: a check only bumps
/// the outcome's `subsets_examined` or `bound_checks`.
pub(crate) struct Meter {
    cancel: Option<Arc<Cancel>>,
    /// Subset checks since the last poll (budgeted plans only).
    subsets: u64,
    /// Completion-bound checks since the last poll (budgeted plans
    /// only).
    bound_checks: u64,
    /// Why the walk stopped, once a poll tripped.
    stop: Option<CrpError>,
}

impl Meter {
    /// A meter charging this thread's active plan budget, if any.
    pub(crate) fn active() -> Self {
        Self::charging(active())
    }

    fn charging(cancel: Option<Arc<Cancel>>) -> Self {
        Meter {
            cancel,
            subsets: 0,
            bound_checks: 0,
            stop: None,
        }
    }

    /// Counts one subset check; `false` stops the walk, which then
    /// counts nothing more.
    pub(crate) fn subset(&mut self, stats: &mut RunStats) -> bool {
        stats.subsets_examined += 1;
        if self.cancel.is_none() {
            return true;
        }
        self.subsets += 1;
        self.subsets + self.bound_checks < CHECK_INTERVAL || self.poll()
    }

    /// Counts one completion-bound check; `false` stops the walk.
    pub(crate) fn bound_check(&mut self, stats: &mut RunStats) -> bool {
        stats.bound_checks += 1;
        if self.cancel.is_none() {
            return true;
        }
        self.bound_checks += 1;
        self.subsets + self.bound_checks < CHECK_INTERVAL || self.poll()
    }

    /// Charges the checks since the last poll and polls the plan
    /// budget; `false` once it has tripped. The walks also call it at
    /// their own boundaries (each FMCS or Naive-II candidate), so a
    /// deadline is honored there even when each stays under one
    /// interval.
    pub(crate) fn poll(&mut self) -> bool {
        let Some(cancel) = &self.cancel else {
            return true;
        };
        if self.stop.is_some() {
            return false;
        }
        cancel.charge_checks(
            std::mem::take(&mut self.subsets),
            std::mem::take(&mut self.bound_checks),
        );
        match cancel.check() {
            Ok(()) => true,
            Err(e) => {
                self.stop = Some(e);
                false
            }
        }
    }

    /// True once a poll tripped: the walk stopped short.
    pub(crate) fn stopped(&self) -> bool {
        self.stop.is_some()
    }

    /// Counts `count` subset checks in closed form, exactly as checking
    /// them one by one would — each counted, charged and polled in
    /// turn — in one step per poll instead of one per subset. A poll
    /// that trips inside the run stops at the same subset with the same
    /// counters. `evaluated(stats, n)` credits the evaluations of the
    /// `n` subsets that went on to be checked: all of them, or every one
    /// before the subset whose poll tripped. `false` stops the walk.
    pub(crate) fn subsets(
        &mut self,
        count: u128,
        stats: &mut RunStats,
        evaluated: impl Fn(&mut RunStats, u64),
    ) -> bool {
        // Counts beyond u64 saturate the counters anyway.
        let mut left = u64::try_from(count).unwrap_or(u64::MAX);
        while left > 0 {
            let take = match self.cancel {
                Some(_) => left.min(CHECK_INTERVAL - self.subsets - self.bound_checks),
                None => left,
            };
            left -= take;
            stats.subsets_examined = stats.subsets_examined.saturating_add(take);
            if self.cancel.is_some() {
                self.subsets += take;
                if self.subsets + self.bound_checks >= CHECK_INTERVAL && !self.poll() {
                    // The polling subset stops before its evaluations.
                    evaluated(stats, take - 1);
                    return false;
                }
            }
            evaluated(stats, take);
        }
        true
    }

    /// Ends the walk: charges the checks since the last poll (the next
    /// poll site observes them) and returns why the walk stopped, if a
    /// poll tripped.
    pub(crate) fn finish(mut self) -> Result<(), CrpError> {
        if let Some(e) = self.stop.take() {
            return Err(e);
        }
        if let Some(cancel) = &self.cancel {
            cancel.charge_checks(self.subsets, self.bound_checks);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Subset and completion-bound checks charged to `cancel` so far.
    fn charged(cancel: &Cancel) -> (u64, u64) {
        (
            cancel.subsets.load(Ordering::Relaxed),
            cancel.bound_checks.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn unlimited_limits_make_no_handle() {
        assert!(PlanLimits::default().is_unlimited());
        assert!(Cancel::new(PlanLimits::default(), 3).is_none());
    }

    #[test]
    fn merge_min_takes_the_most_restrictive_of_each_kind() {
        let a = PlanLimits {
            deadline_ms: Some(100),
            max_node_accesses: None,
            max_checks: Some(50),
        };
        let b = PlanLimits {
            deadline_ms: Some(40),
            max_node_accesses: Some(9),
            max_checks: None,
        };
        let m = a.merge_min(b);
        assert_eq!(m.deadline_ms, Some(40));
        assert_eq!(m.max_node_accesses, Some(9));
        assert_eq!(m.max_checks, Some(50));
    }

    #[test]
    fn subset_budget_trips_latch_and_report_progress() {
        let cancel = Cancel::new(
            PlanLimits {
                max_checks: Some(10),
                ..PlanLimits::default()
            },
            2,
        )
        .unwrap();
        cancel.charge_checks(6, 4);
        assert!(cancel.check().is_ok(), "at the ceiling is still fine");
        cancel.charge_checks(0, 1);
        cancel.task_completed();
        let err = cancel.check().unwrap_err();
        let CrpError::Partial(progress) = err else {
            panic!("expected Partial, got {err}");
        };
        assert_eq!(progress.reason, StopReason::CheckBudget);
        assert_eq!((progress.subsets_examined, progress.bound_checks), (6, 5));
        assert_eq!(progress.tasks_completed, 1);
        assert_eq!(progress.tasks_total, 2);
        // Latched: the deadline never tripping doesn't clear it.
        assert!(matches!(
            cancel.check().unwrap_err(),
            CrpError::Partial(p) if p.reason == StopReason::CheckBudget
        ));
    }

    /// Subset checks counted in closed form ([`Meter::subsets`]) leave
    /// every counter, charge and stop exactly where checking them one by
    /// one leaves them — for the FMCS inert level (two fast evaluations
    /// per subset) and the Lemma 5 sweep (evaluations credited by the
    /// sweep itself), after any mix of the subset checks, bound checks
    /// and per-candidate polls of the walks (Naive-II's included), with
    /// plan polls that end mid-run.
    #[test]
    fn inert_level_counts_as_the_walk_would() {
        let meter = |plan: Option<u64>| {
            Meter::charging(plan.and_then(|max| {
                let limits = PlanLimits {
                    max_checks: Some(max),
                    ..PlanLimits::default()
                };
                Cancel::new(limits, 1)
            }))
        };
        // What a run leaves behind, with the wall clock left out.
        let state = |m: &Meter, stats: &RunStats, go: bool| {
            let stop = match &m.stop {
                Some(CrpError::Partial(p)) => {
                    format!("{:?} {} {}", p.reason, p.subsets_examined, p.bound_checks)
                }
                other => format!("{other:?}"),
            };
            (
                go,
                stop,
                m.cancel.as_deref().map(charged),
                m.subsets,
                m.bound_checks,
                stats.subsets_examined,
                stats.prsq_evaluations,
                stats.query.eval_fast,
            )
        };
        let mut stopped_mid_run = 0;
        for evals in [0u64, 2] {
            let credit = |stats: &mut RunStats, n: u64| {
                stats.prsq_evaluations += evals * n;
                stats.query.eval_fast += evals * n;
            };
            for plan in [None, Some(0), Some(4_000), Some(8_191), Some(1 << 40)] {
                // Checks made before the run: subset checks, bound
                // checks, and whether a candidate boundary polled.
                for (subsets, bounds, polled) in [
                    (0u64, 0u64, false),
                    (1, 0, false),
                    (4_000, 0, false),
                    (4_095, 0, true),
                    (4_096, 0, false),
                    (0, 95, false),
                    (2_000, 2_095, false),
                    (3_000, 1_500, true),
                ] {
                    for count in [0u128, 1, 95, 4_095, 4_096, 4_097, 12_345] {
                        let mut runs = [
                            (meter(plan), RunStats::default()),
                            (meter(plan), RunStats::default()),
                        ];
                        let mut stopped = false;
                        for (m, stats) in &mut runs {
                            let before = (0..bounds).all(|_| m.bound_check(stats))
                                && (0..subsets).all(|_| m.subset(stats))
                                && (!polled || m.poll());
                            stopped = !before;
                        }
                        if stopped {
                            continue;
                        }
                        let [(walk, walked), (closed, counted)] = &mut runs;
                        let mut go = true;
                        for _ in 0..count {
                            if !walk.subset(walked) {
                                go = false;
                                break;
                            }
                            credit(walked, 1);
                        }
                        let got = closed.subsets(count, counted, credit);
                        stopped_mid_run += usize::from(!go);
                        assert_eq!(
                            state(closed, counted, got),
                            state(walk, walked, go),
                            "evals {evals}, plan {plan:?}, before {subsets}+{bounds} \
                             polled {polled}, count {count}"
                        );
                    }
                }
            }
        }
        assert!(stopped_mid_run > 0);
    }

    #[test]
    fn finish_charges_the_rest_and_reports_the_stop() {
        let limits = PlanLimits {
            max_checks: Some(3_000),
            ..PlanLimits::default()
        };
        let cancel = Cancel::new(limits, 1).unwrap();
        let mut meter = Meter::charging(Some(cancel.clone()));
        let mut stats = RunStats::default();
        assert!((0..3).all(|_| meter.subset(&mut stats)));
        assert!(meter.bound_check(&mut stats));
        assert!(meter.finish().is_ok());
        assert_eq!(charged(&cancel), (3, 1), "finish charges the rest");
        assert_eq!(stats.subsets_examined, 3, "bound checks are not subsets");
        assert_eq!(stats.bound_checks, 1);

        // A full interval of bound checks alone trips the cap.
        let mut meter = Meter::charging(Some(cancel.clone()));
        assert!((0..CHECK_INTERVAL - 1).all(|_| meter.bound_check(&mut stats)));
        assert!(
            !meter.bound_check(&mut stats),
            "4 + 4096 checks are past 3000"
        );
        assert!(!meter.poll(), "a stopped meter stays stopped");
        let err = meter.finish().unwrap_err();
        assert!(
            matches!(&err, CrpError::Partial(p)
                if p.reason == StopReason::CheckBudget && p.bound_checks == 1 + CHECK_INTERVAL),
            "{err:?}"
        );

        // Without a plan budget nothing is tallied.
        let mut meter = Meter::charging(None);
        assert!((0..2 * CHECK_INTERVAL)
            .all(|_| meter.bound_check(&mut stats) && meter.subset(&mut stats)));
        assert_eq!((meter.subsets, meter.bound_checks), (0, 0));
        assert!(meter.finish().is_ok());
    }

    /// A plan that finishes under its cap was charged exactly the
    /// checks its outcome reports, subset checks and completion-bound
    /// checks alike.
    #[test]
    fn finished_plan_reports_what_it_charged() {
        use crate::config::CpConfig;
        use crate::matrix::{with_scratch, DominanceMatrix};
        // Fourteen one-sample candidates at α = 0.9: the cause needs a
        // deep contingency set, so the completion bound skips levels
        // and prunes subtrees on the way there.
        let dp: Vec<f64> = (0..14).map(|i| 0.2 + 0.01 * i as f64).collect();
        let m = DominanceMatrix::from_parts(dp, vec![1.0], 14);
        let limits = PlanLimits {
            max_checks: Some(1 << 40),
            ..PlanLimits::default()
        };
        let cancel = Cancel::new(limits, 1).unwrap();
        let mut stats = RunStats::default();
        with_cancel(Some(&cancel), || {
            with_scratch(|s| {
                super::super::refine::refine(&m, 0.9, &CpConfig::default(), &mut stats, s)
            })
        })
        .expect("the plan finishes under its cap");
        assert!(
            stats.subsets_examined > 0 && stats.bound_checks > 0,
            "{stats:?}"
        );
        let (subsets, bounds) = charged(&cancel);
        assert_eq!(
            subsets + bounds,
            stats.subsets_examined + stats.bound_checks
        );
        assert_eq!(
            (subsets, bounds),
            (stats.subsets_examined, stats.bound_checks)
        );
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let cancel = Cancel::new(
            PlanLimits {
                deadline_ms: Some(0),
                ..PlanLimits::default()
            },
            1,
        )
        .unwrap();
        assert!(matches!(
            cancel.check().unwrap_err(),
            CrpError::Partial(p) if p.reason == StopReason::DeadlineExceeded
        ));
    }

    #[test]
    fn scoped_handle_is_visible_then_restored() {
        assert!(active().is_none());
        let cancel = Cancel::new(
            PlanLimits {
                max_node_accesses: Some(5),
                ..PlanLimits::default()
            },
            1,
        )
        .unwrap();
        with_cancel(Some(&cancel), || {
            assert!(active().is_some());
            with_cancel(None, || assert!(active().is_none()));
            assert!(active().is_some());
        });
        assert!(active().is_none());
    }
}
