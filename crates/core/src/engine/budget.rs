//! Plan execution budgets: wall deadlines, node-access and subset
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
//! * **subset checks** (`max_subsets`) — candidate contingency sets
//!   examined (FMCS, Naive-I and Naive-II alike) across the whole plan.
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
//! entry, per FMCS candidate, and every [`CHECK_INTERVAL`] subset
//! checks, so a subset cap stops up to one interval past its limit.
//! A tripped budget surfaces as [`CrpError::Partial`]
//! carrying a
//! [`PartialProgress`]: monotone counters of the work completed, never
//! a wrong or torn result. Finished tasks keep their real outcomes;
//! only the tasks the budget cut short report `Partial`.

use crate::error::CrpError;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many FMCS subset checks may pass between two cancellation
/// polls — deadlines are honored within one such interval.
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
    /// Ceiling on FMCS subset checks across the plan.
    pub max_subsets: Option<u64>,
}

impl PlanLimits {
    /// True when no limit is set — the executor skips all polling.
    pub fn is_unlimited(&self) -> bool {
        self.deadline_ms.is_none() && self.max_node_accesses.is_none() && self.max_subsets.is_none()
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
            max_subsets: min_opt(self.max_subsets, other.max_subsets),
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
    /// The subset-check ceiling was reached.
    SubsetBudget,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::DeadlineExceeded => write!(f, "wall deadline exceeded"),
            StopReason::NodeAccessBudget => write!(f, "node-access budget exhausted"),
            StopReason::SubsetBudget => write!(f, "subset-check budget exhausted"),
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
    /// FMCS subset checks charged so far.
    pub subsets_examined: u64,
    /// Wall milliseconds from plan start to the trip.
    pub elapsed_ms: u64,
}

impl fmt::Display for PartialProgress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} task(s) done, {} node access(es), {} subset check(s), {} ms",
            self.reason,
            self.tasks_completed,
            self.tasks_total,
            self.node_accesses,
            self.subsets_examined,
            self.elapsed_ms
        )
    }
}

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_NODES: u8 = 2;
const TRIP_SUBSETS: u8 = 3;

/// The shared cancellation handle of one budgeted plan: the deadline
/// instant plus atomic usage counters. Workers charge work into it and
/// poll [`Cancel::check`]; the first poll past a limit latches the
/// stop reason so every subsequent poll reports the same `Partial`.
pub(crate) struct Cancel {
    started: Instant,
    deadline: Option<Instant>,
    max_nodes: Option<u64>,
    max_subsets: Option<u64>,
    tasks_total: u64,
    tasks_completed: AtomicU64,
    nodes: AtomicU64,
    subsets: AtomicU64,
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
            max_subsets: limits.max_subsets,
            tasks_total,
            tasks_completed: AtomicU64::new(0),
            nodes: AtomicU64::new(0),
            subsets: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
        }))
    }

    pub(crate) fn charge_nodes(&self, n: u64) {
        if n > 0 {
            self.nodes.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn charge_subsets(&self, n: u64) {
        if n > 0 {
            self.subsets.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// FMCS subset checks charged so far.
    #[cfg(test)]
    pub(crate) fn subsets_charged(&self) -> u64 {
        self.subsets.load(Ordering::Relaxed)
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
                } else if self
                    .max_subsets
                    .is_some_and(|max| self.subsets.load(Ordering::Relaxed) > max)
                {
                    TRIP_SUBSETS
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
            _ => StopReason::SubsetBudget,
        };
        Err(CrpError::Partial(Box::new(PartialProgress {
            reason,
            tasks_total: self.tasks_total,
            tasks_completed: self.tasks_completed.load(Ordering::Relaxed),
            node_accesses: self.nodes.load(Ordering::Relaxed),
            subsets_examined: self.subsets.load(Ordering::Relaxed),
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

#[cfg(test)]
mod tests {
    use super::*;

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
            max_subsets: Some(50),
        };
        let b = PlanLimits {
            deadline_ms: Some(40),
            max_node_accesses: Some(9),
            max_subsets: None,
        };
        let m = a.merge_min(b);
        assert_eq!(m.deadline_ms, Some(40));
        assert_eq!(m.max_node_accesses, Some(9));
        assert_eq!(m.max_subsets, Some(50));
    }

    #[test]
    fn subset_budget_trips_latch_and_report_progress() {
        let cancel = Cancel::new(
            PlanLimits {
                max_subsets: Some(10),
                ..PlanLimits::default()
            },
            2,
        )
        .unwrap();
        cancel.charge_subsets(10);
        assert!(cancel.check().is_ok(), "at the ceiling is still fine");
        cancel.charge_subsets(1);
        cancel.task_completed();
        let err = cancel.check().unwrap_err();
        let CrpError::Partial(progress) = err else {
            panic!("expected Partial, got {err}");
        };
        assert_eq!(progress.reason, StopReason::SubsetBudget);
        assert_eq!(progress.subsets_examined, 11);
        assert_eq!(progress.tasks_completed, 1);
        assert_eq!(progress.tasks_total, 2);
        // Latched: the deadline never tripping doesn't clear it.
        assert!(matches!(
            cancel.check().unwrap_err(),
            CrpError::Partial(p) if p.reason == StopReason::SubsetBudget
        ));
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
