//! Error type shared by the CRP algorithms.

use crate::engine::budget::PartialProgress;
use crp_uncertain::ObjectId;
use std::fmt;

/// Errors raised by the causality/responsibility computations.
#[derive(Clone, Debug, PartialEq)]
pub enum CrpError {
    /// The designated object is actually an answer to the query, so the
    /// non-answer CRP is undefined for it. Carries `Pr(an)` (or 1.0 for
    /// certain data).
    NotANonAnswer {
        /// The object's reverse-skyline probability.
        prob: f64,
    },
    /// The object id does not exist in the dataset.
    UnknownObject(ObjectId),
    /// `α` outside `(0, 1]`.
    InvalidAlpha(f64),
    /// The dataset holds no objects.
    EmptyDataset,
    /// CR/Naive-II require certain data (single-sample objects).
    NotCertainData,
    /// The selected [`crate::ExplainStrategy`] cannot serve the
    /// engine's workload (e.g. a certain-data algorithm on a pdf
    /// session).
    UnsupportedStrategy {
        /// Name of the rejected strategy.
        strategy: &'static str,
        /// The engine workload that rejected it.
        workload: &'static str,
    },
    /// An [`crate::EngineConfig`] field failed validation at session
    /// construction (instead of panicking or producing garbage later).
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        reason: String,
    },
    /// A dataset update could not be applied (duplicate id on insert,
    /// unknown id on delete/replace, dimension mismatch, or an update
    /// model that does not match the engine's workload).
    InvalidUpdate {
        /// What was wrong with the update.
        reason: String,
    },
    /// A plan limit tripped before this task could finish
    /// ([`crate::PlanLimits`]: a wall deadline, a node-access cap or a
    /// check cap — the library's only work caps): the result is
    /// missing, never wrong. Carries monotone progress counters of the
    /// plan so far.
    Partial(Box<PartialProgress>),
    /// The MVCC writer mutex is poisoned — a previous batch panicked
    /// mid-apply. Readers keep serving pinned epoch snapshots; the
    /// writer refuses further batches instead of publishing a torn
    /// epoch.
    WriterPoisoned,
}

impl fmt::Display for CrpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrpError::NotANonAnswer { prob } => {
                write!(
                    f,
                    "object is an answer (Pr = {prob}); CRP targets non-answers"
                )
            }
            CrpError::UnknownObject(id) => write!(f, "object {id} not in the dataset"),
            CrpError::InvalidAlpha(a) => write!(f, "probability threshold α = {a} not in (0, 1]"),
            CrpError::EmptyDataset => write!(f, "dataset is empty"),
            CrpError::NotCertainData => {
                write!(f, "algorithm requires certain data (single-sample objects)")
            }
            CrpError::UnsupportedStrategy { strategy, workload } => {
                write!(
                    f,
                    "strategy {strategy} is not available on a {workload} workload"
                )
            }
            CrpError::InvalidConfig { field, reason } => {
                write!(f, "invalid engine config: {field} {reason}")
            }
            CrpError::InvalidUpdate { reason } => write!(f, "invalid update: {reason}"),
            CrpError::Partial(progress) => write!(f, "partial result: {progress}"),
            CrpError::WriterPoisoned => {
                write!(
                    f,
                    "MVCC writer poisoned by a panicked batch; session is read-only"
                )
            }
        }
    }
}

impl std::error::Error for CrpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        for (e, needle) in [
            (CrpError::NotANonAnswer { prob: 0.9 }, "0.9"),
            (CrpError::UnknownObject(ObjectId(3)), "#3"),
            (CrpError::InvalidAlpha(1.5), "1.5"),
            (CrpError::EmptyDataset, "empty"),
            (CrpError::NotCertainData, "certain"),
            (
                CrpError::UnsupportedStrategy {
                    strategy: "cr",
                    workload: "pdf",
                },
                "cr",
            ),
            (
                CrpError::InvalidConfig {
                    field: "alpha",
                    reason: "must be in (0, 1], got 2".into(),
                },
                "alpha",
            ),
            (
                CrpError::InvalidUpdate {
                    reason: "duplicate object id 3".into(),
                },
                "duplicate",
            ),
            (
                CrpError::Partial(Box::new(PartialProgress {
                    reason: crate::engine::budget::StopReason::DeadlineExceeded,
                    tasks_total: 4,
                    tasks_completed: 1,
                    node_accesses: 7,
                    subsets_examined: 9,
                    bound_checks: 2,
                    elapsed_ms: 12,
                })),
                "deadline",
            ),
            (CrpError::WriterPoisoned, "poisoned"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
