//! Causality and responsibility for (probabilistic) reverse skyline query
//! non-answers — the primary contribution of Gao, Liu, Chen, Zhou & Zheng
//! (TKDE 2016).
//!
//! Given a non-answer `an` to a query over dataset `P`:
//!
//! * an object `p` is an **actual cause** when some *contingency set*
//!   `Γ ⊆ P` exists with `(P−Γ) ⊭ Q(an)` and `(P−Γ−{p}) ⊨ Q(an)`
//!   (Definition 1); `Γ = ∅` makes `p` a *counterfactual* cause,
//! * its **responsibility** is `r(p, an) = 1 / (1 + min_Γ |Γ|)`
//!   (Definition 2).
//!
//! Entry point: the [`ExplainEngine`] — a per-dataset session that owns
//! the R-tree and dispatches every algorithm of the paper through one
//! `filter → refine → fmcs` pipeline (see [`engine`]):
//!
//! * [`ExplainStrategy::Cp`] — Algorithm 1 (*CP*) for probabilistic
//!   reverse skyline queries under the discrete-sample model: an R-tree
//!   filter over the dominance windows of `an`'s samples (Lemma 2),
//!   then refinement via Lemmas 3–6 with the ascending-cardinality
//!   minimal-contingency search *FMCS* (Algorithm 2),
//! * [`ExplainEngine::for_pdf`] — the continuous-pdf variant
//!   (Section 3.2),
//! * [`ExplainStrategy::Cr`] — the certain-data algorithm *CR* for
//!   plain reverse skyline queries, which needs no verification at all
//!   (Lemma 7),
//! * [`ExplainStrategy::NaiveI`] / [`ExplainStrategy::NaiveII`] — the
//!   baselines of Figures 6 and 11,
//! * [`ExplainStrategy::OracleCp`] / [`ExplainStrategy::OracleCr`] —
//!   definition-level brute force used by the test suites as ground
//!   truth (also callable directly as [`oracle_cp`] / [`oracle_cr`]),
//! * [`CpConfig`] — lemma on/off switches for the ablation
//!   experiments,
//! * [`ExplainRequest`] / [`ExplainSession::run`] — the one way to
//!   pick a strategy, α, lemma switches and work caps
//!   ([`PlanLimits`]) per call: the
//!   planner runs whole workloads (batches, α-sweeps, query grids) as
//!   one plan, data-parallel with rayon and bit-identical to the serial
//!   path; [`ExplainEngine::explain`] and
//!   [`ExplainEngine::explain_batch`] are the session-default
//!   shorthands.

mod combinations;
mod config;
mod cp;
mod cr;
pub mod engine;
mod error;
mod kskyband;
mod matrix;
mod naive;
mod oracle;
mod pdf;
#[cfg(test)]
mod testkit;
mod types;

pub use combinations::{binomial, for_each_combination};
pub use config::CpConfig;
pub use cp::collect_candidates;
pub use engine::mvcc::{EpochSnapshot, MvccCounters, MvccEngine, SnapshotEngine};
pub use engine::window::{
    admission, derive_limits, execute_window, fan_out, Admission, ClientClass, WindowReport,
};
pub use engine::{
    EngineConfig, ExplainEngine, ExplainRequest, ExplainSession, ExplainStrategy, PartialProgress,
    PlanCounters, PlanLimits, PlanReport, StopReason,
};
pub use error::CrpError;
pub use matrix::{DominanceMatrix, PrEvaluator};
// The live-session vocabulary: updates are applied through
// `ExplainEngine::apply`, which returns the dataset epoch the session
// now serves.
pub use crp_uncertain::{Epoch, Update};
// `ExplainSession::accumulated_io` speaks this type; re-exported so
// session consumers (and `SnapshotEngine` adapters in downstream
// tests/binaries) need no direct crp-rtree dependency.
pub use crp_rtree::QueryStats;
pub use oracle::{oracle_cp, oracle_cr, oracle_crp, OracleCause};
pub use types::{Cause, CrpOutcome, RunStats};
