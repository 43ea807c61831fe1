//! # prsq-crp — causality & responsibility for probabilistic reverse
//! skyline query non-answers
//!
//! A complete Rust implementation of
//!
//! > Yunjun Gao, Qing Liu, Gang Chen, Linlin Zhou, Baihua Zheng.
//! > *Finding Causality and Responsibility for Probabilistic Reverse
//! > Skyline Query Non-Answers.* IEEE TKDE 28(11), 2016.
//!
//! When an object you care about is missing from a (probabilistic)
//! reverse skyline — "why is this player not a candidate for the new
//! position?" — this library identifies every **actual cause** of the
//! absence and quantifies each cause's **responsibility**
//! `r = 1/(1+|Γ_min|)`, where `Γ_min` is the cause's smallest
//! contingency set (Definitions 1–2 of the paper).
//!
//! ## Quickstart
//!
//! ```
//! use prsq_crp::prelude::*;
//!
//! // Three uncertain objects (samples with probabilities) and a query.
//! let ds = UncertainDataset::from_objects(vec![
//!     UncertainObject::certain(ObjectId(0), Point::from([10.0, 10.0])),
//!     UncertainObject::with_equal_probs(
//!         ObjectId(1),
//!         vec![Point::from([7.0, 7.0]), Point::from([20.0, 20.0])],
//!     )
//!     .unwrap(),
//!     UncertainObject::certain(ObjectId(2), Point::from([8.0, 9.0])),
//! ])
//! .unwrap();
//! let q = Point::from([5.0, 5.0]);
//!
//! // A session per dataset: the engine owns the R-tree and dispatches
//! // every algorithm through the shared filter → refine → fmcs pipeline.
//! let engine = ExplainEngine::new(ds, EngineConfig::with_alpha(0.75)).unwrap();
//!
//! // Object 0 is absent from the probabilistic reverse skyline at α = 0.75.
//! let outcome = engine.explain(&q, ObjectId(0)).unwrap();
//! for cause in &outcome.causes {
//!     println!("{cause}");
//! }
//! assert!(!outcome.causes.is_empty());
//!
//! // Many non-answers in one call, data-parallel with rayon.
//! let batch = engine.explain_batch(&q, &[ObjectId(0), ObjectId(1)]);
//! assert_eq!(batch.len(), 2);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`geom`] | points, hyper-rectangles, (dynamic) dominance |
//! | [`rtree`] | R*-tree with node-access accounting |
//! | [`uncertain`] | discrete samples, possible worlds, continuous pdfs |
//! | [`skyline`] | (reverse / probabilistic reverse) skyline queries |
//! | [`core`] | the CP / CR algorithms, baselines, oracle |
//! | [`data`] | deterministic workload generators, wire protocol |
//! | [`serve`] | `crp serve`: planner-window batching over TCP |
//!
//! The experiment suite reproducing every table and figure of the paper
//! lives in the `crp-bench` crate (`cargo run -p crp-bench --release
//! --bin run_all`); see EXPERIMENTS.md for results.

pub use crp_core as core;
pub use crp_data as data;
pub use crp_geom as geom;
pub use crp_rtree as rtree;
pub use crp_serve as serve;
pub use crp_skyline as skyline;
pub use crp_uncertain as uncertain;

pub mod session;

pub use session::{DurableSession, SessionError};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::session::{DurableSession, SessionError};
    pub use crp_core::{
        admission, derive_limits, execute_window, fan_out, oracle_cp, oracle_cr, Admission, Cause,
        ClientClass, CpConfig, CrpError, CrpOutcome, EngineConfig, ExplainEngine, ExplainRequest,
        ExplainSession, ExplainStrategy, MvccCounters, MvccEngine, PartialProgress, PlanCounters,
        PlanLimits, PlanReport, RunStats, SnapshotEngine, StopReason, WindowReport,
    };
    pub use crp_geom::{dominance_rect, dominates, dominates_min, HyperRect, Point};
    pub use crp_rtree::{QueryStats, RTree, RTreeParams};
    pub use crp_skyline::{
        build_object_rtree, dominance_probability, pr_reverse_skyline,
        probabilistic_reverse_skyline, reverse_skyline_naive, reverse_skyline_rtree,
        PrsqMembership,
    };
    pub use crp_uncertain::{
        Epoch, ObjectId, PdfDataset, PdfObject, Sample, UncertainDataset, UncertainObject, Update,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let ds =
            UncertainDataset::from_points(vec![Point::from([10.0, 10.0]), Point::from([7.0, 7.0])])
                .unwrap();
        let config = EngineConfig {
            rtree: Some(RTreeParams::paper_default(2)),
            ..EngineConfig::default()
        };
        let engine = ExplainEngine::new(ds, config).unwrap();
        let out = engine
            .run(&[
                ExplainRequest::explain(&Point::from([5.0, 5.0]), ObjectId(0))
                    .with_strategy(ExplainStrategy::Cr),
            ])
            .into_single()
            .unwrap();
        assert_eq!(out.causes.len(), 1);
        assert!(out.causes[0].counterfactual);
    }
}
