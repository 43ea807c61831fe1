//! The **[`ExplainSession`]** trait: the serving surface of an explain
//! session.
//!
//! [`ExplainEngine`]'s explain entry points all forward through the
//! planner ([`super::plan`]); this trait is the surface a serving layer
//! (the `crp` CLI, `crp serve`, an MVCC snapshot) programs against, so
//! decorators — a tracing wrapper, an epoch snapshot — can stand in for
//! the engine:
//!
//! ```
//! use crp_core::engine::{ExplainRequest, ExplainSession};
//! use crp_core::{EngineConfig, ExplainEngine, ExplainStrategy};
//! use crp_geom::Point;
//! use crp_uncertain::{ObjectId, UncertainDataset};
//!
//! fn serve(session: &dyn ExplainSession, q: &Point) -> usize {
//!     let report = session.run(&[
//!         ExplainRequest::alpha_sweep(q, ObjectId(0), vec![0.25, 0.5, 0.75])
//!             .with_strategy(ExplainStrategy::Cp),
//!     ]);
//!     assert_eq!(report.counters.stage1_units, 1, "three α share one unit");
//!     report.results.into_iter().filter(|r| r.is_ok()).count()
//! }
//!
//! let ds = UncertainDataset::from_points(vec![
//!     Point::from([10.0, 10.0]),
//!     Point::from([7.0, 7.0]),
//! ])
//! .unwrap();
//! let engine = ExplainEngine::new(ds, EngineConfig::default()).unwrap();
//! assert_eq!(serve(&engine, &Point::from([5.0, 5.0])), 3);
//! ```

use super::plan::{self, ExplainRequest, PlanReport};
use super::{EngineConfig, ExplainEngine};
use crate::error::CrpError;
use crate::types::CrpOutcome;
use crp_geom::Point;
use crp_rtree::QueryStats;
use crp_uncertain::{Epoch, ObjectId};

/// A planned explain session: anything that can compile
/// [`ExplainRequest`] workloads into deduplicated stage-1 work units
/// and execute them — the [`ExplainEngine`], or a decorator over one.
pub trait ExplainSession: Sync {
    /// The session configuration (default α, strategy, lemma
    /// switches, parallelism).
    fn config(&self) -> &EngineConfig;

    /// The dataset version this session currently serves.
    fn epoch(&self) -> Epoch;

    /// Node accesses and update-path work accumulated across every
    /// call so far.
    fn accumulated_io(&self) -> QueryStats;

    /// Always `(0, 0)`: there is no session cache. Kept only because
    /// `perfbench/src/trace.rs` implements it.
    fn cache_len(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Plans `requests` as **one** workload — stage-1 work units
    /// deduplicated across all of them — and executes the plan.
    /// Results follow the requests' expansion order; the report's
    /// [`counters`](PlanReport::counters) say how much work planning
    /// saved.
    fn run(&self, requests: &[ExplainRequest]) -> PlanReport;

    /// Always 1: a session is one stage-1 partition. Kept only because
    /// `perfbench/src/trace.rs` implements it.
    fn shard_count(&self) -> usize {
        1
    }

    /// Stage-1 candidate ids for one non-answer: sorted and
    /// deduplicated.
    fn candidate_ids(&self, q: &Point, an: ObjectId) -> Result<Vec<ObjectId>, CrpError>;

    /// [`candidate_ids`](Self::candidate_ids) of the session's one
    /// partition, shard 0. Kept only because `perfbench/src/trace.rs`
    /// implements it.
    ///
    /// # Panics
    ///
    /// Panics when `shard >= self.shard_count()`.
    fn shard_candidate_ids(
        &self,
        shard: usize,
        q: &Point,
        an: ObjectId,
    ) -> Result<Vec<ObjectId>, CrpError> {
        let shards = self.shard_count();
        assert!(
            shard < shards,
            "shard {shard} out of range for {shards} shard(s)"
        );
        self.candidate_ids(q, an)
    }

    /// Convenience: one explanation at the session defaults, through
    /// the planner.
    fn explain_one(&self, q: &Point, an: ObjectId) -> Result<CrpOutcome, CrpError> {
        self.run(&[ExplainRequest::explain(q, an)]).into_single()
    }

    /// Convenience: one batch at the session defaults, through the
    /// planner.
    fn explain_many(&self, q: &Point, ans: &[ObjectId]) -> Vec<Result<CrpOutcome, CrpError>> {
        self.run(&[ExplainRequest::batch(q, ans)]).results
    }
}

impl ExplainSession for ExplainEngine {
    fn config(&self) -> &EngineConfig {
        ExplainEngine::config(self)
    }

    fn epoch(&self) -> Epoch {
        ExplainEngine::epoch(self)
    }

    fn accumulated_io(&self) -> QueryStats {
        ExplainEngine::accumulated_io(self)
    }

    fn candidate_ids(&self, q: &Point, an: ObjectId) -> Result<Vec<ObjectId>, CrpError> {
        ExplainEngine::candidate_ids(self, q, an)
    }

    fn run(&self, requests: &[ExplainRequest]) -> PlanReport {
        plan::execute(self, requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::HyperRect;
    use crp_uncertain::{PdfDataset, PdfObject, UncertainDataset, UncertainObject};

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    fn fixture() -> UncertainDataset {
        UncertainDataset::from_objects(vec![
            UncertainObject::certain(ObjectId(0), pt(10.0, 10.0)),
            UncertainObject::certain(ObjectId(1), pt(7.0, 7.0)),
            UncertainObject::with_equal_probs(ObjectId(2), vec![pt(8.0, 9.0), pt(30.0, 30.0)])
                .unwrap(),
            UncertainObject::certain(ObjectId(3), pt(40.0, 40.0)),
        ])
        .unwrap()
    }

    #[test]
    fn trait_objects_serve_both_engine_flavours() {
        // The discrete-sample and the continuous-pdf session behind one
        // trait object type.
        let discrete = ExplainEngine::new(fixture(), EngineConfig::with_alpha(0.75))
            .expect("valid engine config");
        let pdf = ExplainEngine::for_pdf(
            PdfDataset::from_objects(vec![
                PdfObject::uniform(ObjectId(0), HyperRect::new(pt(9.5, 9.5), pt(10.5, 10.5))),
                PdfObject::uniform(ObjectId(1), HyperRect::new(pt(6.9, 6.9), pt(7.1, 7.1))),
                PdfObject::uniform(ObjectId(3), HyperRect::new(pt(39.0, 39.0), pt(41.0, 41.0))),
            ])
            .unwrap(),
            3,
            EngineConfig::with_alpha(0.5),
        )
        .expect("valid engine config");
        let sessions: Vec<&dyn ExplainSession> = vec![&discrete, &pdf];
        let q = pt(5.0, 5.0);
        for s in &sessions {
            let one = s.explain_one(&q, ObjectId(0)).expect("non-answer");
            assert!(one.cause(ObjectId(1)).is_some(), "object 1 blocks object 0");
            let batch = s.explain_many(&q, &[ObjectId(0), ObjectId(3)]);
            assert_eq!(batch.len(), 2);
            assert_eq!(batch[0].as_ref().unwrap(), &one, "batch ≡ single call");
            assert!(s.accumulated_io().node_accesses > 0);
            let single = s.explain_one(&q, ObjectId(3));
            assert_eq!(batch[1], single, "batch ≡ single call");
        }
    }

    #[test]
    fn alpha_sweep_requests_share_one_unit() {
        let engine = ExplainEngine::new(fixture(), EngineConfig::with_alpha(0.75))
            .expect("valid engine config");
        let q = pt(5.0, 5.0);
        // Two *requests*, same (an, q), disjoint α lists: the planner
        // dedups them into one stage-1 unit across request boundaries.
        let report = engine.run(&[
            ExplainRequest::alpha_sweep(&q, ObjectId(0), vec![0.25, 0.5]),
            ExplainRequest::alpha_sweep(&q, ObjectId(0), vec![0.75, 0.9]),
        ]);
        assert_eq!(report.results.len(), 4);
        assert_eq!(report.counters.stage1_units, 1);
        assert_eq!(report.counters.stage1_shared_tasks, 3);
        assert_eq!(report.counters.stage1_traversals, 1);
    }
}
