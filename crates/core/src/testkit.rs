//! Shared helpers of the unit tests: sessions over small fixtures with
//! a fanout-4 index, and one planned explain under an explicit
//! strategy.

use crate::{
    CrpError, CrpOutcome, EngineConfig, ExplainEngine, ExplainRequest, ExplainSession,
    ExplainStrategy,
};
use crp_geom::Point;
use crp_rtree::RTreeParams;
use crp_uncertain::{ObjectId, PdfDataset, UncertainDataset};

/// The session configuration of the unit tests: a fanout-4 R-tree, so
/// even tiny fixtures build multi-level trees.
pub(crate) fn config() -> EngineConfig {
    EngineConfig {
        rtree: Some(RTreeParams::with_fanout(4)),
        ..EngineConfig::default()
    }
}

/// A discrete session over `ds`.
pub(crate) fn session(ds: UncertainDataset) -> ExplainEngine {
    ExplainEngine::new(ds, config()).expect("valid engine config")
}

/// A continuous-pdf session over `ds` at `resolution`.
pub(crate) fn pdf_session(ds: PdfDataset, resolution: usize) -> ExplainEngine {
    ExplainEngine::for_pdf(ds, resolution, config()).expect("valid engine config")
}

/// One explain of `an` under `strategy` at `alpha`, through the planner.
pub(crate) fn explain(
    session: &dyn ExplainSession,
    strategy: ExplainStrategy,
    q: &Point,
    an: ObjectId,
    alpha: f64,
) -> Result<CrpOutcome, CrpError> {
    session
        .run(&[ExplainRequest::explain(q, an)
            .with_strategy(strategy)
            .with_alpha(alpha)])
        .into_single()
}

/// One CP explain of `an` at `alpha`.
pub(crate) fn cp(
    session: &dyn ExplainSession,
    q: &Point,
    an: ObjectId,
    alpha: f64,
) -> Result<CrpOutcome, CrpError> {
    explain(session, ExplainStrategy::Cp, q, an, alpha)
}
