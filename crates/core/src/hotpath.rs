//! Bench-only surface over the refine/FMCS hot path.
//!
//! The `hotpath_sweep` experiment measures subset-check throughput of
//! the refinement kernels in isolation — no dataset, no R-tree, just a
//! [`DominanceMatrix`] and a [`CpConfig`] — and needs the run counters
//! even when the search aborts on a subset budget (the engine's public
//! surface drops stats on error outcomes). This module is that seam:
//! `#[doc(hidden)]`, not a stability promise.

use crate::config::CpConfig;
use crate::error::CrpError;
use crate::matrix::{with_scratch, DominanceMatrix};
use crate::types::RunStats;

/// Runs pipeline stages 2–3 (lemma classification + FMCS) over a raw
/// dominance matrix, returning every cause as a
/// `(candidate index, Γ)` pair plus the run counters. The counters are
/// populated even when the result is an error (budget exhaustion) —
/// exactly what a throughput sweep needs to compute checks/second.
#[allow(clippy::type_complexity)]
pub fn refine_matrix(
    matrix: &DominanceMatrix,
    alpha: f64,
    config: &CpConfig,
) -> (Result<Vec<(usize, Vec<usize>)>, CrpError>, RunStats) {
    let mut stats = RunStats::default();
    let result = with_scratch(|scratch| {
        crate::engine::refine::refine(matrix, alpha, config, &mut stats, scratch)
    });
    (
        result.map(|recs| recs.into_iter().map(|r| (r.cand, r.gamma)).collect()),
        stats,
    )
}

/// Modeled bytes of matrix-derived state one FMCS subset check streams —
/// the numerator of `hotpath_sweep`'s "effective GB/s" column.
///
/// The model counts the arrays a condition-(i) + condition-(ii) pair
/// must read (complement-matrix factors, per-sample evaluator state,
/// removal mask), **not** cache behaviour: small working sets stay
/// resident in L1/L2, so the derived GB/s can legitimately exceed the
/// machine's DRAM streaming peak and is best read as *effective*
/// (algorithmic) bandwidth.
pub fn modeled_bytes_per_check(candidates: usize, samples: usize) -> f64 {
    let n = candidates as f64;
    let l = samples as f64;
    if candidates < crate::engine::fmcs::INCREMENTAL_THRESHOLD {
        // Direct mode: the fused condition pair streams the comp matrix
        // plus the f64 mask once for both conditions.
        return (n * l + n) * 8.0;
    }
    // Evaluator mode. Per condition: the per-sample state (ones u32 +
    // delta_ones u32 + log_prod f64 + delta_logq f64 = 24 B/sample);
    // condition (ii) adds one log-factor column (8 B/sample). The
    // enumerator's ~2 delta moves per subset each read one log-factor
    // column and read-modify-write the delta state (16 B/sample).
    let per_sample_state = 24.0 * l;
    let cond_pair = 2.0 * per_sample_state + 8.0 * l;
    let moves = 2.0 * (8.0 * l + 16.0 * l);
    cond_pair + moves
}
