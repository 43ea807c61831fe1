//! The **explanation cache** of a live engine session: memoised
//! stage-1 dominance rows and full outcomes, with conservative
//! *geometric* invalidation under dataset updates.
//!
//! Two maps, two payoffs:
//!
//! * **Row entries**, keyed `(an, q)` — the stage-1 output (candidate
//!   ids + dominance matrix) that every α and every lemma configuration
//!   shares. An α-sweep over the same non-answer re-runs only the
//!   α-dependent refinement stages; the R-tree traversal and matrix
//!   build are paid once. This subsumes the ROADMAP "memoise
//!   dominance-probability rows per (an, q)" item.
//! * **Outcome entries**, keyed `(an, q, α, strategy, CpConfig)` — the
//!   finished result (successes and `NotANonAnswer` classifications),
//!   so a repeated identical request costs a hash lookup.
//!
//! ## Invalidation
//!
//! Every entry stores the non-answer's **candidate region**: the
//! bounding box of its stage-1 filter windows (see
//! [`super::filter::candidate_region`]). By Lemmas 1–2 an object whose
//! MBR misses that box has zero dominance probability w.r.t. every
//! sample of `an`, so it cannot appear in the candidate set, the
//! matrix, or the outcome. An update therefore evicts exactly the
//! entries that could have changed:
//!
//! * entries whose `an` **is** the touched object (its samples, and
//!   with them the windows themselves, may have changed), and
//! * entries whose candidate region intersects the touched object's
//!   old or new MBR.
//!
//! Certain-data strategies additionally depend on the dataset being
//! *globally* certain; their entries are flagged and flushed whenever
//! an update could change that property.
//!
//! The cached values are exactly what the pipeline computed, and the
//! invalidation is a superset of the entries an update can affect, so
//! serving from the cache is result-identical to recomputation — the
//! engine-agreement property tests pin this across random interleaved
//! update/explain sequences.

use super::pipeline::{self, StageOne};
use super::{filter, ExplainStrategy};
use crate::config::CpConfig;
use crate::error::CrpError;
use crate::matrix::Scratch;
use crate::types::{CrpOutcome, RunStats};
use crp_geom::{HyperRect, Point};
use crp_rtree::{AtomicQueryStats, QueryStats};
use crp_uncertain::{ObjectId, PdfDataset, UncertainDataset};
use std::collections::{HashMap, HashSet};
use std::sync::{Condvar, Mutex, RwLock};

/// Hash key for a query point: exact f64 bit patterns (explanations are
/// deterministic functions of the exact coordinates, so bitwise
/// equality is the right notion — no tolerance).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct PointKey(Vec<u64>);

impl PointKey {
    fn of(q: &Point) -> Self {
        Self(q.coords().iter().map(|c| c.to_bits()).collect())
    }
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct RowKey {
    an: ObjectId,
    q: PointKey,
}

/// A cached stage-1 computation for one `(an, q)` pair.
#[derive(Clone, Debug)]
pub(crate) struct CachedRows {
    /// Bounding box of the filter windows — the invalidation key.
    pub region: HyperRect,
    /// Candidate ids + dominance matrix, in pipeline order.
    pub stage1: StageOne,
    /// The traversal cost the original computation paid, replayed into
    /// served outcomes so their stats equal a fresh computation's.
    pub query: QueryStats,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct OutcomeKey {
    an: ObjectId,
    q: PointKey,
    /// `α` as exact bits (outcomes of certain-data strategies do not
    /// depend on it, but keying on it stays correct — just finer).
    alpha: u64,
    strategy: ExplainStrategy,
    cp: CpConfig,
}

#[derive(Clone, Debug)]
struct OutcomeEntry {
    region: HyperRect,
    /// Entry was produced by a certain-data strategy, whose validity
    /// additionally requires the dataset to stay globally certain.
    certain: bool,
    result: Result<CrpOutcome, CrpError>,
}

/// Soft capacity bounds: past these, storing a new entry first drops an
/// arbitrary existing one (counted as an eviction). Correctness never
/// depends on residency, so arbitrary-victim is fine and keeps the maps
/// O(1) with zero bookkeeping on the hit path.
const MAX_ROWS: usize = 4_096;
const MAX_OUTCOMES: usize = 16_384;

/// The session cache. Interior-mutable (`RwLock`) so the engine's
/// `&self` explain paths — including rayon-parallel batches — can share
/// it; lock scope is a hash lookup or insert, never a computation.
#[derive(Debug, Default)]
pub(crate) struct ExplanationCache {
    rows: RwLock<HashMap<RowKey, CachedRows>>,
    outcomes: RwLock<HashMap<OutcomeKey, OutcomeEntry>>,
    /// Hit / miss / eviction counters (only the `cache_*` fields are
    /// used), folded into the session totals by the engine.
    stats: AtomicQueryStats,
    /// Single-flight registry: outcome keys currently being computed.
    /// Concurrent explains for the same `(an, q, α, cp)` after an
    /// invalidation coalesce on one leader instead of stampeding the
    /// pipeline (see [`ExplanationCache::coalesce_cp`]).
    inflight: Inflight,
}

/// The in-flight key set plus its wake-up signal. The mutex is held
/// only for set membership checks — never across a computation.
#[derive(Debug, Default)]
struct Inflight {
    keys: Mutex<HashSet<OutcomeKey>>,
    cv: Condvar,
}

/// Removes the led key and wakes the waiters when the leader's
/// computation finishes — on the success path *and* on unwind, so a
/// panicking leader cannot strand its followers.
struct InflightGuard<'a> {
    cache: &'a ExplanationCache,
    key: OutcomeKey,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut keys = self.cache.inflight.keys.lock().expect("in-flight lock");
        keys.remove(&self.key);
        self.cache.inflight.cv.notify_all();
    }
}

impl ExplanationCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current cache counters (only `cache_*` fields populated).
    pub fn stats(&self) -> QueryStats {
        self.stats.snapshot()
    }

    /// Drains the cache counters.
    pub fn take_stats(&self) -> QueryStats {
        self.stats.take()
    }

    /// Number of live (row, outcome) entries.
    pub fn len(&self) -> (usize, usize) {
        (
            self.rows.read().expect("cache lock").len(),
            self.outcomes.read().expect("cache lock").len(),
        )
    }

    fn bump(&self, hits: u64, misses: u64, evictions: u64) {
        self.stats.absorb(QueryStats {
            cache_hits: hits,
            cache_misses: misses,
            cache_evictions: evictions,
            ..Default::default()
        });
    }

    /// Looks up a finished outcome. Counts one hit or one miss — the
    /// per-explain accounting entry point (the row lookup below only
    /// adds a hit when it saves the traversal, so one explain call
    /// counts at most one miss).
    pub fn lookup_outcome(
        &self,
        an: ObjectId,
        q: &Point,
        alpha: f64,
        strategy: ExplainStrategy,
        cp: &CpConfig,
    ) -> Option<Result<CrpOutcome, CrpError>> {
        let key = OutcomeKey {
            an,
            q: PointKey::of(q),
            alpha: alpha.to_bits(),
            strategy,
            cp: *cp,
        };
        let found = self
            .outcomes
            .read()
            .expect("cache lock")
            .get(&key)
            .map(|e| e.result.clone());
        match found {
            Some(result) => {
                self.bump(1, 0, 0);
                Some(result)
            }
            None => {
                self.bump(0, 1, 0);
                None
            }
        }
    }

    /// Stores a finished outcome. Only deterministic, region-dependent
    /// results are kept: successes and `NotANonAnswer` classifications;
    /// everything else (unknown ids, budget exhaustion, …) is cheap or
    /// non-geometric to invalidate and is recomputed instead.
    #[allow(clippy::too_many_arguments)]
    pub fn store_outcome(
        &self,
        an: ObjectId,
        q: &Point,
        alpha: f64,
        strategy: ExplainStrategy,
        cp: &CpConfig,
        region: HyperRect,
        certain: bool,
        result: &Result<CrpOutcome, CrpError>,
    ) {
        if !matches!(result, Ok(_) | Err(CrpError::NotANonAnswer { .. })) {
            return;
        }
        let key = OutcomeKey {
            an,
            q: PointKey::of(q),
            alpha: alpha.to_bits(),
            strategy,
            cp: *cp,
        };
        let mut map = self.outcomes.write().expect("cache lock");
        if map.len() >= MAX_OUTCOMES && !map.contains_key(&key) {
            if let Some(victim) = map.keys().next().cloned() {
                map.remove(&victim);
                self.bump(0, 0, 1);
            }
        }
        map.insert(
            key,
            OutcomeEntry {
                region,
                certain,
                result: result.clone(),
            },
        );
    }

    /// Looks up cached stage-1 rows. Counts a hit when found (the
    /// traversal and matrix build are saved); misses were already
    /// counted by the outcome lookup of the same explain call.
    pub fn lookup_rows(&self, an: ObjectId, q: &Point) -> Option<CachedRows> {
        let key = RowKey {
            an,
            q: PointKey::of(q),
        };
        let found = self.rows.read().expect("cache lock").get(&key).cloned();
        if found.is_some() {
            self.bump(1, 0, 0);
        }
        found
    }

    /// Stores stage-1 rows for `(an, q)`.
    pub fn store_rows(&self, an: ObjectId, q: &Point, rows: CachedRows) {
        let key = RowKey {
            an,
            q: PointKey::of(q),
        };
        let mut map = self.rows.write().expect("cache lock");
        if map.len() >= MAX_ROWS && !map.contains_key(&key) {
            if let Some(victim) = map.keys().next().cloned() {
                map.remove(&victim);
                self.bump(0, 0, 1);
            }
        }
        map.insert(key, rows);
    }

    /// Single-flight guard over one CP outcome computation: when
    /// several threads miss the outcome layer for the **same**
    /// `(an, q, α, cp)` — the first-reader stampede after an
    /// invalidation bump — exactly one becomes the leader and runs
    /// `compute`; the rest block until it finishes, then serve the
    /// leader's freshly stored outcome from the cache (counted as a
    /// hit, like any other outcome-layer serve). When the leader's
    /// result was not cacheable (budget exhaustion, unknown id, …) or
    /// was invalidated again before the waiters woke, the waiters
    /// compete to lead a recomputation — correctness never depends on
    /// coalescing, it only collapses duplicate work.
    pub fn coalesce_cp(
        &self,
        an: ObjectId,
        q: &Point,
        alpha: f64,
        cp: &CpConfig,
        trace: &mut ServeTrace,
        compute: impl FnOnce(&mut ServeTrace) -> Result<CrpOutcome, CrpError>,
    ) -> Result<CrpOutcome, CrpError> {
        let key = OutcomeKey {
            an,
            q: PointKey::of(q),
            alpha: alpha.to_bits(),
            strategy: ExplainStrategy::Cp,
            cp: *cp,
        };
        loop {
            let lead = {
                let mut keys = self.inflight.keys.lock().expect("in-flight lock");
                if keys.contains(&key) {
                    // A leader is already computing this exact explain:
                    // wait it out instead of recomputing, then re-check
                    // the outcome layer below.
                    let _woken = self
                        .inflight
                        .cv
                        .wait_while(keys, |k| k.contains(&key))
                        .expect("in-flight lock");
                    false
                } else {
                    keys.insert(key.clone());
                    true
                }
            };
            if lead {
                break;
            }
            if let Some(hit) = self.lookup_outcome(an, q, alpha, ExplainStrategy::Cp, cp) {
                trace.outcome_hit = true;
                return hit;
            }
        }
        let _done = InflightGuard { cache: self, key };
        compute(trace)
    }

    /// Evicts everything an update to `touched` (old and/or new MBR in
    /// `regions`) could have changed; `flush_certain` additionally
    /// drops every certain-strategy outcome (set when the update could
    /// change the dataset's global certainty).
    pub fn invalidate(&self, touched: ObjectId, regions: &[HyperRect], flush_certain: bool) {
        let mut evicted = 0u64;
        {
            let mut rows = self.rows.write().expect("cache lock");
            rows.retain(|key, entry| {
                let keep =
                    key.an != touched && !regions.iter().any(|r| r.intersects(&entry.region));
                if !keep {
                    evicted += 1;
                }
                keep
            });
        }
        {
            let mut outcomes = self.outcomes.write().expect("cache lock");
            outcomes.retain(|key, entry| {
                let keep = key.an != touched
                    && !regions.iter().any(|r| r.intersects(&entry.region))
                    && !(flush_certain && entry.certain);
                if !keep {
                    evicted += 1;
                }
                keep
            });
        }
        if evicted > 0 {
            self.bump(0, 0, evicted);
        }
    }
}

/// How one CP explain was served — filled by [`serve_cp_discrete`] /
/// [`serve_cp_pdf`], read by the plan executor's counters. Per-call
/// entry points pass a throwaway.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ServeTrace {
    /// The finished outcome came straight from the outcome layer.
    pub outcome_hit: bool,
    /// Stage-1 rows came from the row layer (traversal saved).
    pub rows_hit: bool,
}

/// The **single seam** every indexed CP explain goes through — the
/// per-call dispatch and the plan executor both assemble the same
/// cache-key/finish tuple here instead of hand-rolling it per call
/// site: outcome-layer lookup, input validation, candidate-region
/// derivation, then [`cached_cp_finish`].
///
/// `fresh` produces the stage-1 output (candidates + dominance matrix)
/// when neither cache layer can serve it; it receives the validated
/// dataset position of `an` and the [`RunStats`] to fold traversal
/// costs into.
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve_cp_discrete(
    cache: &ExplanationCache,
    io: &AtomicQueryStats,
    ds: &UncertainDataset,
    q: &Point,
    an: ObjectId,
    alpha: f64,
    cp: &CpConfig,
    trace: &mut ServeTrace,
    scratch: &mut Scratch,
    fresh: impl FnOnce(usize, &mut RunStats) -> Result<StageOne, CrpError>,
) -> Result<CrpOutcome, CrpError> {
    if let Some(hit) = cache.lookup_outcome(an, q, alpha, ExplainStrategy::Cp, cp) {
        trace.outcome_hit = true;
        return hit;
    }
    let an_pos = pipeline::validate(ds, q, an, alpha)?;
    let region = filter::candidate_region(ds.object_at(an_pos), q);
    cache.coalesce_cp(an, q, alpha, cp, trace, |trace| {
        cached_cp_finish(
            cache,
            io,
            q,
            an,
            alpha,
            cp,
            region,
            trace,
            scratch,
            |stats| fresh(an_pos, stats),
        )
    })
}

/// [`serve_cp_discrete`] for continuous-pdf workloads; `fresh` receives
/// the per-quadrant filter windows of `(an, q)` instead of a dataset
/// position.
#[allow(clippy::too_many_arguments)]
pub(crate) fn serve_cp_pdf(
    cache: &ExplanationCache,
    io: &AtomicQueryStats,
    ds: &PdfDataset,
    q: &Point,
    an: ObjectId,
    alpha: f64,
    cp: &CpConfig,
    trace: &mut ServeTrace,
    scratch: &mut Scratch,
    fresh: impl FnOnce(&[HyperRect], &mut RunStats) -> Result<StageOne, CrpError>,
) -> Result<CrpOutcome, CrpError> {
    if let Some(hit) = cache.lookup_outcome(an, q, alpha, ExplainStrategy::Cp, cp) {
        trace.outcome_hit = true;
        return hit;
    }
    pipeline::validate_pdf(ds, an, alpha)?;
    let an_obj = ds.get(an).expect("validated above");
    let windows = crate::pdf::pdf_windows(q, an_obj.region());
    let region = filter::windows_region(&windows).expect("pdf windows are non-empty");
    cache.coalesce_cp(an, q, alpha, cp, trace, |trace| {
        cached_cp_finish(
            cache,
            io,
            q,
            an,
            alpha,
            cp,
            region,
            trace,
            scratch,
            |stats| fresh(&windows, stats),
        )
    })
}

/// The shared tail of every cached CP path — discrete, pdf, per-call
/// and planned: row-cache lookup (or a fresh stage 1 via `fresh`),
/// α-dependent refinement, and population of both cache layers. One
/// body, so the caching protocol — stats replay on hits, cacheability
/// of outcomes — cannot drift between workloads or the plan executor.
///
/// `io` (the session accumulator) receives the freshly paid traversal
/// cost.
#[allow(clippy::too_many_arguments)]
fn cached_cp_finish(
    cache: &ExplanationCache,
    io: &AtomicQueryStats,
    q: &Point,
    an: ObjectId,
    alpha: f64,
    cp: &CpConfig,
    region: HyperRect,
    trace: &mut ServeTrace,
    scratch: &mut Scratch,
    fresh: impl FnOnce(&mut RunStats) -> Result<StageOne, CrpError>,
) -> Result<CrpOutcome, CrpError> {
    let mut stats = RunStats::default();
    let stage1 = match cache.lookup_rows(an, q) {
        Some(rows) => {
            trace.rows_hit = true;
            stats.query = rows.query;
            rows.stage1
        }
        None => {
            let stage1 = fresh(&mut stats)?;
            // Only freshly paid traversal enters the session totals.
            io.absorb(stats.query);
            cache.store_rows(
                an,
                q,
                CachedRows {
                    region: region.clone(),
                    stage1: stage1.clone(),
                    query: stats.query,
                },
            );
            stage1
        }
    };
    let result = pipeline::finish(&stage1.matrix, alpha, cp, &mut stats, scratch, |c| {
        stage1.ids[c]
    })
    .map(|causes| CrpOutcome { causes, stats });
    cache.store_outcome(
        an,
        q,
        alpha,
        ExplainStrategy::Cp,
        cp,
        region,
        false,
        &result,
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::DominanceMatrix;

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    fn rect(lo: (f64, f64), hi: (f64, f64)) -> HyperRect {
        HyperRect::new(pt(lo.0, lo.1), pt(hi.0, hi.1))
    }

    fn dummy_rows(region: HyperRect) -> CachedRows {
        CachedRows {
            region,
            stage1: StageOne {
                ids: vec![ObjectId(1)],
                matrix: DominanceMatrix::from_parts(vec![0.5], vec![1.0], 1),
            },
            query: QueryStats {
                node_accesses: 3,
                leaf_accesses: 1,
                ..Default::default()
            },
        }
    }

    fn dummy_outcome() -> Result<CrpOutcome, CrpError> {
        Ok(CrpOutcome::default())
    }

    #[test]
    fn outcome_roundtrip_counts_hits_and_misses() {
        let cache = ExplanationCache::new();
        let q = pt(5.0, 5.0);
        let cp = CpConfig::default();
        assert!(cache
            .lookup_outcome(ObjectId(0), &q, 0.5, ExplainStrategy::Cp, &cp)
            .is_none());
        cache.store_outcome(
            ObjectId(0),
            &q,
            0.5,
            ExplainStrategy::Cp,
            &cp,
            rect((0.0, 0.0), (5.0, 5.0)),
            false,
            &dummy_outcome(),
        );
        assert_eq!(
            cache.lookup_outcome(ObjectId(0), &q, 0.5, ExplainStrategy::Cp, &cp),
            Some(dummy_outcome())
        );
        // A different α is a different entry.
        assert!(cache
            .lookup_outcome(ObjectId(0), &q, 0.75, ExplainStrategy::Cp, &cp)
            .is_none());
        let stats = cache.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn non_cacheable_errors_are_skipped() {
        let cache = ExplanationCache::new();
        let q = pt(5.0, 5.0);
        let cp = CpConfig::default();
        for result in [
            Err(CrpError::UnknownObject(ObjectId(7))),
            Err(CrpError::BudgetExhausted { examined: 10 }),
            Err(CrpError::EmptyDataset),
        ] {
            cache.store_outcome(
                ObjectId(7),
                &q,
                0.5,
                ExplainStrategy::Cp,
                &cp,
                rect((0.0, 0.0), (5.0, 5.0)),
                false,
                &result,
            );
        }
        assert_eq!(cache.len().1, 0);
        // NotANonAnswer IS cached (it is a region-dependent result).
        cache.store_outcome(
            ObjectId(7),
            &q,
            0.5,
            ExplainStrategy::Cp,
            &cp,
            rect((0.0, 0.0), (5.0, 5.0)),
            false,
            &Err(CrpError::NotANonAnswer { prob: 0.9 }),
        );
        assert_eq!(cache.len().1, 1);
    }

    #[test]
    fn geometric_invalidation_is_selective() {
        let cache = ExplanationCache::new();
        let q = pt(5.0, 5.0);
        let cp = CpConfig::default();
        // Entry A: region near the origin. Entry B: region far away.
        cache.store_rows(ObjectId(0), &q, dummy_rows(rect((0.0, 0.0), (5.0, 5.0))));
        cache.store_rows(
            ObjectId(1),
            &q,
            dummy_rows(rect((50.0, 50.0), (60.0, 60.0))),
        );
        cache.store_outcome(
            ObjectId(0),
            &q,
            0.5,
            ExplainStrategy::Cp,
            &cp,
            rect((0.0, 0.0), (5.0, 5.0)),
            false,
            &dummy_outcome(),
        );
        // An update near the origin evicts A (row + outcome), not B.
        cache.invalidate(ObjectId(9), &[rect((4.0, 4.0), (6.0, 6.0))], false);
        assert!(cache.lookup_rows(ObjectId(0), &q).is_none());
        assert!(cache.lookup_rows(ObjectId(1), &q).is_some());
        assert_eq!(cache.stats().cache_evictions, 2);
        // Touching the non-answer itself evicts regardless of geometry.
        cache.invalidate(ObjectId(1), &[rect((500.0, 500.0), (501.0, 501.0))], false);
        assert!(cache.lookup_rows(ObjectId(1), &q).is_none());
    }

    #[test]
    fn certainty_flush_only_hits_flagged_entries() {
        let cache = ExplanationCache::new();
        let q = pt(5.0, 5.0);
        let cp = CpConfig::default();
        let far = rect((50.0, 50.0), (60.0, 60.0));
        cache.store_outcome(
            ObjectId(0),
            &q,
            0.5,
            ExplainStrategy::Cr,
            &cp,
            far.clone(),
            true,
            &dummy_outcome(),
        );
        cache.store_outcome(
            ObjectId(0),
            &q,
            0.5,
            ExplainStrategy::Cp,
            &cp,
            far,
            false,
            &dummy_outcome(),
        );
        // Update far from both regions, but certainty may have changed:
        // the certain-strategy entry must go, the CP entry stays.
        cache.invalidate(ObjectId(9), &[rect((0.0, 0.0), (1.0, 1.0))], true);
        assert!(cache
            .lookup_outcome(ObjectId(0), &q, 0.5, ExplainStrategy::Cr, &cp)
            .is_none());
        assert!(cache
            .lookup_outcome(ObjectId(0), &q, 0.5, ExplainStrategy::Cp, &cp)
            .is_some());
    }

    #[test]
    fn capacity_bound_evicts_instead_of_growing() {
        let cache = ExplanationCache::new();
        let cp = CpConfig::default();
        for i in 0..(MAX_OUTCOMES + 10) as u32 {
            cache.store_outcome(
                ObjectId(i),
                &pt(1.0, 1.0),
                0.5,
                ExplainStrategy::Cp,
                &cp,
                rect((0.0, 0.0), (1.0, 1.0)),
                false,
                &dummy_outcome(),
            );
        }
        assert!(cache.len().1 <= MAX_OUTCOMES);
        assert!(cache.stats().cache_evictions >= 10);
    }
}
