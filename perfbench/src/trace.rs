//! The traced run's instruments, all outside the program: decorators
//! over the public `ServeBackend`, `ErasedSnapshot` and `ExplainSession`
//! traits that time each call into the layer below, plus re-drivers
//! that push recorded inputs through the wire codec and the write
//! path's public entry points one layer at a time. Spans stay in memory
//! until the run ends.

use crate::fixture::{engine_config, warm};
use crate::util::ms;
use crp_core::{
    CrpError, CrpOutcome, EngineConfig, ExplainEngine, ExplainRequest, ExplainSession,
    PlanCounters, PlanReport, QueryStats, RunStats,
};
use crp_data::wal::WriteAheadLog;
use crp_data::wire::{Response, WireCause, WireResult};
use crp_geom::Point;
use crp_serve::{ErasedSnapshot, ServeBackend};
use crp_uncertain::{Epoch, ObjectId, UncertainDataset, UncertainObject, Update};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One `ExplainSession::run` call: a planner window when served.
pub struct WindowSpan {
    pub start: Instant,
    pub end: Instant,
    /// `(an, q)` of each request in the window.
    pub keys: Vec<(ObjectId, [u64; 3])>,
    pub counters: PlanCounters,
    /// Execution counters of every successful outcome.
    pub stats: Vec<RunStats>,
}

/// One `ServeBackend::apply` call: a group-committed write batch.
pub struct ApplySpan {
    pub start: Instant,
    pub end: Instant,
    pub batch: Vec<Update<UncertainObject>>,
    pub epoch: Option<Epoch>,
    pub live_epochs: usize,
}

/// In-memory span store, switched on for the traced half of a run.
#[derive(Default)]
pub struct Recorder {
    enabled: AtomicBool,
    windows: Mutex<Vec<WindowSpan>>,
    applies: Mutex<Vec<ApplySpan>>,
}

impl Recorder {
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn take_windows(&self) -> Vec<WindowSpan> {
        std::mem::take(&mut *self.windows.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn take_applies(&self) -> Vec<ApplySpan> {
        std::mem::take(&mut *self.applies.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn record_apply(&self, span: ApplySpan) {
        self.applies
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(span);
    }

    fn run(&self, inner: &dyn ExplainSession, requests: &[ExplainRequest]) -> PlanReport {
        let start = Instant::now();
        let report = inner.run(requests);
        let end = Instant::now();
        let keys = requests
            .iter()
            .map(|r| (r.objects()[0], crate::fixture::point_key(&r.queries()[0])))
            .collect();
        let stats = report
            .results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|o| o.stats))
            .collect();
        self.windows
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(WindowSpan {
                start,
                end,
                keys,
                counters: report.counters,
                stats,
            });
        report
    }
}

/// Anything that exposes an explain session.
pub trait AsSession: Send + Sync {
    fn as_session(&self) -> &dyn ExplainSession;
}

impl AsSession for Arc<dyn ErasedSnapshot> {
    fn as_session(&self) -> &dyn ExplainSession {
        (**self).session()
    }
}

impl AsSession for &ExplainEngine {
    fn as_session(&self) -> &dyn ExplainSession {
        *self
    }
}

/// An `ExplainSession` decorator that records a span per `run`.
pub struct Traced<S> {
    inner: S,
    rec: Arc<Recorder>,
}

impl<S: AsSession> Traced<S> {
    pub fn new(inner: S, rec: Arc<Recorder>) -> Self {
        Self { inner, rec }
    }
}

impl<S: AsSession> ExplainSession for Traced<S> {
    fn config(&self) -> &EngineConfig {
        self.inner.as_session().config()
    }

    fn epoch(&self) -> Epoch {
        self.inner.as_session().epoch()
    }

    fn accumulated_io(&self) -> QueryStats {
        self.inner.as_session().accumulated_io()
    }

    fn cache_len(&self) -> (usize, usize) {
        self.inner.as_session().cache_len()
    }

    fn run(&self, requests: &[ExplainRequest]) -> PlanReport {
        self.rec.run(self.inner.as_session(), requests)
    }

    fn shard_count(&self) -> usize {
        self.inner.as_session().shard_count()
    }

    fn candidate_ids(&self, q: &Point, an: ObjectId) -> Result<Vec<ObjectId>, CrpError> {
        self.inner.as_session().candidate_ids(q, an)
    }

    fn shard_candidate_ids(
        &self,
        shard: usize,
        q: &Point,
        an: ObjectId,
    ) -> Result<Vec<ObjectId>, CrpError> {
        self.inner.as_session().shard_candidate_ids(shard, q, an)
    }
}

impl ErasedSnapshot for Traced<Arc<dyn ErasedSnapshot>> {
    fn epoch(&self) -> Epoch {
        self.inner.epoch()
    }

    fn session(&self) -> &dyn ExplainSession {
        self
    }

    fn discrete_dataset(&self) -> Option<&UncertainDataset> {
        self.inner.discrete_dataset()
    }
}

/// A `ServeBackend` decorator: pinned snapshots come back wrapped in
/// [`Traced`], and every `apply` is recorded with its batch.
pub struct TracedBackend {
    inner: Arc<dyn ServeBackend>,
    rec: Arc<Recorder>,
    live_epochs: Box<dyn Fn() -> usize + Send + Sync>,
}

impl TracedBackend {
    pub fn new(
        inner: Arc<dyn ServeBackend>,
        rec: Arc<Recorder>,
        live_epochs: Box<dyn Fn() -> usize + Send + Sync>,
    ) -> Self {
        Self {
            inner,
            rec,
            live_epochs,
        }
    }
}

impl ServeBackend for TracedBackend {
    fn pin(&self) -> Arc<dyn ErasedSnapshot> {
        let snapshot = self.inner.pin();
        if self.rec.enabled() {
            Arc::new(Traced::new(snapshot, Arc::clone(&self.rec)))
        } else {
            snapshot
        }
    }

    fn apply(&self, updates: Vec<Update<UncertainObject>>) -> Result<Epoch, String> {
        if !self.rec.enabled() {
            return self.inner.apply(updates);
        }
        let batch = updates.clone();
        let start = Instant::now();
        let result = self.inner.apply(updates);
        let end = Instant::now();
        self.rec.record_apply(ApplySpan {
            start,
            end,
            batch,
            epoch: result.as_ref().ok().copied(),
            live_epochs: (self.live_epochs)(),
        });
        result
    }

    fn checkpoint(&self) -> Result<(), String> {
        self.inner.checkpoint()
    }
}

/// The server's outcome → wire mapping, restated here so references
/// are computed independently of the serving crate.
pub fn wire_result(result: &Result<CrpOutcome, CrpError>) -> WireResult {
    match result {
        Ok(outcome) => WireResult::Causes(
            outcome
                .causes
                .iter()
                .map(|c| WireCause {
                    id: c.id,
                    responsibility: c.responsibility,
                    counterfactual: c.counterfactual,
                    contingency: c.min_contingency.clone(),
                })
                .collect(),
        ),
        Err(CrpError::NotANonAnswer { prob }) => WireResult::Answer { prob: *prob },
        Err(other) => WireResult::Failed {
            message: other.to_string(),
        },
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Re-drives replies through the wire codec: mean encode and decode
/// time (µs) and mean encoded size.
pub fn wire_layers(replies: &[Response], layers: &mut Layers) {
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for reply in replies {
        let t0 = Instant::now();
        let text = reply.encode();
        let t1 = Instant::now();
        let back = Response::decode(&text).expect("encoded replies decode");
        let t2 = Instant::now();
        assert_eq!(&back, reply, "wire round trip");
        enc.push(ms(t1 - t0) * 1e3);
        dec.push(ms(t2 - t1) * 1e3);
        bytes.push(text.len() as f64);
    }
    layers.insert("wire.encode_us", crate::util::mean(&enc));
    layers.insert("wire.decode_us", crate::util::mean(&dec));
    layers.insert("wire.reply_bytes", crate::util::mean(&bytes));
}

/// Window-level counters averaged over recorded spans.
pub fn plan_layers(windows: &[WindowSpan], layers: &mut Layers) {
    let n = windows.len().max(1) as f64;
    let units: usize = windows.iter().map(|w| w.counters.stage1_units).sum();
    let share = |part: usize| 100.0 * part as f64 / units.max(1) as f64;
    let stats: Vec<&RunStats> = windows.iter().flat_map(|w| &w.stats).collect();
    let per_outcome = |f: &dyn Fn(&RunStats) -> f64| {
        stats.iter().map(|s| f(s)).sum::<f64>() / stats.len().max(1) as f64
    };
    layers.insert(
        "serve.requests_per_window",
        windows.iter().map(|w| w.keys.len()).sum::<usize>() as f64 / n,
    );
    layers.insert(
        "plan.traversals_per_window",
        windows
            .iter()
            .map(|w| w.counters.stage1_traversals)
            .sum::<usize>() as f64
            / n,
    );
    layers.insert(
        "plan.derived_pct",
        share(windows.iter().map(|w| w.counters.stage1_derived).sum()),
    );
    layers.insert(
        "plan.cache_served_pct",
        share(windows.iter().map(|w| w.counters.stage1_cache_served).sum()),
    );
    layers.insert("filter.candidates", per_outcome(&|s| s.candidates as f64));
    layers.insert(
        "rtree.node_accesses",
        per_outcome(&|s| s.query.node_accesses as f64),
    );
    layers.insert("fmcs.subsets", per_outcome(&|s| s.subsets_examined as f64));
    layers.insert(
        "fmcs.prsq_evals",
        per_outcome(&|s| s.prsq_evaluations as f64),
    );
}

/// How many recorded batches the write-path re-drive replays.
const REDRIVE_BATCHES: usize = 24;

/// Re-drives recorded write batches, starting from `base`, through each
/// write-path layer's public entry point in turn — the steps a durable
/// group commit performs, timed one at a time: validate on a dataset
/// clone, WAL append + fsync, engine apply (incl. refreeze), and the
/// snapshot fork a publish takes.
pub fn write_layers(
    base: &UncertainDataset,
    batches: &[Vec<Update<UncertainObject>>],
    work: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut engine =
        ExplainEngine::new(base.clone(), engine_config()).map_err(|e| e.to_string())?;
    warm(&engine);
    let wal_path = work.join("redrive.wal");
    let _ = std::fs::remove_file(&wal_path);
    let mut wal = WriteAheadLog::open(&wal_path).map_err(|e| e.to_string())?;
    let (mut validate, mut append, mut apply, mut fork) = (vec![], vec![], vec![], vec![]);
    let (mut updates, mut bytes, mut refreezes, mut reinserts) = (0usize, 0u64, 0u64, 0u64);
    for batch in batches.iter().take(REDRIVE_BATCHES) {
        let t = Instant::now();
        let mut probe = engine.dataset().clone();
        for u in batch {
            probe.apply(u.clone()).map_err(|e| e.to_string())?;
        }
        validate.push(ms(t.elapsed()));
        drop(probe);

        let before = wal.bytes();
        let t = Instant::now();
        let commit = Epoch(engine.epoch().0 + batch.len() as u64);
        wal.append_batch(batch, commit).map_err(|e| e.to_string())?;
        append.push(ms(t.elapsed()));
        bytes += wal.bytes() - before;

        let io = engine.accumulated_io();
        let t = Instant::now();
        for u in batch {
            engine.apply(u.clone()).map_err(|e| e.to_string())?;
        }
        apply.push(ms(t.elapsed()));
        let after = engine.accumulated_io();
        refreezes += after.refreezes - io.refreezes;
        reinserts += after.reinserts - io.reinserts;
        updates += batch.len();

        let t = Instant::now();
        let snapshot = engine.fork();
        fork.push(ms(t.elapsed()));
        drop(snapshot);
    }
    let _ = std::fs::remove_file(&wal_path);
    let n = validate.len().max(1) as f64;
    layers.insert("session.validate_ms", crate::util::mean(&validate));
    layers.insert("wal.append_ms", crate::util::mean(&append));
    layers.insert("wal.bytes_per_update", bytes as f64 / updates.max(1) as f64);
    layers.insert("engine.apply_ms", crate::util::mean(&apply));
    layers.insert("rtree.refreezes_per_batch", refreezes as f64 / n);
    layers.insert(
        "rtree.reinserts_per_update",
        reinserts as f64 / updates.max(1) as f64,
    );
    layers.insert("mvcc.fork_ms", crate::util::mean(&fork));
    Ok(())
}

/// Re-drives one pair through stage-1 alone (`candidate_ids` on
/// `stage1_on`) and through a whole explain (on `explain_on`). Both
/// must be forks whose caches have never seen the pair, as a request
/// that shares no window finds them. Returns the stage-1 time and the
/// explain's time beyond it, in ms.
pub fn split_stage1(
    stage1_on: &ExplainEngine,
    explain_on: &ExplainEngine,
    q: &Point,
    an: ObjectId,
) -> (f64, f64) {
    let t = Instant::now();
    let _ = stage1_on.candidate_ids(q, an);
    let stage1 = ms(t.elapsed());
    let t = Instant::now();
    let _ = explain_on.run(&[ExplainRequest::batch(q, &[an])]);
    (stage1, ms(t.elapsed()) - stage1)
}

/// Per-request decomposition of an end-to-end latency into the parts
/// before, inside and after the layer call on the blocking path. The
/// parts are cut from the request's own timestamps, so they add up to
/// its latency by construction. What can go wrong is attribution: a
/// layer call joined to the wrong request. The call recorded for a
/// request must lie inside that request's interval (intended send ≤
/// call start ≤ call end ≤ reply); [`Decomposed::misattributed`]
/// counts the requests where it does not, and the run fails on any.
pub struct Decomposed {
    pub pre: Vec<f64>,
    pub exec: Vec<f64>,
    pub post: Vec<f64>,
}

impl Decomposed {
    pub fn new() -> Self {
        Self {
            pre: vec![],
            exec: vec![],
            post: vec![],
        }
    }

    pub fn push(&mut self, intended: Instant, start: Instant, end: Instant, done: Instant) {
        self.pre.push(crate::util::ms_between(intended, start));
        self.exec.push(crate::util::ms_between(start, end));
        self.post.push(crate::util::ms_between(end, done));
    }

    /// Requests whose recorded layer call falls outside their own
    /// interval.
    pub fn misattributed(&self) -> usize {
        (0..self.pre.len())
            .filter(|&i| self.pre[i] < 0.0 || self.exec[i] < 0.0 || self.post[i] < 0.0)
            .count()
    }
}
