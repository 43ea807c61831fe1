//! Planner windows and admission control for serving front-ends.
//!
//! A server that explains non-answers for many concurrent clients has
//! two levers this module encodes:
//!
//! * **Windowing** — instead of running each client's
//!   [`ExplainRequest`] alone, the server closes a short *planner
//!   window* over whatever arrived together and compiles the whole
//!   window as **one** workload through [`ExplainSession::run`]. The
//!   planner then dedups stage-1 work units *across clients*: sixteen
//!   clients asking about nearby queries pay for one traversal, not
//!   sixteen. [`execute_window`] runs a window and demuxes the flat
//!   task results back per request.
//! * **Admission control** — under load the server degrades
//!   deterministically instead of queueing without bound.
//!   [`derive_limits`] maps (client class, queue depth) to
//!   [`PlanLimits`]; [`admission`] decides accept-with-limits vs shed
//!   with a typed retry hint. Both are pure functions of their inputs
//!   so two servers at the same depth make the same decision.
//!
//! [`fan_out`] is the offline counterpart: it chunks a request list
//! across OS threads, each chunk executed as one window. Because
//! planned execution is bit-identical to per-call execution, the
//! concatenated results equal a serial run — this is what
//! `crp replay --readers N` routes through.

use super::budget::PlanLimits;
use super::plan::{ExplainRequest, PlanCounters};
use super::session::ExplainSession;
use crate::error::CrpError;
use crate::types::CrpOutcome;
use crp_uncertain::Epoch;
use std::fmt;
use std::str::FromStr;

/// Serving priority of a connected client. The class is declared in
/// the wire `hello` and never inferred, so budget decisions are
/// reproducible from the request log alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClientClass {
    /// Latency-sensitive: tight deadlines that tighten further under
    /// load, shed last.
    #[default]
    Interactive,
    /// Throughput work: no deadline and no node ceiling (only the
    /// check ceiling every class shares), but shed once the queue is
    /// full.
    Batch,
    /// Opportunistic: smallest budgets, shed first (at half the queue
    /// capacity).
    BestEffort,
}

impl ClientClass {
    /// The wire token for this class.
    pub fn as_str(self) -> &'static str {
        match self {
            ClientClass::Interactive => "interactive",
            ClientClass::Batch => "batch",
            ClientClass::BestEffort => "best-effort",
        }
    }
}

impl fmt::Display for ClientClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ClientClass {
    type Err = CrpError;

    /// Strict: exactly the lowercase wire tokens, anything else is a
    /// typed config error (a typo'd class must not silently demote a
    /// client).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interactive" => Ok(ClientClass::Interactive),
            "batch" => Ok(ClientClass::Batch),
            "best-effort" => Ok(ClientClass::BestEffort),
            _ => Err(CrpError::InvalidConfig {
                field: "class",
                reason: format!("unknown client class {s:?} (interactive|batch|best-effort)"),
            }),
        }
    }
}

/// Integer load level 0..=4 from queue depth: 0 when idle, 4 when the
/// queue is at capacity. Monotone non-decreasing in `pending`, so
/// every budget derived from it is monotone non-increasing.
fn load_level(pending: usize, queue_cap: usize) -> u64 {
    let cap = queue_cap.max(1);
    (pending.min(cap) * 4 / cap) as u64
}

/// The plan budget a request admitted at this queue depth runs under.
/// Pure and integer-only: same (class, depth, capacity) → same
/// limits on every host. Every class shares the check ceiling
/// [`PlanLimits::DEFAULT_MAX_CHECKS`] (5,000,000): one adversarial
/// non-answer cannot hold a reader forever, and a capped explain
/// replies a typed `Partial`. It is flat, so it never splits a window
/// (windows group requests by equal limits).
///
/// * [`Batch`](ClientClass::Batch) has no deadline and no node
///   ceiling — batch work runs whole, short of the check ceiling, or
///   is shed at the door.
/// * [`Interactive`](ClientClass::Interactive) starts at a 1000 ms
///   deadline and tightens to 200 ms as the queue fills.
/// * [`BestEffort`](ClientClass::BestEffort) starts at 250 ms plus a
///   node-access ceiling and tightens to 50 ms.
pub fn derive_limits(class: ClientClass, pending: usize, queue_cap: usize) -> PlanLimits {
    let load = load_level(pending, queue_cap);
    let ceiling = PlanLimits {
        max_checks: Some(PlanLimits::DEFAULT_MAX_CHECKS),
        ..PlanLimits::default()
    };
    match class {
        ClientClass::Batch => ceiling,
        ClientClass::Interactive => PlanLimits {
            deadline_ms: Some(1000 / (1 + load)),
            ..ceiling
        },
        ClientClass::BestEffort => PlanLimits {
            deadline_ms: Some(250 / (1 + load)),
            max_node_accesses: Some(200_000 / (1 + load)),
            ..ceiling
        },
    }
}

/// The admission decision for one arriving request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Run it, under these limits.
    Accept(PlanLimits),
    /// Shed: the client should retry after the hinted backoff.
    Shed {
        /// Deterministic backoff hint in milliseconds, growing with
        /// how far past the shed threshold the queue is.
        retry_after_ms: u64,
    },
}

/// Decide whether a request of `class` joins a queue already holding
/// `pending` requests. Best-effort clients shed at half capacity;
/// everyone sheds at full capacity. Pure function — the shed response
/// a client sees is reproducible from (class, depth, capacity).
pub fn admission(class: ClientClass, pending: usize, queue_cap: usize) -> Admission {
    let cap = queue_cap.max(1);
    let shed_at = match class {
        ClientClass::BestEffort => cap.div_ceil(2),
        _ => cap,
    };
    if pending >= shed_at {
        let over = (pending - shed_at) as u64;
        Admission::Shed {
            retry_after_ms: (25 * (1 + over)).min(1000),
        }
    } else {
        Admission::Accept(derive_limits(class, pending, queue_cap))
    }
}

/// The outcome of one planner window: the flat plan results demuxed
/// back per request, plus what the planner saved by batching.
#[derive(Debug)]
pub struct WindowReport {
    /// Dataset version the window executed against.
    pub epoch: Epoch,
    /// Planner counters for the whole window; `stage1_shared_tasks`
    /// over `tasks` is the cross-client dedup ratio.
    pub counters: PlanCounters,
    /// One result list per request, in request order, each in the
    /// request's own expansion order (queries-outer / objects /
    /// α-inner).
    pub per_request: Vec<Vec<Result<CrpOutcome, CrpError>>>,
}

impl WindowReport {
    /// Total tasks across every request in the window.
    pub fn task_total(&self) -> usize {
        self.per_request.iter().map(Vec::len).sum()
    }
}

/// Compile `requests` as **one** planned workload against `session`
/// and split the flat results back per request. This is the whole
/// batching trick: results are bit-identical to running each request
/// alone (the planner guarantees planned ≡ per-call), but stage-1
/// units are deduplicated across all of them.
pub fn execute_window(session: &dyn ExplainSession, requests: &[ExplainRequest]) -> WindowReport {
    let report = session.run(requests);
    debug_assert_eq!(
        report.results.len(),
        requests
            .iter()
            .map(ExplainRequest::task_count)
            .sum::<usize>(),
        "plan returns exactly one result per task"
    );
    let mut flat = report.results.into_iter();
    let per_request = requests
        .iter()
        .map(|r| flat.by_ref().take(r.task_count()).collect())
        .collect();
    WindowReport {
        epoch: session.epoch(),
        counters: report.counters,
        per_request,
    }
}

/// Run `requests` across up to `threads` OS threads, each contiguous
/// chunk executed as one planner window; reports come back in chunk
/// order, so flattening them preserves request order. Because planned
/// execution ≡ per-call execution, the concatenation is bit-identical
/// to a serial run of the same requests.
pub fn fan_out(
    session: &dyn ExplainSession,
    requests: &[ExplainRequest],
    threads: usize,
) -> Vec<WindowReport> {
    if requests.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, requests.len());
    if threads == 1 {
        return vec![execute_window(session, requests)];
    }
    let chunk = requests.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(chunk)
            .map(|part| scope.spawn(move || execute_window(session, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("window thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ExplainEngine};
    use crp_geom::Point;
    use crp_uncertain::{ObjectId, UncertainDataset, UncertainObject};

    fn pt(x: f64, y: f64) -> Point {
        Point::from([x, y])
    }

    fn fixture_engine() -> ExplainEngine {
        let ds = UncertainDataset::from_objects(vec![
            UncertainObject::certain(ObjectId(0), pt(10.0, 10.0)),
            UncertainObject::certain(ObjectId(1), pt(7.0, 7.0)),
            UncertainObject::with_equal_probs(ObjectId(2), vec![pt(8.0, 9.0), pt(30.0, 30.0)])
                .unwrap(),
            UncertainObject::certain(ObjectId(3), pt(40.0, 40.0)),
        ])
        .unwrap();
        ExplainEngine::new(ds, EngineConfig::with_alpha(0.75)).unwrap()
    }

    #[test]
    fn client_classes_parse_strictly() {
        assert_eq!(
            "interactive".parse::<ClientClass>().unwrap(),
            ClientClass::Interactive
        );
        assert_eq!("batch".parse::<ClientClass>().unwrap(), ClientClass::Batch);
        assert_eq!(
            "best-effort".parse::<ClientClass>().unwrap(),
            ClientClass::BestEffort
        );
        for bad in ["", "Interactive", "besteffort", "best effort", "batch "] {
            assert!(
                bad.parse::<ClientClass>().is_err(),
                "{bad:?} must not parse"
            );
        }
        for class in [
            ClientClass::Interactive,
            ClientClass::Batch,
            ClientClass::BestEffort,
        ] {
            assert_eq!(class.as_str().parse::<ClientClass>().unwrap(), class);
        }
    }

    #[test]
    fn limits_tighten_monotonically_with_load() {
        let cap = 32;
        let mut last_interactive = u64::MAX;
        let mut last_best_effort = (u64::MAX, u64::MAX);
        let ceiling = Some(PlanLimits::DEFAULT_MAX_CHECKS);
        for pending in 0..=cap {
            assert_eq!(
                derive_limits(ClientClass::Batch, pending, cap),
                PlanLimits {
                    max_checks: ceiling,
                    ..PlanLimits::default()
                },
                "batch has only the shared check ceiling"
            );
            let i = derive_limits(ClientClass::Interactive, pending, cap);
            let d = i.deadline_ms.expect("interactive always has a deadline");
            assert!(d <= last_interactive, "deadline grew under load");
            assert!(i.max_node_accesses.is_none());
            last_interactive = d;

            let b = derive_limits(ClientClass::BestEffort, pending, cap);
            // One flat check ceiling for every class at every load, so
            // it never splits a window.
            assert_eq!((i.max_checks, b.max_checks), (ceiling, ceiling));
            let bd = (b.deadline_ms.unwrap(), b.max_node_accesses.unwrap());
            assert!(bd.0 <= last_best_effort.0 && bd.1 <= last_best_effort.1);
            last_best_effort = bd;
        }
        assert_eq!(last_interactive, 200, "full queue → 1000/5 ms");
        assert_eq!(last_best_effort.0, 50, "full queue → 250/5 ms");
    }

    #[test]
    fn admission_sheds_best_effort_first_and_everyone_at_capacity() {
        let cap = 8;
        assert!(matches!(
            admission(ClientClass::BestEffort, 4, cap),
            Admission::Shed { retry_after_ms: 25 }
        ));
        assert!(matches!(
            admission(ClientClass::Interactive, 4, cap),
            Admission::Accept(_)
        ));
        for class in [ClientClass::Interactive, ClientClass::Batch] {
            assert!(matches!(admission(class, cap, cap), Admission::Shed { .. }));
            assert!(matches!(
                admission(class, cap - 1, cap),
                Admission::Accept(_)
            ));
        }
        // Backoff grows with overload but is capped.
        assert_eq!(
            admission(ClientClass::Batch, cap + 3, cap),
            Admission::Shed {
                retry_after_ms: 100
            }
        );
        assert_eq!(
            admission(ClientClass::Batch, cap + 1000, cap),
            Admission::Shed {
                retry_after_ms: 1000
            }
        );
    }

    #[test]
    fn windows_demux_exactly_and_match_solo_runs() {
        let engine = fixture_engine();
        let q = pt(5.0, 5.0);
        let requests = vec![
            ExplainRequest::alpha_sweep(&q, ObjectId(0), vec![0.25, 0.5, 0.75]),
            ExplainRequest::explain(&q, ObjectId(3)),
            ExplainRequest::batch(&q, &[ObjectId(0), ObjectId(3)]),
        ];
        let window = execute_window(&engine, &requests);
        assert_eq!(window.per_request.len(), 3);
        assert_eq!(window.per_request[0].len(), 3);
        assert_eq!(window.per_request[1].len(), 1);
        assert_eq!(window.per_request[2].len(), 2);
        assert_eq!(window.epoch, ExplainSession::epoch(&engine));

        // Bit-identical to each request run alone on a fresh engine.
        let solo = fixture_engine();
        for (req, via_window) in requests.iter().zip(&window.per_request) {
            let alone = solo.run(std::slice::from_ref(req)).results;
            let alone_ok: Vec<_> = alone.into_iter().map(|r| r.map(|o| o.causes)).collect();
            let window_ok: Vec<_> = via_window
                .iter()
                .map(|r| r.as_ref().map(|o| o.causes.clone()).map_err(|_| ()))
                .collect();
            let alone_ok: Vec<_> = alone_ok.into_iter().map(|r| r.map_err(|_| ())).collect();
            assert_eq!(window_ok, alone_ok, "windowed ≡ solo");
        }
        // The window shared stage-1 work across requests.
        assert!(window.counters.stage1_shared_tasks > 0);
    }

    #[test]
    fn fan_out_preserves_order_and_matches_serial() {
        let engine = fixture_engine();
        let q = pt(5.0, 5.0);
        let requests: Vec<_> = [0u32, 3, 0, 3, 0, 3, 0]
            .iter()
            .map(|&id| ExplainRequest::explain(&q, ObjectId(id)))
            .collect();
        let serial: Vec<_> = execute_window(&engine, &requests)
            .per_request
            .into_iter()
            .flatten()
            .map(|r| r.map(|o| o.causes).map_err(|_| ()))
            .collect();
        for threads in [1, 2, 3, 16] {
            let fresh = fixture_engine();
            let reports = fan_out(&fresh, &requests, threads);
            assert_eq!(reports.len(), threads.clamp(1, requests.len()).min(7));
            let flat: Vec<_> = reports
                .into_iter()
                .flat_map(|w| w.per_request)
                .flatten()
                .map(|r| r.map(|o| o.causes).map_err(|_| ()))
                .collect();
            assert_eq!(flat, serial, "{threads} threads ≡ serial");
        }
        assert!(fan_out(&engine, &[], 4).is_empty());
    }

    #[test]
    fn session_candidate_seam_agrees_across_flavours() {
        use crp_geom::HyperRect;
        use crp_uncertain::{PdfDataset, PdfObject};

        // A session is one partition, discrete or pdf: shard 0 is the
        // whole candidate list.
        let discrete = fixture_engine();
        let pdf = ExplainEngine::for_pdf(
            PdfDataset::from_objects(vec![
                PdfObject::uniform(ObjectId(0), HyperRect::new(pt(9.5, 9.5), pt(10.5, 10.5))),
                PdfObject::uniform(ObjectId(1), HyperRect::new(pt(6.9, 6.9), pt(7.1, 7.1))),
                PdfObject::uniform(ObjectId(2), HyperRect::new(pt(7.5, 7.5), pt(8.0, 8.0))),
            ])
            .unwrap(),
            3,
            EngineConfig::with_alpha(0.5),
        )
        .unwrap();
        let q = pt(5.0, 5.0);
        let sessions: [&dyn ExplainSession; 2] = [&discrete, &pdf];
        for session in sessions {
            let ids = session.candidate_ids(&q, ObjectId(0)).unwrap();
            assert!(ids.len() >= 2, "fixture needs candidates: {ids:?}");
            assert_eq!(session.shard_count(), 1);
            assert_eq!(
                session.shard_candidate_ids(0, &q, ObjectId(0)).unwrap(),
                ids
            );
        }
    }
}
