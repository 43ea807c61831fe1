//! Serving is a *transport*, not a different engine: everything a
//! client reads off the wire must be bit-identical to what the same
//! workload computes offline — on discrete and continuous-pdf
//! sessions, across concurrent clients, through planner windows, and
//! through the stage-1 `candidates` verb.

use crp_core::{
    ClientClass, CrpError, CrpOutcome, EngineConfig, ExplainEngine, ExplainRequest, ExplainSession,
};
use crp_data::wire::{Request, Response, WireCause, WireResult};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_geom::{HyperRect, Point};
use crp_serve::{Client, ClientError, ServeConfig, Server, VolatileBackend};
use crp_uncertain::{ObjectId, PdfDataset, PdfObject, UncertainDataset, UncertainObject, Update};
use std::sync::Arc;

fn dataset() -> UncertainDataset {
    uncertain_dataset(&UncertainConfig {
        cardinality: 300,
        dim: 2,
        radius_range: (0.0, 5.0),
        seed: 0x5EED_CAFE,
        ..UncertainConfig::default()
    })
}

/// The server's outcome→wire mapping, duplicated here so the tests
/// compare against an *independent* statement of it.
fn expected_wire(results: &[Result<CrpOutcome, CrpError>]) -> Vec<WireResult> {
    results
        .iter()
        .map(|r| match r {
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
        })
        .collect()
}

fn start_discrete(config: ServeConfig) -> (Server, Vec<ObjectId>, Point) {
    let ds = dataset();
    let ids: Vec<ObjectId> = ds.iter().map(|o| o.id()).take(24).collect();
    let q = Point::new(vec![4000.0, 4000.0]);
    let engine = ExplainEngine::new(ds, EngineConfig::with_alpha(0.5)).unwrap();
    let server = Server::start(Arc::new(VolatileBackend::new(engine)), config).unwrap();
    (server, ids, q)
}

fn offline_discrete(ids: &[ObjectId], q: &Point) -> Vec<WireResult> {
    let engine = ExplainEngine::new(dataset(), EngineConfig::with_alpha(0.5)).unwrap();
    expected_wire(&engine.run(&[ExplainRequest::batch(q, ids)]).results)
}

#[test]
fn concurrent_clients_match_offline_serial() {
    let (server, ids, q) = start_discrete(ServeConfig::default());
    let addr = server.local_addr();
    let offline = offline_discrete(&ids, &q);

    // Six concurrent clients, each explaining its own slice — the
    // slices overlap so windows have stage-1 work to share.
    let slices: Vec<Vec<ObjectId>> = (0..6).map(|i| ids[i..i + 16].to_vec()).collect();
    let served: Vec<Vec<WireResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter()
            .map(|slice| {
                let q = q.clone();
                scope.spawn(move || {
                    let (mut client, _) = Client::connect_as(addr, ClientClass::Batch).unwrap();
                    let (_, results) = client.explain(slice, Some(&q), &[]).unwrap();
                    results
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (slice, got)) in slices.iter().zip(&served).enumerate() {
        let want: Vec<WireResult> = slice
            .iter()
            .map(|id| {
                let at = ids.iter().position(|x| x == id).unwrap();
                offline[at].clone()
            })
            .collect();
        assert_eq!(got, &want, "client {i}: served ≡ offline");
    }

    let stats = server.stats();
    assert_eq!(stats.requests(), 6);
    assert!(stats.windows() >= 1);
    server.request_shutdown();
    server.join();
}

#[test]
fn pdf_sessions_serve_bit_identically() {
    fn pdf() -> PdfDataset {
        PdfDataset::from_objects((0..6).map(|i| {
            let lo = Point::new(vec![2.0 * i as f64 + 4.0, 3.0 * i as f64 + 4.0]);
            let hi = Point::new(vec![2.0 * i as f64 + 7.0, 3.0 * i as f64 + 8.0]);
            PdfObject::uniform(ObjectId(i as u32), HyperRect::new(lo, hi))
        }))
        .unwrap()
    }
    let config = EngineConfig::with_alpha(0.5);
    let q = Point::new(vec![3.0, 3.0]);
    let ids: Vec<ObjectId> = (0..6).map(ObjectId).collect();

    let offline = {
        let engine = ExplainEngine::for_pdf(pdf(), 4, config).unwrap();
        expected_wire(&engine.run(&[ExplainRequest::batch(&q, &ids)]).results)
    };

    let engine = ExplainEngine::for_pdf(pdf(), 4, config).unwrap();
    let server = Server::start(
        Arc::new(VolatileBackend::new(engine)),
        ServeConfig::default(),
    )
    .unwrap();
    let (mut client, _) = Client::connect_as(server.local_addr(), ClientClass::Batch).unwrap();
    let (_, served) = client.explain(&ids, Some(&q), &[]).unwrap();
    assert_eq!(served, offline, "pdf served ≡ pdf offline");

    // `explain all` has no discrete dataset to enumerate here.
    let err = client.explain_all(Some(&q), &[]).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "typed error: {err}");

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn pipelined_requests_share_one_window() {
    let (server, ids, q) = start_discrete(ServeConfig {
        window_max: 16,
        window_ms: 250,
        ..ServeConfig::default()
    });
    let (mut client, _) = Client::connect_as(server.local_addr(), ClientClass::Batch).unwrap();
    // Eight α-variants of the same (q, an): pipelined back-to-back,
    // they land in the collector's backlog together, so the planner
    // sees ONE window and dedups stage-1 across all eight.
    let reqs: Vec<Request> = (0..8)
        .map(|i| Request::Explain {
            ids: vec![ids[0]],
            all: false,
            query: Some(q.clone()),
            alphas: vec![0.3 + 0.05 * i as f64],
        })
        .collect();
    let responses = client.pipeline(&reqs).unwrap();
    assert!(responses
        .iter()
        .all(|r| matches!(r, Response::Outcomes { .. })));

    let stats = client.stats().unwrap();
    let get = |k: &str| {
        stats
            .iter()
            .find(|(key, _)| key == k)
            .unwrap_or_else(|| panic!("stats field {k}"))
            .1
            .parse::<u64>()
            .unwrap()
    };
    assert_eq!(get("requests"), 8);
    assert!(
        get("windows") < 8,
        "pipelined requests were windowed (got {} windows)",
        get("windows")
    );
    assert!(get("dedup_pct") > 0, "same (q, an) across clients dedups");
    assert!(get("p50_us") > 0 && get("p99_us") >= get("p50_us"));

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn admission_sheds_with_a_typed_busy_and_counts_it() {
    let (server, ids, q) = start_discrete(ServeConfig {
        queue_cap: 1,
        window_ms: 400,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Request 1 is admitted (queue 0/1) and holds its window open for
    // 400 ms; request 2 is read well within that and finds the queue
    // full — deterministically shed.
    let req = Request::Explain {
        ids: vec![ids[0]],
        all: false,
        query: Some(q.clone()),
        alphas: Vec::new(),
    };
    let responses = client.pipeline(&[req.clone(), req]).unwrap();
    let outcomes = responses
        .iter()
        .filter(|r| matches!(r, Response::Outcomes { .. }))
        .count();
    let busy: Vec<u64> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Busy { retry_after_ms } => Some(*retry_after_ms),
            _ => None,
        })
        .collect();
    assert_eq!(outcomes, 1, "first request is served");
    assert_eq!(busy, vec![25], "second is shed with the deterministic hint");
    assert_eq!(server.stats().shed(), 1);
    server.request_shutdown();
    server.join();
}

#[test]
fn updates_apply_at_window_boundaries_and_move_the_epoch() {
    let (server, _, q) = start_discrete(ServeConfig::default());
    let (mut client, epoch0) = Client::connect_as(server.local_addr(), ClientClass::Batch).unwrap();

    let fresh = UncertainObject::certain(ObjectId(9_000), Point::new(vec![4100.0, 4100.0]));
    let (epoch1, count) = client.update(vec![Update::Insert(fresh)]).unwrap();
    assert_eq!(count, 1);
    assert!(epoch1 > epoch0, "update published a new epoch");

    let (epoch_seen, results) = client.explain(&[ObjectId(9_000)], Some(&q), &[]).unwrap();
    assert_eq!(epoch_seen, epoch1, "the next window pins the new epoch");
    assert_eq!(results.len(), 1, "the inserted object is explainable");

    let (_, gone) = client
        .update(vec![Update::Delete(ObjectId(9_000))])
        .unwrap();
    assert_eq!(gone, 1);
    let err = client.explain(&[ObjectId(9_000)], Some(&q), &[]).unwrap();
    assert!(
        matches!(err.1[0], WireResult::Failed { .. }),
        "deleted object now fails with a typed error"
    );

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn candidates_verb_matches_in_process_stage1() {
    let ds = dataset();
    let q = Point::new(vec![4000.0, 4000.0]);
    let config = EngineConfig::with_alpha(0.5);

    // Ground truth: one engine's candidate set, for the non-answer with
    // the most candidates.
    let single = ExplainEngine::new(ds.clone(), config).unwrap();
    let (an, truth) = ds
        .iter()
        .map(|o| (o.id(), single.candidate_ids(&q, o.id()).unwrap()))
        .max_by_key(|(_, ids)| ids.len())
        .unwrap();
    assert!(truth.len() >= 4, "fixture needs a real candidate set");

    let server = Server::start(
        Arc::new(VolatileBackend::new(single)),
        ServeConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.candidates(&q, an).unwrap(), truth);
    // An unknown non-answer is a typed error, and the connection lives.
    assert!(matches!(
        client.candidates(&q, ObjectId(9_999)),
        Err(ClientError::Server(_))
    ));
    assert_eq!(client.candidates(&q, an).unwrap(), truth);

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn graceful_shutdown_serves_everything_already_queued() {
    let (server, ids, q) = start_discrete(ServeConfig {
        window_ms: 100,
        ..ServeConfig::default()
    });
    let (mut client, _) = Client::connect_as(server.local_addr(), ClientClass::Batch).unwrap();
    let explain = Request::Explain {
        ids: vec![ids[0], ids[1]],
        all: false,
        query: Some(q.clone()),
        alphas: Vec::new(),
    };
    // Three explains then shutdown, pipelined: the reader acks the
    // shutdown immediately, but the queued windows still execute and
    // reply before the server exits.
    let responses = client
        .pipeline(&[explain.clone(), explain.clone(), explain, Request::Shutdown])
        .unwrap();
    let outcomes = responses
        .iter()
        .filter(|r| matches!(r, Response::Outcomes { .. }))
        .count();
    let byes = responses
        .iter()
        .filter(|r| matches!(r, Response::Bye))
        .count();
    assert_eq!((outcomes, byes), (3, 1), "drained, then said goodbye");
    server.join();
}

#[test]
fn oversized_reply_is_a_typed_error_not_silence() {
    // A certain non-answer with 700 dominators: CR gives every one of
    // them the other 699 as contingency, about 490,000 ids — well past
    // the 1 MiB frame cap once encoded.
    let an = Point::new(vec![100.0, 100.0]);
    let dominators =
        (0..700).map(|i| Point::new(vec![80.0 + f64::from(i % 40), 90.0 + f64::from(i / 40)]));
    let ds = UncertainDataset::from_points(std::iter::once(an).chain(dominators)).unwrap();
    let engine = ExplainEngine::new(ds, EngineConfig::default()).unwrap();
    let server = Server::start(
        Arc::new(VolatileBackend::new(engine)),
        ServeConfig::default(),
    )
    .unwrap();
    let (mut client, _) = Client::connect_as(server.local_addr(), ClientClass::Batch).unwrap();
    let q = Point::new(vec![0.0, 0.0]);
    let err = client.explain(&[ObjectId(0)], Some(&q), &[]).unwrap_err();
    let ClientError::Server(message) = err else {
        panic!("expected a server error, got {err}");
    };
    assert!(
        message.contains(&format!("{}-byte cap", crp_data::wire::MAX_FRAME)),
        "the error names the cap: {message}"
    );
    // The conversation stays in step after the dropped reply.
    assert!(client.stats().is_ok());
    client.shutdown().unwrap();
    server.join();
}
