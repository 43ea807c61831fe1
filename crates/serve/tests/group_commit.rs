//! Write batching at window boundaries: update requests that reach
//! the collector together group-commit into ONE backend batch (one
//! snapshot publish), every rider acked with the shared epoch — and
//! `window_max = 1` switches that off, publishing each request alone.
//! A rejected group applies nothing.

use crp_core::{CrpError, EngineConfig, ExplainEngine};
use crp_data::wire::{Request, Response, WireResult};
use crp_data::{uncertain_dataset, UncertainConfig};
use crp_geom::Point;
use crp_serve::{Client, ServeConfig, Server, VolatileBackend};
use crp_uncertain::{Epoch, ObjectId, UncertainObject, Update};
use std::sync::Arc;

fn start(config: ServeConfig) -> Server {
    let ds = uncertain_dataset(&UncertainConfig {
        cardinality: 200,
        dim: 2,
        radius_range: (0.0, 5.0),
        seed: 0x5EED_CAFE,
        ..UncertainConfig::default()
    });
    let engine = ExplainEngine::new(ds, EngineConfig::with_alpha(0.5)).unwrap();
    Server::start(Arc::new(VolatileBackend::new(engine)), config).unwrap()
}

fn insert(id: u32) -> Request {
    Request::Update {
        updates: vec![Update::Insert(UncertainObject::certain(
            ObjectId(id),
            Point::from([9000.0 + f64::from(id), 9000.0]),
        ))],
    }
}

fn acked_epochs(responses: &[Response]) -> Vec<Epoch> {
    responses
        .iter()
        .map(|r| match r {
            Response::Applied { epoch, count } => {
                assert_eq!(*count, 1, "each request carried one op");
                *epoch
            }
            other => panic!("expected an applied ack, got {other:?}"),
        })
        .collect()
}

fn stat(fields: &[(String, String)], key: &str) -> u64 {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("stats report {key}"))
        .1
        .parse()
        .expect("numeric stat")
}

#[test]
fn pipelined_updates_group_commit_onto_one_epoch() {
    // A long gather deadline so all three pipelined frames reach the
    // collector before its write batch closes.
    let server = start(ServeConfig {
        window_ms: 200,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let replies = client
        .pipeline(&[insert(1000), insert(1001), insert(1002)])
        .unwrap();
    let epochs = acked_epochs(&replies);
    assert_eq!(epochs[0], epochs[1], "riders share the batch epoch");
    assert_eq!(epochs[1], epochs[2], "riders share the batch epoch");

    let fields = client.stats().unwrap();
    assert_eq!(stat(&fields, "updates"), 3);
    assert_eq!(
        stat(&fields, "update_batches"),
        1,
        "three requests, one group-committed publish"
    );
    server.request_shutdown();
    server.join();
}

#[test]
fn per_request_serving_publishes_each_update_alone() {
    let server = start(ServeConfig {
        window_max: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let replies = client
        .pipeline(&[insert(1000), insert(1001), insert(1002)])
        .unwrap();
    let epochs = acked_epochs(&replies);
    assert!(
        epochs[0] < epochs[1] && epochs[1] < epochs[2],
        "window_max = 1 publishes per request: {epochs:?}"
    );

    let fields = client.stats().unwrap();
    assert_eq!(stat(&fields, "updates"), 3);
    assert_eq!(stat(&fields, "update_batches"), 3);
    server.request_shutdown();
    server.join();
}

#[test]
fn a_rejected_group_applies_nothing() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (before, _) = client.update(vec![Update::Delete(ObjectId(0))]).unwrap();

    // A valid insert riding with a delete of an unknown id: the whole
    // group is rejected.
    let rejected = Request::Update {
        updates: vec![
            Update::Insert(UncertainObject::certain(
                ObjectId(1000),
                Point::from([9000.0, 9000.0]),
            )),
            Update::Delete(ObjectId(99_999)),
        ],
    };
    let reply = client.request(&rejected).unwrap();
    assert!(matches!(reply, Response::Error { .. }), "{reply:?}");

    // The next group publishes its own op alone, one epoch on, and the
    // rejected insert never became visible.
    let acks = acked_epochs(&client.pipeline(&[insert(1001)]).unwrap());
    assert_eq!(acks, vec![Epoch(before.0 + 1)]);
    let q = Point::from([5000.0, 5000.0]);
    let (_, results) = client.explain(&[ObjectId(1000)], Some(&q), &[]).unwrap();
    assert_eq!(
        results,
        vec![WireResult::Failed {
            message: CrpError::UnknownObject(ObjectId(1000)).to_string()
        }]
    );
    server.request_shutdown();
    server.join();
}
