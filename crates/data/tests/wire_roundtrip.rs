//! Wire-protocol properties: every request/response encodes to text
//! that decodes back to the identical value, frame decoding never
//! panics on arbitrary bytes, and torn/short frames come back as typed
//! incompleteness or [`WireError::Truncated`] — never a crash and
//! never a silently different message.

use crp_data::wire::{
    decode_frame, encode_frame, read_frame, Request, Response, WireCause, WireError, WirePartial,
    WireResult, WireStop, MAX_FRAME,
};
use crp_geom::Point;
use crp_uncertain::{Epoch, ObjectId, UncertainObject, Update};
use proptest::prelude::*;

/// Printable-ASCII text (no newlines) from byte choices — the vendored
/// proptest has no regex strategies. Trimmed, because the line grammar
/// canonicalizes leading/trailing whitespace in free-text fields.
fn text_of(bytes: &[u8]) -> String {
    let s: String = bytes.iter().map(|b| (0x20 + b % 0x5f) as char).collect();
    s.trim().to_string()
}

/// Lowercase token from byte choices.
fn token_of(bytes: &[u8]) -> String {
    let mut s: String = bytes.iter().map(|b| (b'a' + b % 26) as char).collect();
    if s.is_empty() {
        s.push('a');
    }
    s
}

fn point_of(coords: &[(bool, u32)]) -> Point {
    Point::new(
        coords
            .iter()
            .map(|&(neg, mantissa)| {
                let v = mantissa as f64 / 7.0;
                if neg {
                    -v
                } else {
                    v
                }
            })
            .collect::<Vec<f64>>(),
    )
}

fn ids_of(raw: &[u32]) -> Vec<ObjectId> {
    raw.iter().map(|&id| ObjectId(id)).collect()
}

/// A sign-and-magnitude coordinate, the strategy's raw currency.
type RawCoord = (bool, u32);

/// An equal-probability object in the workload grammar's image: 2-D
/// samples, non-empty.
fn object_of(id: u32, samples: &[(RawCoord, RawCoord)]) -> UncertainObject {
    let points: Vec<Point> = samples.iter().map(|&(x, y)| point_of(&[x, y])).collect();
    UncertainObject::with_equal_probs(ObjectId(id), points).expect("non-empty samples")
}

fn coords() -> impl Strategy<Value = Vec<(bool, u32)>> {
    prop::collection::vec((any::<bool>(), 0..1_000_000u32), 1..4)
}

fn update_strategy() -> impl Strategy<Value = Update<UncertainObject>> {
    (
        0..3u8,
        0..100_000u32,
        prop::collection::vec(
            ((any::<bool>(), 0..1_000u32), (any::<bool>(), 0..1_000u32)),
            1..4,
        ),
    )
        .prop_map(|(kind, id, samples)| match kind {
            0 => Update::Insert(object_of(id, &samples)),
            1 => Update::Replace(object_of(id, &samples)),
            _ => Update::Delete(ObjectId(id)),
        })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        prop::collection::vec(0..255u8, 0..12).prop_map(|b| Request::Hello {
            class: token_of(&b)
        }),
        (
            prop::collection::vec(0..100_000u32, 1..6),
            any::<bool>(),
            coords(),
            prop::collection::vec(1..100u32, 0..4),
        )
            .prop_map(|(ids, with_q, q, alphas)| Request::Explain {
                ids: ids_of(&ids),
                all: false,
                query: if with_q { Some(point_of(&q)) } else { None },
                alphas: alphas.iter().map(|&a| a as f64 / 100.0).collect(),
            }),
        (any::<bool>(), coords()).prop_map(|(with_q, q)| Request::Explain {
            ids: Vec::new(),
            all: true,
            query: if with_q { Some(point_of(&q)) } else { None },
            alphas: Vec::new(),
        }),
        prop::collection::vec(update_strategy(), 1..6)
            .prop_map(|updates| Request::Update { updates }),
        (0..100_000u32, coords()).prop_map(|(an, q)| Request::Candidates {
            an: ObjectId(an),
            query: point_of(&q),
        }),
        Just(Request::Stats),
        Just(Request::Shutdown),
    ]
}

fn cause_strategy() -> impl Strategy<Value = WireCause> {
    (
        0..100_000u32,
        0..8u32,
        prop::collection::vec(0..100_000u32, 0..5),
    )
        .prop_map(|(id, resp_denom, contingency)| WireCause {
            id: ObjectId(id),
            responsibility: 1.0 / (1.0 + resp_denom as f64),
            counterfactual: contingency.is_empty(),
            contingency: ids_of(&contingency),
        })
}

fn result_strategy() -> impl Strategy<Value = WireResult> {
    prop_oneof![
        prop::collection::vec(cause_strategy(), 0..5).prop_map(WireResult::Causes),
        (0..100u32).prop_map(|p| WireResult::Answer {
            prob: p as f64 / 100.0
        }),
        (
            0..3u8,
            0..100u64,
            0..100u64,
            0..1_000_000u64,
            (0..1_000_000u64, 0..1_000_000u64),
            0..100_000u64
        )
            .prop_map(
                |(reason, done, total, nodes, (subsets, bound_checks), ms)| {
                    WireResult::Partial(WirePartial {
                        reason: match reason {
                            0 => WireStop::Deadline,
                            1 => WireStop::Nodes,
                            _ => WireStop::Checks,
                        },
                        done,
                        total,
                        nodes,
                        subsets,
                        bound_checks,
                        ms,
                    })
                }
            ),
        prop::collection::vec(0..255u8, 0..40).prop_map(|b| WireResult::Failed {
            message: text_of(&b)
        }),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        (0..1_000u64).prop_map(|e| Response::Welcome { epoch: Epoch(e) }),
        (
            (0..1_000u64),
            prop::collection::vec(result_strategy(), 0..6)
        )
            .prop_map(|(e, results)| Response::Outcomes {
                epoch: Epoch(e),
                results
            }),
        ((0..1_000u64), 0..64usize).prop_map(|(e, count)| Response::Applied {
            epoch: Epoch(e),
            count
        }),
        (0..10_000u64).prop_map(|retry_after_ms| Response::Busy { retry_after_ms }),
        prop::collection::vec(0..100_000u32, 0..8)
            .prop_map(|ids| Response::Ids { ids: ids_of(&ids) }),
        prop::collection::vec(
            (prop::collection::vec(0..255u8, 0..12), 0..1_000_000u64),
            0..6
        )
        .prop_map(|fields| Response::Stats {
            fields: fields
                .iter()
                .map(|(k, v)| (token_of(k), v.to_string()))
                .collect(),
        }),
        prop::collection::vec(0..255u8, 0..40).prop_map(|b| Response::Error {
            message: text_of(&b)
        }),
        Just(Response::Bye),
    ]
}

#[test]
fn candidates_take_no_shard_option() {
    let line = "candidates 42 q=11580,49000";
    let req = Request::decode(line).expect("a candidates line decodes");
    assert_eq!(
        req,
        Request::Candidates {
            an: ObjectId(42),
            query: Point::from([11580.0, 49000.0]),
        }
    );
    assert_eq!(req.encode(), line);
    assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    // The option of the removed multi-process protocol is an unknown
    // option now: a typed error, not a panic.
    let err = Request::decode("candidates 42 q=11580,49000 shard=0").unwrap_err();
    assert!(
        matches!(&err, WireError::Malformed { reason } if reason.contains("shard")),
        "{err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_encode_decode_identically(req in request_strategy()) {
        let text = req.encode();
        prop_assert_eq!(Request::decode(&text).expect("own encoding decodes"), req);
    }

    #[test]
    fn responses_encode_decode_identically(resp in response_strategy()) {
        let text = resp.encode();
        prop_assert_eq!(Response::decode(&text).expect("own encoding decodes"), resp);
    }

    #[test]
    fn frame_round_trip_and_every_truncation_is_typed(bytes in prop::collection::vec(0..255u8, 0..256)) {
        let payload = text_of(&bytes);
        let frame = encode_frame(&payload).expect("small payload");
        let (decoded, consumed) = decode_frame(&frame).expect("complete frame").expect("complete");
        prop_assert_eq!(&decoded, &payload);
        prop_assert_eq!(consumed, frame.len());

        // Every proper prefix is "incomplete", not an error or a panic…
        for cut in 0..frame.len() {
            prop_assert_eq!(decode_frame(&frame[..cut]).expect("prefix"), None);
        }
        // …and a *stream* that ends there is a typed truncation.
        for cut in 1..frame.len() {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            prop_assert!(matches!(
                read_frame(&mut cursor),
                Err(WireError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        // Frame decoding over garbage: incomplete, a typed error, or a
        // (meaningless but safe) payload — never a panic.
        let _ = decode_frame(&bytes);
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let _ = read_frame(&mut cursor);
        // Grammar decoding over garbage text likewise.
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = Request::decode(text);
            let _ = Response::decode(text);
        }
    }

    #[test]
    fn oversized_declarations_are_rejected(extra in 1..64usize) {
        let len = (MAX_FRAME + extra) as u32;
        let mut buf = len.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        prop_assert!(matches!(
            decode_frame(&buf),
            Err(WireError::TooLarge { .. })
        ));
        let mut cursor = std::io::Cursor::new(buf);
        prop_assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::TooLarge { .. })
        ));
    }
}
