//! `UncertainDataset::check_batch` against its reference: applying the
//! batch to a clone of the dataset. The check must return the same
//! commit epoch, or the same error at the same update, without ever
//! mutating or cloning the dataset.

use crp_geom::Point;
use crp_uncertain::{Epoch, ObjectId, UncertainDataset, UncertainError, UncertainObject, Update};
use proptest::prelude::*;

fn object(id: u32, dim: usize) -> UncertainObject {
    UncertainObject::certain(ObjectId(id), Point::new(vec![id as f64; dim]))
}

/// The reference: apply to a clone, stopping at the first failure.
fn apply_to_clone(
    ds: &UncertainDataset,
    batch: &[Update<UncertainObject>],
) -> Result<Epoch, (usize, UncertainError)> {
    let mut probe = ds.clone();
    for (i, update) in batch.iter().enumerate() {
        probe.apply(update.clone()).map_err(|e| (i, e))?;
    }
    Ok(probe.epoch())
}

/// Asserts the check agrees with the reference, including where the
/// batch fails: the prefix before the failing update must check clean.
fn assert_agrees(ds: &UncertainDataset, batch: &[Update<UncertainObject>]) {
    match apply_to_clone(ds, batch) {
        Ok(epoch) => assert_eq!(ds.check_batch(batch), Ok(epoch), "batch {batch:?}"),
        Err((at, error)) => {
            assert_eq!(ds.check_batch(batch), Err(error), "batch {batch:?}");
            assert!(ds.check_batch(&batch[..at]).is_ok(), "prefix of {batch:?}");
        }
    }
}

fn dataset(ids: &[u32], dim: usize) -> UncertainDataset {
    UncertainDataset::from_objects(ids.iter().map(|&id| object(id, dim))).unwrap()
}

/// Updates over a six-id space and two dimensionalities, so batches
/// hit duplicate inserts, unknown ids, re-inserts after deletes,
/// replaces after deletes and dimension mismatches often.
fn update() -> impl Strategy<Value = Update<UncertainObject>> {
    (0..3u8, 0..6u32, 0..5usize).prop_map(|(kind, id, d)| {
        let dim = if d == 4 { 3 } else { 2 };
        match kind {
            0 => Update::Insert(object(id, dim)),
            1 => Update::Delete(ObjectId(id)),
            _ => Update::Replace(object(id, dim)),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn check_batch_matches_applying_to_a_clone(
        ids in prop::collection::vec(0..6u32, 0..=3),
        batch in prop::collection::vec(update(), 0..10),
    ) {
        let mut ids = ids;
        ids.sort_unstable();
        ids.dedup();
        let ds = dataset(&ids, 2);
        assert_agrees(&ds, &batch);
    }
}

#[test]
fn named_batch_shapes_match_the_reference() {
    use Update::{Delete, Insert, Replace};
    let ds = dataset(&[0, 1, 2], 2);
    let shapes: Vec<Vec<Update<UncertainObject>>> = vec![
        // Duplicate inserts: of a live id, and twice within the batch.
        vec![Insert(object(1, 2))],
        vec![Insert(object(7, 2)), Insert(object(7, 2))],
        // Delete then re-insert one id (valid), and delete it twice.
        vec![Delete(ObjectId(1)), Insert(object(1, 2))],
        vec![Delete(ObjectId(1)), Delete(ObjectId(1))],
        // Replace after delete, and of an id never seen.
        vec![Delete(ObjectId(2)), Replace(object(2, 2))],
        vec![Replace(object(9, 2))],
        // Unknown delete behind a valid prefix.
        vec![Insert(object(9, 2)), Delete(ObjectId(42))],
        // Dimension mismatch on insert and on replace.
        vec![Insert(object(5, 3))],
        vec![Replace(object(0, 3))],
        // Emptied dataset: any dimensionality goes again, and a
        // singleton may change dimensionality by replace.
        vec![
            Delete(ObjectId(0)),
            Delete(ObjectId(1)),
            Delete(ObjectId(2)),
            Insert(object(4, 3)),
            Replace(object(4, 2)),
            Insert(object(5, 2)),
            Replace(object(5, 3)),
        ],
        vec![],
    ];
    for batch in &shapes {
        assert_agrees(&ds, batch);
    }
    // The check never touched the dataset.
    assert_eq!(ds.epoch(), Epoch(3));
    assert_eq!(ds.len(), 3);
}
