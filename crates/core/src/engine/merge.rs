//! The **merge law** of stage 1, plus the candidate ordering every FMCS
//! driver shares.
//!
//! The CP filter (Lemma 2) keeps an object as a candidate cause by
//! testing that object alone, so the candidate set of a non-answer
//! splits over any partition of the objects. Everything after stage 1
//! (dominance matrix, lemma classification, FMCS) must see exactly the
//! candidate set one engine produces. This module owns that contract:
//!
//! * [`shard_share`] — one partition's share of a candidate list, by
//!   id hash: what a `crp serve --shard-worker` process answers,
//! * [`merge_candidate_ids`] — deduplicated id-ordered union of
//!   per-partition candidate sets (the partitions are disjoint, so the
//!   union is exact, not approximate),
//! * `global_positions` — maps candidate ids back to dataset
//!   positions, restoring the filter's candidate order (ascending
//!   dataset position) bit-for-bit,
//! * `impacts` / `order_by_impact` — the global impact ordering of
//!   the FMCS search space. Ordering lives here (not per driver) so the
//!   serial and candidate-parallel FMCS drivers rank candidates through
//!   one code path.

use crate::matrix::DominanceMatrix;
use crp_uncertain::{ObjectId, UncertainDataset};

/// Merges per-shard candidate (or dominator / region-hit) id sets into
/// one deduplicated, ascending-id list.
///
/// Shards hold disjoint objects, so concatenation alone would already
/// be duplicate-free; the sort + dedup also makes the merge safe for
/// overlapping sources (e.g. re-merging an already-merged list) and
/// pins the order the certain-data pipeline relies on.
pub fn merge_candidate_ids(parts: impl IntoIterator<Item = Vec<ObjectId>>) -> Vec<ObjectId> {
    let mut merged: Vec<ObjectId> = parts.into_iter().flatten().collect();
    merged.sort_unstable();
    merged.dedup();
    merged
}

/// Shard `shard`'s share of a candidate list when the objects are split
/// `shards` ways by id hash: the ids with
/// `splitmix64(id) % shards == shard`, in input order. The shares of
/// `0..shards` are pairwise disjoint, and [`merge_candidate_ids`] over
/// all of them gives back the (sorted, deduplicated) input.
///
/// # Panics
///
/// Panics when `shard >= shards`.
pub fn shard_share(ids: &[ObjectId], shard: usize, shards: usize) -> Vec<ObjectId> {
    assert!(
        shard < shards,
        "shard {shard} out of range for {shards} shard(s)"
    );
    ids.iter()
        .copied()
        .filter(|id| splitmix64(u64::from(id.0)) % shards as u64 == shard as u64)
        .collect()
}

/// Maps candidate ids to their positions in the dataset, sorted
/// ascending — exactly the candidate list the window filter produces,
/// which is what makes the planner's containment-derived stage 1
/// bit-identical to a traversal.
///
/// Ids unknown to `ds` are ignored (a merged list must not panic on
/// foreign input).
pub(crate) fn global_positions(ds: &UncertainDataset, ids: &[ObjectId]) -> Vec<usize> {
    let mut positions: Vec<usize> = ids.iter().filter_map(|&id| ds.index_of(id)).collect();
    positions.sort_unstable();
    positions.dedup();
    positions
}

/// Finalizer of splitmix64 — a deterministic, well-mixed 64-bit hash
/// (no `std` `RandomState`, whose per-process seed would make the split
/// differ between worker processes).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-candidate impact scores of a dominance matrix (how much
/// removing each candidate can lift `Pr(an)`), precomputed once per
/// non-answer and shared by every FMCS driver.
pub(crate) fn impacts(matrix: &DominanceMatrix) -> Vec<f64> {
    (0..matrix.candidates()).map(|c| matrix.impact(c)).collect()
}

/// Orders an FMCS search space high-impact-first: the first combination
/// of each cardinality is then the greedy removal set, which on deep
/// non-answers is very likely already a valid contingency set. Any
/// order is correct; this one converges fastest, and keeping it here
/// guarantees every driver (serial, candidate-parallel) ranks
/// identically.
pub(crate) fn order_by_impact(search: &mut [usize], impacts: &[f64]) {
    search.sort_by(|&a, &b| impacts[b].partial_cmp(&impacts[a]).expect("finite impacts"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::Point;

    #[test]
    fn merge_unions_sorts_and_dedups() {
        let parts = vec![
            vec![ObjectId(7), ObjectId(2)],
            vec![],
            vec![ObjectId(4), ObjectId(2)],
        ];
        assert_eq!(
            merge_candidate_ids(parts),
            vec![ObjectId(2), ObjectId(4), ObjectId(7)]
        );
        assert!(merge_candidate_ids(Vec::<Vec<ObjectId>>::new()).is_empty());
    }

    #[test]
    fn shard_shares_are_a_deterministic_partition() {
        let ids: Vec<ObjectId> = (0..200).map(ObjectId).collect();
        for shards in 1..=5 {
            let shares: Vec<Vec<ObjectId>> =
                (0..shards).map(|i| shard_share(&ids, i, shards)).collect();
            assert_eq!(shares.iter().map(Vec::len).sum::<usize>(), ids.len());
            assert_eq!(merge_candidate_ids(shares.clone()), ids);
            // Same input, same split: worker processes agree.
            let again: Vec<Vec<ObjectId>> =
                (0..shards).map(|i| shard_share(&ids, i, shards)).collect();
            assert_eq!(shares, again);
            if shards > 1 {
                assert!(shares.iter().all(|s| !s.is_empty()), "{shards} shards");
            }
        }
        assert_eq!(shard_share(&ids, 0, 1), ids, "one shard is the whole list");
    }

    #[test]
    fn positions_restore_global_order() {
        // Dataset positions follow insertion order, not id order.
        let ds = UncertainDataset::from_objects(vec![
            crp_uncertain::UncertainObject::certain(ObjectId(9), Point::from([0.0, 0.0])),
            crp_uncertain::UncertainObject::certain(ObjectId(1), Point::from([1.0, 1.0])),
            crp_uncertain::UncertainObject::certain(ObjectId(5), Point::from([2.0, 2.0])),
        ])
        .unwrap();
        let ids = merge_candidate_ids(vec![vec![ObjectId(5)], vec![ObjectId(9)]]);
        assert_eq!(ids, vec![ObjectId(5), ObjectId(9)]);
        // Position order: 9 is at 0, 5 is at 2.
        assert_eq!(global_positions(&ds, &ids), vec![0, 2]);
        // Foreign ids are ignored, not a panic.
        assert_eq!(global_positions(&ds, &[ObjectId(42)]), Vec::<usize>::new());
    }

    #[test]
    fn impact_order_is_descending() {
        // dp rows: candidate 0 weak, candidate 1 strong, candidate 2 mid.
        let m = DominanceMatrix::from_parts(vec![0.1, 0.9, 0.5], vec![1.0], 3);
        let scores = impacts(&m);
        let mut search = vec![0, 1, 2];
        order_by_impact(&mut search, &scores);
        assert_eq!(search, vec![1, 2, 0]);
    }
}
