//! An in-memory R*-tree with node-access accounting.
//!
//! The paper indexes every dataset "by an R-tree with 4,096 bytes page
//! size" and reports the *number of node accesses* as its I/O metric.
//! This crate reproduces that substrate:
//!
//! * [`RTreeParams::from_page_size`] derives the fanout from a page size
//!   and dimensionality exactly the way a disk-resident tree would,
//! * insertion follows the R*-tree heuristics (least-overlap choose-subtree
//!   at the leaf level, margin-driven split-axis selection, forced
//!   reinsertion on first overflow per level),
//! * [`RTree::bulk_load`] provides Sort-Tile-Recursive packing for the
//!   large synthetic workloads; it packs `M − p` entries per node
//!   (`p` = [`RTreeParams::reinsert_count`]), leaving each node room for
//!   `p` inserts before R*'s overflow treatment fires, which is the fill
//!   an R*-tree grown by insertion settles at,
//! * every read goes through the tree's packed image
//!   ([`RTree::frozen`] → [`PackedRTree::visit_windows`]), a
//!   level-ordered SoA projection that mirrors the arena node for node,
//!   and takes a [`QueryStats`] accumulator so experiments can report
//!   node accesses the same way the paper does; the arena itself serves
//!   only updates (insert, remove, condense) and MVCC sharing.
//!
//! The tree is generic over the payload type `T` (object identifiers in
//! this workspace).

mod bulk;
mod node;
mod packed;
mod params;
mod query;
mod stats;
mod tree;

pub use node::NodeId;
pub use packed::PackedRTree;
pub use params::RTreeParams;
pub use query::QueryStats;
pub use stats::AtomicQueryStats;
pub use tree::RTree;

#[cfg(test)]
mod tests {
    use super::*;
    use crp_geom::{HyperRect, Point};

    #[test]
    fn end_to_end_smoke() {
        let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(4));
        for i in 0..100usize {
            let x = (i % 10) as f64;
            let y = (i / 10) as f64;
            tree.insert_point(Point::from([x, y]), i);
        }
        assert_eq!(tree.len(), 100);
        tree.check_invariants();

        let mut stats = QueryStats::default();
        let mut found = Vec::new();
        let window = HyperRect::new(Point::from([2.0, 2.0]), Point::from([4.0, 4.0]));
        tree.frozen()
            .visit_windows(std::slice::from_ref(&window), &mut stats, &mut |&i| {
                found.push(i);
                true
            });
        found.sort_unstable();
        let expected: Vec<usize> = (0..100)
            .filter(|i| (2..=4).contains(&(i % 10)) && (2..=4).contains(&(i / 10)))
            .collect();
        assert_eq!(found, expected);
        assert!(stats.node_accesses > 0);
    }
}
