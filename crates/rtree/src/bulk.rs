//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! The experiment sweeps index up to 10^6 uncertain objects (Fig. 10 /
//! Fig. 13 of the paper); building those trees by repeated insertion is
//! needlessly slow, so large workloads are packed bottom-up with STR
//! (Leutenegger et al., 1997).
//!
//! Every level is packed with groups of `M − p` entries, where `p` is
//! [`RTreeParams::reinsert_count`] (never fewer than `m`), not with full
//! nodes: each node can then take `p` inserts before it overflows, so an
//! update on a freshly loaded tree does not pay R*'s forced reinsertion
//! (Beckmann et al., 1990) in whichever full leaf it lands in. That is
//! the ~70 % fill an R*-tree grown by insertion settles at; the price is
//! more, smaller nodes per window query. With reinsertion off, `p = 0`
//! and nodes are packed full. Slabs hold whole groups, so only a level's
//! last group can come up short; it then shares entries with as few
//! predecessors as needed for every non-root node to hold at least `m`,
//! and a loaded tree meets [`RTree::check_invariants`].
//!
//! Each level is tiled in one buffer by sorting sub-slices in place, and
//! the groups are then cut off in one pass, each allocated at its exact
//! length, so a built tree keeps no spare capacity.

use crate::node::{BranchEntry, LeafEntry, Node, NodeEntries, NodeId};
use crate::params::RTreeParams;
use crate::tree::RTree;
use crp_geom::{HyperRect, Point};

impl<T> RTree<T> {
    /// Builds a tree from `(rect, data)` pairs using STR packing, with
    /// `M − p` entries per node (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if any rectangle's dimensionality differs from `dim`.
    pub fn bulk_load(dim: usize, params: RTreeParams, items: Vec<(HyperRect, T)>) -> Self {
        for (r, _) in &items {
            assert_eq!(r.dim(), dim, "dimension mismatch");
        }
        let mut tree = RTree::new(dim, params);
        if items.is_empty() {
            return tree;
        }
        let len = items.len();

        let leaves = items
            .into_iter()
            .map(|(rect, data)| LeafEntry { rect, data })
            .collect();
        let mut level_nodes = tree.pack_level(leaves, |e| &e.rect, NodeEntries::Leaf, 0);
        // Pack upper levels until a single root remains.
        let mut level = 1u32;
        while level_nodes.len() > 1 {
            let branches = level_nodes
                .into_iter()
                .map(|(rect, child)| BranchEntry { rect, child })
                .collect();
            level_nodes = tree.pack_level(branches, |e| &e.rect, NodeEntries::Branch, level);
            level += 1;
        }

        tree.root = level_nodes[0].1;
        tree.len = len;
        if tree.root != NodeId(0) {
            // The placeholder root from `RTree::new` is dead; recycle it.
            tree.release(NodeId(0));
        }
        tree
    }

    /// Bulk-loads points (degenerate rectangles).
    pub fn bulk_load_points(dim: usize, params: RTreeParams, items: Vec<(Point, T)>) -> Self {
        Self::bulk_load(
            dim,
            params,
            items
                .into_iter()
                .map(|(p, d)| (HyperRect::from_point(&p), d))
                .collect(),
        )
    }

    /// Tiles `entries` with STR and stores each group as a node at
    /// `level`; returns the nodes' MBRs and ids in tile order.
    fn pack_level<E>(
        &mut self,
        mut entries: Vec<E>,
        rect_of: impl Fn(&E) -> &HyperRect + Copy,
        node_entries: impl Fn(Vec<E>) -> NodeEntries<T>,
        level: u32,
    ) -> Vec<(HyperRect, NodeId)> {
        let RTreeParams {
            max_entries,
            min_entries,
            reinsert_count,
        } = self.params;
        let group = max_entries.saturating_sub(reinsert_count).max(min_entries);
        let mut sizes = Vec::with_capacity(entries.len().div_ceil(group));
        str_tile(&mut entries, rect_of, group, self.dim, 0, &mut sizes);
        fill_tail(&mut sizes, min_entries);
        let mut rest = entries.into_iter();
        sizes
            .into_iter()
            .map(|k| {
                let node = Node {
                    level,
                    entries: node_entries(rest.by_ref().take(k).collect()),
                };
                let mbr = node.mbr().expect("STR group is non-empty");
                (mbr, self.alloc(node))
            })
            .collect()
    }
}

/// Sorts `entries` into STR tile order and appends the tile sizes to
/// `sizes`. A slice of `P` pages is cut along `axis` into
/// `ceil(P^(1/r))` slabs of whole pages, `r` being the axes left (on the
/// last axis that is one slab per page), and each slab recurses on the
/// next axis; so every tile holds `group` entries but the last.
fn str_tile<E>(
    entries: &mut [E],
    rect_of: impl Fn(&E) -> &HyperRect + Copy,
    group: usize,
    dim: usize,
    axis: usize,
    sizes: &mut Vec<usize>,
) {
    let n = entries.len();
    if n <= group {
        sizes.push(n);
        return;
    }
    // Centre order without building the centres: halving is exact.
    entries.sort_by(|a, b| {
        let (ra, rb) = (rect_of(a), rect_of(b));
        let ca = ra.lo()[axis] + ra.hi()[axis];
        let cb = rb.lo()[axis] + rb.hi()[axis];
        ca.partial_cmp(&cb).expect("finite coordinates")
    });
    let pages = n.div_ceil(group);
    let slabs = (pages as f64).powf(1.0 / (dim - axis) as f64).ceil() as usize;
    let slab = pages.div_ceil(slabs) * group;
    for chunk in entries.chunks_mut(slab) {
        str_tile(chunk, rect_of, group, dim, axis + 1, sizes);
    }
}

/// Lets a short last group share entries evenly with as few predecessors
/// as it takes for each to hold at least `min`. A level too small for
/// that becomes as many groups of at least `min` as it fills (at least
/// one, the root).
fn fill_tail(sizes: &mut Vec<usize>, min: usize) {
    let min = min.max(1);
    let (mut tail, mut groups) = (0usize, 0usize);
    while let Some(k) = sizes.pop() {
        tail += k;
        groups += 1;
        if tail >= groups * min {
            break;
        }
    }
    let groups = groups.min(tail / min).max(1);
    sizes.extend((0..groups).map(|i| tail / groups + usize::from(i < tail % groups)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<(Point, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let p = Point::new(
                    (0..dim)
                        .map(|_| rng.random_range(0.0..10_000.0f64))
                        .collect::<Vec<_>>(),
                );
                (p, i)
            })
            .collect()
    }

    #[test]
    fn bulk_load_empty() {
        let tree: RTree<usize> = RTree::bulk_load(2, RTreeParams::with_fanout(8), Vec::new());
        assert!(tree.is_empty());
    }

    #[test]
    fn bulk_load_single() {
        let tree: RTree<usize> = RTree::bulk_load_points(
            2,
            RTreeParams::with_fanout(8),
            vec![(Point::from([1.0, 2.0]), 7)],
        );
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn bulk_load_preserves_all_entries() {
        for n in [5usize, 64, 65, 1000, 4097] {
            let tree: RTree<usize> =
                RTree::bulk_load_points(3, RTreeParams::with_fanout(16), random_points(n, 3, 42));
            assert_eq!(tree.len(), n, "n={n}");
            let mut ids = Vec::new();
            tree.for_each(|_, &i| ids.push(i));
            ids.sort_unstable();
            assert_eq!(ids, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn bulk_load_is_balanced_with_consistent_mbrs() {
        let tree: RTree<usize> =
            RTree::bulk_load_points(2, RTreeParams::with_fanout(10), random_points(2000, 2, 1));
        // STR packs `M − p` entries per node, and the level's short last
        // group borrows from its predecessors, so a loaded tree meets
        // every invariant, min fill included.
        tree.check_invariants();
    }

    #[test]
    fn bulk_load_dense_fill() {
        let n = 10_000usize;
        let params = RTreeParams::with_fanout(20);
        let group = params.max_entries - params.reinsert_count;
        let tree: RTree<usize> = RTree::bulk_load_points(2, params, random_points(n, 2, 5));
        // Dense packing at `M − p` per node: each level holds the least
        // number of `M − p`-entry nodes that fits the level below.
        let (mut level, mut nodes) = (n, 0usize);
        while level > 1 {
            level = level.div_ceil(group);
            nodes += level;
        }
        assert_eq!(tree.node_count(), nodes);
    }

    /// 20k entries at the paper's 3-d fanout (`M = 72`, `p = 21`).
    fn paper_tree() -> (RTree<usize>, Vec<(Point, usize)>) {
        let items = random_points(20_000, 3, 11);
        let tree = RTree::bulk_load_points(3, RTreeParams::paper_default(3), items.clone());
        (tree, items)
    }

    #[test]
    fn bulk_load_keeps_no_spare_capacity() {
        let (tree, _) = paper_tree();
        let cap = tree.params().max_entries + 1;
        for node in &tree.nodes {
            let held = match &node.entries {
                NodeEntries::Leaf(v) => v.capacity(),
                NodeEntries::Branch(v) => v.capacity(),
            };
            assert!(held <= cap, "node holds capacity {held} > {cap}");
        }
    }

    #[test]
    fn bulk_load_leaves_reinsert_headroom() {
        let (tree, _) = paper_tree();
        let params = tree.params();
        let group = params.max_entries - params.reinsert_count;
        for node in &tree.nodes {
            assert!(node.len() <= group, "{} > M - p = {group}", node.len());
        }
    }

    #[test]
    fn inserts_into_a_loaded_tree_do_not_reinsert() {
        let (mut tree, items) = paper_tree();
        let mut rng = StdRng::seed_from_u64(12);
        for i in 0..200usize {
            let p = Point::new(
                (0..3)
                    .map(|_| rng.random_range(0.0..10_000.0f64))
                    .collect::<Vec<_>>(),
            );
            tree.insert_point(p, items.len() + i);
        }
        assert_eq!(tree.take_upkeep().reinserts, 0);
        for (p, i) in items.iter().step_by(50) {
            assert!(tree.remove(&HyperRect::from_point(p), i), "remove {i}");
        }
        assert_eq!(tree.len(), items.len() + 200 - items.len().div_ceil(50));
        tree.check_invariants();
    }
}
