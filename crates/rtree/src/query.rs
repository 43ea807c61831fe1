//! Node-access accounting and the traversal workspace.
//!
//! Every window query in this crate — single-window and multi-window
//! (Algorithm 1's RecList descent) — is one descent of the packed image,
//! [`PackedRTree::visit_windows`](crate::PackedRTree::visit_windows);
//! this module holds the counters it charges ([`QueryStats`]) and the
//! per-thread scratch it reuses.

use std::cell::RefCell;

/// Accumulates the I/O metric the paper reports — the number of tree
/// nodes touched by queries — plus the maintenance counters a
/// long-lived mutable session reports alongside it. Reset (or use a
/// fresh value) per measurement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total nodes read (internal + leaf).
    pub node_accesses: u64,
    /// Leaf nodes read (subset of `node_accesses`).
    pub leaf_accesses: u64,
    /// Data entries inserted through the incremental update path.
    pub inserts: u64,
    /// Data entries removed through the incremental update path.
    pub removes: u64,
    /// Items moved by R*-tree maintenance — data records, or whole
    /// subtrees relocated in one step — via forced reinsertion on
    /// overflow and condense-tree orphan reinsertion on underflow.
    /// Each moved item counts once (a dissolved subtree counts per
    /// record, a block-moved subtree as one).
    pub reinserts: u64,
    /// Packed-image rebuilds after updates: once per published batch
    /// ([`RTree::refreeze`](crate::RTree::refreeze)), or lazily by the
    /// first reader of a mutated tree
    /// ([`RTree::frozen_counted`](crate::RTree::frozen_counted)).
    pub refreezes: u64,
    /// Contingency-condition classifications answered by the refine
    /// stage's fast evaluation (the log-domain screens, the incremental
    /// log-space delta, or the batched singleton sweep) without an exact
    /// re-verification.
    pub eval_fast: u64,
    /// Classifications that fell into the guard band around the
    /// decision threshold and were re-verified by the exact reference
    /// product.
    pub eval_slow: u64,
}

impl QueryStats {
    /// Merges another accumulator into this one.
    pub fn absorb(&mut self, other: QueryStats) {
        self.node_accesses += other.node_accesses;
        self.leaf_accesses += other.leaf_accesses;
        self.inserts += other.inserts;
        self.removes += other.removes;
        self.reinserts += other.reinserts;
        self.refreezes += other.refreezes;
        self.eval_fast += other.eval_fast;
        self.eval_slow += other.eval_slow;
    }
}

impl std::ops::Add for QueryStats {
    type Output = QueryStats;

    fn add(mut self, rhs: QueryStats) -> QueryStats {
        self.absorb(rhs);
        self
    }
}

impl std::ops::AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: QueryStats) {
        self.absorb(rhs);
    }
}

/// Rolls per-query (or per-accumulator) counters up into one total —
/// `runs.iter().map(|r| r.query).sum()`.
impl std::iter::Sum for QueryStats {
    fn sum<I: Iterator<Item = QueryStats>>(iter: I) -> QueryStats {
        iter.fold(QueryStats::default(), |acc, s| acc + s)
    }
}

/// Reusable traversal workspace: the DFS stack and the per-node match
/// mask. One instance lives per thread (see
/// [`with_scratch`]), so steady-state traversals allocate nothing — a
/// property pinned by the crate's counting-allocator test.
#[derive(Default)]
pub(crate) struct TraversalScratch {
    /// Pending packed nodes (DFS order).
    pub(crate) stack: Vec<u32>,
    /// Entry-match bitmask of the packed node being visited.
    pub(crate) mask: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<TraversalScratch> = RefCell::new(TraversalScratch::default());
}

/// Runs `f` with this thread's traversal scratch. The workspace is
/// *taken* for the duration (not borrowed), so a visitor that re-enters
/// a traversal gets a fresh — allocating, but correct — workspace
/// instead of a `RefCell` panic; the outer workspace is restored
/// afterwards, keeping its grown buffers for the next call.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut TraversalScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let out = f(&mut scratch);
        cell.replace(scratch);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RTreeParams;
    use crate::tree::RTree;
    use crp_geom::{HyperRect, Point};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_tree(n: usize) -> RTree<usize> {
        let mut tree = RTree::new(2, RTreeParams::with_fanout(8));
        for i in 0..n {
            tree.insert_point(Point::from([(i % 10) as f64, (i / 10) as f64]), i);
        }
        tree
    }

    fn window(lo: [f64; 2], hi: [f64; 2]) -> HyperRect {
        HyperRect::new(Point::from(lo), Point::from(hi))
    }

    /// Every payload the tree's image reports for `windows`, in visit
    /// order.
    fn collect(tree: &RTree<usize>, windows: &[HyperRect], stats: &mut QueryStats) -> Vec<usize> {
        let mut out = Vec::new();
        tree.frozen().visit_windows(windows, stats, &mut |&i| {
            out.push(i);
            true
        });
        out
    }

    /// The first payload satisfying `pred` inside `window`, aborting the
    /// descent as soon as it is found.
    fn find(
        tree: &RTree<usize>,
        window: &HyperRect,
        stats: &mut QueryStats,
        pred: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let mut found = None;
        tree.frozen()
            .visit_windows(std::slice::from_ref(window), stats, &mut |&i| {
                if pred(i) {
                    found = Some(i);
                }
                found.is_none()
            });
        found
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<(Point, usize)> = (0..400)
            .map(|i| {
                (
                    Point::from([rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)]),
                    i,
                )
            })
            .collect();
        let tree = RTree::bulk_load_points(2, RTreeParams::with_fanout(8), pts.clone());
        for _ in 0..20 {
            let lo = [rng.random_range(0.0..80.0), rng.random_range(0.0..80.0)];
            let w = window(lo, [lo[0] + rng.random_range(0.0..30.0), lo[1] + 20.0]);
            let mut stats = QueryStats::default();
            let mut got = collect(&tree, std::slice::from_ref(&w), &mut stats);
            got.sort_unstable();
            let mut expected: Vec<usize> = pts
                .iter()
                .filter(|(p, _)| w.contains_point(p))
                .map(|(_, i)| *i)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn empty_tree_zero_accesses() {
        let tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(8));
        let mut stats = QueryStats::default();
        let got = collect(&tree, &[window([0.0, 0.0], [10.0, 10.0])], &mut stats);
        assert!(got.is_empty());
        assert_eq!(stats.node_accesses, 0);
    }

    #[test]
    fn multi_window_visits_shared_nodes_once() {
        let tree = grid_tree(100);
        let w1 = window([0.0, 0.0], [3.0, 3.0]);
        let w2 = window([1.0, 1.0], [4.0, 4.0]); // heavy overlap with w1
        let mut multi_stats = QueryStats::default();
        let mut ids = collect(&tree, &[w1.clone(), w2.clone()], &mut multi_stats);
        // Compare against two separate queries with deduplication.
        let mut sep_stats = QueryStats::default();
        let mut sep = collect(&tree, std::slice::from_ref(&w1), &mut sep_stats);
        sep.extend(collect(&tree, std::slice::from_ref(&w2), &mut sep_stats));
        sep.sort_unstable();
        sep.dedup();
        // The multi-query may emit a point twice only if it matches two
        // windows in different leaf entries — not possible here (one entry
        // per point), so dedup only the separate runs.
        ids.sort_unstable();
        assert_eq!(ids, sep);
        assert!(multi_stats.node_accesses <= sep_stats.node_accesses);
    }

    #[test]
    fn existence_query_early_terminates() {
        let tree = grid_tree(100);
        let w = window([0.0, 0.0], [9.0, 9.0]); // everything
        let mut stats_all = QueryStats::default();
        assert_eq!(
            collect(&tree, std::slice::from_ref(&w), &mut stats_all).len(),
            100
        );

        let mut stats_find = QueryStats::default();
        let hit = find(&tree, &w, &mut stats_find, |_| true);
        assert!(hit.is_some());
        assert!(
            stats_find.node_accesses < stats_all.node_accesses,
            "existence query should prune: {} vs {}",
            stats_find.node_accesses,
            stats_all.node_accesses
        );
    }

    #[test]
    fn find_respects_predicate() {
        let tree = grid_tree(100);
        let w = window([0.0, 0.0], [9.0, 9.0]);
        let mut stats = QueryStats::default();
        assert_eq!(find(&tree, &w, &mut stats, |i| i == 77), Some(77));
        assert_eq!(find(&tree, &w, &mut stats, |i| i == 1000), None);
    }

    #[test]
    fn stats_absorb() {
        let mut a = QueryStats {
            node_accesses: 3,
            leaf_accesses: 1,
            ..Default::default()
        };
        a.absorb(QueryStats {
            node_accesses: 4,
            leaf_accesses: 2,
            inserts: 1,
            reinserts: 2,
            refreezes: 3,
            ..Default::default()
        });
        assert_eq!(a.node_accesses, 7);
        assert_eq!(a.leaf_accesses, 3);
        assert_eq!(a.inserts, 1);
        assert_eq!(a.reinserts, 2);
        assert_eq!(a.refreezes, 3);
    }

    #[test]
    fn boundary_intersection_is_closed() {
        let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(4));
        tree.insert_point(Point::from([5.0, 5.0]), 1);
        let w = window([0.0, 0.0], [5.0, 5.0]); // point on corner
        let mut stats = QueryStats::default();
        assert_eq!(collect(&tree, &[w], &mut stats), vec![1]);
    }
}
