//! Queries with node-access accounting.
//!
//! Every window query in this crate — single-window, multi-window
//! (Algorithm 1's RecList descent) and the fused multi-*query* descent
//! of the packed projection — is one traversal contract,
//! [`WindowQuery`], implemented exactly once per tree representation:
//! the pointer tree's core is [`RTree::visit_grouped_core`], the packed
//! tree's is `PackedRTree::visit_grouped_stats`. The four public query
//! entry points are thin wrappers, so traversal order, pruning and the
//! node-access counters cannot drift between them.

use crate::node::{NodeEntries, NodeId};
use crate::tree::RTree;
use crp_geom::HyperRect;
use std::cell::RefCell;

/// Accumulates the I/O metric the paper reports — the number of tree
/// nodes touched by queries — plus the maintenance and cache counters a
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
    /// Explanation-cache hits (row or outcome) of the engine session.
    pub cache_hits: u64,
    /// Explanation-cache misses of the engine session.
    pub cache_misses: u64,
    /// Explanation-cache entries evicted by update invalidation.
    pub cache_evictions: u64,
    /// Contingency-condition classifications answered by the refine
    /// stage's fast evaluator (columnar product or incremental
    /// log-space delta) without an exact re-verification.
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
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
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

/// Reusable traversal workspace: the DFS stacks and the packed
/// projection's mask/liveness buffers. One instance lives per thread
/// (see [`with_scratch`]), so steady-state traversals allocate nothing —
/// a property pinned by the crate's counting-allocator test.
#[derive(Default)]
pub(crate) struct TraversalScratch {
    /// Pending pointer-tree nodes (DFS order).
    pub(crate) stack: Vec<NodeId>,
    /// Pending packed nodes with their live-frame offsets.
    pub(crate) packed_stack: Vec<(u32, u32)>,
    /// Per-group entry-match bitmasks of the node being visited.
    pub(crate) masks: Vec<u64>,
    /// Live-group bitset frames, one per pushed packed node.
    pub(crate) live: Vec<u64>,
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

/// The traversal contract shared by the pointer [`RTree`] and its
/// packed read-only projection
/// ([`PackedRTree`](crate::PackedRTree)): one depth-first descent
/// serving one *or many* window queries. Stage-1 filtering in the
/// engine crate is generic over this trait, so the pointer and packed
/// paths run bit-identical filter code.
pub trait WindowQuery<T> {
    /// Fused multi-query traversal: each element of `groups` is one
    /// query's window list, and a single descent serves them all — a
    /// child is entered when *any* group's window intersects its entry
    /// rectangle, and `visitor` receives `(group index, payload)` for
    /// every (group, entry) match, entries in depth-first entry order,
    /// groups in ascending order per entry. Returning `false` aborts
    /// the whole traversal (the return value is `false` iff aborted).
    ///
    /// Per-group hit sequences are identical to running each group
    /// alone: window/rectangle intersection is containment-monotone
    /// (a window missing a node's entry rectangle cannot intersect any
    /// rectangle inside it), so a group never matches an entry below a
    /// branch it would itself have pruned. `stats` counts each
    /// *physical* node visit once — the fused descent's whole point is
    /// that this union cost is below the per-group sum.
    fn visit_grouped<'a>(
        &'a self,
        groups: &[&[HyperRect]],
        stats: &mut QueryStats,
        visitor: &mut dyn FnMut(usize, &'a T) -> bool,
    ) -> bool;

    /// Single-query any-window traversal — group 0 of
    /// [`WindowQuery::visit_grouped`].
    fn visit_windows<'a>(
        &'a self,
        windows: &[HyperRect],
        stats: &mut QueryStats,
        visitor: &mut dyn FnMut(&'a T) -> bool,
    ) -> bool {
        self.visit_grouped(&[windows], stats, &mut |_, t| visitor(t))
    }
}

impl<T> WindowQuery<T> for RTree<T> {
    fn visit_grouped<'a>(
        &'a self,
        groups: &[&[HyperRect]],
        stats: &mut QueryStats,
        visitor: &mut dyn FnMut(usize, &'a T) -> bool,
    ) -> bool {
        self.visit_grouped_core(groups, stats, &mut |g, _, t| visitor(g, t))
    }
}

impl<T> RTree<T> {
    /// Visits every data entry whose rectangle intersects `window`
    /// (closed-boundary semantics).
    pub fn range_intersect(
        &self,
        window: &HyperRect,
        stats: &mut QueryStats,
        mut visitor: impl FnMut(&HyperRect, &T),
    ) {
        self.visit_grouped_core(&[std::slice::from_ref(window)], stats, &mut |_, r, t| {
            visitor(r, t);
            true
        });
    }

    /// Visits every data entry whose rectangle intersects *any* of the
    /// `windows` — the RecList traversal of Algorithm 1 (CP filtering):
    /// one branch-and-bound descent serves the whole rectangle list, so a
    /// node shared by several windows is read once.
    pub fn range_intersect_any(
        &self,
        windows: &[HyperRect],
        stats: &mut QueryStats,
        mut visitor: impl FnMut(&HyperRect, &T),
    ) {
        self.visit_grouped_core(&[windows], stats, &mut |_, r, t| {
            visitor(r, t);
            true
        });
    }

    /// Existence query: returns the first entry intersecting `window` and
    /// satisfying `pred`, pruning the traversal as soon as it is found.
    pub fn find_intersecting<'a>(
        &'a self,
        window: &HyperRect,
        stats: &mut QueryStats,
        mut pred: impl FnMut(&HyperRect, &T) -> bool,
    ) -> Option<&'a T> {
        let mut found: Option<&'a T> = None;
        self.visit_grouped_core(&[std::slice::from_ref(window)], stats, &mut |_, r, t| {
            if pred(r, t) {
                found = Some(t);
                false // stop traversal
            } else {
                true
            }
        });
        found
    }

    /// Collects the payloads of all entries intersecting `window`.
    pub fn collect_intersecting(&self, window: &HyperRect, stats: &mut QueryStats) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::new();
        self.collect_intersecting_into(window, stats, &mut out);
        out
    }

    /// [`RTree::collect_intersecting`] into a caller-owned buffer:
    /// clears `out`, then fills it. With a warm buffer (and this
    /// thread's traversal stack grown once), repeated queries allocate
    /// nothing.
    pub fn collect_intersecting_into(
        &self,
        window: &HyperRect,
        stats: &mut QueryStats,
        out: &mut Vec<T>,
    ) where
        T: Clone,
    {
        out.clear();
        self.range_intersect(window, stats, |_, t| out.push(t.clone()));
    }

    /// The single traversal core behind every pointer-tree window
    /// query: an iterative depth-first descent over a reusable stack,
    /// visiting nodes in exactly the order the classic recursive
    /// formulation does (children are pushed in reverse entry order).
    /// `stats.node_accesses` advances once per visited node,
    /// `stats.leaf_accesses` once per visited leaf; a `false` from the
    /// visitor aborts the whole traversal with the counters reflecting
    /// the nodes actually read.
    fn visit_grouped_core<'a>(
        &'a self,
        groups: &[&[HyperRect]],
        stats: &mut QueryStats,
        visitor: &mut impl FnMut(usize, &'a HyperRect, &'a T) -> bool,
    ) -> bool {
        if self.is_empty() || groups.iter().all(|g| g.is_empty()) {
            return true;
        }
        with_scratch(|scratch| {
            let stack = &mut scratch.stack;
            stack.clear();
            stack.push(self.root);
            while let Some(id) = stack.pop() {
                stats.node_accesses += 1;
                match &self.node(id).entries {
                    NodeEntries::Leaf(v) => {
                        stats.leaf_accesses += 1;
                        for e in v {
                            for (gi, g) in groups.iter().enumerate() {
                                if g.iter().any(|w| w.intersects(&e.rect))
                                    && !visitor(gi, &e.rect, &e.data)
                                {
                                    stack.clear();
                                    return false;
                                }
                            }
                        }
                    }
                    NodeEntries::Branch(v) => {
                        let before = stack.len();
                        for e in v {
                            if groups
                                .iter()
                                .any(|g| g.iter().any(|w| w.intersects(&e.rect)))
                            {
                                stack.push(e.child);
                            }
                        }
                        stack[before..].reverse();
                    }
                }
            }
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RTreeParams;
    use crp_geom::Point;
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
            let mut got = tree.collect_intersecting(&w, &mut stats);
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
        let got = tree.collect_intersecting(&window([0.0, 0.0], [10.0, 10.0]), &mut stats);
        assert!(got.is_empty());
        assert_eq!(stats.node_accesses, 0);
    }

    #[test]
    fn multi_window_visits_shared_nodes_once() {
        let tree = grid_tree(100);
        let w1 = window([0.0, 0.0], [3.0, 3.0]);
        let w2 = window([1.0, 1.0], [4.0, 4.0]); // heavy overlap with w1
        let mut multi_stats = QueryStats::default();
        let mut ids = Vec::new();
        tree.range_intersect_any(&[w1.clone(), w2.clone()], &mut multi_stats, |_, &i| {
            ids.push(i)
        });
        // Compare against two separate queries with deduplication.
        let mut sep_stats = QueryStats::default();
        let mut sep: Vec<usize> = Vec::new();
        tree.range_intersect(&w1, &mut sep_stats, |_, &i| sep.push(i));
        tree.range_intersect(&w2, &mut sep_stats, |_, &i| sep.push(i));
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
        let mut n = 0u32;
        tree.range_intersect(&w, &mut stats_all, |_, _| n += 1);
        assert_eq!(n, 100);

        let mut stats_find = QueryStats::default();
        let hit = tree.find_intersecting(&w, &mut stats_find, |_, _| true);
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
        let hit = tree.find_intersecting(&w, &mut stats, |_, &i| i == 77);
        assert_eq!(hit, Some(&77));
        let miss = tree.find_intersecting(&w, &mut stats, |_, &i| i == 1000);
        assert_eq!(miss, None);
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
            cache_hits: 3,
            ..Default::default()
        });
        assert_eq!(a.node_accesses, 7);
        assert_eq!(a.leaf_accesses, 3);
        assert_eq!(a.inserts, 1);
        assert_eq!(a.reinserts, 2);
        assert_eq!(a.cache_hits, 3);
    }

    #[test]
    fn grouped_traversal_matches_per_query_runs() {
        let tree = grid_tree(100);
        let g0 = vec![
            window([0.0, 0.0], [2.0, 2.0]),
            window([7.0, 7.0], [9.0, 9.0]),
        ];
        let g1 = vec![window([3.0, 0.0], [5.0, 4.0])];
        let g2: Vec<HyperRect> = Vec::new(); // empty group never matches

        let mut fused_stats = QueryStats::default();
        let mut fused: Vec<Vec<usize>> = vec![Vec::new(); 3];
        WindowQuery::visit_grouped(&tree, &[&g0, &g1, &g2], &mut fused_stats, &mut |g, &i| {
            fused[g].push(i);
            true
        });

        let mut solo_sum = QueryStats::default();
        for (g, windows) in [(0usize, &g0), (1, &g1), (2, &g2)] {
            let mut stats = QueryStats::default();
            let mut solo = Vec::new();
            tree.range_intersect_any(windows, &mut stats, |_, &i| solo.push(i));
            // Per-group hit sequence (including order) identical to the
            // group's solo descent.
            assert_eq!(fused[g], solo, "group {g}");
            solo_sum += stats;
        }
        // One physical descent serves all groups: strictly cheaper than
        // the per-query sum (the root alone is shared by both live
        // groups).
        assert!(fused_stats.node_accesses < solo_sum.node_accesses);
        assert!(fused_stats.leaf_accesses <= solo_sum.leaf_accesses);
    }

    #[test]
    fn visit_windows_trait_matches_range_intersect_any() {
        let tree = grid_tree(100);
        let windows = vec![
            window([1.0, 1.0], [4.0, 3.0]),
            window([6.0, 6.0], [8.0, 8.0]),
        ];
        let mut a_stats = QueryStats::default();
        let mut a = Vec::new();
        tree.range_intersect_any(&windows, &mut a_stats, |_, &i| a.push(i));
        let mut b_stats = QueryStats::default();
        let mut b = Vec::new();
        WindowQuery::visit_windows(&tree, &windows, &mut b_stats, &mut |&i| {
            b.push(i);
            true
        });
        assert_eq!(a, b);
        assert_eq!(a_stats, b_stats);
    }

    #[test]
    fn collect_into_reuses_buffer() {
        let tree = grid_tree(100);
        let mut out = Vec::new();
        let mut stats = QueryStats::default();
        tree.collect_intersecting_into(&window([0.0, 0.0], [3.0, 3.0]), &mut stats, &mut out);
        let first: Vec<usize> = out.clone();
        tree.collect_intersecting_into(&window([0.0, 0.0], [3.0, 3.0]), &mut stats, &mut out);
        assert_eq!(out, first, "buffer is cleared, not appended to");
        assert!(!out.is_empty());
    }

    #[test]
    fn boundary_intersection_is_closed() {
        let mut tree: RTree<u32> = RTree::new(2, RTreeParams::with_fanout(4));
        tree.insert_point(Point::from([5.0, 5.0]), 1);
        let w = window([0.0, 0.0], [5.0, 5.0]); // point on corner
        let mut stats = QueryStats::default();
        let got = tree.collect_intersecting(&w, &mut stats);
        assert_eq!(got, vec![1]);
    }
}
