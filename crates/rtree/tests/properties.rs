//! Property tests: the R*-tree must behave exactly like a brute-force
//! list of `(rect, payload)` pairs under arbitrary operation sequences,
//! while keeping its structural invariants.

use crp_geom::{HyperRect, Point};
use crp_rtree::{QueryStats, RTree, RTreeParams};
use proptest::prelude::*;

/// Sorted payloads the tree's packed image reports for `windows`.
fn hits(tree: &RTree<u32>, windows: &[HyperRect]) -> Vec<u32> {
    let mut out = Vec::new();
    tree.frozen()
        .visit_windows(windows, &mut QueryStats::default(), &mut |&id| {
            out.push(id);
            true
        });
    out.sort_unstable();
    out
}

#[derive(Clone, Debug)]
enum Op {
    Insert { x: f64, y: f64, id: u32 },
    Remove { index: usize },
    Query { cx: f64, cy: f64, hw: f64, hh: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0.0..100.0f64, 0.0..100.0f64, any::<u32>())
            .prop_map(|(x, y, id)| Op::Insert { x: x.round(), y: y.round(), id }),
        1 => any::<prop::sample::Index>().prop_map(|i| Op::Remove { index: i.index(1_000) }),
        2 => (0.0..100.0f64, 0.0..100.0f64, 0.0..40.0f64, 0.0..40.0f64)
            .prop_map(|(cx, cy, hw, hh)| Op::Query { cx, cy, hw, hh }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_mirrors_bruteforce_under_op_sequences(
        ops in prop::collection::vec(op_strategy(), 1..120),
        fanout in 4usize..12,
    ) {
        let mut tree: RTree<u32> = RTree::new(2, RTreeParams::with_fanout(fanout));
        let mut mirror: Vec<(Point, u32)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert { x, y, id } => {
                    let p = Point::from([x, y]);
                    tree.insert_point(p.clone(), id);
                    mirror.push((p, id));
                }
                Op::Remove { index } => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let (p, id) = mirror.swap_remove(index % mirror.len());
                    prop_assert!(tree.remove(&HyperRect::from_point(&p), &id));
                }
                Op::Query { cx, cy, hw, hh } => {
                    let window = HyperRect::centered(&Point::from([cx, cy]), &[hw, hh]);
                    let got = hits(&tree, std::slice::from_ref(&window));
                    let mut want: Vec<u32> = mirror
                        .iter()
                        .filter(|(p, _)| window.contains_point(p))
                        .map(|(_, id)| *id)
                        .collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), mirror.len());
        }
        tree.check_invariants();
    }

    /// The incremental-maintenance contract behind the mutable engine
    /// session: any interleaved insert/remove sequence leaves the tree
    /// query-equivalent to a fresh `bulk_load` of the surviving items,
    /// with the structural invariants (balance, min/max fill, consistent
    /// MBRs) intact and the update-path counters accounted.
    #[test]
    fn interleaved_updates_equal_bulk_load_of_survivors(
        initial in prop::collection::vec((0.0..500.0f64, 0.0..500.0f64), 0..80),
        ops in prop::collection::vec(op_strategy(), 1..150),
        fanout in 4usize..10,
    ) {
        let mut tree: RTree<u32> = RTree::new(2, RTreeParams::with_fanout(fanout));
        let mut live: Vec<(Point, u32)> = Vec::new();
        for (i, (x, y)) in initial.iter().enumerate() {
            let p = Point::from([*x, *y]);
            let id = 1_000_000u32 + i as u32;
            tree.insert_point(p.clone(), id);
            live.push((p, id));
        }
        let (mut inserts, mut removes) = (initial.len() as u64, 0u64);
        for op in ops {
            match op {
                Op::Insert { x, y, id } => {
                    let p = Point::from([x, y]);
                    tree.insert_point(p.clone(), id);
                    live.push((p, id));
                    inserts += 1;
                }
                Op::Remove { index } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (p, id) = live.swap_remove(index % live.len());
                    prop_assert!(tree.remove(&HyperRect::from_point(&p), &id));
                    removes += 1;
                }
                Op::Query { .. } => {}
            }
        }
        tree.check_invariants();
        let upkeep = tree.upkeep();
        prop_assert_eq!(upkeep.inserts, inserts);
        prop_assert_eq!(upkeep.removes, removes);

        // Query-equivalent to a bulk load of the survivors, over the
        // full extent and a grid of local windows.
        let packed: RTree<u32> =
            RTree::bulk_load_points(2, RTreeParams::with_fanout(fanout), live.clone());
        prop_assert_eq!(tree.len(), packed.len());
        let mut windows = vec![HyperRect::centered(
            &Point::from([250.0, 250.0]),
            &[300.0, 300.0],
        )];
        for gx in 0..3 {
            for gy in 0..3 {
                windows.push(HyperRect::centered(
                    &Point::from([100.0 + 150.0 * gx as f64, 100.0 + 150.0 * gy as f64]),
                    &[80.0, 80.0],
                ));
            }
        }
        for window in &windows {
            let window = std::slice::from_ref(window);
            prop_assert_eq!(hits(&tree, window), hits(&packed, window));
        }
    }

    #[test]
    fn bulk_load_equals_incremental_results(
        pts in prop::collection::vec((0.0..1_000.0f64, 0.0..1_000.0f64), 1..300),
        fanout in 4usize..16,
    ) {
        let items: Vec<(Point, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, (x, y))| (Point::from([*x, *y]), i as u32))
            .collect();
        let bulk: RTree<u32> =
            RTree::bulk_load_points(2, RTreeParams::with_fanout(fanout), items.clone());
        let mut incr: RTree<u32> = RTree::new(2, RTreeParams::with_fanout(fanout));
        for (p, id) in &items {
            incr.insert_point(p.clone(), *id);
        }
        bulk.check_invariants();
        incr.check_invariants();
        // Same answers to the same queries.
        for window in [
            HyperRect::centered(&Point::from([250.0, 250.0]), &[250.0, 250.0]),
            HyperRect::centered(&Point::from([900.0, 100.0]), &[150.0, 400.0]),
        ] {
            let window = std::slice::from_ref(&window);
            prop_assert_eq!(hits(&bulk, window), hits(&incr, window));
        }
    }

    #[test]
    fn multi_window_equals_union_of_single_windows(
        pts in prop::collection::vec((0.0..200.0f64, 0.0..200.0f64), 1..150),
        windows in prop::collection::vec(
            (0.0..200.0f64, 0.0..200.0f64, 1.0..60.0f64, 1.0..60.0f64),
            1..5
        ),
    ) {
        let items: Vec<(Point, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, (x, y))| (Point::from([*x, *y]), i as u32))
            .collect();
        let tree: RTree<u32> =
            RTree::bulk_load_points(2, RTreeParams::with_fanout(8), items);
        let rects: Vec<HyperRect> = windows
            .iter()
            .map(|(cx, cy, hw, hh)| HyperRect::centered(&Point::from([*cx, *cy]), &[*hw, *hh]))
            .collect();
        let mut multi = hits(&tree, &rects);
        multi.dedup();
        let mut union: Vec<u32> = Vec::new();
        for r in &rects {
            union.extend(hits(&tree, std::slice::from_ref(r)));
        }
        union.sort_unstable();
        union.dedup();
        prop_assert_eq!(multi, union);
    }
}
