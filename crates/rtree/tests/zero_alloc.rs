//! Steady-state traversals allocate nothing.
//!
//! The traversal scratch (DFS stacks, packed match mask) is
//! thread-local and reused across calls, and `collect_intersecting_into`
//! writes into a caller-owned buffer — so after one warm-up pass, both
//! the pointer and the packed read paths must run without touching the
//! allocator. This test pins that with a counting global allocator.
//!
//! It must stay the only `#[test]` in this binary: the harness runs
//! tests in the same process concurrently, and any neighbour's
//! allocations would race the counter.

use crp_geom::{HyperRect, Point};
use crp_rtree::{QueryStats, RTree, RTreeParams, WindowQuery};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_traversals_do_not_allocate() {
    // Everything that legitimately allocates happens up front: the
    // tree, its frozen image, the query windows (points heap-allocate
    // their coordinate vectors), and the output buffer.
    let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(8));
    for i in 0..2_000usize {
        let x = (i % 50) as f64;
        let y = (i / 50) as f64;
        tree.insert(
            HyperRect::new(Point::from([x, y]), Point::from([x + 0.8, y + 0.8])),
            i,
        );
    }
    let packed = tree.freeze();
    let windows = [
        HyperRect::new(Point::from([3.0, 3.0]), Point::from([11.0, 11.0])),
        HyperRect::new(Point::from([20.0, 17.0]), Point::from([29.0, 26.0])),
    ];
    let mut out: Vec<usize> = Vec::new();
    let mut stats = QueryStats::default();

    // Warm-up: grows the thread-local scratch (stacks, mask) and the
    // output buffer to their steady-state sizes.
    tree.collect_intersecting_into(&windows[0], &mut stats, &mut out);
    tree.visit_windows(&windows, &mut stats, &mut |_| true);
    packed.visit_windows(&windows, &mut stats, &mut |_| true);

    let before = allocations();
    for _ in 0..64 {
        // Pointer path: single-window collect into the reused buffer,
        // then a multi-window visit.
        tree.collect_intersecting_into(&windows[0], &mut stats, &mut out);
        assert!(!out.is_empty());
        tree.visit_windows(&windows, &mut stats, &mut |_| true);

        // Packed path: the same multi-window visit.
        packed.visit_windows(&windows, &mut stats, &mut |_| true);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state traversals must not allocate"
    );
}
