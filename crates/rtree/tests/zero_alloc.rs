//! Steady-state traversals allocate nothing.
//!
//! The traversal scratch (DFS stack, per-node match mask) is
//! thread-local and reused across calls — so after one warm-up pass,
//! the packed read path must run without touching the allocator. This
//! test pins that with a counting global allocator.
//!
//! It must stay the only `#[test]` in this binary: the harness runs
//! tests in the same process concurrently, and any neighbour's
//! allocations would race the counter.

use crp_geom::{HyperRect, Point};
use crp_rtree::{QueryStats, RTree, RTreeParams};
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
    // tree, its frozen image and the query windows (points
    // heap-allocate their coordinate vectors).
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
    let mut stats = QueryStats::default();

    // Warm-up: grows the thread-local scratch (stack, mask) to its
    // steady-state size.
    packed.visit_windows(&windows, &mut stats, &mut |_| true);

    let before = allocations();
    for _ in 0..64 {
        packed.visit_windows(&windows, &mut stats, &mut |_| true);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state traversals must not allocate"
    );
}
