//! A packed, read-only SoA projection of the R*-tree.
//!
//! Stage-1 filtering (Lemma 2 window tests over MBRs) is a read-heavy
//! workload over a structure built for *updates*: the arena tree stores
//! `HyperRect` structs whose corner points heap-allocate their
//! coordinate vectors, so every window test chases two pointers per
//! entry. [`PackedRTree`] freezes the arena into one contiguous,
//! level-ordered image:
//!
//! ```text
//! nodes:  [ root | level h-1 … | level 0 ]      (BFS order, root = 0)
//! lo/hi:  per-axis coordinate slabs, axis-major —
//!         axis a, node n  →  lo[a·slots + n.first .. + n.padded]
//! slots:  child packed-node index (branch) or payload index (leaf)
//! ```
//!
//! Every node's entry row starts on a 64-byte boundary and is padded to
//! a multiple of 8 slots with sentinel rectangles (`lo = +∞`,
//! `hi = −∞`) that can never intersect anything, so a node visit is a
//! branch-free linear scan over cache-line-aligned `f64` rows — and a
//! natural SIMD target. The rect-vs-window kernel comes in an AVX2 and
//! a bit-identical scalar twin behind the same runtime dispatch scheme
//! as the refine stage's `masked_product` (`CRP_KERNEL` env override,
//! [`set_rect_kernel`] pinning): comparisons are exact predicates, so
//! the two kernels produce the same bitmasks on every input.
//!
//! Traversal order, pruning and the [`QueryStats`] node/leaf counters
//! are identical to the pointer tree's ([`WindowQuery`] is implemented
//! by both over the same depth-first contract), which the engine's
//! property tests pin across representations. A frozen image is also a
//! consistent snapshot of one tree state — the copy-on-write substrate
//! the planned epoch-MVCC work builds on — tagged with the source
//! tree's [`generation`](crate::RTree::generation).

use crate::node::NodeEntries;
use crate::query::{with_scratch, QueryStats, WindowQuery};
use crate::tree::RTree;
use crp_geom::HyperRect;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

// --- kernel dispatch (mirrors the refine stage's scheme) -------------

/// Which rect-vs-window kernel the packed traversal uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RectKernel {
    /// Probe CPU features once and pick the fastest available.
    Auto,
    /// Force the portable scalar kernel.
    Scalar,
    /// Force the AVX2 kernel (errors if unsupported).
    Simd,
}

impl FromStr for RectKernel {
    type Err = String;

    /// Strict, case-sensitive: exactly `auto`, `scalar` or `simd`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(RectKernel::Auto),
            "scalar" => Ok(RectKernel::Scalar),
            "simd" => Ok(RectKernel::Simd),
            other => Err(format!(
                "unknown rect kernel '{other}' (expected auto, scalar or simd)"
            )),
        }
    }
}

const KERNEL_UNSET: u8 = 0;
const KERNEL_SCALAR: u8 = 1;
const KERNEL_SIMD: u8 = 2;

/// Process-wide kernel selection, resolved lazily from `CRP_KERNEL`.
static KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNSET);

/// The SIMD kernel handles at most this many axes (register budget for
/// the broadcast window bounds); higher-dimensional trees fall back to
/// the scalar twin, which is unbounded.
const MAX_SIMD_DIM: usize = 8;

/// True when the CPU supports the AVX2 rect kernel.
pub fn rect_simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Pins the rect kernel for this process, overriding `CRP_KERNEL`.
/// [`RectKernel::Simd`] errors when AVX2 is unavailable;
/// [`RectKernel::Auto`] silently falls back to scalar.
pub fn set_rect_kernel(kind: RectKernel) -> Result<(), String> {
    let v = match kind {
        RectKernel::Auto => {
            if rect_simd_supported() {
                KERNEL_SIMD
            } else {
                KERNEL_SCALAR
            }
        }
        RectKernel::Scalar => KERNEL_SCALAR,
        RectKernel::Simd => {
            if !rect_simd_supported() {
                return Err("simd rect kernel requested but AVX2 is not available".into());
            }
            KERNEL_SIMD
        }
    };
    KERNEL.store(v, Ordering::Relaxed);
    Ok(())
}

/// The kernel the next packed traversal will run: `"scalar"` or
/// `"simd"`.
pub fn active_rect_kernel() -> &'static str {
    if resolved() == KERNEL_SIMD {
        "simd"
    } else {
        "scalar"
    }
}

/// Lazily seeds the selection from the `CRP_KERNEL` environment
/// variable (shared with the refine kernels): `scalar` forces the
/// portable twin, `simd` requests AVX2 but degrades silently when
/// unsupported, anything else resolves to the best available.
fn resolved() -> u8 {
    match KERNEL.load(Ordering::Relaxed) {
        KERNEL_UNSET => {
            let v = match std::env::var("CRP_KERNEL").ok().as_deref() {
                Some("scalar") => KERNEL_SCALAR,
                _ => {
                    if rect_simd_supported() {
                        KERNEL_SIMD
                    } else {
                        KERNEL_SCALAR
                    }
                }
            };
            KERNEL.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

// --- the frozen image ------------------------------------------------

/// Entry slots per padding unit — one 64-byte cache line of `f64`s, so
/// every node row starts line-aligned and SIMD chunks never straddle a
/// node boundary.
const PAD: usize = 8;

/// One 64-byte line of coordinates; the alignment anchor of the slabs.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(64))]
struct CacheLine([f64; PAD]);

/// Cache-line-aligned `f64` storage (a plain `Vec<f64>` only guarantees
/// 8-byte alignment).
#[derive(Clone, Debug)]
struct AlignedBuf {
    lines: Vec<CacheLine>,
    len: usize,
}

impl AlignedBuf {
    fn filled(len: usize, value: f64) -> Self {
        Self {
            lines: vec![CacheLine([value; PAD]); len.div_ceil(PAD)],
            len,
        }
    }

    fn as_slice(&self) -> &[f64] {
        // SAFETY: `CacheLine` is `repr(C)` over `[f64; PAD]`, so the
        // line vector is `lines.len() * PAD ≥ len` contiguous f64s.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast::<f64>(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as in `as_slice`.
        unsafe { std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast::<f64>(), self.len) }
    }
}

/// One frozen node: a contiguous, padded span of the entry slabs.
#[derive(Clone, Copy, Debug)]
struct PackedNode {
    /// First entry slot (a multiple of [`PAD`]).
    first: u32,
    /// Live entries.
    count: u32,
    /// Slot count including sentinel padding (a multiple of [`PAD`]).
    padded: u32,
    /// Level-0 node holding payloads rather than children.
    leaf: bool,
}

/// A packed, read-only projection of one [`RTree`] state. Built by
/// [`RTree::freeze`] / cached by [`RTree::frozen`]; the module-level
/// comment at the top of `packed.rs` describes the layout.
#[derive(Clone, Debug)]
pub struct PackedRTree<T> {
    dim: usize,
    len: usize,
    generation: u64,
    height: usize,
    /// Level-ordered (BFS) nodes; the root is node 0.
    nodes: Vec<PackedNode>,
    /// Per-axis lower bounds, axis-major over `slot_count` slots.
    lo: AlignedBuf,
    /// Per-axis upper bounds, same layout as `lo`.
    hi: AlignedBuf,
    /// Per-slot child packed-node index (branch) or payload index
    /// (leaf); `u32::MAX` in sentinel slots.
    slots: Vec<u32>,
    /// Leaf payloads in slab order.
    payloads: Vec<T>,
    /// Total slot count — each axis row of `lo`/`hi` is this long.
    slot_count: usize,
    /// Longest padded node span; sizes the per-node mask scratch.
    max_padded: usize,
}

impl<T: Clone> PackedRTree<T> {
    /// Freezes `tree`'s current state. One pass assigns BFS order and
    /// slab offsets, a second fills the coordinate rows, so the build
    /// is linear in the arena size.
    pub(crate) fn build(tree: &RTree<T>) -> Self {
        let dim = tree.dim();
        if tree.is_empty() {
            return Self {
                dim,
                len: 0,
                generation: tree.generation(),
                height: 0,
                nodes: Vec::new(),
                lo: AlignedBuf::filled(0, f64::INFINITY),
                hi: AlignedBuf::filled(0, f64::NEG_INFINITY),
                slots: Vec::new(),
                payloads: Vec::new(),
                slot_count: 0,
                max_padded: 0,
            };
        }

        // BFS order: parents before children, levels contiguous.
        let mut order = vec![tree.root];
        let mut head = 0;
        while head < order.len() {
            let id = order[head];
            head += 1;
            if let NodeEntries::Branch(v) = &tree.node(id).entries {
                for e in v {
                    order.push(e.child);
                }
            }
        }

        let mut nodes = Vec::with_capacity(order.len());
        let mut slot_count = 0usize;
        let mut max_padded = 0usize;
        for &id in &order {
            let node = tree.node(id);
            let count = node.len();
            let padded = count.next_multiple_of(PAD);
            nodes.push(PackedNode {
                first: slot_count as u32,
                count: count as u32,
                padded: padded as u32,
                leaf: node.is_leaf(),
            });
            slot_count += padded;
            max_padded = max_padded.max(padded);
        }

        // Arena id → packed index, for child links.
        let mut index = vec![u32::MAX; tree.nodes.len()];
        for (pi, id) in order.iter().enumerate() {
            index[id.index()] = pi as u32;
        }

        let mut lo = AlignedBuf::filled(dim * slot_count, f64::INFINITY);
        let mut hi = AlignedBuf::filled(dim * slot_count, f64::NEG_INFINITY);
        let mut slots = vec![u32::MAX; slot_count];
        let mut payloads = Vec::with_capacity(tree.len());
        {
            let lo_s = lo.as_mut_slice();
            let hi_s = hi.as_mut_slice();
            let mut write = |slot: usize, rect: &HyperRect| {
                for a in 0..dim {
                    lo_s[a * slot_count + slot] = rect.lo()[a];
                    hi_s[a * slot_count + slot] = rect.hi()[a];
                }
            };
            for (pi, &id) in order.iter().enumerate() {
                let first = nodes[pi].first as usize;
                match &tree.node(id).entries {
                    NodeEntries::Leaf(v) => {
                        for (j, e) in v.iter().enumerate() {
                            write(first + j, &e.rect);
                            slots[first + j] = payloads.len() as u32;
                            payloads.push(e.data.clone());
                        }
                    }
                    NodeEntries::Branch(v) => {
                        for (j, e) in v.iter().enumerate() {
                            write(first + j, &e.rect);
                            slots[first + j] = index[e.child.index()];
                        }
                    }
                }
            }
        }

        Self {
            dim,
            len: tree.len(),
            generation: tree.generation(),
            height: tree.height(),
            nodes,
            lo,
            hi,
            slots,
            payloads,
            slot_count,
            max_padded,
        }
    }
}

impl<T> PackedRTree<T> {
    /// Dimensionality of the indexed space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of data entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the frozen tree holds no data.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The source tree's mutation counter at freeze time.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Height of the frozen tree (0 when empty).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of frozen nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes of coordinate slab the traversal streams per full scan of
    /// one node span — the effective-bandwidth denominator benches use.
    pub fn node_scan_bytes(&self, entries: usize) -> usize {
        entries * self.dim * 2 * std::mem::size_of::<f64>()
    }

    /// Total live (unpadded) entries across all nodes — the rect tests
    /// a full pointer-tree sweep performs, since the packed image
    /// mirrors the source node structure one-to-one.
    pub fn entry_count(&self) -> usize {
        self.nodes.iter().map(|n| n.count as usize).sum()
    }

    /// Total padded coordinate slots — the rect tests a full packed
    /// sweep performs (sentinel slots are scanned but never match).
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Dispatches the per-node window-mask kernel: sets bit `j` of
    /// `out` iff `windows` contains a rectangle intersecting entry slot
    /// `first + j` (closed boundaries). Sentinel slots never match.
    fn node_mask(
        &self,
        use_simd: bool,
        first: usize,
        padded: usize,
        windows: &[HyperRect],
        out: &mut [u64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if use_simd {
            // SAFETY: `use_simd` is only true when the resolved kernel
            // is SIMD, which requires `is_x86_feature_detected!("avx2")`
            // to have returned true in this process.
            unsafe {
                mask_avx2(
                    self.lo.as_slice(),
                    self.hi.as_slice(),
                    self.dim,
                    self.slot_count,
                    first,
                    padded,
                    windows,
                    out,
                );
            }
            return;
        }
        let _ = use_simd;
        mask_scalar(
            self.lo.as_slice(),
            self.hi.as_slice(),
            self.dim,
            self.slot_count,
            first,
            padded,
            windows,
            out,
        );
    }
}

impl<T> WindowQuery<T> for PackedRTree<T> {
    /// The packed descent: one window-mask kernel call per visited
    /// node, then a bit-scan over the matching slots. Matching children
    /// are pushed in reverse entry order so they pop — and are visited
    /// — in entry order, exactly like the pointer descent.
    fn visit_windows<'a>(
        &'a self,
        windows: &[HyperRect],
        stats: &mut QueryStats,
        visitor: &mut dyn FnMut(&'a T) -> bool,
    ) -> bool {
        if self.len == 0 || windows.is_empty() {
            return true;
        }
        #[cfg(target_arch = "x86_64")]
        let use_simd = self.dim <= MAX_SIMD_DIM && resolved() == KERNEL_SIMD;
        #[cfg(not(target_arch = "x86_64"))]
        let use_simd = false;

        with_scratch(|scratch| {
            let stack = &mut scratch.packed_stack;
            let mask = &mut scratch.mask;
            mask.clear();
            mask.resize(self.max_padded.div_ceil(64), 0);
            stack.clear();
            stack.push(0);

            while let Some(node_idx) = stack.pop() {
                let node = self.nodes[node_idx as usize];
                let first = node.first as usize;
                let padded = node.padded as usize;
                let words = &mut mask[..padded.div_ceil(64)];
                stats.node_accesses += 1;
                words.fill(0);
                self.node_mask(use_simd, first, padded, windows, words);

                // Only set bits are walked (sentinel slots never match,
                // so padding bits are always clear): a bit-scan instead
                // of a per-slot loop.
                if node.leaf {
                    stats.leaf_accesses += 1;
                    for (wi, &word) in words.iter().enumerate() {
                        let mut w = word;
                        while w != 0 {
                            let j = wi * 64 + w.trailing_zeros() as usize;
                            w &= w - 1;
                            if !visitor(&self.payloads[self.slots[first + j] as usize]) {
                                stack.clear();
                                return false;
                            }
                        }
                    }
                } else {
                    for (wi, &word) in words.iter().enumerate().rev() {
                        let mut w = word;
                        while w != 0 {
                            let b = 63 - w.leading_zeros() as usize;
                            w &= !(1u64 << b);
                            stack.push(self.slots[first + wi * 64 + b]);
                        }
                    }
                }
            }
            true
        })
    }
}

/// The portable window-mask kernel: the reference the AVX2 twin is
/// bit-identical to (both evaluate the same exact `<=` predicates; the
/// only difference is four entries per step).
#[allow(clippy::too_many_arguments)]
fn mask_scalar(
    lo: &[f64],
    hi: &[f64],
    dim: usize,
    slot_count: usize,
    first: usize,
    padded: usize,
    windows: &[HyperRect],
    out: &mut [u64],
) {
    for w in windows {
        for j in 0..padded {
            let mut ok = true;
            for a in 0..dim {
                let idx = a * slot_count + first + j;
                ok &= lo[idx] <= w.hi()[a] && w.lo()[a] <= hi[idx];
            }
            if ok {
                out[j / 64] |= 1u64 << (j % 64);
            }
        }
    }
}

/// The AVX2 window-mask kernel: four entry slots per step, per-axis
/// window bounds broadcast once per window.
///
/// # Safety
///
/// The caller must ensure AVX2 is available (runtime-detected by the
/// dispatcher) and `dim <= MAX_SIMD_DIM`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn mask_avx2(
    lo: &[f64],
    hi: &[f64],
    dim: usize,
    slot_count: usize,
    first: usize,
    padded: usize,
    windows: &[HyperRect],
    out: &mut [u64],
) {
    use std::arch::x86_64::*;
    debug_assert!(dim <= MAX_SIMD_DIM);
    debug_assert_eq!(first % PAD, 0);
    debug_assert_eq!(padded % PAD, 0);
    for w in windows {
        let mut whi = [_mm256_setzero_pd(); MAX_SIMD_DIM];
        let mut wlo = [_mm256_setzero_pd(); MAX_SIMD_DIM];
        for a in 0..dim {
            whi[a] = _mm256_set1_pd(w.hi()[a]);
            wlo[a] = _mm256_set1_pd(w.lo()[a]);
        }
        let mut j = 0;
        while j < padded {
            let mut acc = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
            for a in 0..dim {
                let idx = a * slot_count + first + j;
                // SAFETY: each axis row is `slot_count` slots long and
                // `first + padded <= slot_count`, so `idx + 3` stays
                // inside the slab.
                let lv = _mm256_loadu_pd(lo.as_ptr().add(idx));
                let hv = _mm256_loadu_pd(hi.as_ptr().add(idx));
                acc = _mm256_and_pd(acc, _mm256_cmp_pd::<_CMP_LE_OQ>(lv, whi[a]));
                acc = _mm256_and_pd(acc, _mm256_cmp_pd::<_CMP_LE_OQ>(wlo[a], hv));
            }
            let bits = _mm256_movemask_pd(acc) as u64 & 0xF;
            out[j / 64] |= bits << (j % 64);
            j += 4;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RTreeParams;
    use crp_geom::Point;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rects(n: usize, dim: usize, seed: u64) -> Vec<(HyperRect, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let lo: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..100.0)).collect();
                let hi: Vec<f64> = lo.iter().map(|&l| l + rng.random_range(0.0..8.0)).collect();
                (HyperRect::new(Point::new(lo), Point::new(hi)), i)
            })
            .collect()
    }

    fn random_windows(n: usize, dim: usize, seed: u64) -> Vec<HyperRect> {
        random_rects(n, dim, seed)
            .into_iter()
            .map(|(r, _)| r)
            .collect()
    }

    fn hits_and_stats<Q: WindowQuery<usize>>(
        tree: &Q,
        windows: &[HyperRect],
    ) -> (Vec<usize>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut out = Vec::new();
        tree.visit_windows(windows, &mut stats, &mut |&i| {
            out.push(i);
            true
        });
        (out, stats)
    }

    #[test]
    fn packed_matches_pointer_on_incrementally_built_trees() {
        for dim in [2usize, 3, 5] {
            let mut tree: RTree<usize> = RTree::new(dim, RTreeParams::with_fanout(8));
            for (r, i) in random_rects(500, dim, 11 + dim as u64) {
                tree.insert(r, i);
            }
            let packed = tree.freeze();
            assert_eq!(packed.len(), tree.len());
            assert_eq!(packed.height(), tree.height());
            for seed in 0..8u64 {
                let windows = random_windows(3, dim, 100 + seed);
                let (a, a_stats) = hits_and_stats(&tree, &windows);
                let (b, b_stats) = hits_and_stats(&packed, &windows);
                assert_eq!(a, b, "dim={dim} seed={seed}: hit order must match");
                assert_eq!(
                    a_stats, b_stats,
                    "dim={dim} seed={seed}: counters must match"
                );
            }
        }
    }

    #[test]
    fn packed_matches_pointer_on_bulk_loaded_trees() {
        let tree: RTree<usize> =
            RTree::bulk_load(3, RTreeParams::with_fanout(16), random_rects(4_000, 3, 7));
        let packed = tree.freeze();
        for seed in 0..6u64 {
            let windows = random_windows(4, 3, 300 + seed);
            let (a, a_stats) = hits_and_stats(&tree, &windows);
            let (b, b_stats) = hits_and_stats(&packed, &windows);
            assert_eq!(a, b);
            assert_eq!(a_stats, b_stats);
        }
    }

    #[test]
    fn scalar_and_simd_masks_are_bit_identical() {
        if !rect_simd_supported() {
            return;
        }
        let tree: RTree<usize> =
            RTree::bulk_load(3, RTreeParams::with_fanout(32), random_rects(2_000, 3, 21));
        let packed = tree.freeze();
        let windows = random_windows(5, 3, 99);
        for node in &packed.nodes {
            let span = (node.padded as usize).div_ceil(64);
            let mut scalar = vec![0u64; span];
            let mut simd = vec![0u64; span];
            mask_scalar(
                packed.lo.as_slice(),
                packed.hi.as_slice(),
                packed.dim,
                packed.slot_count,
                node.first as usize,
                node.padded as usize,
                &windows,
                &mut scalar,
            );
            // SAFETY: guarded by `rect_simd_supported()` above.
            unsafe {
                mask_avx2(
                    packed.lo.as_slice(),
                    packed.hi.as_slice(),
                    packed.dim,
                    packed.slot_count,
                    node.first as usize,
                    node.padded as usize,
                    &windows,
                    &mut simd,
                );
            }
            assert_eq!(scalar, simd);
        }
    }

    #[test]
    fn early_abort_stops_the_whole_traversal() {
        let tree: RTree<usize> =
            RTree::bulk_load(2, RTreeParams::with_fanout(8), random_rects(1_000, 2, 9));
        let packed = tree.freeze();
        let everything = vec![HyperRect::new(
            Point::from([-1.0, -1.0]),
            Point::from([200.0, 200.0]),
        )];
        let (_, full) = hits_and_stats(&packed, &everything);
        let mut stats = QueryStats::default();
        let mut seen = 0usize;
        let aborted = !packed.visit_windows(&everything, &mut stats, &mut |_| {
            seen += 1;
            false
        });
        assert!(aborted);
        assert_eq!(seen, 1);
        assert!(stats.node_accesses < full.node_accesses);

        // Pointer parity on the abort path too.
        let mut p_stats = QueryStats::default();
        let mut p_seen = 0usize;
        let p_aborted = !WindowQuery::visit_windows(&tree, &everything, &mut p_stats, &mut |_| {
            p_seen += 1;
            false
        });
        assert!(p_aborted);
        assert_eq!(p_seen, 1);
        assert_eq!(p_stats, stats);
    }

    #[test]
    fn freeze_is_generation_tagged_and_invalidated_by_mutation() {
        let mut tree: RTree<usize> = RTree::new(2, RTreeParams::with_fanout(4));
        for i in 0..50usize {
            tree.insert_point(Point::from([i as f64, (i * 7 % 13) as f64]), i);
        }
        let gen_before = tree.generation();
        let frozen_gen = tree.frozen().generation();
        assert_eq!(frozen_gen, gen_before);
        // Cached until a mutation: same image, same tag.
        assert_eq!(tree.frozen().generation(), frozen_gen);

        tree.insert_point(Point::from([1000.0, 1000.0]), 999);
        assert!(tree.generation() > gen_before);
        let refrozen = tree.frozen();
        assert_eq!(refrozen.generation(), tree.generation());
        // The rebuilt image sees the new entry.
        let w = HyperRect::new(Point::from([999.0, 999.0]), Point::from([1001.0, 1001.0]));
        let mut stats = QueryStats::default();
        let mut hits = Vec::new();
        refrozen.visit_windows(std::slice::from_ref(&w), &mut stats, &mut |&i| {
            hits.push(i);
            true
        });
        assert_eq!(hits, vec![999]);

        // remove() invalidates too; removing a missing entry does not.
        let gen_mid = tree.generation();
        assert!(!tree.remove(&w, &0));
        assert_eq!(tree.generation(), gen_mid);
        let rect0 = HyperRect::from_point(&Point::from([0.0, 0.0]));
        assert!(tree.remove(&rect0, &0));
        assert!(tree.generation() > gen_mid);
        assert_eq!(tree.frozen().generation(), tree.generation());
    }

    #[test]
    fn empty_tree_freezes_to_zero_access_image() {
        let tree: RTree<usize> = RTree::new(3, RTreeParams::with_fanout(8));
        let packed = tree.freeze();
        assert!(packed.is_empty());
        assert_eq!(packed.node_count(), 0);
        let w = HyperRect::new(Point::from([0.0; 3]), Point::from([1.0; 3]));
        let (hits, stats) = hits_and_stats(&packed, std::slice::from_ref(&w));
        assert!(hits.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn rect_kernel_parse_is_strict() {
        assert_eq!("auto".parse::<RectKernel>(), Ok(RectKernel::Auto));
        assert_eq!("scalar".parse::<RectKernel>(), Ok(RectKernel::Scalar));
        assert_eq!("simd".parse::<RectKernel>(), Ok(RectKernel::Simd));
        for bad in ["AVX2", "Scalar", "SIMD", "fast", "", "auto "] {
            assert!(
                bad.parse::<RectKernel>().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn set_rect_kernel_roundtrip() {
        // Forcing scalar always works and is observable.
        set_rect_kernel(RectKernel::Scalar).expect("scalar is always available");
        assert_eq!(active_rect_kernel(), "scalar");
        if rect_simd_supported() {
            set_rect_kernel(RectKernel::Simd).expect("supported");
            assert_eq!(active_rect_kernel(), "simd");
        } else {
            assert!(set_rect_kernel(RectKernel::Simd).is_err());
        }
        // Restore the default for other tests in this process.
        set_rect_kernel(RectKernel::Auto).expect("auto never fails");
    }
}
