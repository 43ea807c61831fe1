//! The dominance-product compute kernel: explicit AVX2 SIMD with
//! runtime dispatch, plus its bit-identical scalar twin.
//!
//! The refine hot path reduces every subset check to *masked survival
//! products* over sample-major complement rows (see [`crate::matrix`]):
//!
//! ```text
//! Π_c  max(row[c], mask[c])      row[c] = 1 − dp[c][i] ∈ [0, 1]
//! ```
//!
//! where `mask` is the **multiplicative removal mask** — `1.0` for a
//! removed candidate, `0.0` for a present one. Because every complement
//! lies in `[0, 1]` and masks are exactly `0.0`/`1.0`, `max(row, mask)`
//! yields `1.0` (the neutral factor) for removed candidates and the raw
//! complement otherwise — a branchless `vmaxpd` + `vmulpd` stream, no
//! per-lane select and no bool→f64 conversion in the loop.
//!
//! Both kernels use the same 16-element accumulation scheme (4 groups ×
//! 4 lanes; element `16k + 4g + l` lands in group `g`, lane `l`) and the
//! same fixed reduction tree, so the scalar and AVX2 paths are
//! **bit-identical** — dispatch can never flip a classification, not
//! even inside the guard band. The CPU alone picks the kernel: AVX2
//! whenever `is_x86_feature_detected!("avx2")` holds, the portable
//! scalar path otherwise. The build stays plain stable-toolchain
//! `std::arch`, no nightly `std::simd`.

/// True when the AVX2 kernel can run on this machine. std caches the
/// CPUID probe, so a call costs one relaxed atomic load — cheap enough
/// to sit in front of every product.
#[cfg(target_arch = "x86_64")]
#[inline]
fn simd_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Accumulator groups (SIMD registers) and lanes per group. One
/// 16-element step keeps 4 independent `vmulpd` chains in flight, enough
/// to hide the 4-cycle multiply latency on every AVX2 core.
const GROUPS: usize = 4;
const LANES: usize = 4;
const STRIDE: usize = GROUPS * LANES;

/// Masked survival product `Π_c max(row[c], mask[c])`: the AVX2 kernel
/// when the CPU has it, the scalar twin otherwise. `mask[c]` must be
/// exactly `0.0` (present) or `1.0` (removed); `row` values must be
/// finite and non-negative (they are probabilities' complements).
#[inline]
pub fn masked_product(row: &[f64], mask: &[f64]) -> f64 {
    debug_assert_eq!(row.len(), mask.len());
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: `simd_supported()` just confirmed AVX2 via
        // `is_x86_feature_detected!`, so the target features the callee
        // enables are present on this CPU.
        return unsafe { masked_product_avx2(row, mask) };
    }
    masked_product_scalar(row, mask)
}

/// The portable kernel: the same 4×4 accumulation grid and reduction
/// tree as the AVX2 path, so both produce bit-identical products (the
/// compiler is free to auto-vectorize this — the grid is exactly the
/// shape it wants).
pub fn masked_product_scalar(row: &[f64], mask: &[f64]) -> f64 {
    let n = row.len();
    let chunks = n / STRIDE * STRIDE;
    let mut acc = [[1.0f64; LANES]; GROUPS];
    let mut base = 0;
    while base < chunks {
        for (g, group) in acc.iter_mut().enumerate() {
            for (l, slot) in group.iter_mut().enumerate() {
                let k = base + g * LANES + l;
                *slot *= row[k].max(mask[k]);
            }
        }
        base += STRIDE;
    }
    reduce_and_finish(&acc, row, mask, chunks)
}

/// The AVX2 kernel: 4 × 256-bit accumulators, `vmaxpd` + `vmulpd` per
/// 16 elements, then the shared reduction tree.
///
/// # Safety
///
/// The caller must guarantee the CPU supports AVX2 (checked via
/// `is_x86_feature_detected!("avx2")` in [`masked_product`]). `row`
/// and `mask` must be equal-length slices — all loads below stay
/// inside `row[..chunks]` / `mask[..chunks]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn masked_product_avx2(row: &[f64], mask: &[f64]) -> f64 {
    use std::arch::x86_64::{
        _mm256_loadu_pd, _mm256_max_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };
    let n = row.len();
    let chunks = n / STRIDE * STRIDE;
    let mut acc = [_mm256_set1_pd(1.0); GROUPS];
    let rp = row.as_ptr();
    let mp = mask.as_ptr();
    let mut base = 0;
    while base < chunks {
        for (g, slot) in acc.iter_mut().enumerate() {
            // SAFETY: base + g·LANES + 3 < chunks ≤ n, so both unaligned
            // loads read 4 in-bounds f64s.
            let v = unsafe { _mm256_loadu_pd(rp.add(base + g * LANES)) };
            let m = unsafe { _mm256_loadu_pd(mp.add(base + g * LANES)) };
            *slot = _mm256_mul_pd(*slot, _mm256_max_pd(v, m));
        }
        base += STRIDE;
    }
    let mut grid = [[0.0f64; LANES]; GROUPS];
    for (g, slot) in acc.iter().enumerate() {
        // SAFETY: grid[g] is a 4-f64 buffer, exactly one 256-bit store.
        unsafe { _mm256_storeu_pd(grid[g].as_mut_ptr(), *slot) };
    }
    reduce_and_finish(&grid, row, mask, chunks)
}

/// The shared reduction: groups first (`(g0·g1)·(g2·g3)` per lane), then
/// lanes (`(l0·l1)·(l2·l3)`), then the scalar remainder `chunks..n` in
/// order. Keeping this tree identical across kernels is what makes the
/// dispatch bit-transparent.
#[inline]
fn reduce_and_finish(
    acc: &[[f64; LANES]; GROUPS],
    row: &[f64],
    mask: &[f64],
    chunks: usize,
) -> f64 {
    let mut lanes = [0.0f64; LANES];
    for (l, lane) in lanes.iter_mut().enumerate() {
        *lane = (acc[0][l] * acc[1][l]) * (acc[2][l] * acc[3][l]);
    }
    let mut prod = (lanes[0] * lanes[1]) * (lanes[2] * lanes[3]);
    for (v, m) in row[chunks..].iter().zip(&mask[chunks..]) {
        prod *= v.max(*m);
    }
    prod
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definitional product: sequential, removed factors skipped.
    fn naive(row: &[f64], mask: &[f64]) -> f64 {
        row.iter()
            .zip(mask)
            .filter(|(_, &m)| m == 0.0)
            .map(|(&v, _)| v)
            .product()
    }

    fn random_case(rng: &mut StdRng, n: usize, removal: f64) -> (Vec<f64>, Vec<f64>) {
        let row: Vec<f64> = (0..n)
            .map(|_| match rng.random_range(0..4) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.random_range(0.05..1.0),
            })
            .collect();
        let mask: Vec<f64> = (0..n)
            .map(|_| if rng.random_bool(removal) { 1.0 } else { 0.0 })
            .collect();
        (row, mask)
    }

    /// Remainder lanes (`n % 4 != 0`, `n % 16 != 0`), empty rows, and
    /// all-/none-removed masks: the dispatched kernel and, where the CPU
    /// has it, the AVX2 kernel must be bit-identical to the scalar
    /// kernel on every shape.
    #[test]
    fn simd_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(0x51_3D);
        for &n in &[
            0usize, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 48, 63, 64, 100, 257,
        ] {
            for &removal in &[0.0, 0.3, 1.0] {
                for _ in 0..20 {
                    let (row, mask) = random_case(&mut rng, n, removal);
                    let scalar = masked_product_scalar(&row, &mask);
                    let dispatched = masked_product(&row, &mask);
                    assert_eq!(
                        scalar.to_bits(),
                        dispatched.to_bits(),
                        "n={n} removal={removal}: scalar {scalar} vs dispatched {dispatched}"
                    );
                    #[cfg(target_arch = "x86_64")]
                    if simd_supported() {
                        // SAFETY: guarded by `simd_supported()`.
                        let simd = unsafe { masked_product_avx2(&row, &mask) };
                        assert_eq!(
                            scalar.to_bits(),
                            simd.to_bits(),
                            "n={n} removal={removal}: scalar {scalar} vs simd {simd}"
                        );
                    }
                }
            }
        }
    }

    /// Both kernels agree with the definitional sequential product to
    /// reassociation error (orders of magnitude inside the guard band).
    #[test]
    fn kernels_match_naive_within_reassociation_error() {
        let mut rng = StdRng::seed_from_u64(0xACC);
        for &n in &[1usize, 3, 16, 21, 64, 130] {
            for _ in 0..40 {
                let (row, mask) = random_case(&mut rng, n, 0.25);
                let exact = naive(&row, &mask);
                let fast = masked_product_scalar(&row, &mask);
                assert!(
                    (exact - fast).abs() <= 1e-9 * exact.abs().max(1.0),
                    "n={n}: naive {exact} vs scalar {fast}"
                );
            }
        }
    }

    /// All-removed masks multiply nothing but exact 1.0 factors.
    #[test]
    fn all_removed_is_exactly_one() {
        let row: Vec<f64> = (0..37).map(|i| (i as f64) / 40.0).collect();
        let mask = vec![1.0; 37];
        assert_eq!(masked_product_scalar(&row, &mask), 1.0);
        assert_eq!(masked_product(&row, &mask), 1.0);
    }
}
