//! Property tests for the GEMM kernel tiers: the packed kernels against
//! the naive reference across odd/prime/tiny shapes, the explicit SIMD
//! micro-kernel against the tiled engine, the integer datapath against a
//! widened-accumulator reference (exact), and bitwise thread-count
//! stability of the layers built on top of them.

use proptest::prelude::*;
use safelight_neuro::linalg::{int, reference};
use safelight_neuro::{
    matmul, matmul_a_bt, matmul_at_b, matmul_with, Conv2d, GemmImpl, Layer, Linear, Tensor,
};

/// The awkward dimensions the tiling must survive: unit, primes straddling
/// the micro-kernel (MR=4, NR=16), and boundary-crossing sizes.
const DIMS: [usize; 6] = [1, 3, 7, 17, 64, 129];

fn deterministic(len: usize, salt: f32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32).mul_add(0.37, salt)).sin() * 0.5)
        .collect()
}

/// Element-wise comparison with a tolerance scaled to the reduction depth
/// (the tiled engine sums in panel order, the reference row by row).
fn assert_close(tiled: &[f32], reference: &[f32], k: usize, label: &str) {
    let tol = 1e-6 * (k as f32).max(1.0);
    for (i, (a, b)) in tiled.iter().zip(reference).enumerate() {
        assert!(
            (a - b).abs() <= tol * b.abs().max(1.0),
            "{label}: element {i} diverged: tiled {a} vs reference {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `C += A·B` agrees with the reference at every dimension triple from
    /// the awkward set.
    #[test]
    fn tiled_matmul_matches_reference(
        mi in 0usize..6, ki in 0usize..6, ni in 0usize..6, salt in 0.0f32..10.0,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = deterministic(m * k, salt);
        let b = deterministic(k * n, salt + 1.0);
        let mut c_tiled = deterministic(m * n, salt + 2.0);
        let mut c_ref = c_tiled.clone();
        matmul(&a, &b, &mut c_tiled, m, k, n);
        reference::matmul(&a, &b, &mut c_ref, m, k, n);
        assert_close(&c_tiled, &c_ref, k, "matmul");
    }

    /// `C += A·Bᵀ` agrees with the reference.
    #[test]
    fn tiled_a_bt_matches_reference(
        mi in 0usize..6, ki in 0usize..6, ni in 0usize..6, salt in 0.0f32..10.0,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a = deterministic(m * k, salt);
        let b_t = deterministic(n * k, salt + 1.0);
        let mut c_tiled = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        matmul_a_bt(&a, &b_t, &mut c_tiled, m, k, n);
        reference::matmul_a_bt(&a, &b_t, &mut c_ref, m, k, n);
        assert_close(&c_tiled, &c_ref, k, "matmul_a_bt");
    }

    /// `C += Aᵀ·B` agrees with the reference.
    #[test]
    fn tiled_at_b_matches_reference(
        mi in 0usize..6, ki in 0usize..6, ni in 0usize..6, salt in 0.0f32..10.0,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a_t = deterministic(k * m, salt);
        let b = deterministic(k * n, salt + 1.0);
        let mut c_tiled = vec![0.0; m * n];
        let mut c_ref = vec![0.0; m * n];
        matmul_at_b(&a_t, &b, &mut c_tiled, m, k, n);
        reference::matmul_at_b(&a_t, &b, &mut c_ref, m, k, n);
        assert_close(&c_tiled, &c_ref, k, "matmul_at_b");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The explicit SIMD micro-kernel tier agrees with the tiled engine at
    /// every dimension triple from the awkward set. (On machines without
    /// AVX2 the SIMD tier is unavailable and the property is vacuous.)
    #[test]
    fn simd_matmul_matches_tiled(
        mi in 0usize..6, ki in 0usize..6, ni in 0usize..6, salt in 0.0f32..10.0,
    ) {
        if GemmImpl::Simd.is_available() {
            let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
            let a = deterministic(m * k, salt);
            let b = deterministic(k * n, salt + 1.0);
            let mut c_simd = deterministic(m * n, salt + 2.0);
            let mut c_tiled = c_simd.clone();
            matmul_with(GemmImpl::Simd, &a, &b, &mut c_simd, m, k, n);
            matmul_with(GemmImpl::Tiled, &a, &b, &mut c_tiled, m, k, n);
            assert_close(&c_simd, &c_tiled, k, "simd matmul");
        }
    }

    /// The vectorized integer GEMMs are *exact*: i32 accumulation agrees
    /// bit-for-bit with an i64 widened-accumulator reference at every
    /// awkward shape (the overflow contract k·max|a|·max|b| < 2³¹ holds
    /// for i8 codes at every k in the set, and for the bounded i16 codes
    /// the quantizer emits).
    #[test]
    fn int_gemm_is_exact_vs_widened_reference(
        mi in 0usize..6, ki in 0usize..6, ni in 0usize..6, salt in 1u64..1000,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let code = |len: usize, s: u64| -> Vec<i64> {
            (0..len)
                .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(s) % 255) as i64 - 127)
                .collect()
        };
        let a = code(m * k, salt);
        let b = code(n * k, salt + 7);

        let a8: Vec<i8> = a.iter().map(|&v| v as i8).collect();
        let b8: Vec<i8> = b.iter().map(|&v| v as i8).collect();
        let mut c8 = vec![0i32; m * n];
        let mut c8_ref = vec![0i64; m * n];
        int::matmul_i8_a_bt(&a8, &b8, &mut c8, m, k, n);
        int::reference::matmul_i8_a_bt(&a8, &b8, &mut c8_ref, m, k, n);
        prop_assert!(
            c8.iter().zip(&c8_ref).all(|(&x, &y)| i64::from(x) == y),
            "i8 GEMM diverged from widened reference at {m}x{k}x{n}"
        );

        // ±3175 keeps the contract at the deepest k in the set:
        // 129 · 3175² ≈ 1.3e9 < 2³¹.
        let a16: Vec<i16> = a.iter().map(|&v| (v * 25) as i16).collect();
        let b16: Vec<i16> = b.iter().map(|&v| (v * 25) as i16).collect();
        let mut c16 = vec![0i32; m * n];
        let mut c16_ref = vec![0i64; m * n];
        int::matmul_i16_a_bt(&a16, &b16, &mut c16, m, k, n);
        int::reference::matmul_i16_a_bt(&a16, &b16, &mut c16_ref, m, k, n);
        prop_assert!(
            c16.iter().zip(&c16_ref).all(|(&x, &y)| i64::from(x) == y),
            "i16 GEMM diverged from widened reference at {m}x{k}x{n}"
        );
    }
}

/// Every available kernel tier is bitwise stable under row decomposition:
/// computing `C` in one call agrees exactly with computing disjoint row
/// blocks in separate calls. The batch-parallel layers split work exactly
/// this way, so this is the GEMM-level form of "thread count cannot change
/// the bits" — per tier, not just for whichever tier is active.
#[test]
fn kernel_tiers_are_bit_stable_under_row_decomposition() {
    let (m, k, n) = (37usize, 129, 65);
    let a = deterministic(m * k, 0.3);
    let b = deterministic(k * n, 1.3);
    for imp in GemmImpl::all() {
        if !imp.is_available() {
            continue;
        }
        let mut whole = vec![0.0f32; m * n];
        matmul_with(imp, &a, &b, &mut whole, m, k, n);
        for blocks in [2usize, 3, 5] {
            let mut split = vec![0.0f32; m * n];
            let rows = m.div_ceil(blocks);
            let mut i0 = 0;
            while i0 < m {
                let i1 = (i0 + rows).min(m);
                matmul_with(
                    imp,
                    &a[i0 * k..i1 * k],
                    &b,
                    &mut split[i0 * n..i1 * n],
                    i1 - i0,
                    k,
                    n,
                );
                i0 = i1;
            }
            assert_eq!(
                whole,
                split,
                "kernel `{}` not bit-stable at {blocks}-way row split",
                imp.name()
            );
        }
    }
}

/// Runs one conv forward+backward at the given thread setting, returning
/// `(output, grad_input, grad_weight, grad_bias)`.
fn conv_pass(threads: usize, batch: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut conv = Conv2d::new(3, 5, 3, 11).unwrap().with_threads(threads);
    let x = Tensor::from_vec(vec![batch, 3, 9, 9], deterministic(batch * 3 * 9 * 9, 0.5)).unwrap();
    let y = conv.forward(&x, true).unwrap();
    let g = Tensor::from_vec(y.shape().to_vec(), deterministic(y.as_slice().len(), 1.5)).unwrap();
    let gx = conv.backward(&g).unwrap();
    let params = conv.params();
    (
        y.as_slice().to_vec(),
        gx.as_slice().to_vec(),
        params[0].grad.as_slice().to_vec(),
        params[1].grad.as_slice().to_vec(),
    )
}

/// Conv forward *and backward* are bitwise identical across thread counts:
/// the fixed-block batch decomposition pins the gradient reduction order.
#[test]
fn conv_backward_is_bit_stable_across_thread_counts() {
    for batch in [1usize, 3, 7, 8] {
        let baseline = conv_pass(1, batch);
        for threads in [2usize, 4] {
            let run = conv_pass(threads, batch);
            assert_eq!(
                baseline.0, run.0,
                "forward diverged (batch {batch}, {threads}t)"
            );
            assert_eq!(
                baseline.1, run.1,
                "grad_input diverged (batch {batch}, {threads}t)"
            );
            assert_eq!(
                baseline.2, run.2,
                "grad_weight diverged (batch {batch}, {threads}t)"
            );
            assert_eq!(
                baseline.3, run.3,
                "grad_bias diverged (batch {batch}, {threads}t)"
            );
        }
    }
}

/// Linear backward reduces the batch inside a single GEMM whose panel
/// order is fixed, so gradients are bitwise reproducible call over call and
/// across pool configurations.
#[test]
fn linear_backward_is_bit_stable_across_repeats() {
    let run = || {
        let mut fc = Linear::new(129, 17, 5).unwrap();
        let x = Tensor::from_vec(vec![33, 129], deterministic(33 * 129, 0.25)).unwrap();
        let y = fc.forward(&x, true).unwrap();
        let g =
            Tensor::from_vec(y.shape().to_vec(), deterministic(y.as_slice().len(), 0.75)).unwrap();
        let gx = fc.backward(&g).unwrap();
        let params = fc.params();
        (
            y.as_slice().to_vec(),
            gx.as_slice().to_vec(),
            params[0].grad.as_slice().to_vec(),
        )
    };
    let first = run();
    for _ in 0..3 {
        let again = run();
        assert_eq!(first.0, again.0);
        assert_eq!(first.1, again.1);
        assert_eq!(first.2, again.2);
    }
}
