//! Property tests for the GEMM kernel tiers: the packed kernels against
//! the naive reference across odd/prime/tiny shapes, the explicit SIMD
//! micro-kernel against the tiled engine, the direct path against the
//! reference loop nests and the weight-gradient path against the packed
//! engine (both bit for bit), the integer datapath against a
//! widened-accumulator reference (exact), the range-copy im2col/col2im
//! against per-element loops (bit for bit), and bitwise thread-count
//! stability of the layers built on top of them.

use proptest::prelude::*;
use safelight_neuro::layers::PatchGeometry;
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

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A row-major `rows × cols` matrix, transposed.
fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; x.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

/// `C += A·Bᵀ` through the public entry point (the weight-gradient path
/// whenever one side is at most two vectors) and through the packed
/// engine of the active tier on an explicitly transposed B; the two must
/// agree bit for bit, on top of a non-zero C.
fn assert_a_bt_matches_packed(m: usize, k: usize, n: usize, salt: f32) {
    let a = deterministic(m * k, salt);
    let b_t = deterministic(n * k, salt + 1.0);
    let mut c_path = deterministic(m * n, salt + 2.0);
    let mut c_packed = c_path.clone();
    matmul_a_bt(&a, &b_t, &mut c_path, m, k, n);
    matmul_with(
        GemmImpl::active(),
        &a,
        &transpose(&b_t, n, k),
        &mut c_packed,
        m,
        k,
        n,
    );
    assert_eq!(
        bits(&c_path),
        bits(&c_packed),
        "a_bt {m}x{k}x{n}: weight-gradient path and packed engine differ"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The direct path (`m·k ≤ 2048`) runs the reference loop nests'
    /// arithmetic — multiply, then add, in `p` order — so `matmul` and
    /// `matmul_at_b` equal them bit for bit, strip edges included.
    #[test]
    fn direct_matmul_and_at_b_equal_reference_bit_for_bit(
        m in 1usize..=40, k in 1usize..=60, n in 1usize..=200, salt in 0.0f32..10.0,
    ) {
        let k = k.min(2048 / m);
        let a = deterministic(m * k, salt);
        let b = deterministic(k * n, salt + 1.0);
        let c0 = deterministic(m * n, salt + 2.0);
        let (mut c_direct, mut c_ref) = (c0.clone(), c0.clone());
        matmul(&a, &b, &mut c_direct, m, k, n);
        reference::matmul(&a, &b, &mut c_ref, m, k, n);
        prop_assert_eq!(bits(&c_direct), bits(&c_ref));
        let a_t = transpose(&a, m, k);
        let (mut c_direct, mut c_ref) = (c0.clone(), c0);
        matmul_at_b(&a_t, &b, &mut c_direct, m, k, n);
        reference::matmul_at_b(&a_t, &b, &mut c_ref, m, k, n);
        prop_assert_eq!(bits(&c_direct), bits(&c_ref));
    }

    /// The weight-gradient path computes the packed engine's chains: one
    /// fused chain from `+0.0` per 256-deep chunk, added into C chunk by
    /// chunk. Depths straddle chunk boundaries; `m`/`n` are rarely tile
    /// multiples; either side may be the small one.
    #[test]
    fn weight_gradient_path_equals_packed_engine_bit_for_bit(
        m in 1usize..=40, n in 1usize..=40, k in 1usize..=700, salt in 0.0f32..10.0,
    ) {
        assert_a_bt_matches_packed(m, k, n, salt);
        // `C += A·B` with a long A (past the direct path) and a small B.
        if m * k > 2048 {
            let a = deterministic(m * k, salt);
            let b = deterministic(k * n, salt + 1.0);
            let mut c_path = deterministic(m * n, salt + 2.0);
            let mut c_packed = c_path.clone();
            matmul(&a, &b, &mut c_path, m, k, n);
            matmul_with(GemmImpl::active(), &a, &b, &mut c_packed, m, k, n);
            prop_assert_eq!(bits(&c_path), bits(&c_packed));
        }
    }
}

/// The conv weight gradients `dW += dY·colᵀ` of CNN_1 (`conv1`, `conv2`)
/// and ResNet18 (stem and stages) plus CNN_1's FC forward, at their exact
/// training shapes.
#[test]
fn conv_weight_gradient_shapes_equal_packed_engine_bit_for_bit() {
    for (m, k, n) in [
        (8, 3136, 25),
        (16, 784, 72),
        (8, 4096, 27),
        (8, 4096, 72),
        (16, 1024, 144),
        (24, 256, 216),
        (32, 64, 288),
        (32, 784, 48),
    ] {
        assert_a_bt_matches_packed(m, k, n, 0.7);
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

/// The per-element im2col: one bounds branch per cell, writing only
/// in-bounds taps of a pre-zeroed buffer.
#[allow(clippy::too_many_arguments)]
fn im2col_oracle(
    (c, h, w, k, s, p): (usize, usize, usize, usize, usize, usize),
    (oh, ow): (usize, usize),
    sample: &[f32],
    col: &mut [f32],
    ld: usize,
    offset: usize,
) {
    for ic in 0..c {
        let plane = &sample[ic * h * w..(ic + 1) * h * w];
        for kh in 0..k {
            for kw in 0..k {
                let row = (ic * k + kh) * k + kw;
                let out_row = &mut col[row * ld + offset..row * ld + offset + oh * ow];
                for oy in 0..oh {
                    let iy = oy * s + kh;
                    if iy < p || iy >= h + p {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = ox * s + kw;
                        if ix < p || ix >= w + p {
                            continue;
                        }
                        out_row[oy * ow + ox] = plane[(iy - p) * w + (ix - p)];
                    }
                }
            }
        }
    }
}

/// The per-element col2im, summing in the same `(row, oy, ox)` order.
fn col2im_oracle(
    (c, h, w, k, s, p): (usize, usize, usize, usize, usize, usize),
    (oh, ow): (usize, usize),
    col: &[f32],
    ld: usize,
    offset: usize,
    grad: &mut [f32],
) {
    for ic in 0..c {
        for kh in 0..k {
            for kw in 0..k {
                let row = (ic * k + kh) * k + kw;
                let col_row = &col[row * ld + offset..row * ld + offset + oh * ow];
                for oy in 0..oh {
                    let iy = oy * s + kh;
                    if iy < p || iy >= h + p {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = ox * s + kw;
                        if ix < p || ix >= w + p {
                            continue;
                        }
                        grad[(ic * h + iy - p) * w + (ix - p)] += col_row[oy * ow + ox];
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The range-copy gather and scatter equal the per-element loops bit
    /// for bit, for every kernel/stride/padding mix on odd image sizes,
    /// with two samples side by side in one block matrix. The gather
    /// writes every cell itself (the buffer starts as NaN); the scatter
    /// adds onto existing gradient values in the same order.
    #[test]
    fn range_im2col_col2im_match_per_element_loops(
        ki in 0usize..4, s in 1usize..3, p in 0usize..4,
        hi in 0usize..6, wi in 0usize..6, c in 1usize..3, salt in 0.0f32..10.0,
    ) {
        let k: usize = [1, 3, 5, 7][ki];
        let (h, w) = (2 * hi + 1, 2 * wi + 1);
        // Raise the padding just enough for the kernel to fit (a 7×7
        // kernel on a 1×1 image needs padding 3).
        let p = p.max(k.saturating_sub(h.min(w)).div_ceil(2));
        let geom = PatchGeometry::new(c, h, w, k, s, p).unwrap();
        let (oh, ow) = geom.output_hw();
        let dims = (c, h, w, k, s, p);
        let per_sample = c * h * w;
        let ncols = 2 * oh * ow;
        let input = deterministic(2 * per_sample, salt);

        let mut col = vec![f32::NAN; geom.rows() * ncols];
        let mut expected = vec![0.0f32; geom.rows() * ncols];
        for si in 0..2 {
            let sample = &input[si * per_sample..(si + 1) * per_sample];
            geom.im2col(sample, &mut col, ncols, si * oh * ow);
            im2col_oracle(dims, (oh, ow), sample, &mut expected, ncols, si * oh * ow);
        }
        prop_assert_eq!(bits(&col), bits(&expected));

        let grad_col = deterministic(geom.rows() * ncols, salt + 3.0);
        let mut grad = deterministic(2 * per_sample, salt + 5.0);
        let mut expected = grad.clone();
        for si in 0..2 {
            let range = si * per_sample..(si + 1) * per_sample;
            geom.col2im(&grad_col, ncols, si * oh * ow, &mut grad[range.clone()]);
            col2im_oracle(dims, (oh, ow), &grad_col, ncols, si * oh * ow, &mut expected[range]);
        }
        prop_assert_eq!(bits(&grad), bits(&expected));
    }
}

/// ResNet's downsampling shortcut, a stride-2 1×1 projection without
/// padding, on the even sizes the network feeds it.
#[test]
fn strided_projection_gather_matches_per_element_loop() {
    for (c, hw) in [(8, 32), (16, 16), (24, 8), (3, 7)] {
        let geom = PatchGeometry::new(c, hw, hw, 1, 2, 0).unwrap();
        let (oh, ow) = geom.output_hw();
        let input = deterministic(c * hw * hw, 0.3);
        let mut col = vec![f32::NAN; geom.rows() * oh * ow];
        let mut expected = vec![0.0f32; geom.rows() * oh * ow];
        geom.im2col(&input, &mut col, oh * ow, 0);
        im2col_oracle(
            (c, hw, hw, 1, 2, 0),
            (oh, ow),
            &input,
            &mut expected,
            oh * ow,
            0,
        );
        assert_eq!(bits(&col), bits(&expected), "{c}x{hw}x{hw}");
        let mut grad = vec![0.0f32; c * hw * hw];
        let mut expected_grad = grad.clone();
        geom.col2im(&col, oh * ow, 0, &mut grad);
        col2im_oracle(
            (c, hw, hw, 1, 2, 0),
            (oh, ow),
            &col,
            oh * ow,
            0,
            &mut expected_grad,
        );
        assert_eq!(bits(&grad), bits(&expected_grad), "{c}x{hw}x{hw}");
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
