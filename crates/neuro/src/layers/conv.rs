//! 2-D convolution: im2col + blocked GEMM, and an integer datapath for
//! quantized inference.

use crate::init::he_normal;
use crate::layers::{IntSpec, Layer, Param};
use crate::linalg::int as intgemm;
use crate::linalg::kernel_stats::{self, KernelClass};
use crate::linalg::{matmul, matmul_a_bt, matmul_at_b};
use crate::parallel::map_blocks;
use crate::rng::SimRng;
use crate::scratch::{self, Slot, SlotI16, SlotI32};
use crate::{NeuroError, Tensor};

/// Samples per parallel work block. The block layout depends only on the
/// batch size, never on the thread count, so per-block gradient reductions
/// combine in a fixed order and backward results are bitwise stable across
/// thread counts.
const BATCH_BLOCK: usize = 4;

/// A 2-D convolution over `[N, C, H, W]` batches.
///
/// Weights are stored as `[out_channels, in_channels·k·k]` — the im2col
/// layout — so the forward pass is one matrix product per sample. The
/// backward pass recomputes the im2col buffer instead of caching it, trading
/// a little compute for a much smaller memory footprint.
///
/// # Example
///
/// ```
/// use safelight_neuro::{Conv2d, Layer, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut conv = Conv2d::new(1, 4, 3, 42)?; // 1→4 channels, 3×3, "same"
/// let x = Tensor::zeros(vec![2, 1, 8, 8]);
/// let y = conv.forward(&x, false)?;
/// assert_eq!(y.shape(), &[2, 4, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    threads: usize,
    int_mode: Option<IntSpec>,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a `kernel × kernel` convolution from `in_channels` to
    /// `out_channels` with stride 1 and "same" padding (`kernel / 2`),
    /// He-initialized from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] when any dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        seed: u64,
    ) -> Result<Self, NeuroError> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 {
            return Err(NeuroError::InvalidParameter {
                name: "conv2d dimensions",
                value: 0.0,
            });
        }
        let fan_in = in_channels * kernel * kernel;
        let mut rng = SimRng::seed_from(seed);
        let weight = he_normal(vec![out_channels, fan_in], fan_in, &mut rng);
        Ok(Self {
            in_channels,
            out_channels,
            kernel,
            stride: 1,
            padding: kernel / 2,
            threads: 2,
            int_mode: None,
            weight: Param::new(weight, true),
            bias: Param::new(Tensor::zeros(vec![out_channels]), false),
            cached_input: None,
        })
    }

    /// Sets the stride.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] when `stride == 0`.
    pub fn with_stride(mut self, stride: usize) -> Result<Self, NeuroError> {
        if stride == 0 {
            return Err(NeuroError::InvalidParameter {
                name: "stride",
                value: 0.0,
            });
        }
        self.stride = stride;
        Ok(self)
    }

    /// Sets the zero padding on every side.
    #[must_use]
    pub fn with_padding(mut self, padding: usize) -> Self {
        self.padding = padding;
        self
    }

    /// Sets the worker-thread count used for batch-parallel passes.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of input channels.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size.
    #[must_use]
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Total trainable parameters (weights + biases).
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weight.value.len() + self.bias.value.len()
    }

    /// Output spatial size for an input of `h × w`.
    fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize), NeuroError> {
        let he = h + 2 * self.padding;
        let we = w + 2 * self.padding;
        if he < self.kernel || we < self.kernel {
            return Err(NeuroError::ShapeMismatch {
                context: "Conv2d input smaller than kernel",
                expected: vec![self.kernel, self.kernel],
                actual: vec![h, w],
            });
        }
        Ok((
            (he - self.kernel) / self.stride + 1,
            (we - self.kernel) / self.stride + 1,
        ))
    }

    /// Gathers sample `n`'s receptive fields into the block im2col buffer:
    /// row `r` of the logical `[K][ld]` matrix starts at `col[r*ld]`, and
    /// this sample's `OH·OW` columns start at `offset`. The buffer must be
    /// pre-zeroed (padding cells are simply left untouched).
    #[allow(clippy::too_many_arguments)]
    fn im2col(
        &self,
        input: &[f32],
        n: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        col: &mut [f32],
        ld: usize,
        offset: usize,
    ) {
        let k = self.kernel;
        let sample = &input[n * self.in_channels * h * w..];
        for ic in 0..self.in_channels {
            let plane = &sample[ic * h * w..(ic + 1) * h * w];
            for kh in 0..k {
                for kw in 0..k {
                    let row = (ic * k + kh) * k + kw;
                    let out_row = &mut col[row * ld + offset..row * ld + offset + oh * ow];
                    for oy in 0..oh {
                        let iy = oy * self.stride + kh;
                        if iy < self.padding || iy >= h + self.padding {
                            continue;
                        }
                        let iy = iy - self.padding;
                        for ox in 0..ow {
                            let ix = ox * self.stride + kw;
                            if ix < self.padding || ix >= w + self.padding {
                                continue;
                            }
                            out_row[oy * ow + ox] = plane[iy * w + (ix - self.padding)];
                        }
                    }
                }
            }
        }
    }

    /// Scatters `col`-layout gradients (same `[K][ld]` layout and sample
    /// `offset` as [`Self::im2col`]) back into sample `n` of `grad_input`.
    #[allow(clippy::too_many_arguments)]
    fn col2im(
        &self,
        col: &[f32],
        n: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        grad_input: &mut [f32],
        ld: usize,
        offset: usize,
    ) {
        let k = self.kernel;
        let sample = &mut grad_input[n * self.in_channels * h * w..];
        for ic in 0..self.in_channels {
            for kh in 0..k {
                for kw in 0..k {
                    let row = (ic * k + kh) * k + kw;
                    let col_row = &col[row * ld + offset..row * ld + offset + oh * ow];
                    for oy in 0..oh {
                        let iy = oy * self.stride + kh;
                        if iy < self.padding || iy >= h + self.padding {
                            continue;
                        }
                        let iy = iy - self.padding;
                        for ox in 0..ow {
                            let ix = ox * self.stride + kw;
                            if ix < self.padding || ix >= w + self.padding {
                                continue;
                            }
                            sample[(ic * h + iy) * w + (ix - self.padding)] +=
                                col_row[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }

    /// Gathers sample `n`'s receptive fields **transposed** — one row of
    /// `kdim` codes per output column at stride `row_stride ≥ kdim`,
    /// `colt[(col_offset + c)*row_stride + row]` — which is the row-dot
    /// layout the integer GEMM wants. The stride lets the caller pad each
    /// row to the kernel's vector width. The buffer must be pre-zeroed.
    #[allow(clippy::too_many_arguments)]
    fn im2col_t(
        &self,
        input: &[i16],
        n: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
        colt: &mut [i16],
        col_offset: usize,
        row_stride: usize,
    ) {
        let k = self.kernel;
        let sample = &input[n * self.in_channels * h * w..];
        for ic in 0..self.in_channels {
            let plane = &sample[ic * h * w..(ic + 1) * h * w];
            for kh in 0..k {
                for kw in 0..k {
                    let row = (ic * k + kh) * k + kw;
                    for oy in 0..oh {
                        let iy = oy * self.stride + kh;
                        if iy < self.padding || iy >= h + self.padding {
                            continue;
                        }
                        let iy = iy - self.padding;
                        for ox in 0..ow {
                            let ix = ox * self.stride + kw;
                            if ix < self.padding || ix >= w + self.padding {
                                continue;
                            }
                            colt[(col_offset + oy * ow + ox) * row_stride + row] =
                                plane[iy * w + (ix - self.padding)];
                        }
                    }
                }
            }
        }
    }

    /// im2col + blocked-GEMM forward (the float default); returns the
    /// assembled `[N][OC][OH·OW]` data.
    fn forward_im2col(
        &self,
        x: &[f32],
        n: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
    ) -> Vec<f32> {
        let kdim = self.in_channels * self.kernel * self.kernel;
        let per_sample_out = self.out_channels * oh * ow;
        let weight = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        kernel_stats::record(KernelClass::Im2colConv);

        // Per-block workers gather a whole block of samples into one wide
        // im2col matrix and run a single GEMM over it (`N = block·OH·OW`),
        // so panel packing amortizes across batch items; the buffers come
        // from the thread's scratch arena instead of fresh allocations.
        let chunks = map_blocks(n, BATCH_BLOCK, self.threads > 1, |start, end| {
            let block_len = end - start;
            let ncols = block_len * oh * ow;
            scratch::with_buffer(Slot::Col, |col| {
                col.clear();
                col.resize(kdim * ncols, 0.0);
                for s in start..end {
                    self.im2col(x, s, h, w, oh, ow, col, ncols, (s - start) * oh * ow);
                }
                scratch::with_buffer(Slot::OutBlock, |gemm_out| {
                    gemm_out.clear();
                    gemm_out.resize(self.out_channels * ncols, 0.0);
                    matmul(weight, col, gemm_out, self.out_channels, kdim, ncols);
                    // Scatter [oc][sample·OH·OW] → [sample][oc][OH·OW], adding bias.
                    let mut out = vec![0.0f32; block_len * per_sample_out];
                    for si in 0..block_len {
                        for oc in 0..self.out_channels {
                            let src = &gemm_out[oc * ncols + si * oh * ow..][..oh * ow];
                            let dst = &mut out[si * per_sample_out + oc * oh * ow..][..oh * ow];
                            let b = bias[oc];
                            for (d, &v) in dst.iter_mut().zip(src) {
                                *d = v + b;
                            }
                        }
                    }
                    out
                })
            })
        });

        let mut data = Vec::with_capacity(n * per_sample_out);
        for chunk in chunks {
            data.extend_from_slice(&chunk);
        }
        data
    }

    /// Integer-datapath forward: the whole input tensor and the weights
    /// are quantized once onto their converter grids, patches are gathered
    /// transposed as `i16` codes, the product runs in exact integer
    /// arithmetic, and the store fuses dequantize + bias.
    #[allow(clippy::too_many_arguments)]
    fn forward_int(
        &self,
        x: &[f32],
        spec: IntSpec,
        n: usize,
        h: usize,
        w: usize,
        oh: usize,
        ow: usize,
    ) -> Vec<f32> {
        let kdim = self.in_channels * self.kernel * self.kernel;
        // Pad the shared axis to the integer kernel's vector width so tiny
        // depths (a 3×3 single-channel layer has kdim = 9) run entirely in
        // the vector loop; the padding codes stay zero and add nothing to
        // the exact integer sum.
        let kpad = kdim.next_multiple_of(intgemm::vector_width());
        let per_sample_out = self.out_channels * oh * ow;
        let oc_n = self.out_channels;
        let bias = self.bias.value.as_slice();
        scratch::with_buffer_i16(SlotI16::Act, |xq| {
            scratch::with_buffer_i16(SlotI16::Weight, |wq| {
                let scale_x = intgemm::quantize_i16(x, spec.act_steps, xq);
                let scale_w =
                    intgemm::quantize_i16(self.weight.value.as_slice(), spec.weight_steps, wq);
                let scale = scale_x * scale_w;
                if kpad != kdim {
                    // Spread the weight rows to the padded stride in place,
                    // back to front (destinations never precede sources).
                    wq.resize(oc_n * kpad, 0);
                    for oc in (0..oc_n).rev() {
                        for r in (0..kdim).rev() {
                            wq[oc * kpad + r] = wq[oc * kdim + r];
                        }
                        wq[oc * kpad + kdim..(oc + 1) * kpad].fill(0);
                    }
                }
                let (xq, wq): (&[i16], &[i16]) = (xq, wq);
                let chunks = map_blocks(n, BATCH_BLOCK, self.threads > 1, |start, end| {
                    let block_len = end - start;
                    let ncols = block_len * oh * ow;
                    scratch::with_buffer_i16(SlotI16::Col, |colt| {
                        colt.clear();
                        colt.resize(ncols * kpad, 0);
                        for s in start..end {
                            self.im2col_t(xq, s, h, w, oh, ow, colt, (s - start) * oh * ow, kpad);
                        }
                        scratch::with_buffer_i32(SlotI32::Acc, |acc| {
                            acc.clear();
                            acc.resize(oc_n * ncols, 0);
                            // C[oc][cols] = W[oc][kpad] · colTᵀ.
                            intgemm::matmul_i16_a_bt(wq, colt, acc, oc_n, kpad, ncols);
                            let mut out = vec![0.0f32; block_len * per_sample_out];
                            for si in 0..block_len {
                                for oc in 0..oc_n {
                                    let src = &acc[oc * ncols + si * oh * ow..][..oh * ow];
                                    let dst =
                                        &mut out[si * per_sample_out + oc * oh * ow..][..oh * ow];
                                    let b = bias[oc];
                                    for (d, &v) in dst.iter_mut().zip(src) {
                                        *d = v as f32 * scale + b;
                                    }
                                }
                            }
                            out
                        })
                    })
                });
                let mut data = Vec::with_capacity(n * per_sample_out);
                for chunk in chunks {
                    data.extend_from_slice(&chunk);
                }
                data
            })
        })
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize), NeuroError> {
        let shape = input.shape();
        if shape.len() != 4 || shape[1] != self.in_channels {
            return Err(NeuroError::ShapeMismatch {
                context: "Conv2d::forward expects [N, C_in, H, W]",
                expected: vec![0, self.in_channels, 0, 0],
                actual: shape.to_vec(),
            });
        }
        Ok((shape[0], shape[2], shape[3]))
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        let (n, h, w) = self.check_input(input)?;
        let (oh, ow) = self.output_hw(h, w)?;
        let kdim = self.in_channels * self.kernel * self.kernel;
        let x = input.as_slice();

        // Dispatch: the integer datapath serves quantized inference; every
        // other forward (training included, whose backward recomputes the
        // same patches) runs the im2col GEMM.
        let data = if !train
            && self
                .int_mode
                .is_some_and(|s| s.is_valid() && s.accumulator_safe(kdim))
        {
            let spec = self.int_mode.expect("checked above");
            self.forward_int(x, spec, n, h, w, oh, ow)
        } else {
            self.forward_im2col(x, n, h, w, oh, ow)
        };

        self.cached_input = Some(input.clone());
        Tensor::from_vec(vec![n, self.out_channels, oh, ow], data)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        let input = self.cached_input.take().ok_or(NeuroError::ShapeMismatch {
            context: "Conv2d::backward before forward",
            expected: vec![],
            actual: vec![],
        })?;
        let (n, h, w) = self.check_input(&input)?;
        let (oh, ow) = self.output_hw(h, w)?;
        let kdim = self.in_channels * self.kernel * self.kernel;
        let expected = vec![n, self.out_channels, oh, ow];
        if grad_output.shape() != expected.as_slice() {
            return Err(NeuroError::ShapeMismatch {
                context: "Conv2d::backward",
                expected,
                actual: grad_output.shape().to_vec(),
            });
        }

        let x = input.as_slice();
        let weight = self.weight.value.as_slice();
        let go = grad_output.as_slice();
        let per_sample_in = self.in_channels * h * w;
        let per_sample_out = self.out_channels * oh * ow;

        // Each fixed-size batch block accumulates private dW/db plus its
        // slice of dX; the blocks then reduce in index order, so the sum
        // order — and the result, bit for bit — does not depend on how many
        // workers ran them.
        let partials = map_blocks(n, BATCH_BLOCK, self.threads > 1, |start, end| {
            let block_len = end - start;
            let ncols = block_len * oh * ow;
            scratch::with_buffer(Slot::Col, |col| {
                scratch::with_buffer(Slot::GradCol, |grad_col| {
                    scratch::with_buffer(Slot::YBlock, |go_block| {
                        // Block im2col, as in forward.
                        col.clear();
                        col.resize(kdim * ncols, 0.0);
                        for s in start..end {
                            self.im2col(x, s, h, w, oh, ow, col, ncols, (s - start) * oh * ow);
                        }
                        // Gather dY into the matching [oc][sample·OH·OW] layout.
                        go_block.clear();
                        go_block.resize(self.out_channels * ncols, 0.0);
                        for (si, s) in (start..end).enumerate() {
                            let go_s = &go[s * per_sample_out..(s + 1) * per_sample_out];
                            for oc in 0..self.out_channels {
                                go_block[oc * ncols + si * oh * ow..][..oh * ow]
                                    .copy_from_slice(&go_s[oc * oh * ow..(oc + 1) * oh * ow]);
                            }
                        }
                        let mut dw = vec![0.0f32; self.out_channels * kdim];
                        let mut db = vec![0.0f32; self.out_channels];
                        let mut dx = vec![0.0f32; block_len * per_sample_in];
                        // dW += dY · colᵀ — one GEMM over the whole block.
                        matmul_a_bt(go_block, col, &mut dw, self.out_channels, ncols, kdim);
                        // db += row sums of dY, straight off the gathered
                        // [oc][sample·OH·OW] rows (same element order as the
                        // per-sample walk, so numerics are unchanged).
                        for (oc, db_oc) in db.iter_mut().enumerate() {
                            *db_oc += go_block[oc * ncols..(oc + 1) * ncols].iter().sum::<f32>();
                        }
                        // dCol = Wᵀ · dY — one GEMM — then scatter per sample.
                        grad_col.clear();
                        grad_col.resize(kdim * ncols, 0.0);
                        matmul_at_b(weight, go_block, grad_col, kdim, self.out_channels, ncols);
                        for (si, _) in (start..end).enumerate() {
                            let dx_view = &mut dx[si * per_sample_in..(si + 1) * per_sample_in];
                            // col2im indexes sample 0 of the view; the block
                            // column offset selects the right columns.
                            self.col2im(grad_col, 0, h, w, oh, ow, dx_view, ncols, si * oh * ow);
                        }
                        (dw, db, dx)
                    })
                })
            })
        });

        let mut grad_input = vec![0.0f32; n * per_sample_in];
        let mut offset = 0;
        for (dw, db, dx) in partials {
            for (g, v) in self.weight.grad.as_mut_slice().iter_mut().zip(&dw) {
                *g += v;
            }
            for (g, v) in self.bias.grad.as_mut_slice().iter_mut().zip(&db) {
                *g += v;
            }
            grad_input[offset..offset + dx.len()].copy_from_slice(&dx);
            offset += dx.len();
        }
        Tensor::from_vec(vec![n, self.in_channels, h, w], grad_input)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn set_int_mode(&mut self, spec: Option<IntSpec>) {
        self.int_mode = spec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_mode_approximates_float_forward() {
        let x = Tensor::from_vec(
            vec![2, 2, 6, 6],
            (0..144).map(|i| ((i as f32) * 0.23).sin()).collect(),
        )
        .unwrap();
        let mut float_conv = Conv2d::new(2, 3, 3, 7).unwrap();
        let mut int_conv = float_conv.clone();
        int_conv.set_int_mode(Some(IntSpec {
            act_steps: 2047,
            weight_steps: 2047,
        }));
        let yf = float_conv.forward(&x, false).unwrap();
        let yi = int_conv.forward(&x, false).unwrap();
        for (a, b) in yf.as_slice().iter().zip(yi.as_slice()) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
        // Training ignores int mode entirely.
        let yt = int_conv.forward(&x, true).unwrap();
        assert_eq!(yf.as_slice(), yt.as_slice());
    }

    #[test]
    fn int_mode_is_bit_stable_across_thread_counts() {
        let x = Tensor::from_vec(
            vec![6, 2, 5, 5],
            (0..300).map(|i| ((i as f32) * 0.41).cos()).collect(),
        )
        .unwrap();
        let spec = Some(IntSpec {
            act_steps: 127,
            weight_steps: 127,
        });
        let mut c1 = Conv2d::new(2, 3, 3, 5).unwrap().with_threads(1);
        let mut c4 = Conv2d::new(2, 3, 3, 5).unwrap().with_threads(4);
        c1.set_int_mode(spec);
        c4.set_int_mode(spec);
        let y1 = c1.forward(&x, false).unwrap();
        let y4 = c4.forward(&x, false).unwrap();
        assert_eq!(y1.as_slice(), y4.as_slice());
    }

    #[test]
    fn same_padding_preserves_spatial_size() {
        let mut conv = Conv2d::new(2, 3, 3, 1).unwrap();
        let y = conv
            .forward(&Tensor::zeros(vec![1, 2, 7, 7]), false)
            .unwrap();
        assert_eq!(y.shape(), &[1, 3, 7, 7]);
    }

    #[test]
    fn stride_two_halves_spatial_size() {
        let mut conv = Conv2d::new(1, 1, 3, 1).unwrap().with_stride(2).unwrap();
        let y = conv
            .forward(&Tensor::zeros(vec![1, 1, 8, 8]), false)
            .unwrap();
        assert_eq!(y.shape(), &[1, 1, 4, 4]);
    }

    #[test]
    fn known_kernel_computes_correct_value() {
        // A 1×1 "identity-scaling" kernel: weight 2.0, bias 1.0.
        let mut conv = Conv2d::new(1, 1, 1, 1).unwrap().with_padding(0);
        conv.weight.value.as_mut_slice()[0] = 2.0;
        conv.bias.value.as_mut_slice()[0] = 1.0;
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn three_by_three_sum_kernel() {
        // All-ones 3×3 kernel with zero padding sums each neighbourhood.
        let mut conv = Conv2d::new(1, 1, 3, 1).unwrap().with_padding(0);
        conv.weight.value.fill(1.0);
        let x =
            Tensor::from_vec(vec![1, 1, 3, 3], vec![1., 1., 1., 1., 1., 1., 1., 1., 1.]).unwrap();
        let y = conv.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.as_slice()[0] - 9.0).abs() < 1e-6);
    }

    #[test]
    fn wrong_channel_count_is_rejected() {
        let mut conv = Conv2d::new(3, 4, 3, 1).unwrap();
        assert!(conv
            .forward(&Tensor::zeros(vec![1, 2, 8, 8]), false)
            .is_err());
    }

    #[test]
    fn backward_shapes_match_input() {
        let mut conv = Conv2d::new(2, 4, 3, 7).unwrap();
        let x = Tensor::zeros(vec![3, 2, 6, 6]);
        let y = conv.forward(&x, true).unwrap();
        let gx = conv.backward(&Tensor::zeros(y.shape().to_vec())).unwrap();
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn parallel_and_serial_agree() {
        let x = Tensor::from_vec(
            vec![4, 2, 5, 5],
            (0..200).map(|i| (i as f32 * 0.13).sin()).collect(),
        )
        .unwrap();
        let mut c1 = Conv2d::new(2, 3, 3, 5).unwrap().with_threads(1);
        let mut c2 = Conv2d::new(2, 3, 3, 5).unwrap().with_threads(2);
        let y1 = c1.forward(&x, true).unwrap();
        let y2 = c2.forward(&x, true).unwrap();
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
        let g = Tensor::full(y1.shape().to_vec(), 0.5);
        let gx1 = c1.backward(&g).unwrap();
        let gx2 = c2.backward(&g).unwrap();
        for (a, b) in gx1.as_slice().iter().zip(gx2.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
        for (p1, p2) in c1.params().iter().zip(c2.params().iter()) {
            for (a, b) in p1.grad.as_slice().iter().zip(p2.grad.as_slice()) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }
}
