//! 2-D convolution: im2col + blocked GEMM, and an integer datapath for
//! quantized inference.

use std::ops::Range;

use crate::init::he_normal;
use crate::layers::{IntSpec, Layer, Param, BATCH_BLOCK};
use crate::linalg::int as intgemm;
use crate::linalg::kernel_stats::{self, KernelClass};
use crate::linalg::{matmul, matmul_a_bt, matmul_at_b};
use crate::parallel::map_blocks;
use crate::rng::SimRng;
use crate::scratch::{self, Slot, SlotI16, SlotI32};
use crate::{NeuroError, Tensor};

/// The patch geometry of one convolution over a `[C, H, W]` sample: what
/// [`im2col`](Self::im2col) gathers and [`col2im`](Self::col2im) scatters
/// back.
///
/// Both walk the rows of the logical `[C·k·k][OH·OW]` patch matrix and,
/// per output row `oy`, touch only the contiguous run of `ox` whose input
/// tap lies inside the image, so no element pays a padding branch.
///
/// # Example
///
/// ```
/// use safelight_neuro::layers::PatchGeometry;
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// // One 2×2 channel, 3×3 kernel, stride 1, padding 1.
/// let geom = PatchGeometry::new(1, 2, 2, 3, 1, 1)?;
/// assert_eq!(geom.output_hw(), (2, 2));
/// let mut col = vec![f32::NAN; geom.rows() * 4];
/// geom.im2col(&[1.0, 2.0, 3.0, 4.0], &mut col, 4, 0);
/// // The centre tap (row 4) sees every pixel; padding reads as zero.
/// assert_eq!(&col[16..20], &[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(&col[0..4], &[0.0, 0.0, 0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchGeometry {
    channels: usize,
    height: usize,
    width: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    out_h: usize,
    out_w: usize,
}

impl PatchGeometry {
    /// The geometry of a `kernel × kernel` convolution with the given
    /// `stride` and zero `padding` on every side over `channels` planes of
    /// `height × width`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] for a zero dimension,
    /// kernel or stride, and [`NeuroError::ShapeMismatch`] when the padded
    /// input is smaller than the kernel.
    pub fn new(
        channels: usize,
        height: usize,
        width: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, NeuroError> {
        if channels == 0 || height == 0 || width == 0 || kernel == 0 || stride == 0 {
            return Err(NeuroError::InvalidParameter {
                name: "patch geometry dimensions",
                value: 0.0,
            });
        }
        let (he, we) = (height + 2 * padding, width + 2 * padding);
        if he < kernel || we < kernel {
            return Err(NeuroError::ShapeMismatch {
                context: "Conv2d input smaller than kernel",
                expected: vec![kernel, kernel],
                actual: vec![height, width],
            });
        }
        Ok(Self {
            channels,
            height,
            width,
            kernel,
            stride,
            padding,
            out_h: (he - kernel) / stride + 1,
            out_w: (we - kernel) / stride + 1,
        })
    }

    /// Output spatial size `(OH, OW)`.
    #[must_use]
    pub fn output_hw(&self) -> (usize, usize) {
        (self.out_h, self.out_w)
    }

    /// Rows of the patch matrix: `channels · kernel²`.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }

    /// Elements of one `[C, H, W]` sample.
    fn sample_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// The output positions `o` in `0..out_len` whose input tap
    /// `o·stride + tap − padding` lies in `0..in_len`: a contiguous range.
    fn in_bounds(&self, out_len: usize, tap: usize, in_len: usize) -> Range<usize> {
        let lo = self.padding.saturating_sub(tap).div_ceil(self.stride);
        let hi = (in_len + self.padding)
            .saturating_sub(tap)
            .div_ceil(self.stride)
            .min(out_len);
        lo.min(hi)..hi
    }

    /// Gathers one sample's receptive fields into a patch matrix: row `r`
    /// starts at `col[r*ld]`, and this sample's `OH·OW` columns start at
    /// `offset`. Every one of those cells is written — padding taps as
    /// zero — so the buffer needs no clearing beforehand.
    ///
    /// # Panics
    ///
    /// Panics when `sample` is shorter than `C·H·W` or `col` cannot hold
    /// the addressed cells.
    pub fn im2col(&self, sample: &[f32], col: &mut [f32], ld: usize, offset: usize) {
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (h, w, oh, ow) = (self.height, self.width, self.out_h, self.out_w);
        for ic in 0..self.channels {
            let plane = &sample[ic * h * w..(ic + 1) * h * w];
            for kh in 0..k {
                let ys = self.in_bounds(oh, kh, h);
                for kw in 0..k {
                    let xs = self.in_bounds(ow, kw, w);
                    let row = (ic * k + kh) * k + kw;
                    let out_row = &mut col[row * ld + offset..][..oh * ow];
                    out_row[..ys.start * ow].fill(0.0);
                    out_row[ys.end * ow..].fill(0.0);
                    for oy in ys.clone() {
                        let dst = &mut out_row[oy * ow..(oy + 1) * ow];
                        dst[..xs.start].fill(0.0);
                        dst[xs.end..].fill(0.0);
                        if xs.is_empty() {
                            continue;
                        }
                        let src = &plane[(oy * s + kh - p) * w + xs.start * s + kw - p..];
                        let dst = &mut dst[xs.clone()];
                        if s == 1 {
                            dst.copy_from_slice(&src[..dst.len()]);
                        } else {
                            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Adds a patch-matrix gradient (same `[rows][ld]` layout and sample
    /// `offset` as [`Self::im2col`]) back into one sample's input
    /// gradient. The walk order is row by row, then `oy`, then `ox`, so
    /// each input cell sums its contributions in that fixed order.
    ///
    /// # Panics
    ///
    /// Panics when `grad_sample` is shorter than `C·H·W` or `col` does not
    /// hold the addressed cells.
    pub fn col2im(&self, col: &[f32], ld: usize, offset: usize, grad_sample: &mut [f32]) {
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (h, w, oh, ow) = (self.height, self.width, self.out_h, self.out_w);
        for ic in 0..self.channels {
            let plane = &mut grad_sample[ic * h * w..(ic + 1) * h * w];
            for kh in 0..k {
                let ys = self.in_bounds(oh, kh, h);
                for kw in 0..k {
                    let xs = self.in_bounds(ow, kw, w);
                    if xs.is_empty() {
                        continue;
                    }
                    let row = (ic * k + kh) * k + kw;
                    let col_row = &col[row * ld + offset..][..oh * ow];
                    for oy in ys.clone() {
                        let src = &col_row[oy * ow..(oy + 1) * ow][xs.clone()];
                        let dst = &mut plane[(oy * s + kh - p) * w + xs.start * s + kw - p..];
                        if s == 1 {
                            for (d, &v) in dst.iter_mut().zip(src) {
                                *d += v;
                            }
                        } else {
                            for (d, &v) in dst.iter_mut().step_by(s).zip(src) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Gathers one sample's receptive fields **transposed** — one row of
    /// `rows()` codes per output column at stride `row_stride ≥ rows()`,
    /// `colt[(col_offset + c)*row_stride + row]` — which is the row-dot
    /// layout the integer GEMM wants. The stride lets the caller pad each
    /// row to the kernel's vector width. The buffer must be pre-zeroed
    /// (padding taps are left untouched).
    fn im2col_t(&self, sample: &[i16], colt: &mut [i16], col_offset: usize, row_stride: usize) {
        let (k, s, p) = (self.kernel, self.stride, self.padding);
        let (h, w, ow) = (self.height, self.width, self.out_w);
        for ic in 0..self.channels {
            let plane = &sample[ic * h * w..(ic + 1) * h * w];
            for kh in 0..k {
                let ys = self.in_bounds(self.out_h, kh, h);
                for kw in 0..k {
                    let xs = self.in_bounds(ow, kw, w);
                    if xs.is_empty() {
                        continue;
                    }
                    let row = (ic * k + kh) * k + kw;
                    for oy in ys.clone() {
                        let src = &plane[(oy * s + kh - p) * w + xs.start * s + kw - p..];
                        let first = (col_offset + oy * ow + xs.start) * row_stride + row;
                        let dst = colt[first..].iter_mut().step_by(row_stride);
                        for (d, &v) in dst.zip(src.iter().step_by(s)).take(xs.len()) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// A 2-D convolution over `[N, C, H, W]` batches.
///
/// Weights are stored as `[out_channels, in_channels·k·k]` — the im2col
/// layout — so the forward pass is one matrix product per block of
/// samples. A training forward keeps its per-block patch matrices, which
/// the backward pass reads for `dW` instead of gathering them again.
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
    /// The training forward's patch matrices, one per `BATCH_BLOCK` of
    /// samples (`[K][block·OH·OW]`). The allocations are reused from step
    /// to step; an inference forward frees them.
    panels: Vec<Vec<f32>>,
    /// Geometry and batch size of the training forward whose panels are
    /// held; `backward` takes it.
    cached: Option<(PatchGeometry, usize)>,
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
            panels: Vec::new(),
            cached: None,
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

    /// Checks an `[N, C_in, H, W]` input, returning `N` and its patch
    /// geometry.
    fn geometry(&self, input: &Tensor) -> Result<(usize, PatchGeometry), NeuroError> {
        let shape = input.shape();
        if shape.len() != 4 || shape[1] != self.in_channels {
            return Err(NeuroError::ShapeMismatch {
                context: "Conv2d::forward expects [N, C_in, H, W]",
                expected: vec![0, self.in_channels, 0, 0],
                actual: shape.to_vec(),
            });
        }
        let geom = PatchGeometry::new(
            self.in_channels,
            shape[2],
            shape[3],
            self.kernel,
            self.stride,
            self.padding,
        )?;
        Ok((shape[0], geom))
    }

    /// im2col + blocked-GEMM forward (the float default); returns the
    /// assembled `[N][OC][OH·OW]` data. With `panels` (one per block) the
    /// patch matrices are gathered into them and kept for backward;
    /// without, into the thread's scratch buffer.
    fn forward_im2col(
        &self,
        geom: PatchGeometry,
        x: &[f32],
        n: usize,
        panels: Option<&mut [Vec<f32>]>,
    ) -> Vec<f32> {
        let kdim = geom.rows();
        let (oh, ow) = geom.output_hw();
        let per_sample_in = geom.sample_len();
        let per_sample_out = self.out_channels * oh * ow;
        let weight = self.weight.value.as_slice();
        let bias = self.bias.value.as_slice();
        kernel_stats::record(KernelClass::Im2colConv);

        // Per-block workers gather a whole block of samples into one wide
        // im2col matrix and run a single GEMM over it (`N = block·OH·OW`),
        // so panel packing amortizes across batch items, then write their
        // own rows of the output.
        let block = |start: usize, end: usize, col: &mut Vec<f32>, out: &mut [f32]| {
            let ncols = (end - start) * oh * ow;
            col.resize(kdim * ncols, 0.0);
            for s in start..end {
                let sample = &x[s * per_sample_in..(s + 1) * per_sample_in];
                geom.im2col(sample, col, ncols, (s - start) * oh * ow);
            }
            scratch::with_buffer(Slot::OutBlock, |gemm_out| {
                gemm_out.clear();
                gemm_out.resize(self.out_channels * ncols, 0.0);
                matmul(weight, col, gemm_out, self.out_channels, kdim, ncols);
                // Scatter [oc][sample·OH·OW] → [sample][oc][OH·OW], adding bias.
                for si in 0..end - start {
                    for oc in 0..self.out_channels {
                        let src = &gemm_out[oc * ncols + si * oh * ow..][..oh * ow];
                        let dst = &mut out[si * per_sample_out + oc * oh * ow..][..oh * ow];
                        let b = bias[oc];
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d = v + b;
                        }
                    }
                }
            });
        };

        let mut data = vec![0.0f32; n * per_sample_out];
        let outs = data.chunks_mut(BATCH_BLOCK * per_sample_out);
        let parallel = self.threads > 1;
        match panels {
            Some(panels) => map_blocks(
                n,
                BATCH_BLOCK,
                parallel,
                outs.zip(panels),
                |s, e, (out, col)| {
                    block(s, e, col, out);
                },
            ),
            None => map_blocks(n, BATCH_BLOCK, parallel, outs, |s, e, out| {
                scratch::with_buffer(Slot::Col, |col| block(s, e, col, out));
            }),
        };
        data
    }

    /// Integer-datapath forward: the whole input tensor and the weights
    /// are quantized once onto their converter grids, patches are gathered
    /// transposed as `i16` codes, the product runs in exact integer
    /// arithmetic, and the store fuses dequantize + bias.
    fn forward_int(&self, geom: PatchGeometry, x: &[f32], spec: IntSpec, n: usize) -> Vec<f32> {
        let kdim = geom.rows();
        let (oh, ow) = geom.output_hw();
        let per_sample_in = geom.sample_len();
        // Pad the shared axis to the integer kernel's vector width so tiny
        // depths (a 3×3 single-channel layer has kdim = 9) run entirely in
        // the vector loop; the padding codes stay zero and add nothing to
        // the exact integer sum.
        let kpad = kdim.next_multiple_of(intgemm::vector_width());
        let per_sample_out = self.out_channels * oh * ow;
        let oc_n = self.out_channels;
        let bias = self.bias.value.as_slice();
        let mut data = vec![0.0f32; n * per_sample_out];
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
                let outs = data.chunks_mut(BATCH_BLOCK * per_sample_out);
                map_blocks(n, BATCH_BLOCK, self.threads > 1, outs, |start, end, out| {
                    let ncols = (end - start) * oh * ow;
                    scratch::with_buffer_i16(SlotI16::Col, |colt| {
                        colt.clear();
                        colt.resize(ncols * kpad, 0);
                        for s in start..end {
                            let sample = &xq[s * per_sample_in..(s + 1) * per_sample_in];
                            geom.im2col_t(sample, colt, (s - start) * oh * ow, kpad);
                        }
                        scratch::with_buffer_i32(SlotI32::Acc, |acc| {
                            acc.clear();
                            acc.resize(oc_n * ncols, 0);
                            // C[oc][cols] = W[oc][kpad] · colTᵀ.
                            intgemm::matmul_i16_a_bt(wq, colt, acc, oc_n, kpad, ncols);
                            for si in 0..end - start {
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
                        });
                    });
                });
            });
        });
        data
    }

    /// Back-propagates `grad_output` through the held training panels:
    /// accumulates `dW`/`db` and, when `want_input`, returns `dX`.
    fn backward_blocks(
        &mut self,
        grad_output: &Tensor,
        want_input: bool,
    ) -> Result<Option<Tensor>, NeuroError> {
        let (geom, n) = self.cached.take().ok_or(NeuroError::ShapeMismatch {
            context: "Conv2d::backward before forward",
            expected: vec![],
            actual: vec![],
        })?;
        let (oh, ow) = geom.output_hw();
        let kdim = geom.rows();
        let expected = vec![n, self.out_channels, oh, ow];
        if grad_output.shape() != expected.as_slice() {
            return Err(NeuroError::ShapeMismatch {
                context: "Conv2d::backward",
                expected,
                actual: grad_output.shape().to_vec(),
            });
        }

        let weight = self.weight.value.as_slice();
        let go = grad_output.as_slice();
        let per_sample_in = geom.sample_len();
        let per_sample_out = self.out_channels * oh * ow;
        let mut grad_input = if want_input {
            vec![0.0f32; n * per_sample_in]
        } else {
            Vec::new()
        };
        let mut dx_blocks: Vec<Option<&mut [f32]>> = grad_input
            .chunks_mut(BATCH_BLOCK * per_sample_in)
            .map(Some)
            .collect();
        dx_blocks.resize_with(n.div_ceil(BATCH_BLOCK), || None);

        // Each fixed-size batch block accumulates private dW/db plus its
        // slice of dX; the blocks then reduce in index order, so the sum
        // order — and the result, bit for bit — does not depend on how many
        // workers ran them.
        let states = self.panels.iter().zip(dx_blocks);
        let partials = map_blocks(
            n,
            BATCH_BLOCK,
            self.threads > 1,
            states,
            |start, end, (col, dx)| {
                let ncols = (end - start) * oh * ow;
                scratch::with_buffer(Slot::YBlock, |go_block| {
                    // Gather dY into the panel's [oc][sample·OH·OW] layout.
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
                    // dW += dY · colᵀ — one GEMM over the whole block.
                    matmul_a_bt(go_block, col, &mut dw, self.out_channels, ncols, kdim);
                    // db += row sums of dY, straight off the gathered
                    // [oc][sample·OH·OW] rows (same element order as the
                    // per-sample walk, so numerics are unchanged).
                    for (oc, db_oc) in db.iter_mut().enumerate() {
                        *db_oc += go_block[oc * ncols..(oc + 1) * ncols].iter().sum::<f32>();
                    }
                    if let Some(dx) = dx {
                        // dCol = Wᵀ · dY — one GEMM — then scatter per sample.
                        scratch::with_buffer(Slot::GradCol, |grad_col| {
                            grad_col.clear();
                            grad_col.resize(kdim * ncols, 0.0);
                            matmul_at_b(weight, go_block, grad_col, kdim, self.out_channels, ncols);
                            for (si, dx_s) in dx.chunks_mut(per_sample_in).enumerate() {
                                geom.col2im(grad_col, ncols, si * oh * ow, dx_s);
                            }
                        });
                    }
                    (dw, db)
                })
            },
        );

        for (dw, db) in partials {
            for (g, v) in self.weight.grad.as_mut_slice().iter_mut().zip(&dw) {
                *g += v;
            }
            for (g, v) in self.bias.grad.as_mut_slice().iter_mut().zip(&db) {
                *g += v;
            }
        }
        if !want_input {
            return Ok(None);
        }
        Tensor::from_vec(
            vec![n, self.in_channels, geom.height, geom.width],
            grad_input,
        )
        .map(Some)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        let (n, geom) = self.geometry(input)?;
        let (oh, ow) = geom.output_hw();
        let x = input.as_slice();

        let data = if train {
            // Training always runs the float im2col GEMM and keeps the
            // patch matrices for backward. A smaller batch (an epoch's
            // last) leaves the spare panels allocated for the next step.
            let blocks = n.div_ceil(BATCH_BLOCK);
            let mut panels = std::mem::take(&mut self.panels);
            if panels.len() < blocks {
                panels.resize_with(blocks, Vec::new);
            }
            let data = self.forward_im2col(geom, x, n, Some(&mut panels[..blocks]));
            self.panels = panels;
            self.cached = Some((geom, n));
            data
        } else {
            self.panels = Vec::new();
            self.cached = None;
            // The integer datapath serves quantized inference.
            match self.int_mode {
                Some(spec) if spec.is_valid() && spec.accumulator_safe(geom.rows()) => {
                    self.forward_int(geom, x, spec, n)
                }
                _ => self.forward_im2col(geom, x, n, None),
            }
        };
        Tensor::from_vec(vec![n, self.out_channels, oh, ow], data)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        let grad_input = self.backward_blocks(grad_output, true)?;
        Ok(grad_input.expect("input gradient requested"))
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NeuroError> {
        self.backward_blocks(grad_output, false).map(drop)
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

    #[test]
    fn backward_after_inference_forward_errors() {
        // An inference forward caches nothing and drops what a training
        // forward left, so backward reports that no forward preceded it.
        let mut layer = Conv2d::new(2, 3, 3, 1).unwrap();
        let x = Tensor::zeros(vec![5, 2, 6, 6]);
        let y = layer.forward(&x, true).unwrap();
        layer.forward(&x, false).unwrap();
        let err = layer
            .backward(&Tensor::zeros(y.shape().to_vec()))
            .unwrap_err();
        assert!(
            err.to_string().contains("Conv2d::backward before forward"),
            "{err}"
        );
    }

    #[test]
    fn transposed_gather_matches_transposed_im2col() {
        // The integer datapath's transposed gather holds the same patch
        // values as the float gather, one padded row per output column.
        for (k, s, p) in [(3, 1, 1), (3, 2, 1), (1, 2, 0), (5, 1, 2), (3, 2, 3)] {
            let geom = PatchGeometry::new(2, 7, 5, k, s, p).unwrap();
            let (oh, ow) = geom.output_hw();
            let (rows, ncols) = (geom.rows(), oh * ow);
            let sample: Vec<i16> = (0..70).map(|i| i - 35).collect();
            let mut colt = vec![0i16; ncols * (rows + 3)];
            geom.im2col_t(&sample, &mut colt, 0, rows + 3);
            let as_f32: Vec<f32> = sample.iter().map(|&v| f32::from(v)).collect();
            let mut col = vec![f32::NAN; rows * ncols];
            geom.im2col(&as_f32, &mut col, ncols, 0);
            for r in 0..rows {
                for c in 0..ncols {
                    assert_eq!(f32::from(colt[c * (rows + 3) + r]), col[r * ncols + c]);
                }
                for c in 0..ncols {
                    assert!(colt[c * (rows + 3) + rows..(c + 1) * (rows + 3)]
                        .iter()
                        .all(|&v| v == 0));
                }
            }
        }
    }

    #[test]
    fn training_panels_are_reused_and_inference_frees_them() {
        let mut conv = Conv2d::new(2, 3, 3, 1).unwrap();
        let x = Tensor::zeros(vec![6, 2, 5, 5]);
        conv.forward(&x, true).unwrap();
        let first: Vec<*const f32> = conv.panels.iter().map(|p| p.as_ptr()).collect();
        assert_eq!(first.len(), 2);
        let y = conv.forward(&x, true).unwrap();
        conv.backward(&Tensor::zeros(y.shape().to_vec())).unwrap();
        let again: Vec<*const f32> = conv.panels.iter().map(|p| p.as_ptr()).collect();
        assert_eq!(first, again, "panels were reallocated between steps");
        conv.forward(&x, false).unwrap();
        assert!(conv.panels.is_empty() && conv.cached.is_none());
    }
}
