//! Max pooling.

use crate::layers::{Layer, BATCH_BLOCK};
use crate::parallel::map_blocks;
use crate::{NeuroError, Tensor};

/// 2-D max pooling over `[N, C, H, W]` batches.
///
/// # Example
///
/// ```
/// use safelight_neuro::{Layer, MaxPool2d, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut pool = MaxPool2d::new(2)?;
/// let y = pool.forward(&Tensor::zeros(vec![1, 3, 8, 8]), false)?;
/// assert_eq!(y.shape(), &[1, 3, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    size: usize,
    /// Input shape of the training forward whose argmax is held;
    /// `backward` takes it.
    input_shape: Option<Vec<usize>>,
    /// Flat input index of each output's argmax, for the backward
    /// scatter. The allocation is reused from step to step; an inference
    /// forward frees it.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a `size × size` max pool with stride `size`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] when `size == 0`.
    pub fn new(size: usize) -> Result<Self, NeuroError> {
        if size == 0 {
            return Err(NeuroError::InvalidParameter {
                name: "pool size",
                value: 0.0,
            });
        }
        Ok(Self {
            size,
            input_shape: None,
            argmax: Vec::new(),
        })
    }

    /// The pooling window size (and stride).
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Max-pools each `h × w` plane of `x` into `out` with `size × size`
    /// windows, calling `record(o, i)` with each output index and the
    /// flat input index of its maximum. Taps are compared in (ky, kx)
    /// order with a strict `>`, so the first maximum of a window wins.
    fn pool_planes(
        size: usize,
        x: &[f32],
        (h, w): (usize, usize),
        out: &mut [f32],
        mut record: impl FnMut(usize, usize),
    ) {
        let (oh, ow) = (h / size, w / size);
        for (nc, out_plane) in out.chunks_exact_mut(oh * ow).enumerate() {
            let plane = &x[nc * h * w..(nc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..size {
                        for kx in 0..size {
                            let iy = oy * size + ky;
                            let ix = ox * size + kx;
                            let v = plane[iy * w + ix];
                            if v > best {
                                best = v;
                                best_idx = iy * w + ix;
                            }
                        }
                    }
                    out_plane[oy * ow + ox] = best;
                    record(nc * oh * ow + oy * ow + ox, nc * h * w + best_idx);
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        let shape = input.shape();
        if shape.len() != 4 || shape[2] < self.size || shape[3] < self.size {
            return Err(NeuroError::ShapeMismatch {
                context: "MaxPool2d::forward expects [N, C, H, W] with H, W ≥ size",
                expected: vec![0, 0, self.size, self.size],
                actual: shape.to_vec(),
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (oh, ow) = (h / self.size, w / self.size);
        let (per_in, per_out) = (c * h * w, c * oh * ow);
        let size = self.size;
        let x = input.as_slice();
        let mut out = vec![0.0f32; n * per_out];
        // Each fixed block of samples pools into its own output rows; only
        // a training pass records where each maximum came from.
        let outs = out.chunks_mut(BATCH_BLOCK * per_out);
        if train {
            // Every slot is written, so a reused buffer needs no clearing.
            self.argmax.resize(n * per_out, 0);
            let blocks = outs.zip(self.argmax.chunks_mut(BATCH_BLOCK * per_out));
            map_blocks(n, BATCH_BLOCK, true, blocks, |start, end, (out, slots)| {
                let base = start * per_in;
                let x_block = &x[base..end * per_in];
                Self::pool_planes(size, x_block, (h, w), out, |o, i| slots[o] = base + i);
            });
            self.input_shape = Some(shape.to_vec());
        } else {
            map_blocks(n, BATCH_BLOCK, true, outs, |start, end, out| {
                let x_block = &x[start * per_in..end * per_in];
                Self::pool_planes(size, x_block, (h, w), out, |_, _| {});
            });
            self.argmax = Vec::new();
            self.input_shape = None;
        }
        Tensor::from_vec(vec![n, c, oh, ow], out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        let shape = self.input_shape.take().ok_or(NeuroError::ShapeMismatch {
            context: "MaxPool2d::backward before forward",
            expected: vec![],
            actual: vec![],
        })?;
        let argmax = &self.argmax;
        if grad_output.len() != argmax.len() {
            return Err(NeuroError::ShapeMismatch {
                context: "MaxPool2d::backward",
                expected: vec![argmax.len()],
                actual: grad_output.shape().to_vec(),
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (per_in, per_out) = (c * h * w, c * (h / self.size) * (w / self.size));
        let mut grad_input = Tensor::zeros(shape);
        // Each block scatters into its own samples' input rows.
        let blocks = grad_input
            .as_mut_slice()
            .chunks_mut(BATCH_BLOCK * per_in)
            .zip(argmax.chunks(BATCH_BLOCK * per_out))
            .zip(grad_output.as_slice().chunks(BATCH_BLOCK * per_out));
        map_blocks(n, BATCH_BLOCK, true, blocks, |start, _, ((gi, idx), go)| {
            let base = start * per_in;
            for (&i, &g) in idx.iter().zip(go) {
                gi[i - base] += g;
            }
        });
        Ok(grad_input)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_window_maxima() {
        let mut pool = MaxPool2d::new(2).unwrap();
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        )
        .unwrap();
        let y = pool.forward(&x, false).unwrap();
        assert_eq!(y.as_slice(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2).unwrap();
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 9., 2., 3.]).unwrap();
        pool.forward(&x, true).unwrap();
        let gx = pool
            .backward(&Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[0., 5., 0., 0.]);
    }

    #[test]
    fn batch_blocks_match_one_whole_batch_scan() {
        // Seven samples: a full block of four and a ragged block of three.
        // Values repeat, so windows tie, and one window is all NaN.
        let (n, c, h, w) = (7, 2, 5, 6);
        let mut x: Vec<f32> = (0..n * c * h * w)
            .map(|i| ((i * 37 % 11) as f32) - 5.0)
            .collect();
        let nan_plane = (5 * c + 1) * h * w;
        for i in [0, 1, w, w + 1] {
            x[nan_plane + i] = f32::NAN;
        }
        let mut want = vec![0.0f32; n * c * (h / 2) * (w / 2)];
        let mut want_argmax = vec![0usize; want.len()];
        MaxPool2d::pool_planes(2, &x, (h, w), &mut want, |o, i| want_argmax[o] = i);
        assert_eq!(want[5 * c * 6 + 6], f32::NEG_INFINITY);
        assert_eq!(want_argmax[5 * c * 6 + 6], nan_plane);

        let mut pool = MaxPool2d::new(2).unwrap();
        let input = Tensor::from_vec(vec![n, c, h, w], x).unwrap();
        let got = pool.forward(&input, true).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.as_slice()), bits(&want));
        assert_eq!(pool.argmax, want_argmax);

        let go: Vec<f32> = (0..want.len()).map(|i| i as f32 * 0.25 - 3.0).collect();
        let mut want_gi = vec![0.0f32; n * c * h * w];
        for (&i, &g) in want_argmax.iter().zip(&go) {
            want_gi[i] += g;
        }
        let gi = pool
            .backward(&Tensor::from_vec(got.shape().to_vec(), go).unwrap())
            .unwrap();
        assert_eq!(bits(gi.as_slice()), bits(&want_gi));
    }

    #[test]
    fn odd_sizes_truncate() {
        let mut pool = MaxPool2d::new(2).unwrap();
        let y = pool
            .forward(&Tensor::zeros(vec![1, 1, 5, 5]), false)
            .unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn too_small_input_is_rejected() {
        let mut pool = MaxPool2d::new(4).unwrap();
        assert!(pool
            .forward(&Tensor::zeros(vec![1, 1, 2, 2]), false)
            .is_err());
    }

    #[test]
    fn backward_after_inference_forward_errors() {
        // An inference forward caches nothing and drops what a training
        // forward left, so backward reports that no forward preceded it.
        let mut layer = MaxPool2d::new(2).unwrap();
        let x = Tensor::zeros(vec![1, 2, 4, 4]);
        let y = layer.forward(&x, true).unwrap();
        layer.forward(&x, false).unwrap();
        let err = layer
            .backward(&Tensor::zeros(y.shape().to_vec()))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("MaxPool2d::backward before forward"),
            "{err}"
        );
    }
}
