//! Max pooling.

use crate::layers::Layer;
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
        let x = input.as_slice();
        let mut out = vec![0.0f32; n * c * oh * ow];
        // Only a training pass records where each maximum came from.
        if train {
            // Every slot is written, so a reused buffer needs no clearing.
            self.argmax.resize(out.len(), 0);
            let slots = self.argmax.as_mut_slice();
            Self::pool_planes(self.size, x, (h, w), &mut out, |o, i| slots[o] = i);
            self.input_shape = Some(shape.to_vec());
        } else {
            Self::pool_planes(self.size, x, (h, w), &mut out, |_, _| {});
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
        let mut grad_input = Tensor::zeros(shape);
        let gi = grad_input.as_mut_slice();
        for (&idx, &g) in argmax.iter().zip(grad_output.as_slice()) {
            gi[idx] += g;
        }
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
