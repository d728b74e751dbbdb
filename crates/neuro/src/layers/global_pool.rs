//! Global average pooling.

use crate::layers::Layer;
use crate::{NeuroError, Tensor};

/// Global average pooling: `[N, C, H, W] → [N, C]`.
///
/// The standard head of residual networks: each channel collapses to its
/// spatial mean before the final classifier.
///
/// # Example
///
/// ```
/// use safelight_neuro::{GlobalAvgPool2d, Layer, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut pool = GlobalAvgPool2d::new();
/// let y = pool.forward(&Tensor::full(vec![2, 3, 4, 4], 2.0), false)?;
/// assert_eq!(y.shape(), &[2, 3]);
/// assert_eq!(y.as_slice()[0], 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool2d {
    input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool2d {
    /// Creates a global average pooling layer.
    #[must_use]
    pub fn new() -> Self {
        Self { input_shape: None }
    }
}

impl Layer for GlobalAvgPool2d {
    fn name(&self) -> &'static str {
        "global_avg_pool2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        let shape = input.shape();
        if shape.len() != 4 {
            return Err(NeuroError::ShapeMismatch {
                context: "GlobalAvgPool2d::forward expects [N, C, H, W]",
                expected: vec![0, 0, 0, 0],
                actual: shape.to_vec(),
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let plane = h * w;
        let x = input.as_slice();
        let mut out = vec![0.0f32; n * c];
        for (nc, o) in out.iter_mut().enumerate() {
            *o = x[nc * plane..(nc + 1) * plane].iter().sum::<f32>() / plane as f32;
        }
        self.input_shape = train.then(|| shape.to_vec());
        Tensor::from_vec(vec![n, c], out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        let shape = self.input_shape.take().ok_or(NeuroError::ShapeMismatch {
            context: "GlobalAvgPool2d::backward before forward",
            expected: vec![],
            actual: vec![],
        })?;
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        if grad_output.shape() != [n, c] {
            return Err(NeuroError::ShapeMismatch {
                context: "GlobalAvgPool2d::backward",
                expected: vec![n, c],
                actual: grad_output.shape().to_vec(),
            });
        }
        let plane = h * w;
        let scale = 1.0 / plane as f32;
        let mut grad = Tensor::zeros(shape);
        let g = grad.as_mut_slice();
        for (nc, &go) in grad_output.as_slice().iter().enumerate() {
            for v in &mut g[nc * plane..(nc + 1) * plane] {
                *v = go * scale;
            }
        }
        Ok(grad)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_averages_each_plane() {
        let mut pool = GlobalAvgPool2d::new();
        let x = Tensor::from_vec(vec![1, 2, 1, 2], vec![1.0, 3.0, 10.0, 20.0]).unwrap();
        let y = pool.forward(&x, false).unwrap();
        assert_eq!(y.as_slice(), &[2.0, 15.0]);
    }

    #[test]
    fn backward_spreads_gradient_uniformly() {
        let mut pool = GlobalAvgPool2d::new();
        let x = Tensor::zeros(vec![1, 1, 2, 2]);
        pool.forward(&x, true).unwrap();
        let gx = pool
            .backward(&Tensor::from_vec(vec![1, 1], vec![8.0]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn non_4d_input_is_rejected() {
        let mut pool = GlobalAvgPool2d::new();
        assert!(pool.forward(&Tensor::zeros(vec![2, 3]), false).is_err());
    }

    #[test]
    fn backward_after_inference_forward_errors() {
        // An inference forward caches nothing and drops what a training
        // forward left, so backward reports that no forward preceded it.
        let mut layer = GlobalAvgPool2d::new();
        let x = Tensor::zeros(vec![2, 3, 2, 2]);
        let y = layer.forward(&x, true).unwrap();
        layer.forward(&x, false).unwrap();
        let err = layer
            .backward(&Tensor::zeros(y.shape().to_vec()))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("GlobalAvgPool2d::backward before forward"),
            "{err}"
        );
    }
}
