//! Batch normalization for convolutional feature maps.

use crate::layers::{Layer, Param};
use crate::{NeuroError, Tensor};

/// Per-channel batch normalization over `[N, C, H, W]` batches.
///
/// Training uses batch statistics and updates exponential running averages;
/// inference uses the running statistics — so a network behaves
/// deterministically at attack-evaluation time.
///
/// # Example
///
/// ```
/// use safelight_neuro::{BatchNorm2d, Layer, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut bn = BatchNorm2d::new(3)?;
/// let y = bn.forward(&Tensor::zeros(vec![2, 3, 4, 4]), true)?;
/// assert_eq!(y.shape(), &[2, 3, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    normalized: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` feature maps.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] when `channels == 0`.
    pub fn new(channels: usize) -> Result<Self, NeuroError> {
        if channels == 0 {
            return Err(NeuroError::InvalidParameter {
                name: "channels",
                value: 0.0,
            });
        }
        Ok(Self {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::full(vec![channels], 1.0), false),
            beta: Param::new(Tensor::zeros(vec![channels]), false),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        })
    }

    /// Number of normalized channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Running (inference-time) per-channel means.
    #[must_use]
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running (inference-time) per-channel variances.
    #[must_use]
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    fn check_input(&self, input: &Tensor) -> Result<(usize, usize, usize), NeuroError> {
        let shape = input.shape();
        if shape.len() != 4 || shape[1] != self.channels {
            return Err(NeuroError::ShapeMismatch {
                context: "BatchNorm2d::forward expects [N, C, H, W]",
                expected: vec![0, self.channels, 0, 0],
                actual: shape.to_vec(),
            });
        }
        Ok((shape[0], shape[2], shape[3]))
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        let (n, h, w) = self.check_input(input)?;
        let plane = h * w;
        let count = (n * plane) as f32;
        let x = input.as_slice();

        let (mean, var) = if train {
            let mut mean = vec![0.0f32; self.channels];
            let mut var = vec![0.0f32; self.channels];
            for s in 0..n {
                for (c, m) in mean.iter_mut().enumerate() {
                    let base = (s * self.channels + c) * plane;
                    *m += x[base..base + plane].iter().sum::<f32>();
                }
            }
            for m in &mut mean {
                *m /= count;
            }
            for s in 0..n {
                for c in 0..self.channels {
                    let base = (s * self.channels + c) * plane;
                    var[c] += x[base..base + plane]
                        .iter()
                        .map(|v| (v - mean[c]) * (v - mean[c]))
                        .sum::<f32>();
                }
            }
            for v in &mut var {
                *v /= count;
            }
            for c in 0..self.channels {
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();

        // Only a training pass keeps x̂ for backward.
        let mut normalized = train.then(|| Tensor::zeros(input.shape().to_vec()));
        let mut out = Tensor::zeros(input.shape().to_vec());
        for s in 0..n {
            for c in 0..self.channels {
                let cells = (s * self.channels + c) * plane..(s * self.channels + c + 1) * plane;
                let xs = &x[cells.clone()];
                let ys = &mut out.as_mut_slice()[cells.clone()];
                let norm = |v: f32| (v - mean[c]) * inv_std[c];
                match normalized.as_mut() {
                    Some(xn) => {
                        let xn = &mut xn.as_mut_slice()[cells];
                        for ((y, xn), &v) in ys.iter_mut().zip(xn).zip(xs) {
                            *xn = norm(v);
                            *y = gamma[c] * *xn + beta[c];
                        }
                    }
                    None => {
                        for (y, &v) in ys.iter_mut().zip(xs) {
                            *y = gamma[c] * norm(v) + beta[c];
                        }
                    }
                }
            }
        }
        self.cache = normalized.map(|normalized| BnCache {
            normalized,
            inv_std,
        });
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        let cache = self.cache.take().ok_or(NeuroError::ShapeMismatch {
            context: "BatchNorm2d::backward before training forward",
            expected: vec![],
            actual: vec![],
        })?;
        let shape = cache.normalized.shape().to_vec();
        if grad_output.shape() != shape.as_slice() {
            return Err(NeuroError::ShapeMismatch {
                context: "BatchNorm2d::backward",
                expected: shape,
                actual: grad_output.shape().to_vec(),
            });
        }
        let (n, h, w) = (shape[0], shape[2], shape[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        let go = grad_output.as_slice();
        let xn = cache.normalized.as_slice();
        let gamma = self.gamma.value.as_slice();

        // Per-channel reductions: Σ dy and Σ dy·x̂.
        let mut sum_dy = vec![0.0f32; self.channels];
        let mut sum_dy_xn = vec![0.0f32; self.channels];
        for s in 0..n {
            for c in 0..self.channels {
                let base = (s * self.channels + c) * plane;
                for i in base..base + plane {
                    sum_dy[c] += go[i];
                    sum_dy_xn[c] += go[i] * xn[i];
                }
            }
        }
        for c in 0..self.channels {
            self.gamma.grad.as_mut_slice()[c] += sum_dy_xn[c];
            self.beta.grad.as_mut_slice()[c] += sum_dy[c];
        }

        // dx = (γ·inv_std/M) · (M·dy − Σdy − x̂·Σ(dy·x̂))
        let mut grad_input = Tensor::zeros(shape);
        let gi = grad_input.as_mut_slice();
        for s in 0..n {
            for c in 0..self.channels {
                let base = (s * self.channels + c) * plane;
                let scale = gamma[c] * cache.inv_std[c] / count;
                for i in base..base + plane {
                    gi[i] = scale * (count * go[i] - sum_dy[c] - xn[i] * sum_dy_xn[c]);
                }
            }
        }
        Ok(grad_input)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn buffers_mut(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.running_mean, &mut self.running_var]
    }

    fn buffers(&self) -> Vec<&[f32]> {
        vec![&self.running_mean, &self.running_var]
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varied_input() -> Tensor {
        Tensor::from_vec(
            vec![2, 2, 2, 2],
            (0..16)
                .map(|i| (i as f32 * 0.7).sin() * 3.0 + 1.0)
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn training_output_is_standardized() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let y = bn.forward(&varied_input(), true).unwrap();
        // Per-channel mean ≈ 0 and variance ≈ 1 after normalization.
        let data = y.as_slice();
        for c in 0..2 {
            let vals: Vec<f32> = (0..2)
                .flat_map(|s| {
                    let base = (s * 2 + c) * 4;
                    data[base..base + 4].to_vec()
                })
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-5, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {c} var {var}");
        }
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let before = bn.running_mean().to_vec();
        bn.forward(&varied_input(), true).unwrap();
        assert_ne!(before, bn.running_mean());
    }

    #[test]
    fn eval_uses_running_stats_and_is_deterministic() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        for _ in 0..5 {
            bn.forward(&varied_input(), true).unwrap();
        }
        let y1 = bn.forward(&varied_input(), false).unwrap();
        let y2 = bn.forward(&varied_input(), false).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice());
    }

    #[test]
    fn backward_gradient_sums_to_zero_per_channel() {
        // Because the output is mean-centred per channel, the gradient wrt
        // the input must sum to ~0 per channel when γ = 1.
        let mut bn = BatchNorm2d::new(2).unwrap();
        bn.forward(&varied_input(), true).unwrap();
        let g = Tensor::from_vec(
            vec![2, 2, 2, 2],
            (0..16).map(|i| (i as f32 * 0.3).cos()).collect(),
        )
        .unwrap();
        let gx = bn.backward(&g).unwrap();
        let data = gx.as_slice();
        for c in 0..2 {
            let sum: f32 = (0..2)
                .map(|s| {
                    let base = (s * 2 + c) * 4;
                    data[base..base + 4].iter().sum::<f32>()
                })
                .sum();
            assert!(sum.abs() < 1e-4, "channel {c} grad sum {sum}");
        }
    }

    #[test]
    fn wrong_channel_count_is_rejected() {
        let mut bn = BatchNorm2d::new(3).unwrap();
        assert!(bn.forward(&Tensor::zeros(vec![1, 2, 2, 2]), true).is_err());
    }

    #[test]
    fn backward_after_inference_forward_errors() {
        // An inference forward caches nothing and drops what a training
        // forward left, so backward reports that no forward preceded it.
        let mut layer = BatchNorm2d::new(2).unwrap();
        let x = varied_input();
        let y = layer.forward(&x, true).unwrap();
        layer.forward(&x, false).unwrap();
        let err = layer
            .backward(&Tensor::zeros(y.shape().to_vec()))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("BatchNorm2d::backward before training forward"),
            "{err}"
        );
    }
}
