//! Fully connected (dense) layer.

use crate::init::he_normal;
use crate::layers::{IntSpec, Layer, Param};
use crate::linalg::int as intgemm;
use crate::linalg::{matmul, matmul_a_bt, matmul_at_b};
use crate::rng::SimRng;
use crate::scratch::{self, SlotI16, SlotI32};
use crate::{NeuroError, Tensor};

/// A fully connected layer `y = x·Wᵀ + b` over `[N, in]` batches.
///
/// All three products (forward, `dW`, `dX`) are single calls into the
/// tiled GEMM engine, which fans large row ranges out across the shared
/// worker pool internally; the batch reduction inside `dW` happens in the
/// engine's fixed panel order, so gradients are bitwise stable across
/// thread counts.
///
/// # Example
///
/// ```
/// use safelight_neuro::{Layer, Linear, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut fc = Linear::new(3, 2, 42)?;
/// let y = fc.forward(&Tensor::zeros(vec![5, 3]), false)?;
/// assert_eq!(y.shape(), &[5, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    int_mode: Option<IntSpec>,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a dense layer from `in_features` to `out_features`,
    /// He-initialized from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] when either dimension is 0.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Result<Self, NeuroError> {
        if in_features == 0 || out_features == 0 {
            return Err(NeuroError::InvalidParameter {
                name: "linear dimensions",
                value: 0.0,
            });
        }
        let mut rng = SimRng::seed_from(seed);
        let weight = he_normal(vec![out_features, in_features], in_features, &mut rng);
        Ok(Self {
            in_features,
            out_features,
            int_mode: None,
            weight: Param::new(weight, true),
            bias: Param::new(Tensor::zeros(vec![out_features]), false),
            cached_input: None,
        })
    }

    /// Number of input features.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Total trainable parameters (weights + biases).
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weight.value.len() + self.bias.value.len()
    }

    fn check_input(&self, input: &Tensor) -> Result<usize, NeuroError> {
        let shape = input.shape();
        if shape.len() != 2 || shape[1] != self.in_features {
            return Err(NeuroError::ShapeMismatch {
                context: "Linear::forward expects [N, in_features]",
                expected: vec![0, self.in_features],
                actual: shape.to_vec(),
            });
        }
        Ok(shape[0])
    }

    /// Integer-datapath forward: quantize activations and weights onto
    /// their converter grids, run the exact `i16×i16→i32` GEMM, and
    /// dequantize once on store (fusing the bias add).
    fn forward_int(&self, input: &Tensor, spec: IntSpec, n: usize) -> Vec<f32> {
        let (m, k, out) = (n, self.in_features, self.out_features);
        scratch::with_buffer_i16(SlotI16::Act, |xq| {
            scratch::with_buffer_i16(SlotI16::Weight, |wq| {
                scratch::with_buffer_i32(SlotI32::Acc, |acc| {
                    let scale_x = intgemm::quantize_i16(input.as_slice(), spec.act_steps, xq);
                    let scale_w =
                        intgemm::quantize_i16(self.weight.value.as_slice(), spec.weight_steps, wq);
                    acc.clear();
                    acc.resize(m * out, 0);
                    intgemm::matmul_i16_a_bt(xq, wq, acc, m, k, out);
                    let scale = scale_x * scale_w;
                    let bias = self.bias.value.as_slice();
                    let mut y = vec![0.0f32; m * out];
                    for (row, acc_row) in y.chunks_exact_mut(out).zip(acc.chunks_exact(out)) {
                        for ((v, &a), &b) in row.iter_mut().zip(acc_row).zip(bias) {
                            *v = a as f32 * scale + b;
                        }
                    }
                    y
                })
            })
        })
    }

    /// Consumes the cached training input and accumulates `dW` and `db`
    /// for `grad_output`, returning the batch size.
    fn accumulate_param_grads(&mut self, grad_output: &Tensor) -> Result<usize, NeuroError> {
        let input = self.cached_input.take().ok_or(NeuroError::ShapeMismatch {
            context: "Linear::backward before forward",
            expected: vec![],
            actual: vec![],
        })?;
        let n = self.check_input(&input)?;
        if grad_output.shape() != [n, self.out_features] {
            return Err(NeuroError::ShapeMismatch {
                context: "Linear::backward",
                expected: vec![n, self.out_features],
                actual: grad_output.shape().to_vec(),
            });
        }
        // dW += dYᵀ · X   (dY is [N, out] stored row-major ⇒ Aᵀ·B form)
        matmul_at_b(
            grad_output.as_slice(),
            input.as_slice(),
            self.weight.grad.as_mut_slice(),
            self.out_features,
            n,
            self.in_features,
        );
        // db += column sums of dY
        let db = self.bias.grad.as_mut_slice();
        for row in grad_output.as_slice().chunks(self.out_features) {
            for (g, &v) in db.iter_mut().zip(row) {
                *g += v;
            }
        }
        Ok(n)
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        let n = self.check_input(input)?;
        self.cached_input = train.then(|| input.clone());
        if !train {
            if let Some(spec) = self.int_mode {
                if spec.is_valid() && spec.accumulator_safe(self.in_features) {
                    let out = self.forward_int(input, spec, n);
                    return Tensor::from_vec(vec![n, self.out_features], out);
                }
            }
        }
        let mut out = vec![0.0f32; n * self.out_features];
        // y = x · Wᵀ  (W stored [out, in])
        matmul_a_bt(
            input.as_slice(),
            self.weight.value.as_slice(),
            &mut out,
            n,
            self.in_features,
            self.out_features,
        );
        let bias = self.bias.value.as_slice();
        for row in out.chunks_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        Tensor::from_vec(vec![n, self.out_features], out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        let n = self.accumulate_param_grads(grad_output)?;
        // dX = dY · W
        let mut grad_input = vec![0.0f32; n * self.in_features];
        matmul(
            grad_output.as_slice(),
            self.weight.value.as_slice(),
            &mut grad_input,
            n,
            self.out_features,
            self.in_features,
        );
        Tensor::from_vec(vec![n, self.in_features], grad_input)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NeuroError> {
        self.accumulate_param_grads(grad_output).map(drop)
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
        let mut float_fc = Linear::new(16, 8, 9).unwrap();
        let mut int_fc = float_fc.clone();
        int_fc.set_int_mode(Some(IntSpec {
            act_steps: 2047,
            weight_steps: 2047,
        }));
        let x = Tensor::from_vec(
            vec![4, 16],
            (0..64).map(|i| ((i as f32) * 0.31).sin()).collect(),
        )
        .unwrap();
        let yf = float_fc.forward(&x, false).unwrap();
        let yi = int_fc.forward(&x, false).unwrap();
        for (a, b) in yf.as_slice().iter().zip(yi.as_slice()) {
            assert!((a - b).abs() < 5e-3, "{a} vs {b}");
        }
        // Training always runs the float path, bit for bit.
        let yt = int_fc.forward(&x, true).unwrap();
        assert_eq!(yf.as_slice(), yt.as_slice());
    }

    #[test]
    fn int_mode_falls_back_when_unsafe() {
        // Steps so deep the i32 accumulator could wrap: gate must route to
        // the float path rather than risk overflow.
        let mut fc = Linear::new(8, 4, 3).unwrap();
        let x = Tensor::from_vec(vec![2, 8], (0..16).map(|i| i as f32 * 0.1).collect()).unwrap();
        let expected = fc.forward(&x, false).unwrap();
        fc.set_int_mode(Some(IntSpec {
            act_steps: 32_767,
            weight_steps: 32_767,
        }));
        // 32767² · 8 ≥ 2³¹ ⇒ float fallback.
        let got = fc.forward(&x, false).unwrap();
        assert_eq!(expected.as_slice(), got.as_slice());
    }

    #[test]
    fn forward_matches_hand_computation() {
        let mut fc = Linear::new(2, 2, 1).unwrap();
        fc.weight.value = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        fc.bias.value = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let y = fc.forward(&x, false).unwrap();
        // y0 = 1·1 + 2·1 + 0.5 = 3.5 ; y1 = 3 + 4 − 0.5 = 6.5
        assert_eq!(y.as_slice(), &[3.5, 6.5]);
    }

    #[test]
    fn backward_gradients_match_hand_computation() {
        let mut fc = Linear::new(2, 1, 1).unwrap();
        fc.weight.value = Tensor::from_vec(vec![1, 2], vec![2.0, -1.0]).unwrap();
        fc.bias.value = Tensor::zeros(vec![1]);
        let x = Tensor::from_vec(vec![1, 2], vec![3.0, 4.0]).unwrap();
        fc.forward(&x, true).unwrap();
        let gx = fc
            .backward(&Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap())
            .unwrap();
        assert_eq!(gx.as_slice(), &[2.0, -1.0]); // dX = dY·W
        assert_eq!(fc.weight.grad.as_slice(), &[3.0, 4.0]); // dW = dYᵀ·X
        assert_eq!(fc.bias.grad.as_slice(), &[1.0]);
    }

    #[test]
    fn gradients_accumulate_across_backward_calls() {
        let mut fc = Linear::new(2, 1, 1).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let g = Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap();
        fc.forward(&x, true).unwrap();
        fc.backward(&g).unwrap();
        let after_one = fc.bias.grad.as_slice()[0];
        fc.forward(&x, true).unwrap();
        fc.backward(&g).unwrap();
        assert!((fc.bias.grad.as_slice()[0] - 2.0 * after_one).abs() < 1e-6);
    }

    #[test]
    fn wrong_width_is_rejected() {
        let mut fc = Linear::new(3, 2, 1).unwrap();
        assert!(fc.forward(&Tensor::zeros(vec![1, 4]), false).is_err());
    }

    #[test]
    fn backward_after_inference_forward_errors() {
        // An inference forward caches nothing and drops what a training
        // forward left, so backward reports that no forward preceded it.
        let mut layer = Linear::new(4, 3, 1).unwrap();
        let x = Tensor::zeros(vec![2, 4]);
        let y = layer.forward(&x, true).unwrap();
        layer.forward(&x, false).unwrap();
        let err = layer
            .backward(&Tensor::zeros(y.shape().to_vec()))
            .unwrap_err();
        assert!(
            err.to_string().contains("Linear::backward before forward"),
            "{err}"
        );
    }
}
