//! Neural-network layers with hand-written forward and backward passes.

mod conv;
mod global_pool;
mod linear;
mod norm;
mod pool;
mod residual;

pub use conv::{Conv2d, PatchGeometry};
pub use global_pool::GlobalAvgPool2d;
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use pool::MaxPool2d;
pub use residual::ResidualBlock;

use crate::{NeuroError, Tensor};

/// Samples per parallel work block of the batch-parallel layers (conv,
/// max-pool). The block layout depends only on the batch size, never on
/// the thread count, so per-block gradient reductions combine in a fixed
/// order and results are bitwise stable across thread counts.
pub(crate) const BATCH_BLOCK: usize = 4;

/// Quantization geometry for the integer inference datapath.
///
/// The quantized accelerator backend models finite converters: an input
/// DAC with `act_steps` uniform signed levels per side and a readout grid
/// with `weight_steps` levels per side. When a layer runs in integer
/// mode it quantizes activations and weights onto those grids, executes
/// the matrix product in exact integer arithmetic
/// ([`crate::linalg::int`]), and dequantizes once on store — replacing
/// the seed behaviour of snapping to the grid and then multiplying in
/// floating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntSpec {
    /// Signed quantization levels per side for activations (input DAC).
    pub act_steps: u32,
    /// Signed quantization levels per side for weights (readout grid).
    pub weight_steps: u32,
}

impl IntSpec {
    /// Whether both grids fit the `i16` code range (and are non-trivial).
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let ok = |s: u32| (1..=i16::MAX as u32).contains(&s);
        ok(self.act_steps) && ok(self.weight_steps)
    }

    /// Whether a dot product of length `k` at these bit depths cannot
    /// overflow the `i32` accumulator (see the overflow contract in
    /// [`crate::linalg::int`]).
    #[must_use]
    pub fn accumulator_safe(&self, k: usize) -> bool {
        (u64::from(self.act_steps))
            .saturating_mul(u64::from(self.weight_steps))
            .saturating_mul(k as u64)
            < 1 << 31
    }
}

/// A trainable parameter: value plus accumulated gradient.
///
/// Layers own their parameters; optimizers and the noise-aware trainer
/// access them through [`Layer::params_mut`].
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass(es).
    pub grad: Tensor,
    /// Whether weight decay (L2 regularization) applies to this parameter.
    /// Convention: true for weights, false for biases and batch-norm
    /// affine parameters, matching common deep-learning practice.
    pub decay: bool,
}

impl Param {
    /// Wraps `value` with a zeroed gradient; `decay` selects whether L2
    /// weight decay applies.
    #[must_use]
    pub fn new(value: Tensor, decay: bool) -> Self {
        let grad = Tensor::zeros(value.shape().to_vec());
        Self { value, grad, decay }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// A neural-network layer.
///
/// The contract mirrors classic define-by-layer frameworks:
///
/// 1. [`forward`](Self::forward) consumes a batch. With `train == true` it
///    caches whatever the backward pass will need; with `train == false`
///    it caches nothing and drops whatever an earlier training forward
///    left, so an inference pass carries no training state along;
/// 2. [`backward`](Self::backward) consumes `∂L/∂output` and the cache of
///    the latest training forward, **accumulates** parameter gradients
///    into [`Param::grad`], and returns `∂L/∂input`;
///    [`backward_params`](Self::backward_params) does the same without
///    computing `∂L/∂input`;
/// 3. [`params_mut`](Self::params_mut) exposes the trainable state.
///
/// # Errors
///
/// `forward` and `backward` report [`NeuroError::ShapeMismatch`] when the
/// supplied tensors do not match the layer's expectations; `backward` also
/// errors when no training forward precedes it (none ran, an inference
/// forward ran since, or a backward already consumed the cache).
pub trait Layer: Send + Sync {
    /// A short human-readable layer name (e.g. `"conv2d"`).
    fn name(&self) -> &'static str;

    /// Runs the layer on a batch. `train` selects training behaviour
    /// (batch statistics in batch norm; inference uses running statistics)
    /// and whether the pass caches state for [`backward`](Self::backward).
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError>;

    /// Back-propagates `grad_output`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError>;

    /// [`forward`](Self::forward) on a batch the caller gives up. A layer
    /// that can build its output in the input's own buffer (an
    /// activation, a reshape) overrides this to skip the copy; the result
    /// is the same.
    fn forward_owned(&mut self, input: Tensor, train: bool) -> Result<Tensor, NeuroError> {
        self.forward(&input, train)
    }

    /// [`backward`](Self::backward) on a gradient the caller gives up, as
    /// [`forward_owned`](Self::forward_owned) is to `forward`.
    fn backward_owned(&mut self, grad_output: Tensor) -> Result<Tensor, NeuroError> {
        self.backward(&grad_output)
    }

    /// Back-propagates `grad_output` into the parameter gradients only —
    /// the same [`Param::grad`] values as [`backward`](Self::backward) —
    /// for a layer whose input gradient nobody reads (a network's first
    /// layer). The default runs `backward` and drops the input gradient;
    /// layers override it to skip that work.
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NeuroError> {
        self.backward(grad_output).map(drop)
    }

    /// Mutable access to the layer's trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to the layer's trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the layer's persistent non-trainable state, such
    /// as batch-norm running statistics, in a fixed order (possibly
    /// empty). Checkpoints save and restore these alongside the params.
    fn buffers_mut(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }

    /// Shared access to the layer's persistent non-trainable state, in the
    /// order of [`buffers_mut`](Self::buffers_mut) (possibly empty).
    fn buffers(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Clones the layer into a boxed trait object (enables `Clone` for
    /// networks of heterogeneous layers).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Enables (`Some`) or disables (`None`) the integer inference
    /// datapath for layers that implement one (`Conv2d`, `Linear`).
    /// Layers without an integer implementation ignore the call; the
    /// training path (`forward` with `train == true`) always runs in
    /// floating point regardless.
    fn set_int_mode(&mut self, _spec: Option<IntSpec>) {}
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Rectified linear unit.
///
/// # Example
///
/// ```
/// use safelight_neuro::{Layer, Relu, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0])?;
/// let y = relu.forward(&x, false)?;
/// assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// Which inputs of the latest training forward were positive. The
    /// allocation is reused from step to step; an inference forward frees
    /// it.
    mask: Vec<bool>,
    /// Whether `mask` belongs to a training forward that no backward has
    /// consumed yet.
    masked: bool,
}

impl Relu {
    /// Creates a ReLU activation.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        self.forward_owned(input.clone(), train)
    }

    fn forward_owned(&mut self, mut input: Tensor, train: bool) -> Result<Tensor, NeuroError> {
        if train {
            self.mask.clear();
            self.mask.extend(input.as_slice().iter().map(|&x| x > 0.0));
        } else {
            self.mask = Vec::new();
        }
        self.masked = train;
        for v in input.as_mut_slice() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
        Ok(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        self.backward_owned(grad_output.clone())
    }

    fn backward_owned(&mut self, mut grad: Tensor) -> Result<Tensor, NeuroError> {
        if !std::mem::take(&mut self.masked) {
            return Err(NeuroError::ShapeMismatch {
                context: "Relu::backward before forward",
                expected: vec![],
                actual: vec![],
            });
        }
        if self.mask.len() != grad.len() {
            return Err(NeuroError::ShapeMismatch {
                context: "Relu::backward",
                expected: vec![self.mask.len()],
                actual: grad.shape().to_vec(),
            });
        }
        for (g, &m) in grad.as_mut_slice().iter_mut().zip(&self.mask) {
            if !m {
                *g = 0.0;
            }
        }
        Ok(grad)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[N, d1, d2, …]` into `[N, d1·d2·…]`.
///
/// # Example
///
/// ```
/// use safelight_neuro::{Flatten, Layer, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut flat = Flatten::new();
/// let x = Tensor::zeros(vec![2, 3, 4, 4]);
/// let y = flat.forward(&x, false)?;
/// assert_eq!(y.shape(), &[2, 48]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flattening layer.
    #[must_use]
    pub fn new() -> Self {
        Self { input_shape: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        self.forward_owned(input.clone(), train)
    }

    fn forward_owned(&mut self, input: Tensor, train: bool) -> Result<Tensor, NeuroError> {
        let shape = input.shape().to_vec();
        if shape.is_empty() {
            return Err(NeuroError::ShapeMismatch {
                context: "Flatten::forward needs rank ≥ 1",
                expected: vec![1],
                actual: shape,
            });
        }
        let n = shape[0];
        let rest: usize = shape[1..].iter().product();
        self.input_shape = train.then_some(shape);
        input.reshape(vec![n, rest])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        self.backward_owned(grad_output.clone())
    }

    fn backward_owned(&mut self, grad_output: Tensor) -> Result<Tensor, NeuroError> {
        let shape = self.input_shape.take().ok_or(NeuroError::ShapeMismatch {
            context: "Flatten::backward before forward",
            expected: vec![],
            actual: vec![],
        })?;
        grad_output.reshape(shape)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.5, 0.5, 2.0]).unwrap();
        relu.forward(&x, true).unwrap();
        let g = Tensor::full(vec![4], 1.0);
        let gx = relu.backward(&g).unwrap();
        assert_eq!(gx.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_backward_before_forward_errors() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::zeros(vec![1])).is_err());
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut flat = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 5]);
        let y = flat.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 15]);
        let gx = flat.backward(&y).unwrap();
        assert_eq!(gx.shape(), &[2, 3, 5]);
    }

    #[test]
    fn param_zero_grad_clears() {
        let mut p = Param::new(Tensor::full(vec![3], 1.0), true);
        p.grad.fill(5.0);
        p.zero_grad();
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn boxed_layer_clone_is_independent() {
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_vec(vec![1], vec![1.0]).unwrap(), true)
            .unwrap();
        let boxed: Box<dyn Layer> = Box::new(relu);
        let mut copy = boxed.clone();
        // The clone carries the cached mask and can run backward directly.
        assert!(copy.backward(&Tensor::zeros(vec![1])).is_ok());
    }

    #[test]
    fn relu_backward_after_inference_forward_errors() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![2], vec![-1.0, 1.0]).unwrap();
        relu.forward(&x, true).unwrap();
        relu.forward(&x, false).unwrap();
        let err = relu.backward(&x).unwrap_err();
        assert!(
            err.to_string().contains("Relu::backward before forward"),
            "{err}"
        );
    }

    #[test]
    fn flatten_backward_after_inference_forward_errors() {
        let mut flat = Flatten::new();
        let x = Tensor::zeros(vec![2, 3, 5]);
        let y = flat.forward(&x, true).unwrap();
        flat.forward(&x, false).unwrap();
        let err = flat.backward(&y).unwrap_err();
        assert!(
            err.to_string().contains("Flatten::backward before forward"),
            "{err}"
        );
    }
}
