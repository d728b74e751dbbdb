//! Networks: ordered stacks of layers.

use crate::layers::{Layer, Param};
use crate::{NeuroError, Tensor};

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// Residual topologies are expressed by pushing
/// [`ResidualBlock`](crate::ResidualBlock)s, which are themselves layers, so
/// one container covers all three of the paper's models.
///
/// # Example
///
/// ```
/// use safelight_neuro::{Flatten, Linear, Network, Relu, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut net = Network::new();
/// net.push(Flatten::new());
/// net.push(Linear::new(16, 8, 1)?);
/// net.push(Relu::new());
/// net.push(Linear::new(8, 4, 2)?);
/// let logits = net.forward(&Tensor::zeros(vec![2, 1, 4, 4]), false)?;
/// assert_eq!(logits.shape(), &[2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Default, Clone)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Network")
            .field("layers", &names)
            .field("parameters", &self.parameter_count())
            .finish()
    }
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the network forward.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (usually a shape mismatch).
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(input.clone());
        };
        let mut x = first.forward(input, train)?;
        for layer in rest {
            x = layer.forward_owned(x, train)?;
        }
        Ok(x)
    }

    /// Back-propagates a loss gradient, accumulating parameter gradients
    /// and returning the gradient with respect to the network input.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; calling `backward` without a preceding
    /// training forward is an error in any layer.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_owned(g)?;
        }
        Ok(g)
    }

    /// Back-propagates a loss gradient into the parameter gradients only:
    /// every [`Param::grad`] ends bitwise equal to what
    /// [`backward`](Self::backward) leaves, but the first layer skips the
    /// gradient of the network input, which training never reads.
    ///
    /// # Errors
    ///
    /// As [`backward`](Self::backward).
    pub fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NeuroError> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(match g {
                Some(g) => layer.backward_owned(g)?,
                None => layer.backward(grad_output)?,
            });
        }
        first.backward_params(g.as_ref().unwrap_or(grad_output))
    }

    /// All trainable parameters, in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Shared view of all trainable parameters, in layer order.
    #[must_use]
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All persistent non-trainable buffers (batch-norm running
    /// statistics), in layer order.
    pub fn buffers_mut(&mut self) -> Vec<&mut [f32]> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.buffers_mut())
            .collect()
    }

    /// Shared view of all persistent non-trainable buffers, in layer order.
    #[must_use]
    pub fn buffers(&self) -> Vec<&[f32]> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Enables (`Some`) or disables (`None`) the integer inference
    /// datapath on every layer that implements one (see
    /// [`crate::layers::Layer::set_int_mode`]). Training passes are
    /// unaffected; layers without an integer path ignore the call.
    pub fn set_int_mode(&mut self, spec: Option<crate::layers::IntSpec>) {
        for layer in &mut self.layers {
            layer.set_int_mode(spec);
        }
    }

    /// Total number of trainable scalar parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Copies parameter *values* from `other` into this network.
    ///
    /// Both networks must have identical architecture. Used by the
    /// data-parallel trainer to refresh worker replicas and by the
    /// noise-aware trainer to restore clean weights.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::ShapeMismatch`] when the parameter lists differ
    /// in count or shape.
    pub fn copy_params_from(&mut self, other: &Network) -> Result<(), NeuroError> {
        let source = other.params();
        let mut dest = self.params_mut();
        if source.len() != dest.len() {
            return Err(NeuroError::ShapeMismatch {
                context: "copy_params_from: different parameter counts",
                expected: vec![source.len()],
                actual: vec![dest.len()],
            });
        }
        for (d, s) in dest.iter_mut().zip(source) {
            if d.value.shape() != s.value.shape() {
                return Err(NeuroError::ShapeMismatch {
                    context: "copy_params_from: parameter shape differs",
                    expected: s.value.shape().to_vec(),
                    actual: d.value.shape().to_vec(),
                });
            }
            d.value = s.value.clone();
        }
        Ok(())
    }

    /// Class predictions (row-wise argmax) for a batch.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors; the final layer must produce `[N, C]`
    /// logits.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>, NeuroError> {
        let logits = self.forward(input, false)?;
        let shape = logits.shape();
        if shape.len() != 2 {
            return Err(NeuroError::ShapeMismatch {
                context: "predict expects the network to emit [N, C] logits",
                expected: vec![0, 0],
                actual: shape.to_vec(),
            });
        }
        let classes = shape[1];
        Ok((0..shape[0])
            .map(|row| logits.argmax_range(row * classes, (row + 1) * classes))
            .collect())
    }

    /// The batched forward entry point of the serving path: stacks the
    /// per-request CHW `images` into one `[N, C, H, W]` batch, runs a
    /// single forward pass and returns one class prediction per image, in
    /// input order.
    ///
    /// Borrowed images are copied once, straight into the batch buffer —
    /// callers holding tensors inside request structs don't need an
    /// intermediate `Vec<Tensor>` clone. An empty input yields an empty
    /// prediction vector without touching the network.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::ShapeMismatch`] when the images disagree in
    /// shape, and propagates forward-pass errors.
    ///
    /// # Example
    ///
    /// ```
    /// use safelight_neuro::{Flatten, Linear, Network, Tensor};
    ///
    /// # fn main() -> Result<(), safelight_neuro::NeuroError> {
    /// let mut net = Network::new();
    /// net.push(Flatten::new());
    /// net.push(Linear::new(4, 2, 1)?);
    /// let requests = vec![Tensor::zeros(vec![1, 2, 2]); 3];
    /// assert_eq!(net.predict_many(&requests)?.len(), 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn predict_many<'a, I>(&mut self, images: I) -> Result<Vec<usize>, NeuroError>
    where
        I: IntoIterator<Item = &'a Tensor>,
    {
        let mut iter = images.into_iter();
        let Some(first) = iter.next() else {
            return Ok(Vec::new());
        };
        let shape = first.shape().to_vec();
        let mut data = first.as_slice().to_vec();
        let mut count = 1usize;
        for img in iter {
            if img.shape() != shape.as_slice() {
                return Err(NeuroError::ShapeMismatch {
                    context: "predict_many expects identically shaped images",
                    expected: shape.clone(),
                    actual: img.shape().to_vec(),
                });
            }
            data.extend_from_slice(img.as_slice());
            count += 1;
        }
        let mut batch_shape = vec![count];
        batch_shape.extend_from_slice(&shape);
        self.predict(&Tensor::from_vec(batch_shape, data)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu};

    fn toy_net() -> Network {
        let mut net = Network::new();
        net.push(Flatten::new());
        net.push(Linear::new(4, 3, 1).unwrap());
        net.push(Relu::new());
        net.push(Linear::new(3, 2, 2).unwrap());
        net
    }

    #[test]
    fn forward_backward_round_trip() {
        let mut net = toy_net();
        let x = Tensor::full(vec![2, 1, 2, 2], 0.5);
        let y = net.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 2]);
        let gx = net.backward(&Tensor::full(vec![2, 2], 1.0)).unwrap();
        assert_eq!(gx.shape(), &[2, 1, 2, 2]);
    }

    #[test]
    fn parameter_count_sums_layers() {
        let net = toy_net();
        // (4·3 + 3) + (3·2 + 2) = 15 + 8 = 23
        assert_eq!(net.parameter_count(), 23);
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut net = toy_net();
        let x = Tensor::full(vec![1, 1, 2, 2], 1.0);
        net.forward(&x, true).unwrap();
        net.backward(&Tensor::full(vec![1, 2], 1.0)).unwrap();
        assert!(net.params().iter().any(|p| p.grad.max_abs() > 0.0));
        net.zero_grad();
        assert!(net.params().iter().all(|p| p.grad.max_abs() == 0.0));
    }

    #[test]
    fn clone_is_deep() {
        let mut net = toy_net();
        let mut copy = net.clone();
        copy.params_mut()[0].value.fill(0.0);
        assert!(net.params_mut()[0].value.max_abs() > 0.0);
    }

    #[test]
    fn copy_params_from_synchronizes_values() {
        let mut a = toy_net();
        let b = toy_net();
        a.params_mut()[0].value.fill(7.0);
        let mut replica = b.clone();
        replica.copy_params_from(&a).unwrap();
        // The first parameter of the replica now matches `a`, not `b`.
        assert!(replica.params()[0]
            .value
            .as_slice()
            .iter()
            .all(|&v| v == 7.0));
    }

    #[test]
    fn predict_returns_argmax() {
        let mut net = Network::new();
        let mut fc = Linear::new(2, 2, 1).unwrap();
        fc.params_mut()[0].value = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        net.push(fc);
        let x = Tensor::from_vec(vec![2, 2], vec![3.0, 1.0, 0.0, 2.0]).unwrap();
        assert_eq!(net.predict(&x).unwrap(), vec![0, 1]);
    }

    #[test]
    fn predict_many_matches_per_item_prediction() {
        let mut net = toy_net();
        let images: Vec<Tensor> = (0..5)
            .map(|i| Tensor::full(vec![1, 2, 2], 0.1 + i as f32 * 0.3))
            .collect();
        let batched = net.predict_many(&images).unwrap();
        assert_eq!(batched.len(), 5);
        for (img, &expected) in images.iter().zip(&batched) {
            let mut batch_shape = vec![1usize];
            batch_shape.extend_from_slice(img.shape());
            let single = Tensor::from_vec(batch_shape, img.as_slice().to_vec()).unwrap();
            assert_eq!(net.predict(&single).unwrap(), vec![expected]);
        }
        // Empty input short-circuits.
        assert!(net
            .predict_many(std::iter::empty::<&Tensor>())
            .unwrap()
            .is_empty());
        // Ragged shapes are rejected.
        let ragged = vec![Tensor::zeros(vec![1, 2, 2]), Tensor::zeros(vec![1, 3, 3])];
        assert!(net.predict_many(&ragged).is_err());
    }

    #[test]
    fn debug_output_is_informative() {
        let net = toy_net();
        let dbg = format!("{net:?}");
        assert!(dbg.contains("linear") && dbg.contains("parameters"));
    }
}
