//! ResNet-style residual basic block.

use crate::layers::{BatchNorm2d, Conv2d, Layer, Param, Relu};
use crate::{NeuroError, Tensor};

/// A ResNet "basic block": two 3×3 conv+BN stages with a skip connection,
/// `y = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
///
/// When the block changes channel count or stride, the shortcut is a 1×1
/// strided convolution followed by batch norm, as in the original ResNet.
/// Seventeen convolutions arranged in these blocks (plus the stem) make up
/// the paper's ResNet18 workload.
///
/// # Example
///
/// ```
/// use safelight_neuro::{Layer, ResidualBlock, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut block = ResidualBlock::new(8, 16, 2, 42)?; // downsampling block
/// let y = block.forward(&Tensor::zeros(vec![1, 8, 16, 16]), true)?;
/// assert_eq!(y.shape(), &[1, 16, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    /// Post-addition ReLU mask.
    out_mask: Option<Vec<bool>>,
}

impl ResidualBlock {
    /// Creates a basic block from `in_channels` to `out_channels` with the
    /// given `stride` on the first convolution.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] when a dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        stride: usize,
        seed: u64,
    ) -> Result<Self, NeuroError> {
        let conv1 = Conv2d::new(in_channels, out_channels, 3, seed)?
            .with_stride(stride)?
            .with_padding(1);
        let conv2 =
            Conv2d::new(out_channels, out_channels, 3, seed.wrapping_add(1))?.with_padding(1);
        let shortcut = if stride != 1 || in_channels != out_channels {
            let proj = Conv2d::new(in_channels, out_channels, 1, seed.wrapping_add(2))?
                .with_stride(stride)?
                .with_padding(0);
            Some((proj, BatchNorm2d::new(out_channels)?))
        } else {
            None
        };
        Ok(Self {
            conv1,
            bn1: BatchNorm2d::new(out_channels)?,
            relu1: Relu::new(),
            conv2,
            bn2: BatchNorm2d::new(out_channels)?,
            shortcut,
            out_mask: None,
        })
    }

    /// Number of convolution layers inside the block (2 or 3 with a
    /// projection shortcut).
    #[must_use]
    pub fn conv_count(&self) -> usize {
        2 + usize::from(self.shortcut.is_some())
    }
}

impl Layer for ResidualBlock {
    fn name(&self) -> &'static str {
        "residual_block"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor, NeuroError> {
        let main = self.conv1.forward(input, train)?;
        let main = self.bn1.forward(&main, train)?;
        let main = self.relu1.forward_owned(main, train)?;
        let main = self.conv2.forward(&main, train)?;
        let mut main = self.bn2.forward(&main, train)?;

        let residual = match &mut self.shortcut {
            Some((proj, bn)) => {
                let r = proj.forward(input, train)?;
                bn.forward(&r, train)?
            }
            None => input.clone(),
        };
        main.axpy(1.0, &residual)?;

        // Final ReLU; a training pass caches its mask for backward.
        self.out_mask = train.then(|| main.as_slice().iter().map(|&x| x > 0.0).collect());
        for v in main.as_mut_slice() {
            *v = if *v > 0.0 { *v } else { 0.0 };
        }
        Ok(main)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NeuroError> {
        let mask = self.out_mask.take().ok_or(NeuroError::ShapeMismatch {
            context: "ResidualBlock::backward before forward",
            expected: vec![],
            actual: vec![],
        })?;
        if mask.len() != grad_output.len() {
            return Err(NeuroError::ShapeMismatch {
                context: "ResidualBlock::backward",
                expected: vec![mask.len()],
                actual: grad_output.shape().to_vec(),
            });
        }
        // Gradient through the post-addition ReLU.
        let mut grad_sum = grad_output.clone();
        for (g, &m) in grad_sum.as_mut_slice().iter_mut().zip(&mask) {
            if !m {
                *g = 0.0;
            }
        }

        // Main path, reversed.
        let g = self.bn2.backward(&grad_sum)?;
        let g = self.conv2.backward(&g)?;
        let g = self.relu1.backward_owned(g)?;
        let g = self.bn1.backward(&g)?;
        let mut grad_input = self.conv1.backward(&g)?;

        // Shortcut path.
        match &mut self.shortcut {
            Some((proj, bn)) => {
                let g = bn.backward(&grad_sum)?;
                let g = proj.backward(&g)?;
                grad_input.axpy(1.0, &g)?;
            }
            None => {
                grad_input.axpy(1.0, &grad_sum)?;
            }
        }
        Ok(grad_input)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.conv1.params_mut();
        params.extend(self.bn1.params_mut());
        params.extend(self.conv2.params_mut());
        params.extend(self.bn2.params_mut());
        if let Some((proj, bn)) = &mut self.shortcut {
            params.extend(proj.params_mut());
            params.extend(bn.params_mut());
        }
        params
    }

    fn params(&self) -> Vec<&Param> {
        let mut params = self.conv1.params();
        params.extend(self.bn1.params());
        params.extend(self.conv2.params());
        params.extend(self.bn2.params());
        if let Some((proj, bn)) = &self.shortcut {
            params.extend(proj.params());
            params.extend(bn.params());
        }
        params
    }

    fn buffers_mut(&mut self) -> Vec<&mut [f32]> {
        let mut buffers = self.bn1.buffers_mut();
        buffers.extend(self.bn2.buffers_mut());
        if let Some((_, bn)) = &mut self.shortcut {
            buffers.extend(bn.buffers_mut());
        }
        buffers
    }

    fn buffers(&self) -> Vec<&[f32]> {
        let mut buffers = self.bn1.buffers();
        buffers.extend(self.bn2.buffers());
        if let Some((_, bn)) = &self.shortcut {
            buffers.extend(bn.buffers());
        }
        buffers
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_block_preserves_shape() {
        let mut block = ResidualBlock::new(4, 4, 1, 1).unwrap();
        let y = block
            .forward(&Tensor::zeros(vec![2, 4, 8, 8]), true)
            .unwrap();
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
        assert_eq!(block.conv_count(), 2);
    }

    #[test]
    fn downsample_block_projects_shortcut() {
        let mut block = ResidualBlock::new(4, 8, 2, 1).unwrap();
        let y = block
            .forward(&Tensor::zeros(vec![1, 4, 8, 8]), true)
            .unwrap();
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        assert_eq!(block.conv_count(), 3);
    }

    #[test]
    fn backward_returns_input_shaped_gradient() {
        let mut block = ResidualBlock::new(3, 6, 2, 9).unwrap();
        let x = Tensor::from_vec(
            vec![2, 3, 6, 6],
            (0..216).map(|i| (i as f32 * 0.05).sin()).collect(),
        )
        .unwrap();
        let y = block.forward(&x, true).unwrap();
        let gx = block
            .backward(&Tensor::full(y.shape().to_vec(), 0.1))
            .unwrap();
        assert_eq!(gx.shape(), x.shape());
        // Something must flow back.
        assert!(gx.max_abs() > 0.0);
    }

    #[test]
    fn params_cover_all_sublayers() {
        let block = ResidualBlock::new(4, 8, 2, 1).unwrap();
        // conv1(w,b) bn1(γ,β) conv2(w,b) bn2(γ,β) proj(w,b) bnp(γ,β) = 12.
        assert_eq!(block.params().len(), 12);
        let identity = ResidualBlock::new(4, 4, 1, 1).unwrap();
        assert_eq!(identity.params().len(), 8);
    }

    #[test]
    fn backward_after_inference_forward_errors() {
        // An inference forward caches nothing and drops what a training
        // forward left, so backward reports that no forward preceded it.
        let mut layer = ResidualBlock::new(2, 4, 2, 1).unwrap();
        let x = Tensor::zeros(vec![1, 2, 6, 6]);
        let y = layer.forward(&x, true).unwrap();
        layer.forward(&x, false).unwrap();
        let err = layer
            .backward(&Tensor::zeros(y.shape().to_vec()))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("ResidualBlock::backward before forward"),
            "{err}"
        );
    }
}
