//! Classification metrics.

use crate::data::Dataset;
use crate::model::Network;
use crate::NeuroError;

/// Classification accuracy of `network` over `dataset`, in `[0, 1]`.
///
/// Evaluates in inference mode (running batch-norm statistics, no noise),
/// batching `batch_size` images at a time.
///
/// # Errors
///
/// Propagates dataset and forward-pass errors.
///
/// # Example
///
/// ```
/// use safelight_neuro::{accuracy, InMemoryDataset, Linear, Network, Tensor};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let data = InMemoryDataset::new(vec![Tensor::zeros(vec![2]); 4], vec![0, 0, 0, 0])?;
/// let mut net = Network::new();
/// net.push(Linear::new(2, 2, 1)?);
/// let acc = accuracy(&mut net, &data, 2)?;
/// assert!((0.0..=1.0).contains(&acc));
/// # Ok(())
/// # }
/// ```
pub fn accuracy<D: Dataset + ?Sized>(
    network: &mut Network,
    dataset: &D,
    batch_size: usize,
) -> Result<f64, NeuroError> {
    let batch_size = batch_size.max(1);
    let n = dataset.len();
    let mut correct = 0usize;
    let mut index = 0usize;
    while index < n {
        let end = (index + batch_size).min(n);
        let indices: Vec<usize> = (index..end).collect();
        let (batch, labels) = dataset.batch(&indices)?;
        let preds = network.predict(&batch)?;
        correct += preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        index = end;
    }
    Ok(correct as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::InMemoryDataset;
    use crate::layers::{Layer, Linear};
    use crate::Tensor;

    /// A network whose prediction equals the argmax of the 2-feature input.
    fn identity_net() -> Network {
        let mut net = Network::new();
        let mut fc = Linear::new(2, 2, 1).unwrap();
        fc.params_mut()[0].value = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        net.push(fc);
        net
    }

    fn dataset() -> InMemoryDataset {
        let images = vec![
            Tensor::from_vec(vec![2], vec![1.0, 0.0]).unwrap(), // class 0
            Tensor::from_vec(vec![2], vec![0.0, 1.0]).unwrap(), // class 1
            Tensor::from_vec(vec![2], vec![1.0, 0.0]).unwrap(), // class 0
            Tensor::from_vec(vec![2], vec![0.0, 1.0]).unwrap(), // class 1
        ];
        InMemoryDataset::new(images, vec![0, 1, 1, 1]).unwrap()
    }

    #[test]
    fn accuracy_counts_matches() {
        let mut net = identity_net();
        // Item 2 is mislabelled on purpose: expect 3/4.
        let acc = accuracy(&mut net, &dataset(), 3).unwrap();
        assert!((acc - 0.75).abs() < 1e-9);
    }

    #[test]
    fn accuracy_is_batch_size_invariant() {
        let mut net = identity_net();
        let a1 = accuracy(&mut net, &dataset(), 1).unwrap();
        let a4 = accuracy(&mut net, &dataset(), 4).unwrap();
        assert_eq!(a1, a4);
    }
}
