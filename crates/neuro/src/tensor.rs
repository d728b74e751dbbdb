//! A dense, row-major, `f32` tensor.

use crate::NeuroError;

/// A dense tensor of `f32` values with a dynamic shape.
///
/// Storage is row-major (last axis contiguous). The type is deliberately
/// simple — no views, no broadcasting — because every consumer in this
/// workspace operates on whole, contiguous buffers and the explicitness
/// keeps the hand-written backward passes auditable.
///
/// # Example
///
/// ```
/// use safelight_neuro::Tensor;
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.get(&[1, 2])?, 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor of the given shape.
    #[must_use]
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    #[must_use]
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape,
            data: vec![value; len],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::ShapeMismatch`] when the buffer length does not
    /// equal the product of the dimensions.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self, NeuroError> {
        let len: usize = shape.iter().product();
        if len != data.len() {
            return Err(NeuroError::ShapeMismatch {
                context: "Tensor::from_vec",
                expected: shape,
                actual: vec![data.len()],
            });
        }
        Ok(Self { shape, data })
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the buffer under a new shape of equal length.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::ShapeMismatch`] when the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Result<Self, NeuroError> {
        let len: usize = shape.iter().product();
        if len != self.data.len() {
            return Err(NeuroError::ShapeMismatch {
                context: "Tensor::reshape",
                expected: shape,
                actual: self.shape,
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Linear offset of a multi-dimensional index.
    fn offset(&self, index: &[usize]) -> Result<usize, NeuroError> {
        if index.len() != self.shape.len() || index.iter().zip(&self.shape).any(|(&i, &d)| i >= d) {
            return Err(NeuroError::ShapeMismatch {
                context: "Tensor::offset",
                expected: self.shape.clone(),
                actual: index.to_vec(),
            });
        }
        let mut off = 0;
        for (i, d) in index.iter().zip(&self.shape) {
            off = off * d + i;
        }
        Ok(off)
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::ShapeMismatch`] for a rank or bound violation.
    pub fn get(&self, index: &[usize]) -> Result<f32, NeuroError> {
        Ok(self.data[self.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::ShapeMismatch`] for a rank or bound violation.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), NeuroError> {
        let off = self.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), NeuroError> {
        if self.shape != other.shape {
            return Err(NeuroError::ShapeMismatch {
                context: "Tensor::axpy",
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Root-mean-square of the elements (0 for an empty tensor).
    #[must_use]
    pub fn rms(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let ss: f32 = self.data.iter().map(|x| x * x).sum();
        (ss / self.data.len() as f32).sqrt()
    }

    /// Largest absolute element (0 for an empty tensor).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element of a rank-1 tensor slice `[start, end)`.
    pub(crate) fn argmax_range(&self, start: usize, end: usize) -> usize {
        let mut best = start;
        for i in start..end {
            if self.data[i] > self.data[best] {
                best = i;
            }
        }
        best - start
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?} ({} elements)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 9.0).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }

    #[test]
    fn out_of_bounds_index_is_rejected() {
        let t = Tensor::zeros(vec![2, 3]);
        assert!(t.get(&[2, 0]).is_err());
        assert!(t.get(&[0]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.get(&[2, 1]).unwrap(), 6.0);
        assert!(r.clone().reshape(vec![7]).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::full(vec![4], 1.0);
        let b = Tensor::full(vec![4], 2.0);
        a.axpy(0.5, &b).unwrap();
        assert!(a.as_slice().iter().all(|&x| (x - 2.0).abs() < 1e-6));
        let c = Tensor::zeros(vec![5]);
        assert!(a.axpy(1.0, &c).is_err());
    }

    #[test]
    fn rms_and_max_abs() {
        let t = Tensor::from_vec(vec![4], vec![1., -1., 1., -3.]).unwrap();
        assert!((t.rms() - (12.0f32 / 4.0).sqrt()).abs() < 1e-6);
        assert_eq!(t.max_abs(), 3.0);
    }
}
