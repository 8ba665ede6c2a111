use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Result, Shape, TensorError};

/// An owned host tensor: a dense row-major `f32` buffer plus a [`Shape`].
///
/// Host tensors are used for model weights, input embeddings and reference
/// results in tests; runtime intermediates live in the simulated device
/// arena ([`crate::DeviceMem`]) instead.  The buffer is a boxed slice — a
/// host tensor never grows, and a pool of input trees holds thousands of
/// them — so a `Vec` handed in with spare capacity gives the spare back
/// (one `realloc`); every constructor here builds an exact-size buffer.
///
/// ```
/// use acrobat_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert!(t.data().iter().all(|&x| x == 0.0));
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Box<[f32]>,
}

impl Tensor {
    /// Creates a tensor from a flat buffer and shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if `data.len()` does not equal the
    /// shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::DataLength { got: data.len(), expected: shape.numel() });
        }
        Ok(Tensor { shape, data: data.into() })
    }

    /// Creates a tensor of zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        Tensor::fill(dims, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::fill(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn fill(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()].into();
        Tensor { shape, data }
    }

    /// Creates a rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: Box::new([value]) }
    }

    /// Creates a tensor whose elements are produced by `f(flat_index)`.
    pub fn from_fn(dims: &[usize], f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The flat row-major element buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat element buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The scalar value of a single-element tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] if the tensor has more than one
    /// element.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() == 1 {
            Ok(self.data[0])
        } else {
            Err(TensorError::DataLength { got: self.data.len(), expected: 1 })
        }
    }

    /// Reinterprets the buffer under a new shape with the same volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeNumel`] on a volume mismatch.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let to = Shape::new(dims);
        if to.numel() != self.shape.numel() {
            return Err(TensorError::ReshapeNumel { from: self.shape.clone(), to });
        }
        Ok(Tensor { shape: to, data: self.data.clone() })
    }

    /// Maximum absolute difference against another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max))
    }

    /// Returns `true` if all elements are within `tol` of `other`.
    ///
    /// Shape mismatch counts as "not close" rather than an error, which is
    /// the convenient behaviour in tests.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        const LIMIT: usize = 8;
        if self.data.len() <= LIMIT {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "{:?}…(+{})", &self.data[..LIMIT], self.data.len() - LIMIT)
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::DataLength { got: 5, expected: 6 })
        ));
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(4.25).item().unwrap(), 4.25);
        assert!(Tensor::zeros(&[2]).item().is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32);
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.5], &[2]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert!(a.allclose(&b, 0.5));
        assert!(!a.allclose(&b, 0.4));
        assert!(!a.allclose(&Tensor::zeros(&[3]), 1e9));
    }

    #[test]
    fn debug_truncates() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("+92"));
    }
}
