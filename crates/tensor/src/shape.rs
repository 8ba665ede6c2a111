use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Result, TensorError};

/// A dense, row-major tensor shape.
///
/// Every per-instance tensor of every model the paper evaluates is a
/// scalar, a vector or a matrix, and a shape rides on every host tensor and
/// every device handle — so ranks 0–2 are stored inline (a shape is three
/// words either way, and cloning one allocates nothing); only higher ranks
/// (lane-stacked batches) own a heap slice.  Scalars are rank-0 shapes with
/// volume 1.  Equality, ordering and hashing are those of the extent list.
///
/// ```
/// use acrobat_tensor::Shape;
///
/// let s = Shape::new(&[2, 3]);
/// assert_eq!(s.numel(), 6);
/// assert_eq!(s.strides(), vec![3, 1]);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Shape(Repr);

#[derive(Clone, Serialize, Deserialize)]
enum Repr {
    /// Rank ≤ 2: the extents in `dims[..rank]`, the rest zero.
    Inline { dims: [usize; 2], rank: u8 },
    /// Rank ≥ 3.
    Heap(Box<[usize]>),
}

impl Shape {
    /// Creates a shape from extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(match *dims {
            [] => Repr::Inline { dims: [0, 0], rank: 0 },
            [n] => Repr::Inline { dims: [n, 0], rank: 1 },
            [m, n] => Repr::Inline { dims: [m, n], rank: 2 },
            _ => Repr::Heap(dims.into()),
        })
    }

    /// The scalar (rank-0) shape.
    pub const fn scalar() -> Self {
        Shape(Repr::Inline { dims: [0, 0], rank: 0 })
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims().len()
    }

    /// Extents of all axes.
    pub fn dims(&self) -> &[usize] {
        match &self.0 {
            Repr::Inline { dims, rank } => &dims[..*rank as usize],
            Repr::Heap(dims) => dims,
        }
    }

    /// Extent of axis `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Total number of elements (1 for scalars).
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Size of the shape in bytes when stored as `f32`.
    pub fn byte_size(&self) -> usize {
        self.numel() * std::mem::size_of::<f32>()
    }

    /// Row-major strides, one per axis.
    pub fn strides(&self) -> Vec<usize> {
        let dims = self.dims();
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        strides
    }

    /// Interprets the shape as `(rows, cols)`, treating rank-1 as a single row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Rank`] for ranks above 2.
    pub fn as_matrix(&self) -> Result<(usize, usize)> {
        match self.dims() {
            [] => Ok((1, 1)),
            [n] => Ok((1, *n)),
            [m, n] => Ok((*m, *n)),
            _ => Err(TensorError::Rank { op: "as_matrix", shape: self.clone(), expected: 2 }),
        }
    }

    /// The number of rows when viewed as a matrix of rows (product of all
    /// axes but the last); scalars have one row.
    pub fn rows(&self) -> usize {
        match self.dims().split_last() {
            Some((_, lead)) => lead.iter().product::<usize>().max(1),
            None => 1,
        }
    }

    /// The extent of the last axis (1 for scalars).
    pub fn last_dim(&self) -> usize {
        self.dims().last().copied().unwrap_or(1)
    }

    /// Computes the elementwise broadcast of two shapes.
    ///
    /// Supported patterns (sufficient for every model in the paper):
    /// identical shapes; a scalar against anything; a row vector `[1, n]` or
    /// `[n]` against `[m, n]` (bias addition); a column `[m, 1]` against
    /// `[m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes are not
    /// broadcast-compatible under these rules.
    pub fn broadcast(&self, other: &Shape) -> Result<Shape> {
        self.broadcast_ref(other).cloned()
    }

    /// [`Shape::broadcast`] without the copy: the broadcast of two shapes
    /// is always one of them, so the kernels borrow it.
    pub(crate) fn broadcast_ref<'a>(&'a self, other: &'a Shape) -> Result<&'a Shape> {
        if self == other {
            return Ok(self);
        }
        if self.numel() == 1 {
            return Ok(other);
        }
        if other.numel() == 1 {
            return Ok(self);
        }
        // Row-vector broadcast: [1, n] or [n] vs [m, n].
        let row_of = |s: &Shape| -> Option<usize> {
            match s.dims() {
                [n] => Some(*n),
                [1, n] => Some(*n),
                _ => None,
            }
        };
        if let (Some(n), true) = (row_of(self), other.rank() == 2) {
            if other.dim(1) == n {
                return Ok(other);
            }
        }
        if let (Some(n), true) = (row_of(other), self.rank() == 2) {
            if self.dim(1) == n {
                return Ok(self);
            }
        }
        // Column broadcast: [m, 1] vs [m, n].
        if self.rank() == 2 && other.rank() == 2 && self.dim(0) == other.dim(0) {
            if self.dim(1) == 1 {
                return Ok(other);
            }
            if other.dim(1) == 1 {
                return Ok(self);
            }
        }
        Err(TensorError::ShapeMismatch { op: "broadcast", lhs: self.clone(), rhs: other.clone() })
    }

    /// How each element index of the broadcast output maps back into `self`.
    ///
    /// Returns a function-friendly descriptor used by the elementwise kernels
    /// so they can read a broadcast operand without materializing it.
    pub(crate) fn broadcast_index(&self, out: &Shape) -> BroadcastMap {
        if self == out {
            return BroadcastMap::Identity;
        }
        if self.numel() == 1 {
            return BroadcastMap::Scalar;
        }
        let n = out.last_dim();
        match self.dims() {
            [k] if *k == n => BroadcastMap::Row(n),
            [1, k] if *k == n => BroadcastMap::Row(n),
            [m, 1] if out.rank() == 2 && out.dim(0) == *m => BroadcastMap::Col(n),
            _ => BroadcastMap::Identity,
        }
    }
}

/// How an operand participates in a broadcast elementwise kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BroadcastMap {
    /// Operand has the output shape; index maps through unchanged.
    Identity,
    /// Operand is a single element.
    Scalar,
    /// Operand is a row vector repeated along rows; payload is row length.
    Row(usize),
    /// Operand is a column vector repeated along columns; payload is row
    /// length of the output.
    Col(usize),
}

impl BroadcastMap {
    #[inline]
    pub(crate) fn map(self, i: usize) -> usize {
        match self {
            BroadcastMap::Identity => i,
            BroadcastMap::Scalar => 0,
            BroadcastMap::Row(n) => i % n,
            BroadcastMap::Col(n) => i / n,
        }
    }
}

impl PartialEq for Shape {
    fn eq(&self, other: &Shape) -> bool {
        self.dims() == other.dims()
    }
}

impl Eq for Shape {}

impl PartialOrd for Shape {
    fn partial_cmp(&self, other: &Shape) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Shape {
    fn cmp(&self, other: &Shape) -> std::cmp::Ordering {
        self.dims().cmp(other.dims())
    }
}

impl std::hash::Hash for Shape {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.dims().hash(state);
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.rows(), 1);
        assert_eq!(s.last_dim(), 1);
        assert_eq!(s.to_string(), "()");
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn broadcast_identical() {
        let a = Shape::new(&[2, 3]);
        assert_eq!(a.broadcast(&a).unwrap(), a);
    }

    #[test]
    fn broadcast_scalar() {
        let a = Shape::new(&[2, 3]);
        let s = Shape::scalar();
        assert_eq!(a.broadcast(&s).unwrap(), a);
        assert_eq!(s.broadcast(&a).unwrap(), a);
    }

    #[test]
    fn broadcast_row() {
        let a = Shape::new(&[4, 3]);
        let r = Shape::new(&[1, 3]);
        let v = Shape::new(&[3]);
        assert_eq!(a.broadcast(&r).unwrap(), a);
        assert_eq!(r.broadcast(&a).unwrap(), a);
        assert_eq!(v.broadcast(&a).unwrap(), a);
    }

    #[test]
    fn broadcast_col() {
        let a = Shape::new(&[4, 3]);
        let c = Shape::new(&[4, 1]);
        assert_eq!(a.broadcast(&c).unwrap(), a);
        assert_eq!(c.broadcast(&a).unwrap(), a);
    }

    #[test]
    fn broadcast_mismatch() {
        let a = Shape::new(&[4, 3]);
        let b = Shape::new(&[3, 4]);
        assert!(a.broadcast(&b).is_err());
    }

    #[test]
    fn as_matrix_ranks() {
        assert_eq!(Shape::scalar().as_matrix().unwrap(), (1, 1));
        assert_eq!(Shape::new(&[7]).as_matrix().unwrap(), (1, 7));
        assert_eq!(Shape::new(&[2, 7]).as_matrix().unwrap(), (2, 7));
        assert!(Shape::new(&[2, 7, 3]).as_matrix().is_err());
    }

    #[test]
    fn broadcast_map_indices() {
        let out = Shape::new(&[2, 3]);
        let row = Shape::new(&[1, 3]);
        let col = Shape::new(&[2, 1]);
        let m = row.broadcast_index(&out);
        assert_eq!((0..6).map(|i| m.map(i)).collect::<Vec<_>>(), vec![0, 1, 2, 0, 1, 2]);
        let m = col.broadcast_index(&out);
        assert_eq!((0..6).map(|i| m.map(i)).collect::<Vec<_>>(), vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(&[1, 256]).to_string(), "(1, 256)");
        assert_eq!(format!("{:?}", Shape::new(&[1, 256])), "Shape([1, 256])");
    }

    #[test]
    fn inline_and_heap_shapes_are_one_type() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // Three words whatever the rank; ranks 0–2 own no heap memory.
        assert_eq!(std::mem::size_of::<Shape>(), std::mem::size_of::<Vec<usize>>());
        let lists: [&[usize]; 7] = [&[], &[5], &[1, 0], &[1, 5], &[2], &[1, 2, 3], &[9, 9, 9, 9]];
        for a in lists {
            let s = Shape::new(a);
            assert_eq!((s.dims(), s.rank(), s.clone()), (a, a.len(), Shape::from(a.to_vec())));
            for b in lists {
                // Equality, order and hash are the extent list's.
                let t = Shape::new(b);
                assert_eq!(s == t, a == b);
                assert_eq!(s.cmp(&t), a.cmp(b), "{a:?} vs {b:?}");
            }
            let hash = |v: &dyn Fn(&mut DefaultHasher)| {
                let mut h = DefaultHasher::new();
                v(&mut h);
                h.finish()
            };
            assert_eq!(hash(&|h| s.hash(h)), hash(&|h| a.to_vec().hash(h)));
        }
    }
}
