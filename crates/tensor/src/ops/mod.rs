//! Primitive tensor operators: definition, shape inference, FLOP model and a
//! reference CPU executor.
//!
//! Every tensor computation in the workspace bottoms out in a [`PrimOp`].
//! The frontend language (`acrobat-ir`) maps operator names like `nn.dense`
//! to `PrimOp`s; the kernel generator (`acrobat-codegen`) composes them into
//! fused kernel programs; the runtime executes them — unbatched here, or
//! batched through [`crate::batch`].

mod elementwise;
mod matmul;
mod nn;
mod reduce;
mod shape_ops;
pub mod transcendental;

use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

pub use elementwise::{
    map_binary, map_unary, map_unary_instantiations, BinaryKind, MapUnaryFn, UnaryKind,
};
pub use matmul::{
    matmul_packed, matmul_packed_instantiations, matmul_raw, matmul_raw_instantiations,
    packed_width, MatmulFn, PackedMatmulFn, PackedRhs,
};

use crate::{Result, Shape, Tensor, TensorError};

/// A primitive tensor operator.
///
/// `PrimOp` implements `Eq` and `Hash` (floating-point attributes are
/// compared bit-wise) because batching signatures — "these DFG nodes run the
/// same kernel" — are keyed on the operator plus its operand shapes.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PrimOp {
    // -- unary elementwise ------------------------------------------------
    /// Rectified linear unit, `max(x, 0)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Elementwise exponential.
    Exp,
    /// Elementwise natural logarithm.
    Log,
    /// Elementwise negation.
    Neg,
    /// Elementwise square root.
    Sqrt,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    // -- binary elementwise (broadcasting) --------------------------------
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise division.
    Div,
    /// Elementwise maximum.
    Maximum,
    // -- matrix ------------------------------------------------------------
    /// Matrix product `[m, k] × [k, n] → [m, n]`.
    MatMul,
    // -- row-wise reductions (reduce the last axis) ------------------------
    /// Sum over the last axis.
    SumRows,
    /// Mean over the last axis.
    MeanRows,
    /// Maximum over the last axis.
    MaxRows,
    /// Index of the maximum over the last axis, as `f32`.
    ArgmaxRows,
    // -- row-wise normalizations (shape preserving) -------------------------
    /// Numerically-stable softmax over the last axis.
    SoftmaxRows,
    /// Layer normalization over the last axis.
    LayerNormRows {
        /// Stabilizing epsilon added to the variance.
        eps: f32,
    },
    // -- shape -------------------------------------------------------------
    /// Concatenation of all inputs along `axis`.
    Concat {
        /// Axis along which inputs are concatenated.
        axis: usize,
    },
    /// 2-D transpose.
    Transpose,
    /// Reinterpret the input under a new shape of equal volume.
    Reshape {
        /// Target shape.
        shape: Shape,
    },
    /// Contiguous slice `[start, start + len)` along `axis`.
    Slice {
        /// Sliced axis.
        axis: usize,
        /// Start offset along the axis.
        start: usize,
        /// Length of the slice along the axis.
        len: usize,
    },
    // -- creation ----------------------------------------------------------
    /// A constant-filled tensor (no inputs).
    Fill {
        /// Fill value.
        value: f32,
        /// Shape of the created tensor.
        shape: Shape,
    },
    // -- data movement -----------------------------------------------------
    /// Identity copy.
    Copy,
}

impl PrimOp {
    /// Short stable name used in kernel signatures and diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            PrimOp::Relu => "relu",
            PrimOp::Sigmoid => "sigmoid",
            PrimOp::Tanh => "tanh",
            PrimOp::Exp => "exp",
            PrimOp::Log => "log",
            PrimOp::Neg => "neg",
            PrimOp::Sqrt => "sqrt",
            PrimOp::Gelu => "gelu",
            PrimOp::Add => "add",
            PrimOp::Sub => "sub",
            PrimOp::Mul => "mul",
            PrimOp::Div => "div",
            PrimOp::Maximum => "maximum",
            PrimOp::MatMul => "matmul",
            PrimOp::SumRows => "sum_rows",
            PrimOp::MeanRows => "mean_rows",
            PrimOp::MaxRows => "max_rows",
            PrimOp::ArgmaxRows => "argmax_rows",
            PrimOp::SoftmaxRows => "softmax_rows",
            PrimOp::LayerNormRows { .. } => "layer_norm_rows",
            PrimOp::Concat { .. } => "concat",
            PrimOp::Transpose => "transpose",
            PrimOp::Reshape { .. } => "reshape",
            PrimOp::Slice { .. } => "slice",
            PrimOp::Fill { .. } => "fill",
            PrimOp::Copy => "copy",
        }
    }

    /// Number of inputs the operator accepts; `None` for variadic operators
    /// ([`PrimOp::Concat`]).
    pub fn arity(&self) -> Option<usize> {
        match self {
            PrimOp::Relu
            | PrimOp::Sigmoid
            | PrimOp::Tanh
            | PrimOp::Exp
            | PrimOp::Log
            | PrimOp::Neg
            | PrimOp::Sqrt
            | PrimOp::Gelu
            | PrimOp::SumRows
            | PrimOp::MeanRows
            | PrimOp::MaxRows
            | PrimOp::ArgmaxRows
            | PrimOp::SoftmaxRows
            | PrimOp::LayerNormRows { .. }
            | PrimOp::Transpose
            | PrimOp::Reshape { .. }
            | PrimOp::Slice { .. }
            | PrimOp::Copy => Some(1),
            PrimOp::Add
            | PrimOp::Sub
            | PrimOp::Mul
            | PrimOp::Div
            | PrimOp::Maximum
            | PrimOp::MatMul => Some(2),
            PrimOp::Fill { .. } => Some(0),
            PrimOp::Concat { .. } => None,
        }
    }

    /// Whether the operator is elementwise (unary or binary with broadcast).
    ///
    /// Elementwise operators are the candidates for vertical kernel fusion.
    pub fn is_elementwise(&self) -> bool {
        matches!(
            self,
            PrimOp::Relu
                | PrimOp::Sigmoid
                | PrimOp::Tanh
                | PrimOp::Exp
                | PrimOp::Log
                | PrimOp::Neg
                | PrimOp::Sqrt
                | PrimOp::Gelu
                | PrimOp::Add
                | PrimOp::Sub
                | PrimOp::Mul
                | PrimOp::Div
                | PrimOp::Maximum
        )
    }

    /// The scalar semantics of a unary elementwise operator, if `self` is
    /// one (see [`UnaryKind`] — the function both execution paths share).
    pub fn unary_kind(&self) -> Option<UnaryKind> {
        match self {
            PrimOp::Relu => Some(UnaryKind::Relu),
            PrimOp::Sigmoid => Some(UnaryKind::Sigmoid),
            PrimOp::Tanh => Some(UnaryKind::Tanh),
            PrimOp::Exp => Some(UnaryKind::Exp),
            PrimOp::Log => Some(UnaryKind::Log),
            PrimOp::Neg => Some(UnaryKind::Neg),
            PrimOp::Sqrt => Some(UnaryKind::Sqrt),
            PrimOp::Gelu => Some(UnaryKind::Gelu),
            _ => None,
        }
    }

    /// The scalar semantics of a binary elementwise operator, if `self` is
    /// one (see [`BinaryKind`]).
    pub fn binary_kind(&self) -> Option<BinaryKind> {
        match self {
            PrimOp::Add => Some(BinaryKind::Add),
            PrimOp::Sub => Some(BinaryKind::Sub),
            PrimOp::Mul => Some(BinaryKind::Mul),
            PrimOp::Div => Some(BinaryKind::Div),
            PrimOp::Maximum => Some(BinaryKind::Maximum),
            _ => None,
        }
    }

    /// Whether the operator only rearranges or relabels memory.
    ///
    /// These are the "memory copy operators" the paper force-fuses with their
    /// consumers (§D.3).
    pub fn is_memory_op(&self) -> bool {
        matches!(
            self,
            PrimOp::Concat { .. }
                | PrimOp::Transpose
                | PrimOp::Reshape { .. }
                | PrimOp::Slice { .. }
                | PrimOp::Copy
        )
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrimOp::LayerNormRows { eps } => write!(f, "layer_norm_rows(eps={eps})"),
            PrimOp::Concat { axis } => write!(f, "concat(axis={axis})"),
            PrimOp::Reshape { shape } => write!(f, "reshape(to={shape})"),
            PrimOp::Slice { axis, start, len } => {
                write!(f, "slice(axis={axis}, {start}..{})", start + len)
            }
            PrimOp::Fill { value, shape } => write!(f, "fill({value}, {shape})"),
            other => f.write_str(other.name()),
        }
    }
}

impl PartialEq for PrimOp {
    fn eq(&self, other: &Self) -> bool {
        use PrimOp::*;
        match (self, other) {
            (LayerNormRows { eps: a }, LayerNormRows { eps: b }) => a.to_bits() == b.to_bits(),
            (Concat { axis: a }, Concat { axis: b }) => a == b,
            (Reshape { shape: a }, Reshape { shape: b }) => a == b,
            (Slice { axis: a1, start: s1, len: l1 }, Slice { axis: a2, start: s2, len: l2 }) => {
                a1 == a2 && s1 == s2 && l1 == l2
            }
            (Fill { value: v1, shape: s1 }, Fill { value: v2, shape: s2 }) => {
                v1.to_bits() == v2.to_bits() && s1 == s2
            }
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        }
    }
}

impl Eq for PrimOp {}

impl Hash for PrimOp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            PrimOp::LayerNormRows { eps } => eps.to_bits().hash(state),
            PrimOp::Concat { axis } => axis.hash(state),
            PrimOp::Reshape { shape } => shape.hash(state),
            PrimOp::Slice { axis, start, len } => {
                axis.hash(state);
                start.hash(state);
                len.hash(state);
            }
            PrimOp::Fill { value, shape } => {
                value.to_bits().hash(state);
                shape.hash(state);
            }
            _ => {}
        }
    }
}

fn check_arity(op: &PrimOp, got: usize) -> Result<()> {
    match op.arity() {
        Some(expected) if expected != got => {
            Err(TensorError::Arity { op: op.name(), got, expected })
        }
        None if got == 0 => Err(TensorError::Arity { op: op.name(), got, expected: 1 }),
        _ => Ok(()),
    }
}

/// Infers the output shape of `op` applied to operands of `inputs` shapes.
///
/// # Errors
///
/// Returns a [`TensorError`] if the operand count, ranks, extents or
/// attributes are incompatible.
pub fn infer_shape(op: &PrimOp, inputs: &[&Shape]) -> Result<Shape> {
    check_arity(op, inputs.len())?;
    match op {
        PrimOp::Relu
        | PrimOp::Sigmoid
        | PrimOp::Tanh
        | PrimOp::Exp
        | PrimOp::Log
        | PrimOp::Neg
        | PrimOp::Sqrt
        | PrimOp::Gelu
        | PrimOp::SoftmaxRows
        | PrimOp::LayerNormRows { .. }
        | PrimOp::Copy => Ok(inputs[0].clone()),
        PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Maximum => {
            inputs[0].broadcast(inputs[1])
        }
        PrimOp::MatMul => matmul::infer(inputs[0], inputs[1]),
        PrimOp::SumRows | PrimOp::MeanRows | PrimOp::MaxRows | PrimOp::ArgmaxRows => {
            reduce::infer(inputs[0])
        }
        PrimOp::Concat { axis } => shape_ops::infer_concat(inputs, *axis),
        PrimOp::Transpose => shape_ops::infer_transpose(inputs[0]),
        PrimOp::Reshape { shape } => shape_ops::infer_reshape(inputs[0], shape),
        PrimOp::Slice { axis, start, len } => {
            shape_ops::infer_slice(inputs[0], *axis, *start, *len)
        }
        PrimOp::Fill { shape, .. } => Ok(shape.clone()),
    }
}

/// Approximate floating-point operation count for one invocation.
///
/// Feeds the simulated accelerator's compute-cost term; the constants follow
/// the usual conventions (a fused multiply-add counts as two).
pub fn flops(op: &PrimOp, inputs: &[&Shape]) -> u64 {
    let out = match infer_shape(op, inputs) {
        Ok(s) => s,
        Err(_) => return 0,
    };
    let n = out.numel() as u64;
    match op {
        PrimOp::MatMul => {
            let (m, k) = inputs[0].as_matrix().unwrap_or((1, 1));
            let (_, c) = inputs[1].as_matrix().unwrap_or((1, 1));
            2 * m as u64 * k as u64 * c as u64
        }
        PrimOp::Sigmoid | PrimOp::Tanh | PrimOp::Exp | PrimOp::Log | PrimOp::Sqrt => 4 * n,
        PrimOp::Gelu => 8 * n,
        PrimOp::SoftmaxRows => 5 * inputs[0].numel() as u64,
        PrimOp::LayerNormRows { .. } => 6 * inputs[0].numel() as u64,
        PrimOp::SumRows | PrimOp::MeanRows | PrimOp::MaxRows | PrimOp::ArgmaxRows => {
            inputs[0].numel() as u64
        }
        PrimOp::Concat { .. }
        | PrimOp::Transpose
        | PrimOp::Reshape { .. }
        | PrimOp::Slice { .. }
        | PrimOp::Copy
        | PrimOp::Fill { .. } => 0,
        _ => n,
    }
}

/// A borrowed raw operand: flat data plus shape.
pub type RawInput<'a> = (&'a [f32], &'a Shape);

/// Executes `op` on raw slices, writing into `out`.
///
/// This is the low-level entry point used by generated kernel programs
/// (`acrobat-codegen`), which manage their own register buffers.  `out` must
/// have exactly the inferred output volume.
///
/// # Errors
///
/// Propagates shape-inference and kernel errors.
pub fn execute_slices(op: &PrimOp, inputs: &[RawInput<'_>], out: &mut [f32]) -> Result<()> {
    match op {
        PrimOp::Relu
        | PrimOp::Sigmoid
        | PrimOp::Tanh
        | PrimOp::Exp
        | PrimOp::Log
        | PrimOp::Neg
        | PrimOp::Sqrt
        | PrimOp::Gelu => {
            let k = op.unary_kind().expect("unary elementwise op");
            elementwise::unary(inputs[0], out, |x| k.apply(x))
        }
        PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Maximum => {
            let k = op.binary_kind().expect("binary elementwise op");
            elementwise::binary(inputs[0], inputs[1], out, |a, b| k.apply(a, b))
        }
        PrimOp::MatMul => matmul::matmul(inputs[0], inputs[1], out),
        PrimOp::SumRows => reduce::reduce(inputs[0], out, reduce::Reduction::Sum),
        PrimOp::MeanRows => reduce::reduce(inputs[0], out, reduce::Reduction::Mean),
        PrimOp::MaxRows => reduce::reduce(inputs[0], out, reduce::Reduction::Max),
        PrimOp::ArgmaxRows => reduce::reduce(inputs[0], out, reduce::Reduction::Argmax),
        PrimOp::SoftmaxRows => nn::softmax_rows(inputs[0], out),
        PrimOp::LayerNormRows { eps } => nn::layer_norm_rows(inputs[0], out, *eps),
        PrimOp::Concat { axis } => shape_ops::concat(inputs, *axis, out),
        PrimOp::Transpose => shape_ops::transpose(inputs[0], out),
        PrimOp::Reshape { .. } | PrimOp::Copy => {
            out.copy_from_slice(inputs[0].0);
            Ok(())
        }
        PrimOp::Slice { axis, start, len } => shape_ops::slice(inputs[0], *axis, *start, *len, out),
        PrimOp::Fill { value, .. } => {
            out.fill(*value);
            Ok(())
        }
    }
}

/// Executes `op` on host tensors, allocating the output.
///
/// This is the reference (unbatched) execution path; the runtime uses the
/// arena-based batched path instead.
///
/// # Errors
///
/// Propagates shape-inference and kernel errors.
///
/// ```
/// use acrobat_tensor::{execute, PrimOp, Tensor};
///
/// let x = Tensor::from_vec(vec![-1.0, 2.0], &[2])?;
/// let y = execute(&PrimOp::Relu, &[&x])?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok::<(), acrobat_tensor::TensorError>(())
/// ```
pub fn execute(op: &PrimOp, inputs: &[&Tensor]) -> Result<Tensor> {
    let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    let out_shape = infer_shape(op, &shapes)?;
    let mut out = vec![0.0f32; out_shape.numel()];
    let raw: Vec<RawInput<'_>> = inputs.iter().map(|t| (t.data(), t.shape())).collect();
    execute_slices(op, &raw, &mut out)?;
    Tensor::from_vec(out, out_shape.dims())
}

/// Executes `op` writing the result into a caller-provided buffer.
///
/// # Errors
///
/// Returns [`TensorError::DataLength`] if `out` has the wrong length, and
/// propagates shape-inference and kernel errors.
pub fn execute_into(op: &PrimOp, inputs: &[&Tensor], out: &mut [f32]) -> Result<Shape> {
    let shapes: Vec<&Shape> = inputs.iter().map(|t| t.shape()).collect();
    let out_shape = infer_shape(op, &shapes)?;
    if out.len() != out_shape.numel() {
        return Err(TensorError::DataLength { got: out.len(), expected: out_shape.numel() });
    }
    let raw: Vec<RawInput<'_>> = inputs.iter().map(|t| (t.data(), t.shape())).collect();
    execute_slices(op, &raw, out)?;
    Ok(out_shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_enforced() {
        let x = Tensor::zeros(&[2]);
        assert!(matches!(
            execute(&PrimOp::Add, &[&x]),
            Err(TensorError::Arity { op: "add", got: 1, expected: 2 })
        ));
        assert!(execute(&PrimOp::Concat { axis: 0 }, &[]).is_err());
    }

    #[test]
    fn primop_eq_hash_uses_attrs() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(PrimOp::Fill { value: 0.0, shape: Shape::new(&[2]) });
        assert!(set.contains(&PrimOp::Fill { value: 0.0, shape: Shape::new(&[2]) }));
        assert!(!set.contains(&PrimOp::Fill { value: 1.0, shape: Shape::new(&[2]) }));
        assert!(!set.contains(&PrimOp::Fill { value: 0.0, shape: Shape::new(&[3]) }));
        assert_ne!(PrimOp::Concat { axis: 0 }, PrimOp::Concat { axis: 1 });
        assert_eq!(PrimOp::Add, PrimOp::Add);
        assert_ne!(PrimOp::Add, PrimOp::Sub);
    }

    #[test]
    fn flops_matmul() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[3, 4]);
        assert_eq!(flops(&PrimOp::MatMul, &[&a, &b]), 2 * 2 * 3 * 4);
    }

    #[test]
    fn flops_memory_ops_zero() {
        let a = Shape::new(&[4, 4]);
        assert_eq!(flops(&PrimOp::Transpose, &[&a]), 0);
        assert_eq!(flops(&PrimOp::Copy, &[&a]), 0);
    }

    #[test]
    fn execute_into_checks_buffer() {
        let x = Tensor::zeros(&[4]);
        let mut small = vec![0.0; 3];
        assert!(execute_into(&PrimOp::Relu, &[&x], &mut small).is_err());
        let mut right = vec![0.0; 4];
        assert!(execute_into(&PrimOp::Relu, &[&x], &mut right).is_ok());
    }

    #[test]
    fn display_formats() {
        assert_eq!(PrimOp::Concat { axis: 1 }.to_string(), "concat(axis=1)");
        assert_eq!(PrimOp::Slice { axis: 0, start: 2, len: 3 }.to_string(), "slice(axis=0, 2..5)");
        assert_eq!(PrimOp::MatMul.to_string(), "matmul");
    }
}
