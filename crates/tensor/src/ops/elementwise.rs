//! Unary and binary elementwise kernels with lightweight broadcasting.

use super::RawInput;
use crate::Result;

/// Scalar semantics of a unary elementwise operator.
///
/// This is the single source of truth for the per-element function: the
/// reference interpreter ([`crate::execute_slices`]) and any specialized
/// execution path both bottom out in [`UnaryKind::apply`], so bit-for-bit
/// agreement between them is by construction, not by coincidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryKind {
    /// `max(x, 0)`.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Negation.
    Neg,
    /// Square root.
    Sqrt,
    /// GELU (tanh approximation).
    Gelu,
}

impl UnaryKind {
    /// The per-element function.
    #[inline(always)]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryKind::Relu => x.max(0.0),
            UnaryKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryKind::Tanh => x.tanh(),
            UnaryKind::Exp => x.exp(),
            UnaryKind::Log => x.ln(),
            UnaryKind::Neg => -x,
            UnaryKind::Sqrt => x.sqrt(),
            UnaryKind::Gelu => super::nn::gelu_scalar(x),
        }
    }
}

/// Scalar semantics of a binary elementwise operator (see [`UnaryKind`] for
/// the identity argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryKind {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `max(a, b)`.
    Maximum,
}

impl BinaryKind {
    /// The per-element function.
    #[inline(always)]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryKind::Add => a + b,
            BinaryKind::Sub => a - b,
            BinaryKind::Mul => a * b,
            BinaryKind::Div => a / b,
            BinaryKind::Maximum => a.max(b),
        }
    }
}

/// Slice-level unary kernel: `out[i] = kind.apply(input[i])`, with a
/// `chunks_exact` main loop the optimizer can unroll and vectorize.  Both
/// slices must have the same length.
pub fn map_unary(kind: UnaryKind, input: &[f32], out: &mut [f32]) {
    debug_assert_eq!(input.len(), out.len());
    const W: usize = 8;
    let main = input.len() - input.len() % W;
    for (oc, ic) in out[..main].chunks_exact_mut(W).zip(input[..main].chunks_exact(W)) {
        for (o, &x) in oc.iter_mut().zip(ic) {
            *o = kind.apply(x);
        }
    }
    for (o, &x) in out[main..].iter_mut().zip(&input[main..]) {
        *o = kind.apply(x);
    }
}

/// Slice-level binary kernel: `out[i] = kind.apply(lhs[i], rhs[i])`.  No
/// broadcasting — all three slices must have the same length (callers that
/// need broadcast go through [`binary`]).
pub fn map_binary(kind: BinaryKind, lhs: &[f32], rhs: &[f32], out: &mut [f32]) {
    debug_assert_eq!(lhs.len(), out.len());
    debug_assert_eq!(rhs.len(), out.len());
    const W: usize = 8;
    let main = out.len() - out.len() % W;
    for ((oc, lc), rc) in out[..main]
        .chunks_exact_mut(W)
        .zip(lhs[..main].chunks_exact(W))
        .zip(rhs[..main].chunks_exact(W))
    {
        for ((o, &a), &b) in oc.iter_mut().zip(lc).zip(rc) {
            *o = kind.apply(a, b);
        }
    }
    for ((o, &a), &b) in out[main..].iter_mut().zip(&lhs[main..]).zip(&rhs[main..]) {
        *o = kind.apply(a, b);
    }
}

/// Applies `f` to every element of the input.
pub(crate) fn unary(input: RawInput<'_>, out: &mut [f32], f: impl Fn(f32) -> f32) -> Result<()> {
    debug_assert_eq!(input.0.len(), out.len());
    for (o, &x) in out.iter_mut().zip(input.0) {
        *o = f(x);
    }
    Ok(())
}

/// Applies `f` pairwise, broadcasting either operand per
/// [`crate::Shape::broadcast`].
pub(crate) fn binary(
    lhs: RawInput<'_>,
    rhs: RawInput<'_>,
    out: &mut [f32],
    f: impl Fn(f32, f32) -> f32,
) -> Result<()> {
    let out_shape = lhs.1.broadcast_ref(rhs.1)?;
    debug_assert_eq!(out.len(), out_shape.numel());
    let lmap = lhs.1.broadcast_index(out_shape);
    let rmap = rhs.1.broadcast_index(out_shape);
    // Fast path: both operands already have the output shape.
    if lhs.0.len() == out.len() && rhs.0.len() == out.len() {
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(lhs.0[i], rhs.0[i]);
        }
        return Ok(());
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = f(lhs.0[lmap.map(i)], rhs.0[rmap.map(i)]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{execute, PrimOp, Tensor};

    #[test]
    fn unary_ops() {
        let x = Tensor::from_vec(vec![-2.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(execute(&PrimOp::Relu, &[&x]).unwrap().data(), &[0.0, 0.0, 2.0]);
        assert_eq!(execute(&PrimOp::Neg, &[&x]).unwrap().data(), &[2.0, 0.0, -2.0]);
        let s = execute(&PrimOp::Sigmoid, &[&x]).unwrap();
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        assert!(s.data()[0] < 0.5 && s.data()[2] > 0.5);
        let t = execute(&PrimOp::Tanh, &[&x]).unwrap();
        assert!((t.data()[2] - (2.0f32).tanh()).abs() < 1e-6);
    }

    #[test]
    fn binary_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 3.0, 2.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(execute(&PrimOp::Add, &[&a, &b]).unwrap().data(), &[5.0; 4]);
        assert_eq!(execute(&PrimOp::Sub, &[&a, &b]).unwrap().data(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(execute(&PrimOp::Mul, &[&a, &b]).unwrap().data(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(execute(&PrimOp::Maximum, &[&a, &b]).unwrap().data(), &[4.0, 3.0, 3.0, 4.0]);
    }

    #[test]
    fn binary_row_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let bias = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]).unwrap();
        let out = execute(&PrimOp::Add, &[&a, &bias]).unwrap();
        assert_eq!(out.data(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        // Broadcast is symmetric.
        let out2 = execute(&PrimOp::Add, &[&bias, &a]).unwrap();
        assert_eq!(out.data(), out2.data());
    }

    #[test]
    fn binary_col_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let out = execute(&PrimOp::Mul, &[&a, &col]).unwrap();
        assert_eq!(out.data(), &[1.0, 2.0, 3.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn binary_scalar_broadcast() {
        let a = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        let s = Tensor::scalar(2.0);
        assert_eq!(execute(&PrimOp::Div, &[&a, &s]).unwrap().data(), &[1.0, 2.0]);
        assert_eq!(execute(&PrimOp::Div, &[&s, &a]).unwrap().data(), &[1.0, 0.5]);
    }

    #[test]
    fn binary_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(execute(&PrimOp::Add, &[&a, &b]).is_err());
    }

    #[test]
    fn map_kernels_match_reference_bits() {
        use super::{map_binary, map_unary, BinaryKind, UnaryKind};
        // Lengths around the chunk width exercise main loop + remainder.
        for n in [0usize, 1, 7, 8, 9, 16, 29] {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32 - 3.5) * 0.7).collect();
            let ys: Vec<f32> = (0..n).map(|i| (i as f32 + 0.5) * -0.3).collect();
            for kind in [
                UnaryKind::Relu,
                UnaryKind::Sigmoid,
                UnaryKind::Tanh,
                UnaryKind::Exp,
                UnaryKind::Log,
                UnaryKind::Neg,
                UnaryKind::Sqrt,
                UnaryKind::Gelu,
            ] {
                let mut a = vec![0.0f32; n];
                let mut b = vec![0.0f32; n];
                map_unary(kind, &xs, &mut a);
                let shape = crate::Shape::new(&[n]);
                super::super::elementwise::unary((&xs, &shape), &mut b, |x| kind.apply(x)).unwrap();
                assert!(a.iter().zip(&b).all(|(p, q)| p.to_bits() == q.to_bits()), "{kind:?}");
            }
            for kind in [
                BinaryKind::Add,
                BinaryKind::Sub,
                BinaryKind::Mul,
                BinaryKind::Div,
                BinaryKind::Maximum,
            ] {
                let mut a = vec![0.0f32; n];
                map_binary(kind, &xs, &ys, &mut a);
                let expect: Vec<f32> =
                    xs.iter().zip(&ys).map(|(&x, &y)| kind.apply(x, y)).collect();
                assert!(a.iter().zip(&expect).all(|(p, q)| p.to_bits() == q.to_bits()), "{kind:?}");
            }
        }
    }
}
