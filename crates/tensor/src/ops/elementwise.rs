//! Unary and binary elementwise kernels with lightweight broadcasting.

use std::sync::OnceLock;

use super::{transcendental, RawInput};
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
            UnaryKind::Sigmoid => transcendental::sigmoid(x),
            UnaryKind::Tanh => transcendental::tanh(x),
            UnaryKind::Exp => transcendental::exp(x),
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

/// Slice-level unary kernel: `out[i] = kind.apply(input[i])`.  Both
/// slices must have the same length.
///
/// This is the widest of [`map_unary_instantiations`]: the same loop
/// compiled for AVX-512F, AVX2 or the baseline instruction set, chosen
/// once.  [`UnaryKind::apply`] is branch-free IEEE arithmetic with nothing
/// fused (`Log` alone calls libm, the same function everywhere), so each
/// instantiation is the scalar function's bits, whatever width the
/// compiler vectorises it to (`tests/transcendental_bits.rs`).
pub fn map_unary(kind: UnaryKind, input: &[f32], out: &mut [f32]) {
    static WIDEST: OnceLock<MapUnaryFn> = OnceLock::new();
    WIDEST.get_or_init(|| map_unary_instantiations()[0].1)(kind, input, out)
}

/// The signature of [`map_unary`] and of each of its instantiations.
pub type MapUnaryFn = fn(UnaryKind, &[f32], &mut [f32]);

/// Every instantiation of [`map_unary`] this host can run, widest first,
/// the portable one last (the list mirrors
/// [`crate::matmul_raw_instantiations`]).
#[doc(hidden)]
pub fn map_unary_instantiations() -> Vec<(&'static str, MapUnaryFn)> {
    let mut all: Vec<(&'static str, MapUnaryFn)> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            all.push(("avx512f", x86::avx512f));
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            all.push(("avx2", x86::avx2));
        }
    }
    all.push(("portable", map_each));
    all
}

/// The one body behind every instantiation: one loop per kind, so each
/// loop body is a single straight-line function the compiler can
/// vectorise.
#[inline(always)]
fn map_each(kind: UnaryKind, input: &[f32], out: &mut [f32]) {
    debug_assert_eq!(input.len(), out.len());
    macro_rules! each {
        ($($k:ident),*) => {
            match kind {
                $(UnaryKind::$k => {
                    for (o, &x) in out.iter_mut().zip(input) {
                        *o = UnaryKind::$k.apply(x);
                    }
                })*
            }
        };
    }
    each!(Relu, Sigmoid, Tanh, Exp, Log, Neg, Sqrt, Gelu)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 and AVX-512F instantiations: [`super::map_each`] compiled
    //! with the wider registers enabled.  No intrinsics — the compiler
    //! vectorises the scalar body, and it cannot fuse a multiply with an
    //! add because Rust never permits contraction.

    use super::{map_each, UnaryKind};

    #[target_feature(enable = "avx2")]
    unsafe fn map_avx2(kind: UnaryKind, input: &[f32], out: &mut [f32]) {
        map_each(kind, input, out)
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn map_avx512f(kind: UnaryKind, input: &[f32], out: &mut [f32]) {
        map_each(kind, input, out)
    }

    /// Listed by [`super::map_unary_instantiations`] only where AVX2 was
    /// detected.
    pub(super) fn avx2(kind: UnaryKind, input: &[f32], out: &mut [f32]) {
        // SAFETY: reachable only through the instantiation list, which
        // names it after detecting AVX2.
        unsafe { map_avx2(kind, input, out) }
    }

    /// Listed by [`super::map_unary_instantiations`] only where AVX-512F
    /// was detected.
    pub(super) fn avx512f(kind: UnaryKind, input: &[f32], out: &mut [f32]) {
        // SAFETY: as for `avx2`, after detecting AVX-512F.
        unsafe { map_avx512f(kind, input, out) }
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
        // Within 2 ulp of the exact value (tanh(2) is in [0.5, 1): ulp 2⁻²⁴).
        assert!((t.data()[2] as f64 - 2f64.tanh()).abs() <= 2.0 * 2f64.powi(-24));
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
