//! Neural-network specific kernels: softmax, layer norm, GELU.

use super::{transcendental, RawInput};
use crate::Result;

/// GELU (tanh approximation), matching the constant used by BERT-family
/// models — Berxit in the evaluation needs it.
#[inline(always)]
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + transcendental::tanh(SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)))
}

/// `(input row, output row)` pairs over the last axis; none when the
/// tensor is empty (a zero-width last axis included).
fn rows<'a>(
    input: RawInput<'a>,
    out: &'a mut [f32],
) -> impl Iterator<Item = (&'a [f32], &'a mut [f32])> {
    let n = input.1.last_dim().max(1);
    input.0.chunks_exact(n).zip(out.chunks_exact_mut(n))
}

/// Numerically-stable softmax over the last axis.
pub(crate) fn softmax_rows(input: RawInput<'_>, out: &mut [f32]) -> Result<()> {
    for (row, orow) in rows(input, out) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &x) in orow.iter_mut().zip(row) {
            *o = transcendental::exp(x - max);
            sum += *o;
        }
        for o in orow.iter_mut() {
            *o /= sum;
        }
    }
    Ok(())
}

/// Layer normalization over the last axis (no affine parameters — scale and
/// shift are expressed as separate `mul`/`add` operators so the fusion pass
/// can see them).
pub(crate) fn layer_norm_rows(input: RawInput<'_>, out: &mut [f32], eps: f32) -> Result<()> {
    let n = input.1.last_dim();
    for (row, orow) in rows(input, out) {
        let mean = row.iter().sum::<f32>() / n as f32;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        let denom = (var + eps).sqrt();
        for (o, &x) in orow.iter_mut().zip(row) {
            *o = (x - mean) / denom;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{execute, PrimOp, Tensor};

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], &[2, 3]).unwrap();
        let s = execute(&PrimOp::SoftmaxRows, &[&x]).unwrap();
        let row0: f32 = s.data()[..3].iter().sum();
        let row1: f32 = s.data()[3..].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-5);
        assert!((row1 - 1.0).abs() < 1e-5, "stable under large inputs");
        assert!(s.data()[2] > s.data()[1] && s.data()[1] > s.data()[0]);
    }

    #[test]
    fn empty_last_axis_gives_empty_output() {
        for shape in [&[3, 0][..], &[0, 4], &[0]] {
            let x = Tensor::zeros(shape);
            for op in [PrimOp::SoftmaxRows, PrimOp::LayerNormRows { eps: 1e-5 }] {
                let y = execute(&op, &[&x]).unwrap();
                assert_eq!(y.shape(), x.shape(), "{op:?} on {shape:?}");
                assert!(y.data().is_empty());
            }
        }
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap();
        let y = execute(&PrimOp::LayerNormRows { eps: 1e-5 }, &[&x]).unwrap();
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        let var: f32 = y.data().iter().map(|v| v * v).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_reference_points() {
        // GELU(0) = 0, GELU(x) → x for large x, GELU(-x) → 0 for large x.
        assert_eq!(super::gelu_scalar(0.0), 0.0);
        assert!((super::gelu_scalar(10.0) - 10.0).abs() < 1e-3);
        assert!(super::gelu_scalar(-10.0).abs() < 1e-3);
        // GELU(1) ≈ 0.8412
        assert!((super::gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }
}
