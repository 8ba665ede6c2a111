//! Row-wise reduction kernels (reduce the last axis).

use super::RawInput;
use crate::{Result, Shape};

/// Shape rule: drop the last axis; scalars and vectors reduce to scalars.
pub(crate) fn infer(input: &Shape) -> Result<Shape> {
    let dims = input.dims();
    match dims.split_last() {
        Some((_, lead)) => Ok(Shape::new(lead)),
        None => Ok(Shape::scalar()),
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Reduction {
    Sum,
    Mean,
    Max,
    Argmax,
}

pub(crate) fn reduce(input: RawInput<'_>, out: &mut [f32], red: Reduction) -> Result<()> {
    // One output slot per row; a zero-width last axis reduces empty rows
    // (sum 0, max -inf).
    let n = input.1.last_dim();
    for (r, slot) in out.iter_mut().enumerate() {
        let row = &input.0[r * n..(r + 1) * n];
        *slot = match red {
            Reduction::Sum => row.iter().sum(),
            Reduction::Mean => row.iter().sum::<f32>() / n as f32,
            Reduction::Max => row.iter().copied().fold(f32::NEG_INFINITY, f32::max),
            Reduction::Argmax => {
                let mut best = 0usize;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best as f32
            }
        };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{execute, PrimOp, Shape, Tensor};

    #[test]
    fn infer_drops_last_axis() {
        assert_eq!(super::infer(&Shape::new(&[2, 3])).unwrap(), Shape::new(&[2]));
        assert_eq!(super::infer(&Shape::new(&[5])).unwrap(), Shape::scalar());
        assert_eq!(super::infer(&Shape::scalar()).unwrap(), Shape::scalar());
    }

    #[test]
    fn sum_mean_rows() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(execute(&PrimOp::SumRows, &[&x]).unwrap().data(), &[6.0, 15.0]);
        assert_eq!(execute(&PrimOp::MeanRows, &[&x]).unwrap().data(), &[2.0, 5.0]);
    }

    #[test]
    fn max_rows() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, -4.0, -5.0, -6.0], &[2, 3]).unwrap();
        assert_eq!(execute(&PrimOp::MaxRows, &[&x]).unwrap().data(), &[9.0, -4.0]);
    }

    #[test]
    fn argmax_rows_first_max_wins() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 9.0, 7.0, 7.0, 2.0], &[2, 3]).unwrap();
        // Ties resolve to the first (strictly-greater comparison).
        assert_eq!(execute(&PrimOp::ArgmaxRows, &[&x]).unwrap().data(), &[1.0, 0.0]);
    }

    #[test]
    fn zero_width_rows_reduce_to_identities() {
        let x = Tensor::zeros(&[2, 0]);
        assert_eq!(execute(&PrimOp::SumRows, &[&x]).unwrap().data(), &[0.0, 0.0]);
        assert_eq!(execute(&PrimOp::MaxRows, &[&x]).unwrap().data(), &[f32::NEG_INFINITY; 2]);
        assert_eq!(execute(&PrimOp::ArgmaxRows, &[&x]).unwrap().data(), &[0.0, 0.0]);
        assert!(execute(&PrimOp::MeanRows, &[&x]).unwrap().data().iter().all(|m| m.is_nan()));
        assert!(execute(&PrimOp::SumRows, &[&Tensor::zeros(&[0, 3])]).unwrap().data().is_empty());
    }

    #[test]
    fn argmax_vector_gives_scalar() {
        let x = Tensor::from_vec(vec![0.0, 0.5, 0.25], &[3]).unwrap();
        let out = execute(&PrimOp::ArgmaxRows, &[&x]).unwrap();
        assert_eq!(out.shape().rank(), 0);
        assert_eq!(out.item().unwrap(), 1.0);
    }
}
