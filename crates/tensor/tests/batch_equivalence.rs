//! Property tests for the tensor substrate: kernel algebraic identities
//! (softmax rows sum to 1, relu idempotent…) and exact gather byte
//! accounting.  Batched-launch equivalences are the codegen crate's
//! (`acrobat-codegen/tests/batch_equivalence.rs`).

use acrobat_tensor::{DeviceMem, PrimOp, Shape, Tensor};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    // Keep magnitudes moderate so transcendental kernels stay well-behaved.
    (-64i32..=64).prop_map(|x| x as f32 / 8.0)
}

fn tensor_of(dims: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = dims.iter().product();
    proptest::collection::vec(finite_f32(), n)
        .prop_map(move |data| Tensor::from_vec(data, &dims).unwrap())
}

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    (1usize..4, 1usize..6).prop_map(|(m, n)| vec![m, n])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_rows_sum_to_one(t in small_dims().prop_flat_map(tensor_of)) {
        let s = acrobat_tensor::execute(&PrimOp::SoftmaxRows, &[&t]).unwrap();
        let n = t.shape().last_dim();
        for r in 0..t.shape().rows() {
            let sum: f32 = s.data()[r * n..(r + 1) * n].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn relu_idempotent(t in small_dims().prop_flat_map(tensor_of)) {
        let once = acrobat_tensor::execute(&PrimOp::Relu, &[&t]).unwrap();
        let twice = acrobat_tensor::execute(&PrimOp::Relu, &[&once]).unwrap();
        prop_assert_eq!(once.data(), twice.data());
    }

    #[test]
    fn add_commutes(a in small_dims().prop_flat_map(tensor_of)) {
        let b = Tensor::from_fn(a.shape().dims(), |i| (i as f32 * 0.7).sin());
        let ab = acrobat_tensor::execute(&PrimOp::Add, &[&a, &b]).unwrap();
        let ba = acrobat_tensor::execute(&PrimOp::Add, &[&b, &a]).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn transpose_involution(t in small_dims().prop_flat_map(tensor_of)) {
        let tt = acrobat_tensor::execute(&PrimOp::Transpose, &[&t]).unwrap();
        let back = acrobat_tensor::execute(&PrimOp::Transpose, &[&tt]).unwrap();
        prop_assert_eq!(back.data(), t.data());
        prop_assert_eq!(back.shape(), t.shape());
    }

    #[test]
    fn concat_slice_roundtrip(
        parts in proptest::collection::vec((1usize..4, 2usize..5), 1..4),
    ) {
        // All parts share the column count of the first.
        let cols = parts[0].1;
        let tensors: Vec<Tensor> = parts
            .iter()
            .enumerate()
            .map(|(i, (rows, _))| Tensor::from_fn(&[*rows, cols], |j| (i * 100 + j) as f32))
            .collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let cat = acrobat_tensor::execute(&PrimOp::Concat { axis: 0 }, &refs).unwrap();
        let mut start = 0usize;
        for t in &tensors {
            let rows = t.shape().dim(0);
            let sl = acrobat_tensor::execute(
                &PrimOp::Slice { axis: 0, start, len: rows },
                &[&cat],
            ).unwrap();
            prop_assert_eq!(sl.data(), t.data());
            start += rows;
        }
    }

    #[test]
    fn gather_accounting_exact(batch in 2usize..8, numel in 1usize..16) {
        let mut mem = DeviceMem::new(1 << 16);
        let mut ts = Vec::new();
        for b in 0..batch {
            ts.push(mem.upload(&Tensor::fill(&[numel], b as f32)).unwrap());
            mem.alloc(&Shape::new(&[1])).unwrap(); // force scatter
        }
        let refs: Vec<&acrobat_tensor::DeviceTensor> = ts.iter().collect();
        let before = mem.stats().gather_bytes;
        let (g, copied) = mem.gather(&refs).unwrap();
        prop_assert!(copied);
        prop_assert_eq!(mem.stats().gather_bytes - before, (batch * numel * 4) as u64);
        let data = mem.read(&g).unwrap();
        for b in 0..batch {
            prop_assert!(data[b * numel..(b + 1) * numel].iter().all(|&x| x == b as f32));
        }
    }
}
