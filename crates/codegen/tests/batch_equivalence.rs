//! Property tests for one-instruction launches through
//! [`run_batched_kernel_with`], the launch DyNet-sim's vendor kernels take:
//! gather-fused ≡ explicit-gather, batched ≡ one launch per instance, and
//! device ≡ host reference.

use acrobat_analysis::ArgClass;
use acrobat_codegen::{run_batched_kernel_with, BatchMode, KernelProgram};
use acrobat_tensor::{DeviceMem, DeviceTensor, PrimOp, Shape, Tensor};
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

/// `op` as a one-instruction program over `args[slot][lane]`, launched over
/// `batch` lanes; returns each lane's output.
fn launch(
    mem: &mut DeviceMem,
    op: PrimOp,
    classes: &[ArgClass],
    args: &[Vec<DeviceTensor>],
    batch: usize,
    mode: BatchMode,
) -> Vec<DeviceTensor> {
    let shapes: Vec<&Shape> = args.iter().map(|lanes| lanes[0].shape()).collect();
    let out = acrobat_tensor::infer_shape(&op, &shapes).unwrap();
    let inputs = classes.iter().zip(&shapes).map(|(&c, &s)| (c, s.clone())).collect();
    let program = KernelProgram::single_op(op, inputs, out);
    // A shared slot is resolved at lane 0 only, so it holds one tensor.
    let (mut outs, stats) =
        run_batched_kernel_with(mem, &program, batch, mode, |lane, slot| &args[slot][lane])
            .unwrap();
    assert_eq!(stats.launches, 1);
    outs.swap_remove(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_equals_gathered_binary(dims in small_dims(), batch in 1usize..6) {
        let mut mem = DeviceMem::new(1 << 16);
        // Scattered per-instance operands with pads in between.
        let mut lhs = Vec::new();
        let mut rhs = Vec::new();
        for b in 0..batch {
            let t = Tensor::from_fn(&dims, |i| (i + b) as f32 * 0.25 - 1.0);
            lhs.push(mem.upload(&t).unwrap());
            mem.alloc(&Shape::new(&[1 + b % 3])).unwrap();
            let u = Tensor::from_fn(&dims, |i| 1.0 - (i * (b + 1)) as f32 * 0.125);
            rhs.push(mem.upload(&u).unwrap());
        }
        let classes = [ArgClass::Batched; 2];
        let args = [lhs, rhs];
        for op in [PrimOp::Add, PrimOp::Sub, PrimOp::Mul, PrimOp::Maximum] {
            let f = launch(&mut mem, op.clone(), &classes, &args, batch, BatchMode::GatherFused);
            let g = launch(&mut mem, op, &classes, &args, batch, BatchMode::ExplicitGather);
            for (a, b) in f.iter().zip(&g) {
                prop_assert_eq!(mem.read(a).unwrap(), mem.read(b).unwrap());
            }
        }
    }

    #[test]
    fn batched_equals_sequential_matmul(
        m in 1usize..4, k in 1usize..5, n in 1usize..5, batch in 1usize..5,
    ) {
        let mut mem = DeviceMem::new(1 << 16);
        let w = mem.upload(&Tensor::from_fn(&[k, n], |i| (i as f32 * 0.37).sin())).unwrap();
        let mut xs = Vec::new();
        for b in 0..batch {
            mem.alloc(&Shape::new(&[2 + b])).unwrap(); // scatter
            xs.push(mem.upload(&Tensor::from_fn(&[m, k], |i| ((i + 3 * b) as f32 * 0.21).cos())).unwrap());
        }
        let classes = [ArgClass::Batched, ArgClass::Shared];
        let args = [xs.clone(), vec![w.clone()]];
        let outs = launch(&mut mem, PrimOp::MatMul, &classes, &args, batch, BatchMode::GatherFused);
        for (x, o) in xs.iter().zip(&outs) {
            let solo = [vec![x.clone()], vec![w.clone()]];
            let seq = launch(&mut mem, PrimOp::MatMul, &[ArgClass::Shared; 2], &solo, 1, BatchMode::ExplicitGather);
            prop_assert_eq!(mem.read(&seq[0]).unwrap(), mem.read(o).unwrap());
        }
    }

    #[test]
    fn device_prim_equals_host_execute(t in small_dims().prop_flat_map(tensor_of)) {
        let mut mem = DeviceMem::new(1 << 16);
        let d = [vec![mem.upload(&t).unwrap()]];
        for op in [PrimOp::Relu, PrimOp::Sigmoid, PrimOp::Tanh, PrimOp::Neg, PrimOp::SoftmaxRows, PrimOp::SumRows, PrimOp::ArgmaxRows] {
            let dev = launch(&mut mem, op.clone(), &[ArgClass::Shared], &d, 1, BatchMode::ExplicitGather);
            let host = acrobat_tensor::execute(&op, &[&t]).unwrap();
            let got = mem.read(&dev[0]).unwrap();
            for (a, b) in got.iter().zip(host.data()) {
                prop_assert!((a - b).abs() <= 1e-6, "{op}: {a} vs {b}");
            }
        }
    }
}
