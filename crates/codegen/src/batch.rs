//! Launch-level tests of a single primitive op
//! ([`KernelProgram::single_op`](crate::KernelProgram::single_op)) through
//! the batched launch — the dense vendor kernel DyNet-sim launches for every
//! batch, singleton or not.

mod tests {
    use crate::{run_batched_kernel_with, BatchMode, KernelLaunchStats, KernelProgram};
    use acrobat_analysis::ArgClass::{self, Batched, Shared};
    use acrobat_tensor::{DeviceMem, DeviceTensor, PrimOp, Shape, Tensor, TensorError};

    type Launch = Result<(Vec<DeviceTensor>, KernelLaunchStats), TensorError>;

    /// Launches `op` over `batch` lanes with per-instance input shapes
    /// `inputs` and output shape `out`; returns the lanes' outputs.
    fn launch<'a>(
        mem: &mut DeviceMem,
        op: PrimOp,
        inputs: &[(ArgClass, &[usize])],
        out: &[usize],
        batch: usize,
        mode: BatchMode,
        resolve: impl FnMut(usize, usize) -> &'a DeviceTensor,
    ) -> Launch {
        let inputs = inputs.iter().map(|&(class, dims)| (class, Shape::new(dims))).collect();
        let program = KernelProgram::single_op(op, inputs, Shape::new(out));
        let (mut outs, stats) = run_batched_kernel_with(mem, &program, batch, mode, resolve)?;
        Ok((outs.swap_remove(0), stats))
    }

    /// Uploads the shared 2×2 weight and three `[1, 2]` inputs with pads
    /// between them, so the inputs are NOT contiguous.
    fn setup() -> (DeviceMem, DeviceTensor, Vec<DeviceTensor>) {
        let mut mem = DeviceMem::new(4096);
        let w = mem.upload(&Tensor::from_fn(&[2, 2], |i| (i + 1) as f32)).unwrap();
        let mut xs = Vec::new();
        for b in 0..3 {
            xs.push(mem.upload(&Tensor::fill(&[1, 2], b as f32 + 1.0)).unwrap());
            mem.alloc(&Shape::new(&[3])).unwrap();
        }
        (mem, w, xs)
    }

    /// `matmul(x, w)` over one lane per `x`, `w` shared.
    fn matmul(
        mem: &mut DeviceMem,
        w: &DeviceTensor,
        xs: &[DeviceTensor],
        mode: BatchMode,
    ) -> Launch {
        let inputs = [(Batched, &[1, 2][..]), (Shared, &[2, 2])];
        launch(mem, PrimOp::MatMul, &inputs, &[1, 2], xs.len(), mode, |l, s| [&xs[l], w][s])
    }

    #[test]
    fn run_prim_matches_host_execute() {
        let mut mem = DeviceMem::new(256);
        let a = Tensor::from_fn(&[2, 3], |i| i as f32);
        let b = Tensor::fill(&[2, 3], 2.0);
        let args = [mem.upload(&a).unwrap(), mem.upload(&b).unwrap()];
        let inputs = [(Shared, &[2, 3][..]); 2];
        let mode = BatchMode::ExplicitGather;
        let outs = launch(&mut mem, PrimOp::Mul, &inputs, &[2, 3], 1, mode, |_, s| &args[s]);
        let host = acrobat_tensor::execute(&PrimOp::Mul, &[&a, &b]).unwrap();
        assert_eq!(mem.read(&outs.unwrap().0[0]).unwrap(), host.data());
    }

    #[test]
    fn fused_and_gathered_agree() {
        let (mut mem, w, xs) = setup();
        let (fused, fstats) = matmul(&mut mem, &w, &xs, BatchMode::GatherFused).unwrap();
        let (gathered, gstats) = matmul(&mut mem, &w, &xs, BatchMode::ExplicitGather).unwrap();
        for (f, g) in fused.iter().zip(&gathered) {
            assert_eq!(mem.read(f).unwrap(), mem.read(g).unwrap());
        }
        assert_eq!((fstats.gather_bytes, fstats.indirect_reads), (0, 3));
        assert!(gstats.gather_bytes > 0, "scattered operands must be copied");
        assert_eq!(gstats.gather_copies, 1);
    }

    #[test]
    fn batched_matches_sequential_unbatched() {
        let (mut mem, w, xs) = setup();
        let (batched, _) = matmul(&mut mem, &w, &xs, BatchMode::GatherFused).unwrap();
        for (x, b) in xs.iter().zip(&batched) {
            let one = std::slice::from_ref(x);
            let (seq, _) = matmul(&mut mem, &w, one, BatchMode::GatherFused).unwrap();
            assert_eq!(mem.read(&seq[0]).unwrap(), mem.read(b).unwrap());
        }
    }

    #[test]
    fn outputs_are_contiguous() {
        let (mut mem, w, xs) = setup();
        let (outs, _) = matmul(&mut mem, &w, &xs, BatchMode::GatherFused).unwrap();
        assert!(mem.is_contiguous_run(&outs.iter().collect::<Vec<_>>()));
        // A downstream explicit-gather launch over these outputs skips the copy.
        let inputs = [(Batched, &[1, 2][..])];
        let mode = BatchMode::ExplicitGather;
        let relu = launch(&mut mem, PrimOp::Relu, &inputs, &[1, 2], 3, mode, |l, _| &outs[l]);
        let stats = relu.unwrap().1;
        assert_eq!((stats.gather_copies, stats.contiguous_hits), (0, 1));
    }

    #[test]
    fn batch_size_mismatch_rejected() {
        let (mut mem, w, xs) = setup();
        // An operand stacked for a 2-lane batch is not one instance's operand.
        let stacked = mem.upload(&Tensor::ones(&[2, 1, 2])).unwrap();
        let lanes = [xs[0].clone(), stacked, xs[2].clone()];
        let mismatch = matmul(&mut mem, &w, &lanes, BatchMode::GatherFused);
        assert!(matches!(mismatch, Err(TensorError::BatchShape { .. })));
        let empty = matmul(&mut mem, &w, &[], BatchMode::GatherFused);
        assert!(matches!(empty, Err(TensorError::EmptyBatch)));
    }

    #[test]
    fn mixed_instance_shapes_rejected() {
        let mut mem = DeviceMem::new(256);
        let lanes =
            [mem.upload(&Tensor::ones(&[2])).unwrap(), mem.upload(&Tensor::ones(&[3])).unwrap()];
        let inputs = [(Batched, &[2][..])];
        let mode = BatchMode::GatherFused;
        let mixed = launch(&mut mem, PrimOp::Relu, &inputs, &[2], 2, mode, |l, _| &lanes[l]);
        assert!(matches!(mixed, Err(TensorError::BatchShape { .. })));
    }

    #[test]
    fn zero_input_fill_batches() {
        let mut mem = DeviceMem::new(256);
        let fill = PrimOp::Fill { value: 7.0, shape: Shape::new(&[1, 3]) };
        let no_inputs = |_, _| -> &DeviceTensor { unreachable!("a fill has no inputs") };
        let launched = launch(&mut mem, fill, &[], &[1, 3], 4, BatchMode::GatherFused, no_inputs);
        let (outs, stats) = launched.unwrap();
        assert_eq!((outs.len(), stats.launches), (4, 1));
        for o in &outs {
            assert_eq!(mem.read(o).unwrap(), &[7.0; 3]);
        }
    }
}
