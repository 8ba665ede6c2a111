//! A PyTorch-style eager baseline (§E.3 of the paper).
//!
//! PyTorch executes every operator immediately with well-tuned vendor
//! kernels, but performs **no auto-batching**: neither batch parallelism
//! (across mini-batch instances) nor instance parallelism is exploited for
//! dynamic models — each operator invocation is its own kernel launch.
//!
//! Implemented by running the ACROBAT frontend program through the shared
//! pipeline with every batching optimization disabled and the runtime in
//! eager mode (flush after every node), with a generous kernel-tuning
//! budget standing in for hand-optimized vendor kernels.

#![allow(clippy::field_reassign_with_default)] // builder-style option setup reads better

use acrobat_core::{compile, AnalysisOptions, CompileError, CompileOptions, InputValue, Params};
use acrobat_vm::RunResult;

/// Compile options replicating eager PyTorch execution.
pub fn options() -> CompileOptions {
    let mut o = CompileOptions::default();
    // Eager frameworks see one operator at a time: no fusion, no phases, no
    // hoisting, no ghost operators, no coarsening.
    o.analysis = AnalysisOptions::none();
    o.runtime.eager = true;
    o.runtime.gather_fusion = false;
    o.runtime.coarsen = false;
    // Vendor kernels are heavily hand-tuned.
    o.schedule.iterations = 3000;
    // Eager execution materializes every intermediate with no batch-level
    // reuse; give it a roomy simulated device (PyTorch's caching allocator
    // would recycle, which the bump arena does not model).
    o.runtime.device_memory = 512 << 20;
    o
}

/// Compiles and runs a mini-batch eagerly.
///
/// # Errors
///
/// Propagates compile and runtime errors.
pub fn run(
    source: &str,
    params: &Params,
    instances: &[Vec<InputValue>],
) -> Result<RunResult, CompileError> {
    let model = compile(source, &options())?;
    model.run(params, instances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_core::Tensor;

    const SRC: &str = "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
        relu(matmul(%x, $w))
    }";

    #[test]
    fn eager_launches_one_kernel_per_op_per_instance() {
        let params = Params::from([("w".to_string(), Tensor::ones(&[2, 2]))]);
        let instances: Vec<Vec<InputValue>> =
            (0..4).map(|i| vec![InputValue::Tensor(Tensor::fill(&[1, 2], i as f32))]).collect();
        let r = run(SRC, &params, &instances).unwrap();
        // 2 ops × 4 instances = 8 launches (vs 1–2 for ACROBAT).
        assert_eq!(r.stats.kernel_launches, 8);
        // Results are still correct.
        for (i, o) in r.outputs.iter().enumerate() {
            let x = Tensor::fill(&[1, 2], i as f32);
            let mm = acrobat_tensor::execute(
                &acrobat_tensor::PrimOp::MatMul,
                &[&x, &Tensor::ones(&[2, 2])],
            )
            .unwrap();
            let want = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Relu, &[&mm]).unwrap();
            match o {
                acrobat_vm::OutputValue::Tensor(t) => assert!(t.allclose(&want, 1e-6)),
                other => panic!("{other:?}"),
            }
        }
    }
}
