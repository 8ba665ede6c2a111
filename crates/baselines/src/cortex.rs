//! A Cortex-style baseline: a static compiler specialized for *recursive*
//! deep-learning models (Fegade et al., MLSYS 2021; §7.2.2 of the ACROBAT
//! paper).
//!
//! Cortex trades generality and developer effort for performance:
//!
//! * it supports **only recursive computations** — no tensor-dependent
//!   control flow, no general iteration (the `@main`s it accepts must drive
//!   a self-recursive function);
//! * scheduling is fully static and kernels are aggressively fused and
//!   persistent, so runtime overheads (graph construction, scheduling,
//!   kernel-launch API) are a fraction of a dynamic framework's;
//! * kernels are *manually* optimized by the user (the paper quantifies the
//!   burden: 325 LoC for MV-RNN vs ACROBAT's 79+108), modeled as a large
//!   tuning budget;
//! * its restrictive interface requires the embedding vectors at the leaves
//!   of the input structures to be **copied into dense internal buffers** —
//!   negligible for TreeLSTM's small leaf vectors, ruinous for MV-RNN's
//!   per-word matrices (§7.2.2).
//!
//! Implemented as the shared pipeline driven with a Cortex-calibrated
//! overhead model plus explicit accounting of the mandatory leaf copies.

use acrobat_core::{
    compile, CompileError, CompileOptions, DeviceModel, InputValue, Params, VmError,
};
use acrobat_ir::{parse_module, typeck, ExprKind};
use acrobat_vm::RunResult;

/// Overhead model for Cortex's static runtime, derived from the shared
/// [`DeviceModel`]: persistence and static scheduling shrink the host-side
/// and launch overheads; the compute/bandwidth terms are unchanged.
pub fn cortex_device(base: DeviceModel) -> DeviceModel {
    DeviceModel {
        launch_overhead_us: base.launch_overhead_us * 0.4,
        dfg_node_cost_us: base.dfg_node_cost_us * 0.15,
        sched_inline_cost_us: base.sched_inline_cost_us * 0.3,
        memcpy_overhead_us: base.memcpy_overhead_us,
        ..base
    }
}

/// Compile options replicating Cortex.
pub fn options() -> CompileOptions {
    let mut o = CompileOptions::default();
    o.device = cortex_device(o.device);
    // Manual expert kernel optimization: a very large tuning budget.
    o.schedule.iterations = 5000;
    o
}

/// Whether Cortex supports a model: recursive control flow only, no
/// tensor-dependent decisions.
///
/// # Errors
///
/// Returns frontend errors for unparseable sources.
pub fn supports(source: &str) -> Result<bool, CompileError> {
    let module = typeck::check_module(parse_module(source)?)?;
    let mut has_sync = false;
    let mut has_recursion = false;
    for (name, f) in &module.functions {
        acrobat_ir::ast::visit_exprs(&f.body, &mut |e| match &e.kind {
            ExprKind::Sync { .. } => has_sync = true,
            ExprKind::Call { callee: acrobat_ir::Callee::Global(n), .. } if n == name => {
                has_recursion = true
            }
            _ => {}
        });
    }
    Ok(has_recursion && !has_sync)
}

/// Compiles and runs a mini-batch the Cortex way.
///
/// # Errors
///
/// Returns [`CompileError::Execution`] with
/// [`VmError::Unsupported`] for models outside Cortex's domain
/// (non-recursive or tensor-dependent), and propagates runtime errors.
pub fn run(
    source: &str,
    params: &Params,
    instances: &[Vec<InputValue>],
) -> Result<RunResult, CompileError> {
    if !supports(source)? {
        return Err(CompileError::Execution(VmError::Unsupported(
            "Cortex supports only recursive models without tensor-dependent control flow".into(),
        )));
    }
    let opts = options();
    let model = compile(source, &opts)?;
    let mut result = model.run(params, instances)?;

    // Mandatory dense copies of the leaf inputs (§7.2.2): every input
    // tensor is copied once more into Cortex's internal buffers.
    let mut leaf_bytes = 0u64;
    let mut leaf_tensors = 0u64;
    for inst in instances {
        for v in inst {
            let mut ts = Vec::new();
            v.tensors(&mut ts);
            leaf_tensors += ts.len() as u64;
            leaf_bytes += ts.iter().map(|t| t.shape().byte_size() as u64).sum::<u64>();
        }
    }
    let device = opts.device;
    result.stats.gather_bytes += leaf_bytes;
    result.stats.gather_copies += leaf_tensors;
    // The copies are per-leaf strided small-block device copies into
    // Cortex's dense recursion buffers; such access patterns achieve on the
    // order of 1% of peak bandwidth.  Cheap for TreeLSTM's per-leaf vectors,
    // ruinous for MV-RNN's per-leaf d×d matrices — the §7.2.2 inversion.
    const STRIDED_COPY_BYTES_PER_US: f64 = 1300.0; // ~1.3 GB/s effective
    result.stats.kernel_time_us += leaf_bytes as f64 / STRIDED_COPY_BYTES_PER_US;
    result.stats.cuda_api_us += instances.len() as f64 * device.launch_overhead_us * 0.5;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acrobat_core::Tensor;

    const TREE: &str = r#"
        type Tree[a] { Leaf(a), Node(Tree[a], Tree[a]) }
        def @enc(%t: Tree[Tensor[(1, 4)]], $w: Tensor[(4, 4)], $u: Tensor[(4, 4)]) -> Tensor[(1, 4)] {
            match %t {
                Leaf(%e) => tanh(matmul(%e, $w)),
                Node(%l, %r) => {
                    let (%a, %b) = parallel(@enc(%l, $w, $u), @enc(%r, $w, $u));
                    tanh(matmul(add(%a, %b), $u))
                }
            }
        }
        def @main($w: Tensor[(4, 4)], $u: Tensor[(4, 4)], %t: Tree[Tensor[(1, 4)]]) -> Tensor[(1, 4)] {
            @enc(%t, $w, $u)
        }
    "#;

    const FEEDFORWARD: &str =
        "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
        relu(matmul(%x, $w))
    }";

    const TDC: &str = r#"
        def @f(%x: Tensor[(1, 2)], $w: Tensor[(2, 2)], %n: Int) -> Tensor[(1, 2)] {
            if %n <= 0 { %x } else {
                let %y = tanh(matmul(%x, $w));
                if sample(%y) < 0.5 { @f(%y, $w, %n - 1) } else { %y }
            }
        }
        def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { @f(%x, $w, 3) }
    "#;

    #[test]
    fn support_matrix() {
        assert!(supports(TREE).unwrap(), "recursive, no TDC: supported");
        assert!(!supports(FEEDFORWARD).unwrap(), "non-recursive: unsupported");
        assert!(!supports(TDC).unwrap(), "TDC: unsupported");
    }

    #[test]
    fn unsupported_model_is_an_error() {
        let params = Params::from([("w".to_string(), Tensor::ones(&[2, 2]))]);
        let err = run(FEEDFORWARD, &params, &[vec![InputValue::Tensor(Tensor::zeros(&[1, 2]))]]);
        assert!(matches!(err, Err(CompileError::Execution(VmError::Unsupported(_)))));
    }

    #[test]
    fn runs_tree_model_with_lower_overheads_but_leaf_copies() {
        let params = Params::from([
            ("w".to_string(), Tensor::from_fn(&[4, 4], |i| ((i % 5) as f32 - 2.0) * 0.2)),
            ("u".to_string(), Tensor::from_fn(&[4, 4], |i| ((i % 3) as f32 - 1.0) * 0.3)),
        ]);
        let leaf = |s: usize| InputValue::Adt {
            ctor: "Leaf".into(),
            fields: vec![InputValue::Tensor(Tensor::from_fn(&[1, 4], move |i| {
                ((s + i) % 7) as f32 * 0.1
            }))],
        };
        let node = |l, r| InputValue::Adt { ctor: "Node".into(), fields: vec![l, r] };
        let instances =
            vec![vec![node(leaf(0), node(leaf(1), leaf(2)))], vec![node(leaf(3), leaf(4))]];

        let cortex = run(TREE, &params, &instances).unwrap();
        let acrobat = acrobat_core::compile(TREE, &CompileOptions::default())
            .unwrap()
            .run(&params, &instances)
            .unwrap();
        // Same numerical results.
        for (a, b) in cortex.outputs.iter().zip(&acrobat.outputs) {
            match (a, b) {
                (acrobat_vm::OutputValue::Tensor(x), acrobat_vm::OutputValue::Tensor(y)) => {
                    assert!(x.allclose(y, 1e-6));
                }
                _ => panic!(),
            }
        }
        // Lower host overheads…
        assert!(
            cortex.stats.dfg_construction_us + cortex.stats.scheduling_us
                < acrobat.stats.dfg_construction_us + acrobat.stats.scheduling_us
        );
        // …but the mandatory leaf copies show up in the gather account.
        assert!(cortex.stats.gather_bytes >= 5 * 4 * 4, "5 leaves × 16 bytes");
    }
}
