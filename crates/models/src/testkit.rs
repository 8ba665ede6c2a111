//! Test support: cross-framework agreement checks used by the per-model
//! unit tests, the workspace integration tests and the benchmark harness's
//! self-checks.

#![allow(clippy::field_reassign_with_default)] // builder-style option setup reads better

use acrobat_baselines::dynet::DynetConfig;
use acrobat_core::{compile, CompileOptions, Model};
use acrobat_vm::OutputValue;

use crate::ModelSpec;

/// Runs a spec through ACROBAT (all optimizations) and the DyNet baseline
/// on identical instances with identical seeds, and asserts that every
/// output tensor matches within `1e-4`.
///
/// # Panics
///
/// Panics on any compile/run error or output mismatch.
pub fn check_acrobat_vs_dynet(spec: &ModelSpec, batch: usize, seed: u64) {
    let instances = (spec.make_instances)(seed, batch);

    let options = CompileOptions { seed, ..Default::default() };
    let model = compile(&spec.source, &options)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", spec.name));
    let acrobat = model
        .run(&spec.params, &instances)
        .unwrap_or_else(|e| panic!("{}: ACROBAT run failed: {e}", spec.name));

    let dynet_run =
        spec.dynet_run.as_ref().unwrap_or_else(|| panic!("{} has no DyNet impl", spec.name));
    let (dynet_outs, _) = dynet_run(&DynetConfig::default(), &instances, seed)
        .unwrap_or_else(|e| panic!("{}: DyNet run failed: {e}", spec.name));

    assert_eq!(acrobat.outputs.len(), dynet_outs.len());
    for (i, (a, d)) in acrobat.outputs.iter().zip(&dynet_outs).enumerate() {
        let a_tensors = (spec.flatten_output)(a);
        assert_eq!(
            a_tensors.len(),
            d.len(),
            "{} instance {i}: output arity {} vs {}",
            spec.name,
            a_tensors.len(),
            d.len()
        );
        for (j, (x, y)) in a_tensors.iter().zip(d).enumerate() {
            assert!(
                x.allclose(y, 1e-4),
                "{} instance {i} output {j}: {:?} vs {:?}",
                spec.name,
                &x.data()[..x.data().len().min(4)],
                &y.data()[..y.data().len().min(4)],
            );
        }
    }
}

/// Compiles a spec for an integration test.
///
/// # Panics
///
/// Panics, naming the model, when it does not compile.
pub fn build(spec: &ModelSpec, options: &CompileOptions) -> Model {
    compile(&spec.source, options).unwrap_or_else(|e| panic!("{} compiles: {e}", spec.name))
}

/// Bit-for-bit tensor equality of two runs' outputs (no tolerance).
///
/// # Panics
///
/// Panics on the first instance, tensor count or tensor that differs.
pub fn assert_outputs_equal(
    spec: &ModelSpec,
    reference: &[OutputValue],
    got: &[OutputValue],
    label: &str,
) {
    assert_eq!(reference.len(), got.len(), "{}: {label}: instance count", spec.name);
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        let (rt, gt) = ((spec.flatten_output)(r), (spec.flatten_output)(g));
        assert_eq!(rt.len(), gt.len(), "{}: {label}: instance {i} tensor count", spec.name);
        for (j, (a, b)) in rt.iter().zip(&gt).enumerate() {
            assert_eq!(
                a.data(),
                b.data(),
                "{}: {label}: instance {i} tensor {j} diverged",
                spec.name
            );
        }
    }
}
