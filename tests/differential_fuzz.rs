//! Differential fuzzing (bounded corpus, fixed seeds) — the CI-sized twin
//! of the `fuzz` binary in `acrobat-bench`.
//!
//! Every generated program must agree **bit-for-bit** across: the host
//! reference evaluator, every `config_matrix()` entry — both schedulers ×
//! gather-fusion × coarsening × plan-cache {off, on} in checked mode
//! (every cache hit is gated by the cached ≡ freshly-scheduled invariant,
//! and every compiled launch is re-executed through the reference
//! interpreter and bit-compared) plus unbatched eager execution — and the
//! DyNet-sim baseline.  Every random DAG workload must agree across every
//! `dag_config_matrix()` entry and checked eager execution.  The `fuzz` binary runs the same generators over the same
//! two matrices at larger scale (`--cases 500` by default).

use acrobat_bench::fuzz::{bits, config_matrix, dag_config_matrix, dag_outputs, FuzzCase};
use acrobat_runtime::RuntimeOptions;

#[test]
fn random_ir_programs_agree_bit_for_bit() {
    let configs = config_matrix();
    assert_eq!(configs.len(), 18, "2 schedulers x 2^3 switches + 2 eager");
    for case_seed in 0..100u64 {
        let case = FuzzCase::generate(case_seed);
        let want = bits(&case.host_reference());
        for (name, options) in &configs {
            let got = case
                .run_acrobat(options)
                .unwrap_or_else(|e| panic!("seed {case_seed} {name}: {e}\n{}", case.source));
            assert_eq!(
                bits(&got),
                want,
                "seed {case_seed} config {name} diverged from host reference\n{}",
                case.source
            );
        }
        let dynet = case
            .run_dynet()
            .unwrap_or_else(|e| panic!("seed {case_seed} dynet-sim: {e}\n{}", case.source));
        assert_eq!(
            bits(&dynet),
            want,
            "seed {case_seed} dynet-sim diverged from host reference\n{}",
            case.source
        );
    }
}

#[test]
fn random_dag_workloads_agree_bit_for_bit() {
    for case_seed in 0..50u64 {
        let reference = dag_outputs(
            case_seed,
            &RuntimeOptions { eager: true, checked: true, ..RuntimeOptions::default() },
        )
        .expect("eager reference");
        let want = bits(&reference);
        for (name, options) in &dag_config_matrix() {
            let got = dag_outputs(case_seed, options)
                .unwrap_or_else(|e| panic!("seed {case_seed} {name}: {e}"));
            assert_eq!(bits(&got), want, "seed {case_seed} {name} diverged from eager");
        }
    }
}
