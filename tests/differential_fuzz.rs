//! Differential fuzzing (bounded corpus, fixed seeds) — the CI-sized twin
//! of the `fuzz` binary in `acrobat-bench`.
//!
//! Every generated program must agree **bit-for-bit** across: the host
//! reference evaluator, every `config_matrix()` entry — both schedulers ×
//! gather-fusion × coarsening × plan-cache {off, on} × broker {off, on} ×
//! kernel backend {interp, spec} in checked mode (every cache hit is gated
//! by the cached ≡ freshly-scheduled invariant, broker-on routes through
//! `BatchBroker::submit` + the cohort path, and spec-backend launches are
//! each re-executed through the interpreter and bit-compared) plus
//! unbatched eager execution — a two-member `run_cohort` split of the
//! instance stream, and the DyNet-sim baseline.  Every random DAG workload
//! must agree across every `dag_config_matrix()` entry and checked eager
//! execution.  The `fuzz` binary runs the same generators over the same
//! two matrices at larger scale (`--cases 500` by default).

use acrobat_bench::fuzz::{bits, config_matrix, dag_config_matrix, dag_outputs, FuzzCase};
use acrobat_runtime::RuntimeOptions;

#[test]
fn random_ir_programs_agree_bit_for_bit() {
    let configs = config_matrix();
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
        // Cross-request continuous batching: the same instance stream split
        // across two co-batched requests must demux to the identical bits.
        let cohort = case
            .run_acrobat_cohort(&acrobat_core::CompileOptions::default().with_checked(true))
            .unwrap_or_else(|e| panic!("seed {case_seed} cohort: {e}\n{}", case.source));
        assert_eq!(
            bits(&cohort),
            want,
            "seed {case_seed} two-member cohort diverged from host reference\n{}",
            case.source
        );
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
