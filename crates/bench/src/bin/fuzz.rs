//! Differential fuzzer driver: random IR programs through every
//! `config_matrix()` entry and random DAG workloads through every
//! `dag_config_matrix()` entry — the same two lists the
//! `differential_fuzz` test runs — compared bit-for-bit against the host
//! reference, checked eager execution, and the DyNet-sim baseline, plus a
//! checked-mode sweep of the full model suite under every scheduler.
//!
//! ```text
//! cargo run --release -p acrobat-bench --bin fuzz -- [--cases N] [--seed S] [--skip-suite]
//! ```
//!
//! Exits non-zero on the first mismatch or invariant violation.

use acrobat_bench::fuzz::{bits, config_matrix, dag_config_matrix, dag_outputs, FuzzCase};
use acrobat_bench::{run_acrobat, suite};
use acrobat_core::{CompileOptions, OptLevel};
use acrobat_models::ModelSize;
use acrobat_runtime::{RuntimeOptions, SchedulerKind};
use acrobat_tensor::Tensor;

fn first_diff(a: &[Tensor], b: &[Tensor]) -> String {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.data() != y.data() {
            return format!("instance {i}: {:?} vs {:?}", x.data(), y.data());
        }
    }
    format!("output count {} vs {}", a.len(), b.len())
}

fn main() {
    let mut cases: u64 = 500;
    let mut seed: u64 = 0xACB0;
    let mut skip_suite = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cases" => cases = args.next().expect("--cases N").parse().expect("--cases N"),
            "--seed" => seed = args.next().expect("--seed S").parse().expect("--seed S"),
            "--skip-suite" => skip_suite = true,
            other => panic!("unknown flag {other} (use --cases N / --seed S / --skip-suite)"),
        }
    }

    let configs = config_matrix();
    let dag_configs = dag_config_matrix();
    let mut failures = 0u64;

    // -- phase 1: random IR programs -------------------------------------
    // ~60% of the budget: host reference vs every config vs DyNet-sim.
    let ir_cases = (cases * 3).div_ceil(5);
    for c in 0..ir_cases {
        let case_seed = seed.wrapping_add(c);
        let case = FuzzCase::generate(case_seed);
        let want = bits(&case.host_reference());
        for (name, options) in &configs {
            match case.run_acrobat(options) {
                Ok(got) if bits(&got) == want => {}
                Ok(got) => {
                    failures += 1;
                    eprintln!(
                        "FAIL ir seed={case_seed} config={name}: {}\n{}",
                        first_diff(&case.host_reference(), &got),
                        case.source
                    );
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("FAIL ir seed={case_seed} config={name}: {e}\n{}", case.source);
                }
            }
        }
        match case.run_dynet() {
            Ok(got) if bits(&got) == want => {}
            Ok(got) => {
                failures += 1;
                eprintln!(
                    "FAIL ir seed={case_seed} config=dynet-sim: {}\n{}",
                    first_diff(&case.host_reference(), &got),
                    case.source
                );
            }
            Err(e) => {
                failures += 1;
                eprintln!("FAIL ir seed={case_seed} config=dynet-sim: {e}\n{}", case.source);
            }
        }
        if failures > 10 {
            eprintln!("too many failures, stopping early");
            std::process::exit(1);
        }
    }
    println!(
        "ir programs: {ir_cases} cases x {} configs (+ dynet-sim) bit-for-bit vs host reference",
        configs.len()
    );

    // -- phase 2: random DAG workloads -----------------------------------
    // The rest of the budget: direct add_unit DAGs, checked mode, eager
    // (per-unit flush) as the reference semantics.
    let dag_cases = cases - ir_cases;
    for c in 0..dag_cases {
        let case_seed = seed.wrapping_add(0x1000_0000).wrapping_add(c);
        let reference = dag_outputs(
            case_seed,
            &RuntimeOptions { eager: true, checked: true, ..RuntimeOptions::default() },
        )
        .expect("eager DAG reference");
        let want = bits(&reference);
        for (name, options) in &dag_configs {
            match dag_outputs(case_seed, options) {
                Ok(got) if bits(&got) == want => {}
                Ok(got) => {
                    failures += 1;
                    eprintln!(
                        "FAIL dag seed={case_seed} config={name}: {}",
                        first_diff(&reference, &got)
                    );
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("FAIL dag seed={case_seed} config={name}: {e}");
                }
            }
        }
        if failures > 10 {
            eprintln!("too many failures, stopping early");
            std::process::exit(1);
        }
    }
    println!("dag workloads: {dag_cases} cases x {} configs vs checked eager", dag_configs.len());

    // -- phase 3: checked-mode model-suite sweep -------------------------
    if !skip_suite {
        let mut runs = 0u64;
        let specs = suite(ModelSize::Small, true);
        for spec in &specs {
            for level in OptLevel::ALL {
                for scheduler in SchedulerKind::ALL {
                    let mut options = CompileOptions::at_level(level).with_checked(true);
                    options.runtime.scheduler = scheduler;
                    match run_acrobat(spec, &options, 8, seed) {
                        Ok(_) => runs += 1,
                        Err(e) => {
                            failures += 1;
                            eprintln!(
                                "FAIL suite {} {}/{scheduler:?}: {e}",
                                spec.name,
                                level.label()
                            );
                        }
                    }
                }
            }
        }
        println!(
            "model suite: {runs} checked runs ({} models x {} opt levels x {} schedulers)",
            specs.len(),
            OptLevel::ALL.len(),
            SchedulerKind::ALL.len()
        );
    }

    if failures > 0 {
        eprintln!("{failures} failure(s)");
        std::process::exit(1);
    }
    println!("fuzz: all checks passed");
}
