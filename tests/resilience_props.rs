//! Property test for the session ledger under interleaved outcomes
//! (satellite of the resilient-serving PR).
//!
//! Random sequences of request kinds — clean, transient-fault-then-retry,
//! fatal fault, pre-cancelled, zero deadline — run against one model.  The
//! invariant: the session aggregate equals the *sum of per-run statistics
//! over completed runs only*.  Retried flushes must not double-count
//! (their stats merge once, from the run's own counters), and failed or
//! cancelled runs must leak nothing into the aggregate while still being
//! tallied in the outcome ledger and quarantining their context.

use acrobat_bench::suite;
use acrobat_core::{compile, CompileOptions, FaultPlan, Model, RunOptions, RuntimeStats};
use acrobat_models::{ModelSize, ModelSpec};
use acrobat_runtime::CancelToken;
use proptest::prelude::*;

fn build_retrying(spec: &ModelSpec) -> Model {
    let mut options = CompileOptions::default();
    options.runtime.max_retries = 3;
    compile(&spec.source, &options).unwrap_or_else(|e| panic!("{} compiles: {e}", spec.name))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn aggregate_equals_sum_of_completed_runs(
        kinds in proptest::collection::vec(0usize..6, 1..10),
    ) {
        let spec = suite(ModelSize::Small, true).remove(0);
        let model = build_retrying(&spec);
        let instances = (spec.make_instances)(0xA66E, 2);

        let mut completed: Vec<RuntimeStats> = Vec::new();
        let (mut failed, mut cancelled, mut deadline) = (0u64, 0u64, 0u64);
        for &kind in &kinds {
            let mut opts = RunOptions::default();
            match kind {
                // Transient kernel fault on a later launch: retry rescues
                // the run, charging `retries`/`retry_backoff_us` once.
                2 => opts.fault = Some(FaultPlan::parse("launch:2:kernel").unwrap()),
                // Fatal device OOM: retry must NOT mask it.
                3 => opts.fault = Some(FaultPlan::parse("launch:0:oom").unwrap()),
                4 => {
                    let token = CancelToken::new();
                    token.cancel();
                    opts.cancel = Some(token);
                }
                5 => opts.deadline_us = Some(0.0),
                _ => {}
            }
            match model.run_with(&spec.params, &instances, &opts) {
                Ok(r) => {
                    prop_assert!(
                        kind < 3,
                        "kind {} must not complete", kind
                    );
                    if kind == 2 {
                        prop_assert!(r.stats.retries >= 1, "transient fault was retried");
                    }
                    completed.push(r.stats);
                }
                Err(e) => {
                    match kind {
                        3 => { prop_assert!(e.as_vm().is_some(), "oom is execution error"); failed += 1; }
                        4 => { prop_assert!(e.is_cancelled(), "wrong error: {}", e); cancelled += 1; }
                        5 => { prop_assert!(e.is_deadline_exceeded(), "wrong error: {}", e); deadline += 1; }
                        _ => return Err(format!("kind {kind} failed unexpectedly: {e}")),
                    }
                }
            }
        }

        // Outcome ledger: every request in exactly one bucket.
        let outcomes = model.outcomes();
        prop_assert_eq!(outcomes.total(), kinds.len() as u64);
        prop_assert_eq!(outcomes.completed, completed.len() as u64);
        prop_assert_eq!(outcomes.failed, failed);
        prop_assert_eq!(outcomes.cancelled, cancelled);
        prop_assert_eq!(outcomes.deadline_exceeded, deadline);
        prop_assert_eq!(model.runs_completed(), completed.len() as u64);
        // A context that observed a fault is quarantined even when retry
        // rescued its run; clean completions recycle theirs.
        let rescued = completed.iter().filter(|s| s.aborted_flushes > 0).count() as u64;
        prop_assert_eq!(model.quarantined_count(), failed + cancelled + deadline + rescued);

        // Aggregate equals the sum over completed runs only.
        let agg = model.stats();
        macro_rules! sum_check {
            ($field:ident) => {
                prop_assert_eq!(
                    agg.$field,
                    completed.iter().map(|s| s.$field).sum::<u64>(),
                    "aggregate {} diverged from per-run sum", stringify!($field)
                );
            };
        }
        sum_check!(nodes);
        sum_check!(kernel_launches);
        sum_check!(gather_copies);
        sum_check!(gather_bytes);
        sum_check!(memcpy_ops);
        sum_check!(memcpy_bytes);
        sum_check!(flops);
        sum_check!(flushes);
        sum_check!(aborted_flushes);
        sum_check!(retries);
        let backoff: f64 = completed.iter().map(|s| s.retry_backoff_us).sum();
        prop_assert!(
            (agg.retry_backoff_us - backoff).abs() < 1e-9,
            "aggregate retry backoff {} vs per-run sum {}", agg.retry_backoff_us, backoff
        );
    }
}
