//! Concurrent-serving stress tests for the Engine / ExecutionContext split.
//!
//! One compiled [`Model`] is shared by many threads, each running its own
//! mini-batches; every concurrent result must be bit-for-bit identical to
//! single-threaded execution — including under checked mode and with an
//! injected fault in one of the requests.  Also pins the §E.1 guarantee
//! that keyed pseudo-random streams make instance outputs independent of
//! submission order.

use acrobat_bench::suite;
use acrobat_core::{CompileOptions, FaultPlan, Model, Params, RunOptions};
use acrobat_models::testkit::{assert_outputs_equal, build};
use acrobat_models::ModelSize;
use acrobat_vm::{InputValue, OutputValue};

fn run_many_threads(
    model: &Model,
    params: &Params,
    instances: &[Vec<InputValue>],
    threads: usize,
    runs_per_thread: usize,
) -> Vec<Vec<OutputValue>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    (0..runs_per_thread)
                        .map(|_| model.run(params, instances).expect("concurrent run").outputs)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("worker panicked")).collect()
    })
}

/// N threads × M mini-batches over the whole (quick) model suite: every
/// concurrent result equals the single-threaded reference bit for bit, and
/// the session ledger counts each request as exactly one completed run.
#[test]
fn concurrent_runs_match_serial_across_suite() {
    const THREADS: usize = 4;
    const RUNS_PER_THREAD: usize = 2;
    for spec in suite(ModelSize::Small, true) {
        let model = build(&spec, &CompileOptions::default());
        let instances = (spec.make_instances)(0xC0DE, 4);
        let reference = model.run(&spec.params, &instances).expect("serial run").outputs;
        let concurrent =
            run_many_threads(&model, &spec.params, &instances, THREADS, RUNS_PER_THREAD);
        for outputs in concurrent {
            assert_outputs_equal(&spec, &reference, &outputs, "4 threads x 2 runs");
        }
        let requests = 1 + (THREADS * RUNS_PER_THREAD) as u64;
        assert_eq!(model.outcomes().completed, requests, "ledger counts each request once");
        assert_eq!(model.runs_completed(), requests, "one run per request");
    }
}

/// Same property under checked mode (flush invariants validated on every
/// flush) for one recursive and one tensor-dependent model.
#[test]
fn concurrent_runs_match_serial_under_checked_mode() {
    let specs = suite(ModelSize::Small, true);
    for idx in [0usize, 4] {
        let spec = &specs[idx];
        let model = build(spec, &CompileOptions::default().with_checked(true));
        let instances = (spec.make_instances)(0xBEEF, 3);
        let reference = model.run(&spec.params, &instances).expect("serial checked run").outputs;
        for outputs in run_many_threads(&model, &spec.params, &instances, 2, 2) {
            assert_outputs_equal(spec, &reference, &outputs, "checked mode");
        }
    }
}

/// A fault injected into one request fails only that request: concurrent
/// clean requests stay bit-for-bit correct, and the model remains usable
/// afterwards (each run owns a fresh context).
#[test]
fn injected_fault_is_isolated_to_its_request() {
    let spec = suite(ModelSize::Small, true).remove(0);
    let model = build(&spec, &CompileOptions::default());
    let instances = (spec.make_instances)(0xFA11, 4);
    let reference = model.run(&spec.params, &instances).expect("serial run").outputs;

    std::thread::scope(|scope| {
        let faulty = scope.spawn(|| {
            let opts = RunOptions {
                fault: Some(FaultPlan::parse("launch:0:oom").expect("fault plan parses")),
                ..RunOptions::default()
            };
            model.run_with(&spec.params, &instances, &opts)
        });
        let clean: Vec<_> = (0..3)
            .map(|_| scope.spawn(|| model.run(&spec.params, &instances).expect("clean run")))
            .collect();
        assert!(faulty.join().expect("faulty worker").is_err(), "injected OOM must surface");
        for h in clean {
            let r = h.join().expect("clean worker");
            assert_outputs_equal(&spec, &reference, &r.outputs, "clean run beside fault");
        }
    });

    // The fault died with its context: a later run is clean.
    let after = model.run(&spec.params, &instances).expect("run after fault").outputs;
    assert_outputs_equal(&spec, &reference, &after, "run after fault");
}

/// §E.1 regression: with explicit `(seed, instance)` keys, an instance's
/// pseudo-random stream — and therefore its tensor-dependent control flow
/// and outputs — is bit-for-bit identical no matter in which order the
/// mini-batch submits it.  DRNN's expansion decisions are all `sample`-driven,
/// so any stream drift changes output *shapes*, not just values.
#[test]
fn keyed_streams_survive_shuffled_submission() {
    let specs = suite(ModelSize::Small, true);
    // DRNN (TDC + fork-join) and Berxit (TDC early exit).
    for idx in [4usize, 5] {
        let spec = &specs[idx];
        let model = build(spec, &CompileOptions::default());
        let instances = (spec.make_instances)(0x5EED, 6);
        let keys: Vec<u64> = (0..instances.len() as u64).collect();
        let reference =
            model.run_keyed(&spec.params, &instances, &keys).expect("keyed reference").outputs;
        // Keys equal to slot indices reproduce the unkeyed behaviour.
        let unkeyed = model.run(&spec.params, &instances).expect("unkeyed run").outputs;
        assert_outputs_equal(spec, &reference, &unkeyed, "identity keys == unkeyed");

        let perm = [3usize, 0, 5, 1, 4, 2];
        let shuffled: Vec<Vec<InputValue>> = perm.iter().map(|&i| instances[i].clone()).collect();
        let shuffled_keys: Vec<u64> = perm.iter().map(|&i| keys[i]).collect();
        let permuted = model
            .run_keyed(&spec.params, &shuffled, &shuffled_keys)
            .expect("shuffled keyed run")
            .outputs;
        for (slot, &orig) in perm.iter().enumerate() {
            let (a, b) = ((spec.flatten_output)(&reference[orig]), {
                (spec.flatten_output)(&permuted[slot])
            });
            assert_eq!(a.len(), b.len(), "{}: instance {orig} tensor count", spec.name);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.data(), y.data(), "{}: instance {orig} diverged", spec.name);
            }
        }
    }
}

/// Serial and concurrent executions of the same workload merge to identical
/// aggregate counters (launches, gathers, bytes moved, …) in
/// [`Model::stats`].
#[test]
fn aggregate_stats_identical_serial_vs_concurrent() {
    let spec = suite(ModelSize::Small, true).remove(0);
    let instances = (spec.make_instances)(0x57A7, 4);
    const RUNS: usize = 6;

    let serial = build(&spec, &CompileOptions::default());
    for _ in 0..RUNS {
        serial.run(&spec.params, &instances).expect("serial run");
    }

    let concurrent = build(&spec, &CompileOptions::default());
    run_many_threads(&concurrent, &spec.params, &instances, 3, RUNS / 3);

    let (s, c) = (serial.stats(), concurrent.stats());
    assert_eq!(serial.runs_completed(), RUNS as u64);
    assert_eq!(concurrent.runs_completed(), RUNS as u64);
    // Wall-clock fields differ by machine noise; every counter must match.
    assert_eq!(s.nodes, c.nodes);
    assert_eq!(s.kernel_launches, c.kernel_launches);
    assert_eq!(s.gather_copies, c.gather_copies);
    assert_eq!(s.gather_bytes, c.gather_bytes);
    assert_eq!(s.contiguous_hits, c.contiguous_hits);
    assert_eq!(s.memcpy_ops, c.memcpy_ops);
    assert_eq!(s.memcpy_bytes, c.memcpy_bytes);
    assert_eq!(s.flops, c.flops);
    assert_eq!(s.flushes, c.flushes);
    assert_eq!(s.device_peak_elements, c.device_peak_elements);
}
