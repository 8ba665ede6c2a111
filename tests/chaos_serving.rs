//! Chaos-serving harness: the capstone test for the resilient request
//! lifecycle.
//!
//! N threads × M requests hammer one shared [`Model`] while a seeded mix of
//! disruptions is injected per request: probabilistic fault storms
//! (`FaultMode::Rate`), zero-budget virtual deadlines (deterministic
//! misses) and pre-cancelled tokens (deterministic cancellations).  The
//! properties checked:
//!
//! * every disrupted request fails with the *right* error class —
//!   cancellation surfaces [`VmError::Cancelled`], deadline misses surface
//!   [`VmError::DeadlineExceeded`], exhausted fault storms surface the
//!   injected tensor error;
//! * every request that completes — including storm-hit requests rescued by
//!   transient-fault retry — is bit-for-bit identical to a fault-free
//!   serial reference execution, and a clean one never retries (no storm
//!   leaks into it through a recycled context);
//! * the aggregate ledger is consistent: outcome counters sum to the total
//!   request count, `runs_completed` equals the completed count, the
//!   aggregate statistics equal the per-run sum over completed runs only
//!   (failed runs leak nothing), and every failed run's context was
//!   quarantined rather than recycled;
//! * the fiber hub always terminates (the whole harness finishes without
//!   any watchdog firing).

use acrobat_bench::suite;
use acrobat_core::{
    CompileOptions, FaultKind, FaultPlan, FaultSite, RunOptions, RuntimeStats, ServeOutcomes,
    VmError,
};
use acrobat_models::testkit::{assert_outputs_equal, build};
use acrobat_models::{ModelSize, ModelSpec};
use acrobat_runtime::CancelToken;
use acrobat_tensor::TensorError;

/// Chaos-mode compile options: transient-fault retry on, everything else
/// default.  Both the chaos model and the fault-free reference use these,
/// so outputs are comparable bit for bit.  `plan_cache` turns on
/// flush-plan memoization (the reference stays cache-off, so survivor
/// equality also proves cache-on ≡ cache-off).
fn chaos_options(plan_cache: bool) -> CompileOptions {
    let mut options = CompileOptions::default();
    options.runtime.max_retries = 3;
    options.runtime.plan_cache = plan_cache;
    options
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// What to inject into one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disruption {
    /// No injection: must complete bit-for-bit.
    Clean,
    /// Seeded probabilistic fault storm on kernel launches.  May trip zero
    /// or more times; retry may rescue the run.
    Storm(u64),
    /// Zero-budget virtual deadline: deterministically misses.
    ZeroDeadline,
    /// Token cancelled before submission: deterministically cancelled.
    PreCancelled,
}

fn disruption_for(seed: u64, thread: usize, run: usize) -> Disruption {
    let mut s = seed ^ ((thread as u64) << 32) ^ ((run as u64) << 8);
    match splitmix(&mut s) % 8 {
        0..=2 => Disruption::Storm(splitmix(&mut s)),
        3 => Disruption::ZeroDeadline,
        4 => Disruption::PreCancelled,
        _ => Disruption::Clean,
    }
}

/// Tally of one worker thread's results.
#[derive(Debug, Default)]
struct Tally {
    completed: Vec<RuntimeStats>,
    storm_failures: u64,
    deadline_misses: u64,
    cancellations: u64,
}

/// One chaos round over one model spec; asserts all lifecycle properties.
/// `checked` runs the chaos model itself in checked mode.
fn chaos_round(
    spec: &ModelSpec,
    threads: usize,
    runs_per_thread: usize,
    seed: u64,
    plan_cache: bool,
    checked: bool,
) {
    let options = chaos_options(plan_cache).with_checked(checked);
    // Fault-free serial reference on a separate cache-off, checked model,
    // so the chaos model's outcome ledger stays exactly the chaos traffic
    // and its outputs are the interpreter's bits (checked mode re-executes
    // every compiled launch through it) — survivors additionally prove
    // compiled ≡ interpreter and, with `plan_cache`, cache-on ≡ cache-off.
    let reference_model = build(spec, &chaos_options(false).with_checked(true));
    let instances = (spec.make_instances)(0xC8A0, 4);
    let reference =
        reference_model.run(&spec.params, &instances).expect("fault-free reference").outputs;

    let model = build(spec, &options);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (model, instances, reference) = (&model, &instances, &reference);
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for r in 0..runs_per_thread {
                        let disruption = disruption_for(seed, t, r);
                        let mut opts = RunOptions::default();
                        match disruption {
                            Disruption::Clean => {}
                            Disruption::Storm(storm_seed) => {
                                let plan = format!("launch:rate=1%@{storm_seed}:kernel");
                                opts.fault =
                                    Some(FaultPlan::parse(&plan).expect("storm plan parses"));
                            }
                            Disruption::ZeroDeadline => opts.deadline_us = Some(0.0),
                            Disruption::PreCancelled => {
                                let token = CancelToken::new();
                                token.cancel();
                                opts.cancel = Some(token);
                            }
                        }
                        match model.run_with(&spec.params, instances, &opts) {
                            Ok(result) => {
                                assert!(
                                    disruption == Disruption::Clean
                                        || matches!(disruption, Disruption::Storm(_)),
                                    "{}: {disruption:?} must not complete",
                                    spec.name
                                );
                                assert_outputs_equal(
                                    spec,
                                    reference,
                                    &result.outputs,
                                    "chaos survivor",
                                );
                                if disruption == Disruption::Clean {
                                    assert_eq!(
                                        result.stats.retries, 0,
                                        "{}: clean retry",
                                        spec.name
                                    );
                                }
                                tally.completed.push(result.stats);
                            }
                            Err(e) => match disruption {
                                Disruption::Clean => {
                                    panic!("{}: clean request failed: {e}", spec.name)
                                }
                                Disruption::Storm(_) => {
                                    let vm = e.as_vm().unwrap_or_else(|| {
                                        panic!("{}: storm failure is execution-side", spec.name)
                                    });
                                    assert!(
                                        matches!(vm, VmError::Tensor(TensorError::Injected { .. })),
                                        "{}: storm failed with wrong error: {vm}",
                                        spec.name
                                    );
                                    tally.storm_failures += 1;
                                }
                                Disruption::ZeroDeadline => {
                                    assert!(
                                        e.is_deadline_exceeded(),
                                        "{}: zero deadline gave wrong error: {e}",
                                        spec.name
                                    );
                                    tally.deadline_misses += 1;
                                }
                                Disruption::PreCancelled => {
                                    assert!(
                                        e.is_cancelled(),
                                        "{}: pre-cancelled gave wrong error: {e}",
                                        spec.name
                                    );
                                    tally.cancellations += 1;
                                }
                            },
                        }
                    }
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("chaos worker panicked")).collect()
    });

    // Ledger consistency.
    let completed: Vec<&RuntimeStats> = tallies.iter().flat_map(|t| &t.completed).collect();
    let storm_failures: u64 = tallies.iter().map(|t| t.storm_failures).sum();
    let deadline_misses: u64 = tallies.iter().map(|t| t.deadline_misses).sum();
    let cancellations: u64 = tallies.iter().map(|t| t.cancellations).sum();
    let total = (threads * runs_per_thread) as u64;

    let outcomes = model.outcomes();
    assert_eq!(outcomes.total(), total, "{}: every request lands in one counter", spec.name);
    assert_eq!(outcomes.completed, completed.len() as u64, "{}: completed", spec.name);
    assert_eq!(outcomes.failed, storm_failures, "{}: failed", spec.name);
    assert_eq!(outcomes.deadline_exceeded, deadline_misses, "{}: deadline", spec.name);
    assert_eq!(outcomes.cancelled, cancellations, "{}: cancelled", spec.name);
    assert_eq!(outcomes.timed_out, 0, "{}: no hub watchdog fired", spec.name);
    assert_eq!(model.runs_completed(), outcomes.completed, "{}: runs_completed", spec.name);

    // Every context that observed a fault is quarantined, whether the run
    // failed or was rescued by retry; untouched completions recycle theirs.
    let rescued = completed.iter().filter(|s| s.aborted_flushes > 0).count() as u64;
    assert_eq!(
        model.quarantined_count(),
        storm_failures + deadline_misses + cancellations + rescued,
        "{}: one quarantined context per fault-observing run",
        spec.name
    );

    // Aggregate statistics equal the per-run sum over completed runs only:
    // failed runs leak nothing, retried flushes count once.
    let agg = model.stats();
    macro_rules! sum_eq {
        ($field:ident) => {
            assert_eq!(
                agg.$field,
                completed.iter().map(|s| s.$field).sum::<u64>(),
                concat!("{}: aggregate ", stringify!($field)),
                spec.name
            );
        };
    }
    sum_eq!(nodes);
    sum_eq!(kernel_launches);
    sum_eq!(gather_copies);
    sum_eq!(gather_bytes);
    sum_eq!(memcpy_ops);
    sum_eq!(memcpy_bytes);
    sum_eq!(flops);
    sum_eq!(flushes);
    sum_eq!(aborted_flushes);
    sum_eq!(retries);
    sum_eq!(plan_cache_hits);
    sum_eq!(plan_cache_misses);
    sum_eq!(plan_cache_evictions);
    sum_eq!(backend_compiles);
    sum_eq!(backend_hits);
    assert_eq!(
        agg.backend_compiles + agg.backend_hits,
        agg.kernel_launches,
        "{}: every completed launch ran a compiled kernel",
        spec.name
    );

    // The model stays healthy after the storm.
    let after = model.run(&spec.params, &instances).expect("run after chaos").outputs;
    assert_outputs_equal(spec, &reference, &after, "run after chaos");
}

/// Chaos over the sequential recursive model (TreeLSTM: no
/// tensor-dependent control flow, pure flush-path lifecycle).  Survivors
/// (including storm-hit requests rescued by retry) stay bit-for-bit the
/// checked reference's, and aborted flushes roll the compile/hit launch
/// counters back with the rest of the per-run statistics.
#[test]
fn chaos_serving_sequential_model() {
    let spec = suite(ModelSize::Small, true).remove(0);
    chaos_round(&spec, 4, 6, 0xC0A5_0001, false, false);
}

/// Chaos over the fiber-mode model (DRNN: tensor-dependent control flow,
/// so cancellation/deadline/fault poison must drain suspended fibers)
/// while concurrent requests race on the shared compiled-kernel cache.
#[test]
fn chaos_serving_fiber_model() {
    let spec = suite(ModelSize::Small, true).remove(4);
    chaos_round(&spec, 3, 4, 0xC0A5_0002, false, false);
}

/// The sequential-model chaos round with flush-plan memoization on: every
/// survivor must stay bit-for-bit identical to the *cache-off* fault-free
/// reference, and fault-observing (tainted/quarantined) contexts must not
/// poison the shared plan cache for the clean requests hitting it.
#[test]
fn chaos_serving_sequential_model_plan_cache() {
    let spec = suite(ModelSize::Small, true).remove(0);
    chaos_round(&spec, 4, 6, 0xC0A5_0005, true, false);
}

/// The fiber-model chaos round with flush-plan memoization on.
#[test]
fn chaos_serving_fiber_model_plan_cache() {
    let spec = suite(ModelSize::Small, true).remove(4);
    chaos_round(&spec, 3, 4, 0xC0A5_0006, true, false);
}

/// The sequential-model chaos round with the chaos model itself in checked
/// mode: every compiled launch it makes — including those of storm-hit
/// flushes that abort and retry — is re-executed through the interpreter
/// and bit-compared, survivors stay bit-for-bit the reference's, and
/// aborted flushes roll the compile/hit launch counters back with the rest
/// of the per-run statistics.
#[test]
fn chaos_serving_sequential_model_spec_backend() {
    let spec = suite(ModelSize::Small, true).remove(0);
    chaos_round(&spec, 4, 6, 0xC0A5_0007, false, true);
}

/// The fiber-model chaos round with the chaos model in checked mode:
/// concurrent requests race on the shared compiled-kernel cache while
/// disruptions poison suspended fibers, and every compiled launch is held
/// to the interpreter.
#[test]
fn chaos_serving_fiber_model_spec_backend() {
    let spec = suite(ModelSize::Small, true).remove(4);
    chaos_round(&spec, 3, 4, 0xC0A5_0008, false, true);
}

/// Aggregate-stat spot check reused from the storm path: a storm-heavy
/// serial sequence (every request faulted at a high rate) either fails
/// with the injected error or completes bit-for-bit, and the session stays
/// consistent — the serial twin of the concurrent rounds above.
#[test]
fn serial_fault_storm_sweep_is_classified_and_consistent() {
    let spec = suite(ModelSize::Small, true).remove(0);
    let model = build(&spec, &chaos_options(false));
    let instances = (spec.make_instances)(0x5707, 3);
    let reference = {
        let clean = build(&spec, &chaos_options(false).with_checked(true));
        clean.run(&spec.params, &instances).expect("reference").outputs
    };

    let mut completed = 0u64;
    let mut failed = 0u64;
    for storm_seed in 0..16u64 {
        let plan = format!("launch:rate=5%@{storm_seed}:kernel");
        let opts = RunOptions {
            fault: Some(FaultPlan::parse(&plan).expect("plan parses")),
            ..RunOptions::default()
        };
        match model.run_with(&spec.params, &instances, &opts) {
            Ok(r) => {
                assert_outputs_equal(&spec, &reference, &r.outputs, "storm survivor");
                completed += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e.as_vm(), Some(VmError::Tensor(TensorError::Injected { .. }))),
                    "storm failure class: {e}"
                );
                failed += 1;
            }
        }
    }
    assert!(completed > 0, "at 5% with retry, some storms are survivable");
    let outcomes = model.outcomes();
    assert_eq!(outcomes.completed, completed);
    assert_eq!(outcomes.failed, failed);
    assert!(model.quarantined_count() >= failed, "failed storms always quarantine");
    assert_eq!(model.runs_completed(), completed);
}

/// A request that fails is executed, counted and quarantined once: its
/// error is its genuine outcome, and it merges nothing.
#[test]
fn failing_request_runs_once() {
    let spec = suite(ModelSize::Small, true).remove(0);
    let model = build(&spec, &CompileOptions::default());
    let fault = FaultPlan::nth(FaultSite::Launch, 0, FaultKind::Kernel);
    let opts = RunOptions { fault: Some(fault), ..Default::default() };
    let err = model.run_with(&spec.params, &(spec.make_instances)(0xB0B0, 2), &opts).unwrap_err();
    assert!(matches!(err.as_vm(), Some(VmError::Tensor(TensorError::Injected { .. }))), "{err}");
    assert_eq!(model.quarantined_count(), 1, "one execution, one quarantined context");
    assert_eq!(model.outcomes(), ServeOutcomes { failed: 1, ..Default::default() });
    assert_eq!(model.runs_completed(), 0, "a failed run merges nothing");
}
