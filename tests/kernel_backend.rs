//! Integration tests for the kernel-backend abstraction
//! (`acrobat_codegen::backend`): specialized execution — the default — is
//! bit-for-bit identical to the reference interpreter across the model
//! suite, modeled statistics are backend-invariant, checked mode
//! cross-validates every compiled launch, and an engine retune (PGO)
//! invalidates the compiled-kernel cache exactly like it invalidates the
//! plan cache.  Every reference model here names the interpreter
//! explicitly ([`interp_options`]).

use acrobat_bench::suite;
use acrobat_codegen::KernelBackendKind;
use acrobat_core::CompileOptions;
use acrobat_models::testkit::{assert_outputs_equal as assert_bit_identical, build};
use acrobat_models::{ModelSize, ModelSpec};
use acrobat_runtime::context::{lane_parts, SPLIT_MIN_FLOPS};

/// The oracle: the reference interpreter, which no default selects.
fn interp_options() -> CompileOptions {
    CompileOptions::default().with_kernel_backend(KernelBackendKind::Interp)
}

/// The specialized backend must be bit-for-bit identical to the
/// interpreter over the whole quick suite — on the cold request (kernels
/// compile mid-run) and on warm steady-state requests (cache hits) — and
/// every *modeled* statistic must be backend-invariant: the backend only
/// changes how the execute phase runs on the host, never what is modeled.
#[test]
fn spec_matches_interp_bit_for_bit_across_suite() {
    for spec in suite(ModelSize::Small, true) {
        let instances = (spec.make_instances)(0xBACE, 4);
        let interp = build(&spec, &interp_options());
        let specialized =
            build(&spec, &CompileOptions::default().with_kernel_backend(KernelBackendKind::Spec));
        let want = interp.run(&spec.params, &instances).expect("interp run");
        for round in 0..3 {
            let got = specialized.run(&spec.params, &instances).expect("spec run");
            assert_bit_identical(&spec, &want.outputs, &got.outputs, &format!("round {round}"));
            assert_eq!(
                want.stats.kernel_launches, got.stats.kernel_launches,
                "{}: modeled launches are backend-invariant",
                spec.name
            );
            assert_eq!(
                want.stats.kernel_time_us, got.stats.kernel_time_us,
                "{}: modeled kernel time is backend-invariant",
                spec.name
            );
            assert_eq!(
                want.stats.gather_bytes, got.stats.gather_bytes,
                "{}: modeled gather traffic is backend-invariant",
                spec.name
            );
        }
        // The interpreter backend never touches the backend counters...
        assert_eq!(want.stats.backend_compiles, 0, "{}: interp compiles", spec.name);
        assert_eq!(want.stats.backend_hits, 0, "{}: interp hits", spec.name);
        assert_eq!(want.stats.backend_interp_falls, 0, "{}: interp falls", spec.name);
        // ...while every launch of the specialized model runs compiled and
        // is classified exactly once.
        let agg = specialized.stats();
        assert!(agg.backend_compiles > 0, "{}: specialized backend compiled nothing", spec.name);
        assert!(agg.backend_hits > 0, "{}: compiled kernels were never reused", spec.name);
        assert_eq!(agg.backend_interp_falls, 0, "{}: spec must never fall back", spec.name);
        let classified = agg.backend_compiles + agg.backend_hits + agg.backend_interp_falls;
        assert_eq!(classified, agg.kernel_launches, "{}: launches classified", spec.name);
    }
}

/// `CompileOptions::default()` runs compiled: every launch of a default
/// model is a compile or a cache hit, its outputs are the interpreter's
/// bits over the quick suite, and every modeled account — the whole
/// `RuntimeStats` ledger the paper artifacts are printed from — is equal to
/// the digit.
#[test]
fn default_backend_is_compiled() {
    for spec in suite(ModelSize::Small, true) {
        let instances = (spec.make_instances)(0xDEFA, 4);
        let want = build(&spec, &interp_options()).run(&spec.params, &instances).expect("interp");
        let got =
            build(&spec, &CompileOptions::default()).run(&spec.params, &instances).expect("run");
        assert_bit_identical(&spec, &want.outputs, &got.outputs, "default vs interpreter");
        let (w, g) = (&want.stats, &got.stats);
        assert_eq!(g.backend_hits + g.backend_compiles, g.kernel_launches, "{}", spec.name);
        assert_eq!(w.backend_hits + w.backend_compiles, 0, "{}: the oracle compiles", spec.name);
        // Everything but the measured wall-clock fields and the backend's
        // own two counters.
        let modeled = |s: &acrobat_core::RuntimeStats| acrobat_core::RuntimeStats {
            host_wall_us: 0.0,
            exec_wall_us: 0.0,
            program_host_us: 0.0,
            backend_compiles: 0,
            backend_hits: 0,
            ..*s
        };
        assert_eq!(modeled(w), modeled(g), "{}: modeled accounts and counts", spec.name);
    }
}

/// Kernels compiled so far by `model`'s current engine.
fn compiled_count(model: &acrobat_core::Model) -> usize {
    model.executable().session.engine().backend().expect("a Spec engine").compiled_count()
}

/// A kernel compiles once, whatever lane counts it is launched at: one
/// checked `Spec` engine serves the same TreeLSTM at request sizes whose
/// launches land in all three tile widths, bit-identical to the
/// interpreter, and only first launches compile.
#[test]
fn one_compile_serves_every_lane_count() {
    let spec = &suite(ModelSize::Small, true)[0];
    let interp = build(spec, &interp_options());
    let specialized = build(
        spec,
        &CompileOptions::default().with_kernel_backend(KernelBackendKind::Spec).with_checked(true),
    );
    let mut compiles = 0;
    for instances in [1, 3, 4, 15, 16, 64] {
        let instances = (spec.make_instances)(0x71E5, instances);
        let want = interp.run(&spec.params, &instances).expect("interp run");
        let got = specialized.run(&spec.params, &instances).expect("checked spec run");
        let what = format!("{} instances", instances.len());
        assert_bit_identical(spec, &want.outputs, &got.outputs, &what);
        compiles += got.stats.backend_compiles;
        assert_eq!(compiles, compiled_count(&specialized) as u64, "{what}: one compile per kernel");
    }
    let kernels = specialized.executable().session.engine().library().len();
    assert!(compiled_count(&specialized) <= kernels, "more compiled kernels than kernels");
}

/// Checked mode re-executes every compiled launch through the interpreter
/// and compares output bits — the strongest identity gate; a run
/// completing cleanly means every single compiled launch matched.
#[test]
fn checked_mode_validates_every_compiled_launch() {
    for spec in suite(ModelSize::Small, true).iter().take(3) {
        let instances = (spec.make_instances)(0xC4EC, 3);
        let model = build(
            spec,
            &CompileOptions::default()
                .with_kernel_backend(KernelBackendKind::Spec)
                .with_checked(true),
        );
        let r = model.run(&spec.params, &instances).expect("checked spec run");
        assert!(
            r.stats.backend_compiles + r.stats.backend_hits > 0,
            "{}: checked run exercised the compiled path",
            spec.name
        );
    }
}

/// TreeLSTM at the paper's Small hidden size: with 24 instances the gate
/// launches carry ≈ 12 MFLOP each, over `SPLIT_MIN_FLOPS`, so their lanes
/// execute as a split ([`Selection::execute_lanes`]) on a multi-core host.
///
/// [`Selection::execute_lanes`]: acrobat_codegen::Selection::execute_lanes
fn over_threshold_workload() -> (ModelSpec, Vec<Vec<acrobat_vm::InputValue>>) {
    let spec = acrobat_models::treelstm::spec_with(256, 5);
    let instances = (spec.make_instances)(0x5917, 24);
    (spec, instances)
}

/// Asserts, through the runtime's own policy function, that a run's
/// launches were big enough to take the split branch: the mean launch is
/// over the constant, so the largest one is too.
fn assert_split_branch_taken(stats: &acrobat_core::RuntimeStats, lanes: usize) {
    let mean_launch_flops = stats.flops / stats.kernel_launches;
    assert!(mean_launch_flops >= SPLIT_MIN_FLOPS, "mean launch {mean_launch_flops} FLOP");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(lane_parts(mean_launch_flops, lanes), cores.min(lanes));
}

/// Split launches end to end, in checked mode on both kernel backends:
/// bit-identical to the unbatched eager evaluator, whose one-lane launches
/// never split.
#[test]
fn split_launches_match_eager_reference_on_both_backends() {
    let (spec, instances) = over_threshold_workload();
    let mut eager = CompileOptions::default().with_checked(true);
    eager.runtime.eager = true;
    let want = build(&spec, &eager).run(&spec.params, &instances).expect("eager reference");
    assert_eq!(want.stats.kernel_launches, want.stats.nodes, "eager: one lane per launch");
    for backend in [KernelBackendKind::Interp, KernelBackendKind::Spec] {
        let options = CompileOptions::default().with_checked(true).with_kernel_backend(backend);
        let got = build(&spec, &options).run(&spec.params, &instances).expect("batched run");
        assert_split_branch_taken(&got.stats, instances.len());
        assert_bit_identical(&spec, &want.outputs, &got.outputs, &format!("{backend:?} vs eager"));
    }
}

/// The helper threads of a split launch execute the kernel the flushing
/// thread selected from the engine-resident compiled-kernel cache: nothing
/// is compiled per thread, a warm request compiles nothing at all, and
/// outputs stay bit-identical to the interpreter.
#[test]
fn lane_workers_share_compiled_cache() {
    let (spec, instances) = over_threshold_workload();
    let want =
        build(&spec, &interp_options()).run(&spec.params, &instances).expect("interpreter run");
    let specialized =
        build(&spec, &CompileOptions::default().with_kernel_backend(KernelBackendKind::Spec));
    let cold = specialized.run(&spec.params, &instances).expect("cold spec run");
    assert_split_branch_taken(&cold.stats, instances.len());
    assert_bit_identical(&spec, &want.outputs, &cold.outputs, "cold split vs interpreter");
    let compiled = compiled_count(&specialized) as u64;
    assert_eq!(cold.stats.backend_compiles, compiled, "one compile per cache entry");
    let warm = specialized.run(&spec.params, &instances).expect("warm spec run");
    assert_eq!(warm.stats.backend_compiles, 0, "warm split launches only hit the cache");
    assert_eq!(warm.stats.backend_hits, warm.stats.kernel_launches);
    assert_bit_identical(&spec, &want.outputs, &warm.outputs, "warm split vs interpreter");
}

/// An engine retune (PGO) must invalidate the compiled-kernel cache: the
/// retuned library can carry different schedules, so stale compiled
/// kernels must not survive the swap.  Mirrors the plan-cache
/// invalidation contract.
#[test]
fn retune_invalidates_compiled_kernel_cache() {
    let spec = &suite(ModelSize::Small, true)[0];
    let instances = (spec.make_instances)(0x9107, 4);
    let mut model =
        build(spec, &CompileOptions::default().with_kernel_backend(KernelBackendKind::Spec));
    let interp = build(spec, &interp_options());
    let want = interp.run(&spec.params, &instances).expect("interp reference");

    // Cold engine: first run compiles.
    let r1 = model.run(&spec.params, &instances).expect("cold run");
    assert!(r1.stats.backend_compiles > 0, "cold run compiles");
    assert!(compiled_count(&model) > 0, "engine cache holds compiled kernels");

    // Warm engine: steady state is all cache hits, zero fresh compiles.
    let r2 = model.run(&spec.params, &instances).expect("warm run");
    assert_eq!(r2.stats.backend_compiles, 0, "warm run compiles nothing");
    assert!(r2.stats.backend_hits > 0, "warm run hits the compiled cache");

    // PGO retune: swaps the engine; the new backend starts empty (stale
    // compiled kernels die with the old engine), so kernels recompile on
    // their first launch.
    model.apply_pgo(&spec.params, &instances).expect("pgo retune");
    assert_eq!(
        compiled_count(&model),
        0,
        "retuned engine starts with an empty compiled-kernel cache"
    );
    let r3 = model.run(&spec.params, &instances).expect("post-retune run");
    assert!(r3.stats.backend_compiles > 0, "post-retune run recompiles");
    assert_bit_identical(spec, &want.outputs, &r3.outputs, "post-retune outputs");
}
