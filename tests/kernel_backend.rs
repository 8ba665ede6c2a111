//! Integration tests for the kernel executor (`acrobat_codegen::backend`):
//! every launch runs a compiled kernel, bit-for-bit identical to the
//! reference interpreter across the model suite; checked mode
//! cross-validates every compiled launch without moving a modeled
//! statistic; a kernel compiles once whatever its lane counts; and an
//! engine retune (PGO) invalidates the compiled-kernel cache exactly like
//! it invalidates the plan cache.  Every reference model here is the
//! oracle, [`checked_options`].

use acrobat_bench::suite;
use acrobat_core::CompileOptions;
use acrobat_models::testkit::{assert_outputs_equal as assert_bit_identical, build};
use acrobat_models::{ModelSize, ModelSpec};
use acrobat_runtime::context::{lane_parts, SPLIT_MIN_FLOPS};

/// The oracle: checked mode re-executes every compiled launch through the
/// reference interpreter, panics on any output-bit divergence and leaves
/// the interpreter's bits in memory, so its outputs are the interpreter's.
fn checked_options() -> CompileOptions {
    CompileOptions::default().with_checked(true)
}

/// The compiled kernels must be bit-for-bit identical to the interpreter
/// (the checked oracle's bits) over the whole quick suite — on the cold
/// request (kernels compile mid-run) and on warm steady-state requests
/// (cache hits) — and every launch is classified exactly once, as a
/// compile or a cache hit.
#[test]
fn spec_matches_interp_bit_for_bit_across_suite() {
    for spec in suite(ModelSize::Small, true) {
        let instances = (spec.make_instances)(0xBACE, 4);
        let want = build(&spec, &checked_options()).run(&spec.params, &instances).expect("oracle");
        let model = build(&spec, &CompileOptions::default());
        for round in 0..3 {
            let got = model.run(&spec.params, &instances).expect("run");
            assert_bit_identical(&spec, &want.outputs, &got.outputs, &format!("round {round}"));
            let (w, g) = (&want.stats, &got.stats);
            assert_eq!(g.backend_compiles + g.backend_hits, g.kernel_launches, "{}", spec.name);
            assert_eq!(w.kernel_launches, g.kernel_launches, "{}: modeled launches", spec.name);
            assert_eq!(w.kernel_time_us, g.kernel_time_us, "{}: modeled kernel time", spec.name);
            assert_eq!(w.gather_bytes, g.gather_bytes, "{}: modeled gather traffic", spec.name);
        }
        let agg = model.stats();
        assert!(agg.backend_compiles > 0, "{}: nothing compiled", spec.name);
        assert!(agg.backend_hits > 0, "{}: compiled kernels were never reused", spec.name);
    }
}

/// `CompileOptions::default()` runs compiled and unchecked: every launch of
/// a default model is a compile or a cache hit, its outputs are the checked
/// oracle's bits over the quick suite, and every modeled account — the
/// whole `RuntimeStats` ledger the paper artifacts are printed from — is
/// equal to the digit: checking changes what runs on the host, never what
/// is modeled.
#[test]
fn default_backend_is_compiled() {
    for spec in suite(ModelSize::Small, true) {
        let instances = (spec.make_instances)(0xDEFA, 4);
        let want = build(&spec, &checked_options()).run(&spec.params, &instances).expect("oracle");
        let got =
            build(&spec, &CompileOptions::default()).run(&spec.params, &instances).expect("run");
        assert_bit_identical(&spec, &want.outputs, &got.outputs, "default vs oracle");
        let (w, g) = (&want.stats, &got.stats);
        assert_eq!(g.backend_compiles + g.backend_hits, g.kernel_launches, "{}", spec.name);
        assert!(g.backend_compiles > 0, "{}: a cold default model compiles", spec.name);
        // Everything but the measured wall-clock fields.
        let modeled = |s: &acrobat_core::RuntimeStats| acrobat_core::RuntimeStats {
            host_wall_us: 0.0,
            exec_wall_us: 0.0,
            program_host_us: 0.0,
            ..*s
        };
        assert_eq!(modeled(w), modeled(g), "{}: modeled accounts and counts", spec.name);
    }
}

/// Kernels compiled so far by `model`'s current engine.
fn compiled_count(model: &acrobat_core::Model) -> usize {
    model.executable().session.engine().backend().compiled_count()
}

/// A kernel compiles once, whatever lane counts it is launched at: one
/// checked engine serves the same TreeLSTM at request sizes whose launches
/// land in all three tile widths, every launch held to the interpreter's
/// bits, and only first launches compile.
#[test]
fn one_compile_serves_every_lane_count() {
    let spec = &suite(ModelSize::Small, true)[0];
    let specialized = build(spec, &checked_options());
    let mut compiles = 0;
    for instances in [1, 3, 4, 15, 16, 64] {
        let instances = (spec.make_instances)(0x71E5, instances);
        let got = specialized.run(&spec.params, &instances).expect("checked run");
        let what = format!("{} instances", instances.len());
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
        let model = build(spec, &checked_options());
        let r = model.run(&spec.params, &instances).expect("checked run");
        assert!(
            r.stats.backend_compiles + r.stats.backend_hits > 0,
            "{}: checked run exercised the compiled path",
            spec.name
        );
    }
}

/// TreeLSTM at the paper's Small hidden size: with 24 instances the gate
/// launches carry ≈ 12 MFLOP each, over `SPLIT_MIN_FLOPS`, so their lanes
/// execute as a split ([`CompiledKernel::execute_lanes`]) on a multi-core
/// host.
///
/// [`CompiledKernel::execute_lanes`]: acrobat_codegen::CompiledKernel::execute_lanes
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

/// Split launches end to end, in checked mode, so on both executors — each
/// lane range runs compiled and then through the interpreter, bit-compared:
/// bit-identical to the unbatched eager evaluator, whose one-lane launches
/// never split.
#[test]
fn split_launches_match_eager_reference_on_both_backends() {
    let (spec, instances) = over_threshold_workload();
    let mut eager = checked_options();
    eager.runtime.eager = true;
    let want = build(&spec, &eager).run(&spec.params, &instances).expect("eager reference");
    assert_eq!(want.stats.kernel_launches, want.stats.nodes, "eager: one lane per launch");
    let got = build(&spec, &checked_options()).run(&spec.params, &instances).expect("batched run");
    assert_split_branch_taken(&got.stats, instances.len());
    assert_bit_identical(&spec, &want.outputs, &got.outputs, "batched vs eager");
}

/// The helper threads of a split launch execute the kernel the flushing
/// thread selected from the engine-resident compiled-kernel cache: nothing
/// is compiled per thread, a warm request compiles nothing at all, and
/// outputs stay bit-identical to the checked oracle.
#[test]
fn lane_workers_share_compiled_cache() {
    let (spec, instances) = over_threshold_workload();
    let want = build(&spec, &checked_options()).run(&spec.params, &instances).expect("oracle");
    let specialized = build(&spec, &CompileOptions::default());
    let cold = specialized.run(&spec.params, &instances).expect("cold run");
    assert_split_branch_taken(&cold.stats, instances.len());
    assert_bit_identical(&spec, &want.outputs, &cold.outputs, "cold split vs oracle");
    let compiled = compiled_count(&specialized) as u64;
    assert_eq!(cold.stats.backend_compiles, compiled, "one compile per cache entry");
    let warm = specialized.run(&spec.params, &instances).expect("warm run");
    assert_eq!(warm.stats.backend_compiles, 0, "warm split launches only hit the cache");
    assert_eq!(warm.stats.backend_hits, warm.stats.kernel_launches);
    assert_bit_identical(&spec, &want.outputs, &warm.outputs, "warm split vs oracle");
}

/// Two requests splitting launches at the same time, each on its own
/// pooled context with its own parked helpers, return the checked
/// oracle's bits, request after request.
#[test]
fn concurrent_contexts_oracle_bits() {
    let (spec, instances) = over_threshold_workload();
    let want = build(&spec, &checked_options()).run(&spec.params, &instances).expect("oracle");
    let model = build(&spec, &CompileOptions::default());
    std::thread::scope(|s| {
        let requests: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    (0..2)
                        .map(|_| model.run(&spec.params, &instances).expect("run"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for request in requests {
            for got in request.join().unwrap() {
                assert_split_branch_taken(&got.stats, instances.len());
                assert_bit_identical(&spec, &want.outputs, &got.outputs, "concurrent split");
            }
        }
    });
}

/// An engine retune (PGO) must invalidate the compiled-kernel cache: the
/// retuned library can carry different schedules, so stale compiled
/// kernels must not survive the swap.  Mirrors the plan-cache
/// invalidation contract.
#[test]
fn retune_invalidates_compiled_kernel_cache() {
    let spec = &suite(ModelSize::Small, true)[0];
    let instances = (spec.make_instances)(0x9107, 4);
    let mut model = build(spec, &CompileOptions::default());
    let want = build(spec, &checked_options()).run(&spec.params, &instances).expect("oracle");

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

/// Zero-element operands — a `(1, 0)` input, a `(1, 0) × (0, 4)` matmul
/// (an empty sum: `+0.0` everywhere) and a `(1, 0)` constant — run in
/// checked mode, so on both executors, over two instances so shared
/// operands and constants are broadcast to a second lane.
#[test]
fn zero_element_operands_run_on_both_backends() {
    use acrobat_vm::{InputValue, OutputValue};
    let empty = || acrobat_core::Tensor::from_vec(vec![], &[1, 0]).unwrap();
    let cases: [(&str, Vec<InputValue>, &[usize]); 3] = [
        (
            "def @main(%x: Tensor[(1, 0)]) -> Tensor[(1, 0)] { relu(%x) }",
            vec![InputValue::Tensor(empty())],
            &[1, 0],
        ),
        (
            "def @main($w: Tensor[(0, 4)], %x: Tensor[(1, 0)]) -> Tensor[(1, 4)] {
                matmul(%x, $w)
             }",
            vec![InputValue::Tensor(empty())],
            &[1, 4],
        ),
        ("def @main() -> Tensor[(1, 0)] { zeros[shape=(1, 0)]() }", vec![], &[1, 0]),
    ];
    let params: acrobat_core::Params =
        [("w".to_string(), acrobat_core::Tensor::from_vec(vec![], &[0, 4]).unwrap())].into();
    for (src, inputs, dims) in cases {
        let model = acrobat_core::compile(src, &checked_options()).expect("compiles");
        let run = model.run(&params, &[inputs.clone(), inputs]).expect("runs");
        assert_eq!(run.outputs.len(), 2, "{src}");
        for out in &run.outputs {
            let OutputValue::Tensor(t) = out else { panic!("{src}: {out:?}") };
            assert_eq!(t.shape().dims(), dims, "{src}");
            assert!(t.data().iter().all(|v| v.to_bits() == 0), "{src}");
        }
    }
}
