//! End-to-end execution tests: compile → analyze → run on both backends,
//! checking numerical correctness against hand-computed references,
//! VM ≡ AOT agreement, batching behaviour and tensor-dependent control flow.

use std::sync::Arc;

use acrobat_analysis::{analyze, AnalysisOptions};
use acrobat_codegen::KernelLibrary;
use acrobat_ir::{parse_module, typeck};
use acrobat_runtime::{DeviceModel, Engine, RuntimeOptions};
use acrobat_tensor::{Params, Tensor};
use acrobat_vm::{BackendKind, Executable, InputValue, OutputValue};

fn build(src: &str, kind: BackendKind, opts: AnalysisOptions) -> Executable {
    build_with(src, kind, opts, RuntimeOptions::default())
}

fn build_with(
    src: &str,
    kind: BackendKind,
    opts: AnalysisOptions,
    runtime: RuntimeOptions,
) -> Executable {
    let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
    let a = Arc::new(analyze(m, opts).unwrap());
    let lib = KernelLibrary::build(&a);
    let engine = Engine::new(a, lib, DeviceModel::default(), runtime);
    Executable::new(engine, kind, 42).unwrap()
}

fn out_tensor(o: &OutputValue) -> &Tensor {
    match o {
        OutputValue::Tensor(t) => t,
        other => panic!("expected tensor output, got {other:?}"),
    }
}

const SIMPLE: &str = "def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
    relu(matmul(%x, $w))
}";

#[test]
fn simple_model_correct_on_both_backends() {
    let w = Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.5], &[2, 2]).unwrap();
    let params = Params::from([("w".to_string(), w.clone())]);
    let instances: Vec<Vec<InputValue>> =
        (0..4).map(|i| vec![InputValue::Tensor(Tensor::fill(&[1, 2], i as f32 - 1.0))]).collect();

    for kind in [BackendKind::Aot, BackendKind::Vm] {
        let exe = build(SIMPLE, kind, AnalysisOptions::default());
        let result = exe.run(&params, &instances).unwrap();
        assert_eq!(result.outputs.len(), 4);
        for (i, out) in result.outputs.iter().enumerate() {
            let x = Tensor::fill(&[1, 2], i as f32 - 1.0);
            let mm = acrobat_tensor::execute(&acrobat_tensor::PrimOp::MatMul, &[&x, &w]).unwrap();
            let want = acrobat_tensor::execute(&acrobat_tensor::PrimOp::Relu, &[&mm]).unwrap();
            assert!(out_tensor(out).allclose(&want, 1e-6), "{kind:?} instance {i}");
        }
        // 4 instances of the same fused kernel → a single launch.
        assert_eq!(result.stats.kernel_launches, 1, "{kind:?}");
    }
}

const RNN: &str = r#"
    def @rnn(%inps: List[Tensor[(1, 4)]], %state: Tensor[(1, 4)],
             $bias: Tensor[(1, 4)], $i_wt: Tensor[(4, 4)], $h_wt: Tensor[(4, 4)])
        -> List[Tensor[(1, 4)]] {
        match %inps {
            Nil => Nil,
            Cons(%inp, %tail) => {
                let %inp_linear = add($bias, matmul(%inp, $i_wt));
                let %new_state = sigmoid(add(%inp_linear, matmul(%state, $h_wt)));
                Cons(%new_state, @rnn(%tail, %new_state, $bias, $i_wt, $h_wt))
            }
        }
    }
    def @main($bias: Tensor[(1, 4)], $i_wt: Tensor[(4, 4)], $h_wt: Tensor[(4, 4)],
              $init: Tensor[(1, 4)], $c_wt: Tensor[(4, 2)],
              %inps: List[Tensor[(1, 4)]]) -> List[Tensor[(1, 2)]] {
        let %states = @rnn(%inps, $init, $bias, $i_wt, $h_wt);
        map(fn(%p) { relu(matmul(%p, $c_wt)) }, %states)
    }
"#;

fn rnn_params() -> Params {
    Params::from([
        ("bias".into(), Tensor::from_fn(&[1, 4], |i| 0.01 * i as f32)),
        ("i_wt".into(), Tensor::from_fn(&[4, 4], |i| ((i * 7 % 5) as f32 - 2.0) * 0.2)),
        ("h_wt".into(), Tensor::from_fn(&[4, 4], |i| ((i * 3 % 7) as f32 - 3.0) * 0.15)),
        ("init".into(), Tensor::zeros(&[1, 4])),
        ("c_wt".into(), Tensor::from_fn(&[4, 2], |i| (i as f32 - 3.5) * 0.25)),
    ])
}

fn rnn_instances(lens: &[usize]) -> Vec<Vec<InputValue>> {
    lens.iter()
        .enumerate()
        .map(|(inst, &len)| {
            let items: Vec<InputValue> = (0..len)
                .map(|t| {
                    InputValue::Tensor(Tensor::from_fn(&[1, 4], |i| {
                        ((inst * 31 + t * 7 + i) % 13) as f32 * 0.1 - 0.6
                    }))
                })
                .collect();
            vec![InputValue::list(items)]
        })
        .collect()
}

/// Host-side reference RNN.
fn rnn_reference(params: &Params, inputs: &[Tensor]) -> Vec<Tensor> {
    use acrobat_tensor::{execute, PrimOp};
    let mut state = params["init"].clone();
    let mut outs = Vec::new();
    for x in inputs {
        let il = execute(&PrimOp::MatMul, &[x, &params["i_wt"]]).unwrap();
        let il = execute(&PrimOp::Add, &[&params["bias"], &il]).unwrap();
        let hl = execute(&PrimOp::MatMul, &[&state, &params["h_wt"]]).unwrap();
        let s = execute(&PrimOp::Add, &[&il, &hl]).unwrap();
        state = execute(&PrimOp::Sigmoid, &[&s]).unwrap();
        let o = execute(&PrimOp::MatMul, &[&state, &params["c_wt"]]).unwrap();
        outs.push(execute(&PrimOp::Relu, &[&o]).unwrap());
    }
    outs
}

#[test]
fn rnn_matches_reference_and_backends_agree() {
    let params = rnn_params();
    let lens = [3usize, 5, 1, 4];
    let instances = rnn_instances(&lens);

    let mut per_backend: Vec<Vec<Vec<Tensor>>> = Vec::new();
    for kind in [BackendKind::Aot, BackendKind::Vm] {
        let exe = build(RNN, kind, AnalysisOptions::default());
        let result = exe.run(&params, &instances).unwrap();
        let mut all = Vec::new();
        for (inst, out) in result.outputs.iter().enumerate() {
            let list = out.clone().into_list().expect("list output");
            assert_eq!(list.len(), lens[inst]);
            // Rebuild the host inputs for the reference.
            let host_inputs: Vec<Tensor> = (0..lens[inst])
                .map(|t| {
                    Tensor::from_fn(&[1, 4], |i| ((inst * 31 + t * 7 + i) % 13) as f32 * 0.1 - 0.6)
                })
                .collect();
            let reference = rnn_reference(&params, &host_inputs);
            let got: Vec<Tensor> = list.iter().map(|o| out_tensor(o).clone()).collect();
            for (g, r) in got.iter().zip(&reference) {
                assert!(g.allclose(r, 1e-5), "{kind:?} inst {inst}: {g:?} vs {r:?}");
            }
            all.push(got);
        }
        per_backend.push(all);
    }
    assert_eq!(per_backend[0], per_backend[1], "AOT and VM agree bitwise");
}

#[test]
fn rnn_batching_efficiency() {
    // All-optimizations run: hoisting batches the input transforms of all
    // tokens of all instances together; phases batch the output transforms.
    let params = rnn_params();
    let instances = rnn_instances(&[3, 5, 1, 4]); // 13 tokens total
    let exe = build(RNN, BackendKind::Aot, AnalysisOptions::default());
    let full = exe.run(&params, &instances).unwrap();

    let exe_none = build(RNN, BackendKind::Aot, AnalysisOptions::none());
    let none = exe_none.run(&params, &instances).unwrap();

    assert!(
        full.stats.kernel_launches < none.stats.kernel_launches,
        "optimizations reduce launches: {} vs {}",
        full.stats.kernel_launches,
        none.stats.kernel_launches
    );
    assert!(
        full.stats.total_us() < none.stats.total_us(),
        "modeled latency improves: {} vs {}",
        full.stats.total_us(),
        none.stats.total_us()
    );
    // Results identical regardless of optimization flags.
    for (a, b) in full.outputs.iter().zip(&none.outputs) {
        let (la, lb) = (a.clone().into_list().unwrap(), b.clone().into_list().unwrap());
        for (x, y) in la.iter().zip(&lb) {
            assert!(out_tensor(x).allclose(out_tensor(y), 1e-5));
        }
    }
}

#[test]
fn vm_slower_than_aot_on_host_execution() {
    // Table 7's mechanism: interpretation overhead on control-flow-heavy
    // programs. Use long sequences to get measurable times.
    let params = rnn_params();
    let instances = rnn_instances(&[40, 40, 40, 40, 40, 40, 40, 40]);
    let aot = build(RNN, BackendKind::Aot, AnalysisOptions::default());
    let vm = build(RNN, BackendKind::Vm, AnalysisOptions::default());
    // Warm up, then take the best of seven *interleaved* rounds: when the
    // suite runs in parallel both executors must see the same load, or the
    // one measured while its neighbours are busy loses to noise.
    let _ = aot.run(&params, &instances).unwrap();
    let _ = vm.run(&params, &instances).unwrap();
    let (mut a, mut v) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        a = a.min(aot.run(&params, &instances).unwrap().stats.program_host_us);
        v = v.min(vm.run(&params, &instances).unwrap().stats.program_host_us);
    }
    assert!(v > a, "VM ({v:.1}µs) should be slower than AOT ({a:.1}µs) on host execution");
}

const TDC: &str = r#"
    def @steps(%h: Tensor[(1, 2)], $w: Tensor[(2, 2)], %n: Int) -> Tensor[(1, 2)] {
        if %n <= 0 {
            %h
        } else {
            let %nh = tanh(matmul(%h, $w));
            if sample(%nh) < 0.7 { @steps(%nh, $w, %n - 1) } else { %nh }
        }
    }
    def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
        @steps(%x, $w, 6)
    }
"#;

#[test]
fn tensor_dependent_control_flow_with_fibers() {
    let params =
        Params::from([("w".to_string(), Tensor::from_fn(&[2, 2], |i| (i as f32 - 1.5) * 0.4))]);
    let instances: Vec<Vec<InputValue>> =
        (0..8).map(|i| vec![InputValue::Tensor(Tensor::fill(&[1, 2], 0.1 * i as f32))]).collect();
    let exe = build(TDC, BackendKind::Aot, AnalysisOptions::default());
    assert!(exe.session.fiber_mode, "TDC model must use fibers");
    let result = exe.run(&params, &instances).unwrap();
    assert_eq!(result.outputs.len(), 8);
    assert!(result.stats.fiber_switches > 0, "instances suspended at sync points");
    assert!(result.stats.flushes >= 2, "sync points force intermediate flushes");
    // Batch parallelism survived: fewer launches than a fully sequential
    // execution would need (8 instances × up to 6 steps each).
    assert!(result.stats.kernel_launches < 30, "launches: {}", result.stats.kernel_launches);

    // Determinism: same seed → same outputs.
    let again = exe.run(&params, &instances).unwrap();
    for (a, b) in result.outputs.iter().zip(&again.outputs) {
        assert_eq!(out_tensor(a).data(), out_tensor(b).data());
    }
}

#[test]
fn fork_join_instance_parallelism() {
    // DRNN-style: parallel recursive expansion with TDC.
    let src = r#"
        def @grow(%h: Tensor[(1, 2)], $w: Tensor[(2, 2)], %d: Int) -> Tensor[(1, 2)] {
            let %nh = tanh(matmul(%h, $w));
            if %d <= 0 {
                %nh
            } else {
                if sample(%nh) < 0.8 {
                    let (%l, %r) = parallel(@grow(%nh, $w, %d - 1), @grow(%nh, $w, %d - 1));
                    add(%l, %r)
                } else {
                    %nh
                }
            }
        }
        def @main($w: Tensor[(2, 2)], %x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
            @grow(%x, $w, 3)
        }
    "#;
    let params =
        Params::from([("w".to_string(), Tensor::from_fn(&[2, 2], |i| (i as f32 - 1.5) * 0.3))]);
    let instances: Vec<Vec<InputValue>> = (0..4)
        .map(|i| vec![InputValue::Tensor(Tensor::fill(&[1, 2], 0.2 * i as f32 - 0.3))])
        .collect();
    let exe = build(src, BackendKind::Aot, AnalysisOptions::default());
    let result = exe.run(&params, &instances).unwrap();
    assert_eq!(result.outputs.len(), 4);
    assert!(result.stats.fiber_switches > 0);
    // Deterministic under the same seed.
    let again = exe.run(&params, &instances).unwrap();
    for (a, b) in result.outputs.iter().zip(&again.outputs) {
        assert_eq!(out_tensor(a).data(), out_tensor(b).data());
    }
}

#[test]
fn treelstm_like_tree_model() {
    let src = r#"
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
    fn leaf(seed: usize) -> InputValue {
        InputValue::Adt {
            ctor: "Leaf".into(),
            fields: vec![InputValue::Tensor(Tensor::from_fn(&[1, 4], |i| {
                ((seed * 5 + i) % 7) as f32 * 0.1
            }))],
        }
    }
    fn node(l: InputValue, r: InputValue) -> InputValue {
        InputValue::Adt { ctor: "Node".into(), fields: vec![l, r] }
    }
    let params = Params::from([
        ("w".to_string(), Tensor::from_fn(&[4, 4], |i| ((i % 5) as f32 - 2.0) * 0.2)),
        ("u".to_string(), Tensor::from_fn(&[4, 4], |i| ((i % 3) as f32 - 1.0) * 0.3)),
    ]);
    let instances = vec![
        vec![node(node(leaf(0), leaf(1)), leaf(2))],
        vec![node(leaf(3), node(leaf(4), node(leaf(5), leaf(6))))],
        vec![leaf(7)],
    ];
    let aot = build(src, BackendKind::Aot, AnalysisOptions::default());
    let vm = build(src, BackendKind::Vm, AnalysisOptions::default());
    let ra = aot.run(&params, &instances).unwrap();
    let rv = vm.run(&params, &instances).unwrap();
    for (a, b) in ra.outputs.iter().zip(&rv.outputs) {
        assert!(out_tensor(a).allclose(out_tensor(b), 1e-6));
    }
    // Leaf encodings are hoisted and batch across trees: all 8 leaves in
    // one launch.
    assert!(ra.stats.kernel_launches <= rv.stats.kernel_launches,);
    assert!(ra.stats.kernel_launches < 16, "launches: {}", ra.stats.kernel_launches);
}

/// Runs `bad` between two good requests and returns its error, which must
/// have cost nothing but its outcome counter: no context is quarantined,
/// and the first request's context is pooled again for the second.
fn rejected_untouched(
    exe: &Executable,
    params: &Params,
    good: &[Vec<InputValue>],
    bad: impl FnOnce() -> Result<acrobat_vm::RunResult, acrobat_vm::VmError>,
) -> acrobat_vm::VmError {
    let first = exe.run(params, good).expect("a good request").outputs;
    let err = bad().expect_err("a malformed request fails");
    assert_eq!(exe.session.quarantined_count(), 0, "{err}: a healthy context was quarantined");
    assert_eq!(exe.session.idle_count(), 1, "{err}: the pooled context is gone");
    assert_eq!(exe.run(params, good).expect("the next good request").outputs, first);
    assert_eq!(exe.session.idle_count(), 1, "{err}: the next request reused it");
    err
}

fn simple_request() -> (Params, Vec<Vec<InputValue>>) {
    let params = Params::from([("w".to_string(), Tensor::zeros(&[2, 2]))]);
    (params, vec![vec![InputValue::Tensor(Tensor::zeros(&[1, 2]))]])
}

#[test]
fn missing_param_is_input_error() {
    let exe = build(SIMPLE, BackendKind::Aot, AnalysisOptions::default());
    let (params, good) = simple_request();
    let err = rejected_untouched(&exe, &params, &good, || exe.run(&Params::default(), &good));
    assert!(matches!(err, acrobat_vm::VmError::Input(_)), "{err:?}");
}

#[test]
fn wrong_instance_arity_is_input_error() {
    let exe = build(SIMPLE, BackendKind::Aot, AnalysisOptions::default());
    let (params, good) = simple_request();
    let err = rejected_untouched(&exe, &params, &good, || exe.run(&params, &[vec![]]));
    assert!(matches!(err, acrobat_vm::VmError::Input(_)), "{err:?}");
}

/// A malformed request fails itself with a typed error on either backend,
/// before anything reaches a context: an unknown constructor, a tensor where
/// `@main` takes an `Int`, a NaN deadline budget (which `spent >= NaN`
/// would read as "no deadline") and a key list of the wrong length.  The
/// Relay VM used to panic on the first two.
#[test]
fn malformed_requests_are_input_errors_on_both_backends() {
    use acrobat_vm::{RunOptions, VmError};
    const PICKY: &str = "
    def @main($w: Tensor[(1, 2)], %l: List[Tensor[(1, 2)]], %n: Int) -> Tensor[(1, 2)] {
        match %l { Nil => $w, Cons(%h, %t) => add(%h, $w) }
    }";
    let params = Params::from([("w".to_string(), Tensor::ones(&[1, 2]))]);
    let list = InputValue::list(vec![InputValue::Tensor(Tensor::ones(&[1, 2]))]);
    // One-instance batches.
    let good = [vec![list.clone(), InputValue::Int(2)]];
    let unknown_ctor =
        [vec![InputValue::Adt { ctor: "Bogus".into(), fields: vec![] }, InputValue::Int(2)]];
    let tensor_for_int = [vec![list, InputValue::Tensor(Tensor::ones(&[1, 2]))]];
    let budget = |us| RunOptions { deadline_us: Some(us), ..Default::default() };
    let two_keys = RunOptions { keys: Some(vec![3, 4]), ..Default::default() };
    for kind in [BackendKind::Aot, BackendKind::Vm] {
        let exe = build(PICKY, kind, AnalysisOptions::default());
        let requests = [
            (&unknown_ctor, RunOptions::default()),
            (&tensor_for_int, RunOptions::default()),
            (&good, budget(f64::NAN)),
            (&good, two_keys.clone()),
        ];
        for (failed, (batch, opts)) in requests.into_iter().enumerate() {
            let bad = || exe.run_with(&params, batch, &opts);
            let err = rejected_untouched(&exe, &params, &good, bad);
            assert!(matches!(err, VmError::Input(_)), "{kind:?} request {failed}: {err:?}");
            assert_eq!(exe.session.outcomes().failed, failed as u64 + 1, "{kind:?}");
        }
        let err = exe.run_with(&params, &good, &two_keys).unwrap_err();
        assert_eq!(err.to_string(), "bad input: 2 rng keys for 1 instances", "{kind:?}");
        // An infinite budget is unlimited; a zero budget trips at once.
        let result = exe.run_with(&params, &good, &budget(f64::INFINITY)).unwrap();
        assert_eq!(result.outputs[0].tensors()[0].data(), [2.0, 2.0], "{kind:?}");
        let err = exe.run_with(&params, &good, &budget(0.0)).unwrap_err();
        assert!(err.is_deadline_exceeded(), "{kind:?}: {err:?}");
    }
}

#[test]
fn device_oom_surfaces_as_error() {
    let options = RuntimeOptions { device_memory: 5, ..Default::default() };
    let exe = build_with(SIMPLE, BackendKind::Aot, AnalysisOptions::default(), options);
    let params = Params::from([("w".to_string(), Tensor::zeros(&[2, 2]))]);
    let err = exe.run(&params, &[vec![InputValue::Tensor(Tensor::zeros(&[1, 2]))]]);
    assert!(err.is_err(), "5-element device must OOM");
}

/// Integer division with no answer fails the request with a typed error —
/// on the executor thread it used to be a panic the caller re-raised — and
/// costs nothing but that request's context; `+`, `-` (both) and `*` wrap, so
/// builds with and without overflow checks agree.
#[test]
fn integer_division_without_an_answer_is_a_typed_error() {
    use acrobat_vm::VmError;
    const DIV: &str = "def @main(%n: Int, %d: Int) -> Int { (-(-(%n + 1)) - 1) * 1 / %d }";
    let params = Params::default();
    let request = |pairs: &[(i64, i64)]| -> Vec<Vec<InputValue>> {
        pairs.iter().map(|&(n, d)| vec![InputValue::Int(n), InputValue::Int(d)]).collect()
    };
    let exe = build(DIV, BackendKind::Aot, AnalysisOptions::default());
    for (failures, bad) in [(7, 0), (i64::MIN, -1)].into_iter().enumerate() {
        let err = exe.run(&params, &request(&[(7, 2), bad])).unwrap_err();
        assert!(
            matches!(&err, VmError::Input(msg) if msg.contains("integer division")),
            "{bad:?}: {err:?}"
        );
        assert_eq!(exe.session.outcomes().failed, failures as u64 + 1);
        assert_eq!(exe.session.quarantined_count(), failures as u64 + 1);
        let clean = exe.run(&params, &request(&[(7, 2)])).expect("the next clean request runs");
        assert!(matches!(clean.outputs[..], [OutputValue::Int(3)]), "{:?}", clean.outputs);
    }
    let wrapped = exe.run(&params, &request(&[(i64::MAX, 1)])).expect("i64::MAX + 1 wraps");
    assert!(matches!(wrapped.outputs[..], [OutputValue::Int(i64::MAX)]), "{:?}", wrapped.outputs);
}

/// The Relay-VM baseline boxes every scalar but computes it with the AOT
/// executor's semantics: integer division truncates, ÷ 0 is the same typed
/// error, 2^24 + 1 stays exact, and an `Int` `@main` returns an `Int`.
#[test]
fn relay_vm_scalars_have_the_aot_semantics() {
    use acrobat_vm::VmError;
    const DIV: &str = "def @main(%n: Int, %d: Int) -> Int { %n / %d }";
    let params = Params::default();
    let request = |n: i64, d: i64| vec![vec![InputValue::Int(n), InputValue::Int(d)]];
    for kind in [BackendKind::Aot, BackendKind::Vm] {
        let exe = build(DIV, kind, AnalysisOptions::default());
        for (n, d, q) in [(7, 2, 3), (16_777_217, 1, 16_777_217), (-7, 2, -3)] {
            let out = exe.run(&params, &request(n, d)).unwrap().outputs;
            assert_eq!(out, [OutputValue::Int(q)], "{kind:?}: {n} / {d}");
        }
        let err = exe.run(&params, &request(7, 0)).unwrap_err();
        assert!(
            matches!(&err, VmError::Input(msg) if msg.contains("integer division")),
            "{kind:?}: {err:?}"
        );
    }
}

#[test]
fn eager_device_oom_is_a_typed_error_like_batched() {
    use acrobat_tensor::TensorError;
    use acrobat_vm::VmError;
    const MLP: &str = "def @main($w1: Tensor[(2, 2)], $w2: Tensor[(2, 2)], %x: Tensor[(1, 2)])
        -> Tensor[(1, 2)] { relu(matmul(relu(matmul(%x, $w1)), $w2)) }";
    let params = Params::from([
        ("w1".to_string(), Tensor::zeros(&[2, 2])),
        ("w2".to_string(), Tensor::zeros(&[2, 2])),
    ]);
    let instances = vec![vec![InputValue::Tensor(Tensor::zeros(&[1, 2]))]; 2];
    for eager in [false, true] {
        // 8 weight + 4 input elements fill the device: the first launch OOMs.
        let options = RuntimeOptions { device_memory: 12, eager, ..Default::default() };
        let exe = build_with(MLP, BackendKind::Aot, AnalysisOptions::default(), options);
        let err = exe.run(&params, &instances).unwrap_err();
        assert!(
            matches!(err, VmError::Tensor(TensorError::DeviceOom { .. })),
            "eager={eager}: {err:?}"
        );
        assert_eq!(exe.session.quarantined_count(), 1, "eager={eager}");
        assert_eq!(exe.session.outcomes().failed, 1, "eager={eager}");
        assert_eq!(exe.session.runs_completed(), 0, "eager={eager}");
    }
}

/// The pipeline of `acrobat_core::compile`: the lambda check runs before
/// the kernel library is built.
fn try_build(src: &str) -> Result<Executable, acrobat_vm::VmError> {
    let m = typeck::check_module(parse_module(src).unwrap()).unwrap();
    let a = Arc::new(analyze(m, AnalysisOptions::default()).unwrap());
    acrobat_vm::aot::check_lambdas(&a.module)?;
    let lib = KernelLibrary::build(&a);
    let engine = Engine::new(a, lib, DeviceModel::default(), RuntimeOptions::default());
    Executable::new(engine, BackendKind::Aot, 42)
}

const COUNT: &str = "
    def @count(%n: Int) -> Int { if %n <= 0 { 0 } else { 1 + @count(%n - 1) } }
    def @loop(%n: Int) -> Int { @loop(%n + 1) }
    def @main(%n: Int) -> Int { if %n < 0 { @loop(%n) } else { @count(%n) } }";

/// Program calls push heap frames, so recursion depth is not bounded by the
/// native stack of whichever thread submits the request: the parent commit
/// returned at `@count(30_000)` and aborted the *process* at 50 000 on its
/// 64 MiB executor thread.
#[test]
fn deep_recursion_runs_on_heap_frames_not_the_native_stack() {
    let exe = build(COUNT, BackendKind::Aot, AnalysisOptions::default());
    let small_stack = std::thread::Builder::new().stack_size(256 << 10);
    let request = move || exe.run(&Params::default(), &[vec![InputValue::Int(500_000)]]);
    let result = small_stack.spawn(request).unwrap().join().unwrap().expect("deep recursion");
    assert!(matches!(result.outputs[..], [OutputValue::Int(500_000)]), "{:?}", result.outputs);
}

/// A `let` spine is a sequence to the AOT lowering too: a 2 000-`let`
/// chain is compiled (lambda check, lowering) and run on a thread with a
/// 2 MiB stack, and its bits equal the unfused eager run of the same chain.
#[test]
fn let_spine_2000_deep_compiles_and_runs() {
    let mut src = String::from(
        "def @main($b: Tensor[(1, 4)], %x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {\nlet %v0 = %x;\n",
    );
    for i in 1..2_000 {
        src.push_str(&format!("let %v{i} = tanh(add(%v{}, $b));\n", i - 1));
    }
    src.push_str("%v1999\n}\n");
    let params = Params::from([("b".to_string(), Tensor::from_fn(&[1, 4], |i| i as f32 * 0.1))]);
    let x = |i: usize| Tensor::from_fn(&[1, 4], move |j| (i * 4 + j) as f32 * 0.05 - 0.3);
    let instances: Vec<Vec<InputValue>> = (0..3).map(|i| vec![InputValue::Tensor(x(i))]).collect();
    let run = move || {
        let bits = |exe: Executable| -> Vec<u32> {
            let outputs = exe.run(&params, &instances).expect("runs").outputs;
            outputs.iter().flat_map(|o| out_tensor(o).data().to_vec()).map(f32::to_bits).collect()
        };
        let m = typeck::check_module(parse_module(&src).unwrap()).unwrap();
        acrobat_vm::aot::check_lambdas(&m).expect("no lambda");
        let aot = bits(build(&src, BackendKind::Aot, AnalysisOptions::default()));
        let eager = RuntimeOptions { eager: true, ..Default::default() };
        (aot, bits(build_with(&src, BackendKind::Aot, AnalysisOptions::none(), eager)))
    };
    let small_stack = std::thread::Builder::new().stack_size(2 << 20);
    let (aot, eager) = small_stack.spawn(run).unwrap().join().expect("no stack overflow");
    assert_eq!(aot.len(), 12);
    assert_eq!(aot, eager, "fused AOT run vs unfused eager run");
}

/// Runaway recursion costs its own request — a typed error, one quarantined
/// context — and nothing else: the process survives and the next request on
/// the same executable runs.
#[test]
fn runaway_recursion_is_a_typed_error_on_a_process_that_survives() {
    use acrobat_vm::VmError;
    let exe = build(COUNT, BackendKind::Aot, AnalysisOptions::default());
    let err = exe.run(&Params::default(), &[vec![InputValue::Int(-1)]]).unwrap_err();
    assert!(
        matches!(err, VmError::DepthExceeded { limit } if limit == acrobat_vm::aot::MAX_FRAMES),
        "{err:?}"
    );
    let outcomes = exe.session.outcomes();
    assert_eq!((outcomes.failed, outcomes.completed, outcomes.total()), (1, 0, 1));
    assert_eq!(exe.session.quarantined_count(), 1);
    let next = exe.run(&Params::default(), &[vec![InputValue::Int(3)]]).expect("the next request");
    assert!(matches!(next.outputs[..], [OutputValue::Int(3)]), "{:?}", next.outputs);
    assert_eq!(exe.session.outcomes().completed, 1);
}

/// The budget is on memory, not only on the frame count: a runaway
/// recursion through a function of over a hundred registers is stopped when
/// its register stack reaches `MAX_REG_WORDS` (128 MiB), long before
/// `MAX_FRAMES` such frames would have asked for gigabytes.
#[test]
fn runaway_recursion_of_a_wide_function_is_bounded_in_memory() {
    use acrobat_vm::aot::{MAX_FRAMES, MAX_REG_WORDS};
    use acrobat_vm::VmError;
    // 120 parameters: a wide frame without a deeply nested body.
    let list = |item: &dyn Fn(usize) -> String| (0..120).map(item).collect::<Vec<_>>().join(", ");
    let wide = format!(
        "def @wide({params}) -> Int {{ @wide({rotated}) }}
         def @main(%n: Int) -> Int {{ if %n < 0 {{ @wide({first}) }} else {{ %n }} }}",
        params = list(&|i| format!("%p{i}: Int")),
        rotated = list(&|i| format!("%p{}", (i + 1) % 120)),
        first = list(&|_| "%n".to_string()),
    );
    let exe = build(&wide, BackendKind::Aot, AnalysisOptions::default());
    let err = exe.run(&Params::default(), &[vec![InputValue::Int(-1)]]).unwrap_err();
    let VmError::DepthExceeded { limit } = err else { panic!("{err:?}") };
    // ≥ 120 registers a frame: the word budget, not the frame budget.
    assert!(limit > 1_000 && limit <= MAX_REG_WORDS / 120 && limit < MAX_FRAMES, "{limit}");
    assert_eq!(exe.session.quarantined_count(), 1);
    let next = exe.run(&Params::default(), &[vec![InputValue::Int(3)]]).expect("the next request");
    assert!(matches!(next.outputs[..], [OutputValue::Int(3)]), "{:?}", next.outputs);
}

/// What the lowering cannot resolve is an error before any request runs,
/// naming the construct — never a panic inside a request.  A lambda
/// outside `map` is rejected before kernels are built, whether or not its
/// body applies an operator and however it is used: the analysis
/// classifies no operands inside it, and building its kernels panicked.
#[test]
fn unlowerable_constructs_are_compile_time_errors() {
    use acrobat_vm::VmError;
    let lambda = "let %f = fn(%y: Tensor[(1, 4)]) { relu(%y) };";
    let unused = format!("def @main(%x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {{ {lambda} %x }}");
    let mapped = format!(
        "def @main(%xs: List[Tensor[(1, 4)]]) -> List[Tensor[(1, 4)]] {{ {lambda} map(%f, %xs) }}"
    );
    let called = format!("def @main(%x: Tensor[(1, 4)]) -> Tensor[(1, 4)] {{ {lambda} %f(%x) }}");
    let cases = [
        (
            "a lambda outside `map`",
            "def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
                let %f = fn(%y: Tensor[(1, 2)]) { %y };
                %x
             }",
        ),
        ("a lambda outside `map`", unused.as_str()),
        ("a lambda outside `map`", mapped.as_str()),
        ("a lambda outside `map`", called.as_str()),
        (
            "first-class closure call `%f(…)`",
            "def @apply(%f: fn(Tensor[(1, 2)]) -> Tensor[(1, 2)], %x: Tensor[(1, 2)])
                -> Tensor[(1, 2)] { %f(%x) }
             def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { %x }",
        ),
        (
            "`map` over a function value that is not a lambda",
            "def @each(%f: fn(Tensor[(1, 2)]) -> Tensor[(1, 2)], %xs: List[Tensor[(1, 2)]])
                -> List[Tensor[(1, 2)]] { map(%f, %xs) }
             def @main(%x: Tensor[(1, 2)]) -> Tensor[(1, 2)] { %x }",
        ),
    ];
    for (construct, src) in cases {
        match try_build(src) {
            Err(VmError::Unsupported(msg)) => assert!(msg.contains(construct), "{msg}"),
            other => panic!("{construct}: expected Unsupported, got {other:?}"),
        }
    }
}

/// A tuple can capture a tensor whose fusion group has not emitted yet:
/// `%i` and `%f` are one horizontally fused kernel that launches at `%f`,
/// after `%t` was built.  The cell is patched right after the emit, and a
/// projection inside the function reads the component register, not the
/// cell.
#[test]
fn tuple_capturing_a_tensor_of_an_open_group_is_patched_after_the_emit() {
    const LATE: &str = "
    def @main($w1: Tensor[(2, 2)], $w2: Tensor[(2, 2)], %x: Tensor[(1, 2)])
        -> ((Tensor[(1, 2)], Tensor[(1, 2)]), Tensor[(1, 2)]) {
        let %i = matmul(%x, $w1);
        let %t = ((%i, %x), %x);
        let %f = matmul(%x, $w2);
        let %inner = %t.0;
        (%inner, add(%f, %x))
    }";
    let (w1, w2) = (
        Tensor::from_fn(&[2, 2], |i| i as f32 - 1.0),
        Tensor::from_fn(&[2, 2], |i| 0.5 * i as f32),
    );
    let x = Tensor::from_vec(vec![3.0, -2.0], &[1, 2]).unwrap();
    let params = Params::from([("w1".to_string(), w1.clone()), ("w2".to_string(), w2.clone())]);
    let instances = vec![vec![InputValue::Tensor(x.clone())]];
    let aot = build(LATE, BackendKind::Aot, AnalysisOptions::default());
    let listing = aot.disassemble().unwrap();
    let emit = listing.lines().position(|l| l.contains("emit")).expect("one fused emit");
    let patch = listing.lines().nth(emit + 1).unwrap();
    assert!(patch.contains(".0 = r"), "the line after the emit patches the cell:\n{listing}");
    let got = aot.run(&params, &instances).unwrap().outputs;
    let vm = build(LATE, BackendKind::Vm, AnalysisOptions::default());
    assert_eq!(got, vm.run(&params, &instances).unwrap().outputs);
    let tensors = got[0].tensors();
    assert_eq!(tensors[0].data(), [-5.0, -4.0], "%i = %x · $w1, read through the cell");
    assert_eq!(tensors[1].data(), x.data());
}

/// A tuple built by one of several `if`/`match` arms lands in the register
/// the arms share, and which arm built it is known only when the program
/// runs: a projection after the merge loads from the cell.  (The lowering
/// used to remember the components of the arm it lowered last, so `%t.0`
/// was `%b` whichever arm ran — a wrong tensor, no error.)  Every shape
/// takes every arm, against the values themselves and the VM baseline.
#[test]
fn projection_after_a_tuple_valued_merge_reads_the_arm_that_ran() {
    const PICK: &str = "
    def @swap(%a: Tensor[(1, 2)], %b: Tensor[(1, 2)]) -> (Tensor[(1, 2)], Tensor[(1, 2)]) {
        (%b, %a)
    }
    def @main(%c: Bool, %l: List[Int], %a: Tensor[(1, 2)], %b: Tensor[(1, 2)])
        -> (Tensor[(1, 2)], Tensor[(1, 2)], Tensor[(1, 2)], Tensor[(1, 2)], Tensor[(1, 2)]) {
        let %both = if %c { (%a, %b) } else { (%b, %a) };
        let %call = if %c { @swap(%a, %b) } else { (%a, %b) };
        let %arm = match %l { Nil => (%a, %b), Cons(%h, %t) => (%b, %a) };
        let %nest = if %c { if %c { (%b, %b) } else { (%b, %a) } } else { (%a, %a) };
        let %par = parallel((%a, %b), (%b, %a));
        let %second = %par.1;
        (%both.0, %call.0, %arm.1, %nest.1, %second.0)
    }";
    let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
    let b = Tensor::from_vec(vec![-3.0, 4.0], &[1, 2]).unwrap();
    let instance = |c: bool, len: i64| {
        vec![
            InputValue::Bool(c),
            InputValue::list((0..len).map(InputValue::Int).collect()),
            InputValue::Tensor(a.clone()),
            InputValue::Tensor(b.clone()),
        ]
    };
    let instances = vec![instance(true, 0), instance(false, 2)];
    let aot = build(PICK, BackendKind::Aot, AnalysisOptions::default());
    let got = aot.run(&Params::default(), &instances).unwrap().outputs;
    let picked = |o: &OutputValue| o.tensors().into_iter().cloned().collect::<Vec<Tensor>>();
    let (ta, tb) = (a.clone(), b.clone());
    assert_eq!(picked(&got[0]), [&ta, &tb, &tb, &tb, &tb].map(Tensor::clone), "%c, %l empty");
    assert_eq!(picked(&got[1]), [&tb, &ta, &ta, &ta, &tb].map(Tensor::clone), "!%c, %l non-empty");
    let vm = build(PICK, BackendKind::Vm, AnalysisOptions::default());
    assert_eq!(got, vm.run(&Params::default(), &instances).unwrap().outputs);
}

/// The disassembly is the review surface of the lowering: recursion is a
/// `call`, `match` a tag test, `parallel` in-place branches behind a `fork`,
/// the Leaf arm's lone operator and the Node arm's four fused operators one
/// `emit` each, and `@main` compiles to a call.
#[test]
fn disassembly_of_a_recursive_model_is_stable() {
    const TREE: &str = "
    type Tree[a] { Leaf(a), Node(Tree[a], Tree[a]) }
    def @sum(%t: Tree[Tensor[(1, 2)]], $w: Tensor[(2, 2)], $b: Tensor[(1, 2)]) -> Tensor[(1, 2)] {
        match %t {
            Leaf(%e) => relu(%e),
            Node(%l, %r) => {
                let (%a, %c) = parallel(@sum(%l, $w, $b), @sum(%r, $w, $b));
                tanh(add(matmul(add(%a, %c), $w), $b))
            }
        }
    }
    def @main($w: Tensor[(2, 2)], $b: Tensor[(1, 2)], %t: Tree[Tensor[(1, 2)]]) -> Tensor[(1, 2)] {
        @sum(%t, $w, $b)
    }";
    const LISTING: &str = "\
fn @main(r0, r1, r2) regs=4
  0000  r3 = call @sum(r2, r0, r1)
  0001  ret r3

fn @sum(r0, r1, r2) regs=13
  0000  unless r0 is Leaf jump @0004
  0001  r4 = r0.0
  0002  emit k0 <- r4 -> r3 depth=0 block=b0 closes_block
  0003  jump @0019
  0004  r4 = r0.0
  0005  r5 = r0.1
  0006  fork @0010->r8 @0014->r9 join @0018
  0007  r6 = depth
  0008  r7 = depth
  0009  depth = r6
  0010  r8 = call @sum(r4, r1, r2)
  0011  end of branch 0
  0012  r7 = max r7, depth
  0013  depth = r6
  0014  r9 = call @sum(r5, r1, r2)
  0015  end of branch 1
  0016  r7 = max r7, depth
  0017  depth = r7
  0018  emit k1 <- r8 r9 $r1 $r2 -> r3 depth=inline block=b1 closes_block
  0019  ret r3
";
    let exe = build(TREE, BackendKind::Aot, AnalysisOptions::default());
    assert_eq!(exe.disassemble().unwrap(), LISTING);
    assert!(build(TREE, BackendKind::Vm, AnalysisOptions::default()).disassemble().is_none());
}
