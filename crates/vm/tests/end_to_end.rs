//! End-to-end execution tests: compile → analyze → run on both backends,
//! checking numerical correctness against hand-computed references,
//! VM ≡ AOT agreement, batching behaviour and tensor-dependent control flow.

use std::collections::BTreeMap;
use std::sync::Arc;

use acrobat_analysis::{analyze, AnalysisOptions};
use acrobat_codegen::KernelLibrary;
use acrobat_ir::{parse_module, typeck};
use acrobat_runtime::{DeviceModel, Engine, RuntimeOptions};
use acrobat_tensor::Tensor;
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
    let params = BTreeMap::from([("w".to_string(), w.clone())]);
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

fn rnn_params() -> BTreeMap<String, Tensor> {
    BTreeMap::from([
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
fn rnn_reference(params: &BTreeMap<String, Tensor>, inputs: &[Tensor]) -> Vec<Tensor> {
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
        BTreeMap::from([("w".to_string(), Tensor::from_fn(&[2, 2], |i| (i as f32 - 1.5) * 0.4))]);
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
        BTreeMap::from([("w".to_string(), Tensor::from_fn(&[2, 2], |i| (i as f32 - 1.5) * 0.3))]);
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
    let params = BTreeMap::from([
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

#[test]
fn missing_param_is_input_error() {
    let exe = build(SIMPLE, BackendKind::Aot, AnalysisOptions::default());
    let err = exe.run(&BTreeMap::new(), &[vec![InputValue::Tensor(Tensor::zeros(&[1, 2]))]]);
    assert!(matches!(err, Err(acrobat_vm::VmError::Input(_))));
}

#[test]
fn wrong_instance_arity_is_input_error() {
    let exe = build(SIMPLE, BackendKind::Aot, AnalysisOptions::default());
    let params = BTreeMap::from([("w".to_string(), Tensor::zeros(&[2, 2]))]);
    let err = exe.run(&params, &[vec![]]);
    assert!(matches!(err, Err(acrobat_vm::VmError::Input(_))));
}

#[test]
fn device_oom_surfaces_as_error() {
    let options = RuntimeOptions { device_memory: 5, ..Default::default() };
    let exe = build_with(SIMPLE, BackendKind::Aot, AnalysisOptions::default(), options);
    let params = BTreeMap::from([("w".to_string(), Tensor::zeros(&[2, 2]))]);
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
    let params = BTreeMap::new();
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
    let vm = build(DIV, BackendKind::Vm, AnalysisOptions::default());
    let baseline = vm.run(&params, &request(&[(7, 0)])).expect("the VM baseline divides in floats");
    assert!(
        matches!(baseline.outputs[..], [OutputValue::Float(q)] if q == f64::INFINITY),
        "{:?}",
        baseline.outputs
    );
}

#[test]
fn eager_device_oom_is_a_typed_error_like_batched() {
    use acrobat_tensor::TensorError;
    use acrobat_vm::VmError;
    const MLP: &str = "def @main($w1: Tensor[(2, 2)], $w2: Tensor[(2, 2)], %x: Tensor[(1, 2)])
        -> Tensor[(1, 2)] { relu(matmul(relu(matmul(%x, $w1)), $w2)) }";
    let params = BTreeMap::from([
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
