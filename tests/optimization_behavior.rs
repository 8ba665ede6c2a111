//! Integration tests pinning down the *batching behaviour* each paper
//! optimization produces — not just that results are unchanged, but that
//! the launches land where the paper says they land.

use acrobat_core::{compile, CompileOptions, InputValue, Params, Tensor};

const RNN: &str = r#"
    def @rnn(%inps: List[Tensor[(1, 8)]], %state: Tensor[(1, 8)],
             $bias: Tensor[(1, 8)], $i_wt: Tensor[(8, 8)], $h_wt: Tensor[(8, 8)])
        -> List[Tensor[(1, 8)]] {
        match %inps {
            Nil => Nil,
            Cons(%inp, %tail) => {
                let %inp_linear = add($bias, matmul(%inp, $i_wt));
                let %new_state = sigmoid(add(%inp_linear, matmul(%state, $h_wt)));
                Cons(%new_state, @rnn(%tail, %new_state, $bias, $i_wt, $h_wt))
            }
        }
    }
    def @main($bias: Tensor[(1, 8)], $i_wt: Tensor[(8, 8)], $h_wt: Tensor[(8, 8)],
              $init: Tensor[(1, 8)], $c_wt: Tensor[(8, 4)],
              %inps: List[Tensor[(1, 8)]]) -> List[Tensor[(1, 4)]] {
        let %states = @rnn(%inps, $init, $bias, $i_wt, $h_wt);
        map(fn(%p) { relu(matmul(%p, $c_wt)) }, %states)
    }
"#;

fn rnn_setup(lens: &[usize]) -> (Params, Vec<Vec<InputValue>>) {
    let params = Params::from([
        ("bias".into(), Tensor::from_fn(&[1, 8], |i| 0.01 * i as f32)),
        ("i_wt".into(), Tensor::from_fn(&[8, 8], |i| ((i % 5) as f32 - 2.0) * 0.1)),
        ("h_wt".into(), Tensor::from_fn(&[8, 8], |i| ((i % 7) as f32 - 3.0) * 0.08)),
        ("init".into(), Tensor::zeros(&[1, 8])),
        ("c_wt".into(), Tensor::from_fn(&[8, 4], |i| (i as f32 - 16.0) * 0.02)),
    ]);
    let instances = lens
        .iter()
        .enumerate()
        .map(|(inst, &len)| {
            let items = (0..len)
                .map(|t| {
                    InputValue::Tensor(Tensor::from_fn(&[1, 8], |i| {
                        ((inst * 13 + t * 5 + i) % 11) as f32 * 0.1 - 0.5
                    }))
                })
                .collect();
            vec![InputValue::list(items)]
        })
        .collect();
    (params, instances)
}

/// §B.1: with hoisting, the input linear transform of *every token of every
/// instance* executes as one batched launch (the paper's RNN example).
#[test]
fn hoisting_batches_all_input_transforms_into_one_launch() {
    let (params, instances) = rnn_setup(&[3, 5, 2, 4]);
    let run = |hoisting: bool| {
        let mut o = CompileOptions::default();
        o.analysis.hoisting = hoisting;
        compile(RNN, &o).unwrap().run(&params, &instances).unwrap().stats
    };
    let with = run(true);
    let without = run(false);
    assert!(
        with.kernel_launches < without.kernel_launches,
        "hoisting reduces launches: {} vs {}",
        with.kernel_launches,
        without.kernel_launches
    );
    // The hoisted fused (matmul+add) kernel runs exactly once for all
    // 3+5+2+4 = 14 tokens; without hoisting it runs once per distinct
    // recursion depth (5, the longest sentence).
    assert_eq!(without.kernel_launches - with.kernel_launches, 4);
}

/// §4.1/§B.3: with phases, the per-token output classifiers of
/// different-length sentences execute as one batch.
#[test]
fn phases_merge_output_classifiers() {
    let (params, instances) = rnn_setup(&[2, 6, 3, 5]);
    let run = |phases: bool| {
        let mut o = CompileOptions::default();
        o.analysis.phases = phases;
        compile(RNN, &o).unwrap().run(&params, &instances).unwrap().stats
    };
    let with = run(true);
    let without = run(false);
    assert!(
        with.kernel_launches < without.kernel_launches,
        "phases reduce launches: {} vs {}",
        with.kernel_launches,
        without.kernel_launches
    );
}

/// §4.2: a fiber-mode flush failure (simulated OOM) surfaces as an error on
/// every instance instead of deadlocking the fiber pool.
#[test]
fn fiber_mode_oom_poisons_instead_of_deadlocking() {
    let src = r#"
        def @go(%x: Tensor[(1, 64)], %n: Int, $w: Tensor[(64, 64)]) -> Tensor[(1, 64)] {
            if %n <= 0 { %x } else {
                let %y = tanh(matmul(%x, $w));
                if sample(%y) < 2.0 { @go(%y, %n - 1, $w) } else { %y }
            }
        }
        def @main($w: Tensor[(64, 64)], %x: Tensor[(1, 64)]) -> Tensor[(1, 64)] {
            @go(%x, 50, $w)
        }
    "#;
    let mut o = CompileOptions::default();
    // Enough memory for the weights and a few steps, not for 50 × 8.
    o.runtime.device_memory = 64 * 64 + 64 * 40;
    let model = compile(src, &o).unwrap();
    let params = Params::from([(
        "w".to_string(),
        Tensor::from_fn(&[64, 64], |i| ((i % 5) as f32 - 2.0) * 0.05),
    )]);
    let instances: Vec<Vec<InputValue>> =
        (0..8).map(|i| vec![InputValue::Tensor(Tensor::fill(&[1, 64], 0.01 * i as f32))]).collect();
    let started = std::time::Instant::now();
    let result = model.run(&params, &instances);
    assert!(result.is_err(), "must fail, not hang");
    assert!(started.elapsed().as_secs() < 30, "no deadlock");
}

/// Gather fusion (§5.2): with it, no gather traffic at all; without it,
/// gathers happen only for genuinely scattered operands, and contiguous
/// batches (outputs of earlier batched launches) skip the copy — the §7.3
/// contiguity observation.
#[test]
fn gather_fusion_and_contiguity_accounting() {
    let (params, instances) = rnn_setup(&[4, 4, 4, 4]);
    let run = |fusion: bool| {
        let mut o = CompileOptions::default();
        o.runtime.gather_fusion = fusion;
        compile(RNN, &o).unwrap().run(&params, &instances).unwrap().stats
    };
    let fused = run(true);
    assert_eq!(fused.gather_bytes, 0);
    assert_eq!(fused.gather_copies, 0);
    let gathered = run(false);
    assert!(gathered.gather_copies > 0, "scattered operands must be staged");
    assert!(
        gathered.contiguous_hits > 0,
        "outputs of batched launches are contiguous and skip the copy"
    );
    // Results identical either way.
    assert_eq!(fused.kernel_launches, gathered.kernel_launches);
}

/// Grain-size coarsening (§B.2) reduces charged scheduling-unit overheads
/// without changing launches or results.
#[test]
fn coarsening_reduces_overheads_only() {
    let (params, instances) = rnn_setup(&[3, 5, 4, 2]);
    let run = |coarsen: bool| {
        let mut o = CompileOptions::default();
        o.analysis.coarsen = coarsen;
        o.runtime.coarsen = coarsen;
        compile(RNN, &o).unwrap().run(&params, &instances).unwrap().stats
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on.kernel_launches, off.kernel_launches);
    assert!(on.dfg_construction_us < off.dfg_construction_us);
    assert!(on.scheduling_us <= off.scheduling_us);
}
