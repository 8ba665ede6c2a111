//! End-to-end reproduction of the paper's Fig. 4 scenario: a conditional
//! where only some instances execute `opA` before the common `opB`.
//! Without ghost operators, eager depth batching splits `opB` into two
//! launches; with ghost operators the short branch is padded and all
//! instances' `opB` execute as one batch.

use acrobat_core::{compile, CompileOptions, InputValue, Params, Tensor};

const SOURCE: &str = r#"
    def @main($wa: Tensor[(8, 8)], $wb: Tensor[(8, 8)], %x: Tensor[(1, 8)], %c: Bool)
        -> Tensor[(1, 8)] {
        let %t1 = if %c { tanh(matmul(%x, $wa)) } else { %x };
        sigmoid(matmul(%t1, $wb))
    }
"#;

fn run(ghosts: bool, batch: usize) -> acrobat_core::RuntimeStats {
    let mut options = CompileOptions::default();
    options.analysis.ghost_ops = ghosts;
    let model = compile(SOURCE, &options).unwrap();
    let params = Params::from([
        ("wa".to_string(), Tensor::from_fn(&[8, 8], |i| ((i % 5) as f32 - 2.0) * 0.1)),
        ("wb".to_string(), Tensor::from_fn(&[8, 8], |i| ((i % 7) as f32 - 3.0) * 0.1)),
    ]);
    // Half the instances take the opA path.
    let instances: Vec<Vec<InputValue>> = (0..batch)
        .map(|i| {
            vec![
                InputValue::Tensor(Tensor::fill(&[1, 8], i as f32 * 0.1)),
                InputValue::Bool(i % 2 == 0),
            ]
        })
        .collect();
    model.run(&params, &instances).unwrap().stats
}

#[test]
fn ghost_operators_merge_the_opb_batch() {
    let batch = 8;
    let with = run(true, batch);
    let without = run(false, batch);
    // Fig. 4: without ghosts, opB executes in two batches (depth 0 for the
    // short-branch instances, depth 1 for the long-branch ones) — 3 total
    // launches; with ghosts, opA then one merged opB — 2 launches.
    assert_eq!(with.kernel_launches, 2, "ghosts: opA batch + one opB batch");
    assert_eq!(without.kernel_launches, 3, "no ghosts: opB splits");
}

#[test]
fn ghost_operators_do_not_change_results() {
    let batch = 6;
    let params = Params::from([
        ("wa".to_string(), Tensor::from_fn(&[8, 8], |i| ((i % 5) as f32 - 2.0) * 0.1)),
        ("wb".to_string(), Tensor::from_fn(&[8, 8], |i| ((i % 7) as f32 - 3.0) * 0.1)),
    ]);
    let instances: Vec<Vec<InputValue>> = (0..batch)
        .map(|i| {
            vec![
                InputValue::Tensor(Tensor::fill(&[1, 8], i as f32 * 0.1 - 0.2)),
                InputValue::Bool(i % 3 == 0),
            ]
        })
        .collect();
    let mut outs = Vec::new();
    for ghosts in [true, false] {
        let mut options = CompileOptions::default();
        options.analysis.ghost_ops = ghosts;
        let model = compile(SOURCE, &options).unwrap();
        let r = model.run(&params, &instances).unwrap();
        outs.push(r.outputs.iter().map(|o| o.tensors()[0].clone()).collect::<Vec<_>>());
    }
    for (a, b) in outs[0].iter().zip(&outs[1]) {
        assert!(a.allclose(b, 1e-6));
    }
}
