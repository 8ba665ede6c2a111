//! StackRNN: a transition-based shift-reduce parser with RNN cells (the
//! paper replaces StackLSTM's LSTM cells with RNN cells, Table 3).
//!
//! Every step computes action logits from the parser state and takes the
//! `argmax` — genuine tensor-dependent control flow: the decision requires
//! the tensor's value, not a pseudo-random draw.  DyNet additionally lacks
//! a batched `argmax` kernel, executing it sequentially (§E.4).

use std::collections::BTreeMap;

use acrobat_baselines::dynet::{ComputationGraph, DynetConfig, NodeRef};
use acrobat_runtime::RuntimeStats;
use acrobat_tensor::{PrimOp, Tensor, TensorError};
use acrobat_vm::InputValue;

use crate::data::{self, Prng};
use crate::{all_tensors, hidden_for, ModelSize, ModelSpec, Properties};

/// The frontend program.
pub fn source(d: usize) -> String {
    let d2 = 2 * d;
    format!(
        r#"
def @cell(%s: Tensor[(1, {d})], %x: Tensor[(1, {d})],
          $cw: Tensor[({d2}, {d})], $cb: Tensor[(1, {d})]) -> Tensor[(1, {d})] {{
    tanh(add(matmul(concat[axis=1](%s, %x), $cw), $cb))
}}

def @parse(%buf: List[Tensor[(1, {d})]], %stack: List[Tensor[(1, {d})]],
           %state: Tensor[(1, {d})], %n: Int,
           $cw: Tensor[({d2}, {d})], $cb: Tensor[(1, {d})], $wa: Tensor[({d}, 2)])
    -> Tensor[(1, {d})] {{
    if %n <= 0 {{ %state }} else {{
        let %act = item(argmax_rows(matmul(%state, $wa)));
        if %act < 0.5 {{
            match %buf {{
                Cons(%tok, %rest) => {{
                    let %ns = @cell(%state, %tok, $cw, $cb);
                    @parse(%rest, Cons(%tok, %stack), %ns, %n - 1, $cw, $cb, $wa)
                }},
                Nil => match %stack {{
                    Cons(%top, %srest) => {{
                        let %ns = @cell(%state, %top, $cw, $cb);
                        @parse(%buf, %srest, %ns, %n - 1, $cw, $cb, $wa)
                    }},
                    Nil => %state
                }}
            }}
        }} else {{
            match %stack {{
                Cons(%top, %srest) => {{
                    let %ns = @cell(%state, %top, $cw, $cb);
                    @parse(%buf, %srest, %ns, %n - 1, $cw, $cb, $wa)
                }},
                Nil => match %buf {{
                    Cons(%tok, %rest) => {{
                        let %ns = @cell(%state, %tok, $cw, $cb);
                        @parse(%rest, Cons(%tok, %stack), %ns, %n - 1, $cw, $cb, $wa)
                    }},
                    Nil => %state
                }}
            }}
        }}
    }}
}}

def @main($cw: Tensor[({d2}, {d})], $cb: Tensor[(1, {d})], $wa: Tensor[({d}, 2)],
          $s0: Tensor[(1, {d})],
          %buf: List[Tensor[(1, {d})]], %n: Int) -> Tensor[(1, {d})] {{
    @parse(%buf, Nil, $s0, %n, $cw, $cb, $wa)
}}
"#
    )
}

/// Model parameters.
pub fn params(d: usize, seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = Prng::new(seed ^ 0x57ac, 999);
    BTreeMap::from([
        ("cw".into(), data::weight(&mut rng, 2 * d, d)),
        ("cb".into(), data::embedding(&mut rng, d)),
        ("wa".into(), data::weight(&mut rng, d, 2)),
        ("s0".into(), data::embedding(&mut rng, d)),
    ])
}

/// Builds the spec at an explicit hidden size.
pub fn spec_with(d: usize) -> ModelSpec {
    let params = params(d, 0x57);
    let dynet_params = params.clone();
    ModelSpec {
        name: "StackRNN",
        source: source(d),
        params: acrobat_tensor::Params::new(params),
        make_instances: Box::new(move |seed, batch| {
            (0..batch)
                .map(|i| {
                    let mut rng = Prng::new(seed, i);
                    let len = data::xnli_length(&mut rng);
                    vec![
                        data::sentence(&mut rng, len, d),
                        // 2·len parser steps (shift everything, reduce everything).
                        InputValue::Int(2 * len as i64),
                    ]
                })
                .collect()
        }),
        dynet_run: Some(Box::new(move |cfg, instances, _| {
            run_dynet(cfg.clone(), &dynet_params, instances)
        })),
        flatten_output: all_tensors,
        properties: Properties { iterative: true, tensor_dependent: true, ..Default::default() },
    }
}

/// The Table 3 configuration.
pub fn spec(size: ModelSize) -> ModelSpec {
    spec_with(hidden_for(size))
}

fn run_dynet(
    cfg: DynetConfig,
    params: &BTreeMap<String, Tensor>,
    instances: &[Vec<InputValue>],
) -> Result<(Vec<Vec<Tensor>>, RuntimeStats), TensorError> {
    acrobat_baselines::dynet::run_minibatch(
        cfg,
        instances.len(),
        |cg| {
            let mut by_name = BTreeMap::new();
            for (k, v) in params {
                by_name.insert(k.clone(), cg.parameter(v)?);
            }
            Ok(by_name)
        },
        |cg, p, i| {
            let mut tokens = Vec::new();
            instances[i][0].tensors(&mut tokens);
            let steps = match &instances[i][1] {
                InputValue::Int(n) => *n,
                other => panic!("{other:?}"),
            };
            let mut buf: Vec<NodeRef> =
                tokens.iter().map(|t| cg.input(t)).collect::<Result<_, _>>()?;
            buf.reverse(); // pop from the front via Vec::pop
            let mut stack: Vec<NodeRef> = Vec::new();
            let mut state = p["s0"];
            let cell = |cg: &mut ComputationGraph,
                        s: NodeRef,
                        x: NodeRef|
             -> Result<NodeRef, TensorError> {
                let cat = cg.apply(PrimOp::Concat { axis: 1 }, &[s, x])?;
                let mm = cg.apply(PrimOp::MatMul, &[cat, p["cw"]])?;
                let a = cg.apply(PrimOp::Add, &[mm, p["cb"]])?;
                cg.apply(PrimOp::Tanh, &[a])
            };
            for _ in 0..steps {
                let logits = cg.apply(PrimOp::MatMul, &[state, p["wa"]])?;
                // Unbatchable vendor argmax + forced value (true TDC).
                let am = cg.apply(PrimOp::ArgmaxRows, &[logits])?;
                let act = cg.forward(am)?.data()[0];
                let shift = act < 0.5;
                let (next, push_tok) = if shift {
                    match buf.pop() {
                        Some(tok) => (tok, true),
                        None => match stack.pop() {
                            Some(top) => (top, false),
                            None => break,
                        },
                    }
                } else {
                    match stack.pop() {
                        Some(top) => (top, false),
                        None => match buf.pop() {
                            Some(tok) => (tok, true),
                            None => break,
                        },
                    }
                };
                state = cell(cg, state, next)?;
                if push_tok {
                    stack.push(next);
                }
            }
            Ok(vec![state])
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::check_acrobat_vs_dynet;

    #[test]
    fn acrobat_and_dynet_agree() {
        check_acrobat_vs_dynet(&spec_with(4), 3, 0x57AC);
    }

    #[test]
    fn dynet_argmax_runs_sequentially() {
        let spec = spec_with(4);
        let instances = (spec.make_instances)(0x9, 4);
        let (_, stats) =
            (spec.dynet_run.as_ref().unwrap())(&DynetConfig::default(), &instances, 0).unwrap();
        // With 4 instances and per-step argmaxes, launches far exceed what a
        // batched framework would need.
        assert!(stats.kernel_launches > 40, "launches: {}", stats.kernel_launches);
    }
}
