//! Differential fuzzing for the auto-batching runtime.
//!
//! Two seeded generators, shared by the `differential_fuzz` integration
//! test and the `fuzz` binary:
//!
//! * [`FuzzCase`] — random small IR programs (straight-line `let` chains
//!   over relu/sigmoid/tanh/add/mul/matmul/concat), compiled and executed
//!   through the full pipeline under every scheduler/ablation combination
//!   in checked mode, and compared **bit-for-bit** against a host-side
//!   reference evaluator, unbatched eager execution, and the DyNet-sim
//!   baseline;
//! * [`dag_outputs`] — random DAG workloads driven directly through
//!   [`Runtime::add_unit`] with random cross-instance dependences and two
//!   shared-operand signatures, exercising the schedulers on graph shapes
//!   the frontend never emits, under every [`dag_config_matrix`] entry.
//!
//! Bit-for-bit equality is the soundness bar: batched execution must be
//! *semantically invisible* (DESIGN.md), so `1e-6`-style tolerances would
//! hide real scheduling bugs.

use std::collections::BTreeMap;

use acrobat_analysis::{analyze, AnalysisOptions, ArgClass};
use acrobat_baselines::dynet::{run_minibatch, DynetConfig, NodeRef};
use acrobat_codegen::KernelLibrary;
use acrobat_core::{compile, CompileOptions};
use acrobat_ir::{parse_module, typeck};
use acrobat_runtime::{DeviceModel, Engine, RuntimeOptions, SchedulerKind, ValueId};
use acrobat_tensor::{execute, Params, PrimOp, Tensor, TensorError};
use acrobat_vm::InputValue;

/// splitmix64 — the workspace's standard seeded PRNG recurrence.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A value in roughly [-1, 1] with two decimal digits (exact in f32).
    fn unit(&mut self) -> f32 {
        (self.below(201) as f32 - 100.0) / 100.0
    }
}

/// The bit patterns of `ts`, for bit-for-bit comparison.
pub fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
}

/// One straight-line op over previously defined values (index 0 is `%x`).
enum GenOp {
    /// `op(%a)` for relu/sigmoid/tanh.
    Unary(PrimOp, usize),
    /// `op(%a, %b)` for add/mul.
    Bin(PrimOp, usize, usize),
    /// `matmul(%a, $w{1,2})`.
    MatW(usize, usize),
    /// `matmul(concat[axis=1](%a, %b), $wc)`.
    ConcatMat(usize, usize),
}

/// A generated IR program plus everything needed to run and check it.
pub struct FuzzCase {
    /// The frontend source of `@main`.
    pub source: String,
    /// Model parameters (`$`-bindings).
    pub params: Params,
    /// Per-instance inputs for [`acrobat_core::compile`]d models.
    pub instances: Vec<Vec<InputValue>>,
    ops: Vec<GenOp>,
    xs: Vec<Tensor>,
    dim: usize,
}

impl std::fmt::Debug for FuzzCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuzzCase")
            .field("dim", &self.dim)
            .field("ops", &self.ops.len())
            .field("instances", &self.xs.len())
            .finish()
    }
}

fn var(j: usize) -> String {
    if j == 0 {
        "%x".into()
    } else {
        format!("%v{j}")
    }
}

impl FuzzCase {
    /// Generates the case for one seed (deterministic).
    pub fn generate(seed: u64) -> FuzzCase {
        let mut r = Rng::new(seed);
        let dim = 2 + r.below(3);
        let n_ops = 1 + r.below(6);
        let mut ops = Vec::with_capacity(n_ops);
        for k in 0..n_ops {
            let a = r.below(k + 1);
            let b = r.below(k + 1);
            ops.push(match r.below(7) {
                0 => GenOp::Unary(PrimOp::Relu, a),
                1 => GenOp::Unary(PrimOp::Sigmoid, a),
                2 => GenOp::Unary(PrimOp::Tanh, a),
                3 => GenOp::Bin(PrimOp::Add, a, b),
                4 => GenOp::Bin(PrimOp::Mul, a, b),
                5 => GenOp::MatW(r.below(2), a),
                _ => GenOp::ConcatMat(a, b),
            });
        }

        let mut params = BTreeMap::new();
        let mut sig = Vec::new();
        for w in 0..2 {
            if ops.iter().any(|o| matches!(o, GenOp::MatW(i, _) if *i == w)) {
                sig.push(format!("$w{}: Tensor[({dim}, {dim})]", w + 1));
                params.insert(
                    format!("w{}", w + 1),
                    Tensor::from_fn(&[dim, dim], |i| {
                        ((i * 13 + w * 7 + seed as usize) % 21) as f32 / 20.0 - 0.5
                    }),
                );
            }
        }
        if ops.iter().any(|o| matches!(o, GenOp::ConcatMat(..))) {
            sig.push(format!("$wc: Tensor[({}, {dim})]", 2 * dim));
            params.insert(
                "wc".into(),
                Tensor::from_fn(&[2 * dim, dim], |i| {
                    ((i * 11 + seed as usize) % 17) as f32 / 16.0 - 0.5
                }),
            );
        }
        sig.push(format!("%x: Tensor[(1, {dim})]"));

        let mut body = String::new();
        for (k, op) in ops.iter().enumerate() {
            let expr = match op {
                GenOp::Unary(p, a) => format!("{}({})", p.name(), var(*a)),
                GenOp::Bin(p, a, b) => format!("{}({}, {})", p.name(), var(*a), var(*b)),
                GenOp::MatW(w, a) => format!("matmul({}, $w{})", var(*a), w + 1),
                GenOp::ConcatMat(a, b) => {
                    format!("matmul(concat[axis=1]({}, {}), $wc)", var(*a), var(*b))
                }
            };
            body.push_str(&format!("    let %v{} = {expr};\n", k + 1));
        }
        body.push_str(&format!("    %v{n_ops}\n"));
        let source = format!("def @main({}) -> Tensor[(1, {dim})] {{\n{body}}}\n", sig.join(", "));

        let batch = 2 + r.below(4);
        let xs: Vec<Tensor> =
            (0..batch).map(|_| Tensor::from_fn(&[1, dim], |_| r.unit())).collect();
        let instances = xs.iter().map(|x| vec![InputValue::Tensor(x.clone())]).collect();
        FuzzCase { source, params: Params::new(params), instances, ops, xs, dim }
    }

    /// Evaluates every instance with the host reference executor
    /// ([`acrobat_tensor::execute`]) — no DFG, no scheduler, no device.
    pub fn host_reference(&self) -> Vec<Tensor> {
        self.xs
            .iter()
            .map(|x| {
                let mut vals = vec![x.clone()];
                for op in &self.ops {
                    let t = match op {
                        GenOp::Unary(p, a) => execute(p, &[&vals[*a]]),
                        GenOp::Bin(p, a, b) => execute(p, &[&vals[*a], &vals[*b]]),
                        GenOp::MatW(w, a) => execute(
                            &PrimOp::MatMul,
                            &[&vals[*a], &self.params[format!("w{}", w + 1).as_str()]],
                        ),
                        GenOp::ConcatMat(a, b) => {
                            let c = execute(&PrimOp::Concat { axis: 1 }, &[&vals[*a], &vals[*b]])
                                .expect("reference concat");
                            execute(&PrimOp::MatMul, &[&c, &self.params["wc"]])
                        }
                    }
                    .expect("reference op");
                    vals.push(t);
                }
                vals.pop().unwrap()
            })
            .collect()
    }

    /// Compiles and runs the program under `options`, returning one output
    /// tensor per instance.
    ///
    /// # Errors
    ///
    /// Returns compile/runtime errors as strings.
    pub fn run_acrobat(&self, options: &CompileOptions) -> Result<Vec<Tensor>, String> {
        let model = compile(&self.source, options).map_err(|e| e.to_string())?;
        let r = model.run(&self.params, &self.instances).map_err(|e| e.to_string())?;
        Ok(r.outputs.iter().map(|o| o.tensors()[0].clone()).collect())
    }

    /// Replays the same op sequence through the DyNet-sim computation
    /// graph, returning one output tensor per instance.
    ///
    /// # Errors
    ///
    /// Propagates device and kernel errors.
    pub fn run_dynet(&self) -> Result<Vec<Tensor>, TensorError> {
        let (outs, _) = run_minibatch(
            DynetConfig::default(),
            self.xs.len(),
            |cg| {
                let mut ws: BTreeMap<String, NodeRef> = BTreeMap::new();
                for (name, t) in &self.params {
                    ws.insert(name.clone(), cg.parameter(t)?);
                }
                Ok(ws)
            },
            |cg, ws, i| {
                let mut vals = vec![cg.input(&self.xs[i])?];
                for op in &self.ops {
                    let n = match op {
                        GenOp::Unary(p, a) => cg.apply(p.clone(), &[vals[*a]])?,
                        GenOp::Bin(p, a, b) => cg.apply(p.clone(), &[vals[*a], vals[*b]])?,
                        GenOp::MatW(w, a) => {
                            cg.apply(PrimOp::MatMul, &[vals[*a], ws[&format!("w{}", w + 1)]])?
                        }
                        GenOp::ConcatMat(a, b) => {
                            let c = cg.apply(PrimOp::Concat { axis: 1 }, &[vals[*a], vals[*b]])?;
                            cg.apply(PrimOp::MatMul, &[c, ws["wc"]])?
                        }
                    };
                    vals.push(n);
                }
                Ok(vec![*vals.last().unwrap()])
            },
        )?;
        Ok(outs.into_iter().map(|mut v| v.remove(0)).collect())
    }
}

/// The scheduler/ablation matrix every fuzz case runs under: every
/// scheduler × gather-fusion × coarsening × {plan cache off, on}, all in
/// checked mode, plus the unbatched eager configuration (also checked,
/// both cache settings) — 18 entries.  The plan-cache axis must be
/// bit-for-bit invisible — and because every configuration is checked,
/// every cache hit the fuzzer produces passes the cached ≡
/// freshly-scheduled bit-identity gate
/// (`acrobat_runtime::check::validate_cached_plan`).
///
/// There is no kernel-executor axis, and none is needed: checked mode
/// re-executes every compiled launch through the reference interpreter,
/// compares the output bits and leaves the interpreter's bits in memory,
/// so each configuration's run is the interpreter's run plus one
/// comparison per launch.
pub fn config_matrix() -> Vec<(String, CompileOptions)> {
    let mut out = Vec::new();
    for scheduler in SchedulerKind::ALL {
        for gather_fusion in [false, true] {
            for coarsen in [false, true] {
                for plan_cache in [false, true] {
                    let mut o = CompileOptions::default().with_checked(true);
                    o.runtime.scheduler = scheduler;
                    o.runtime.gather_fusion = gather_fusion;
                    o.runtime.coarsen = coarsen;
                    o.runtime.plan_cache = plan_cache;
                    out.push((
                        format!("{scheduler:?}/gf={gather_fusion}/co={coarsen}/pc={plan_cache}"),
                        o,
                    ));
                }
            }
        }
    }
    for plan_cache in [false, true] {
        let mut eager = CompileOptions::default().with_checked(true);
        eager.runtime.eager = true;
        eager.runtime.plan_cache = plan_cache;
        out.push((format!("eager/pc={plan_cache}"), eager));
    }
    out
}

/// The runtime configurations every [`dag_outputs`] workload runs under,
/// each compared against checked eager execution: every scheduler ×
/// gather-fusion × plan cache {off, on}, all in checked mode (so, as in
/// [`config_matrix`], every launch is also held to the interpreter).
pub fn dag_config_matrix() -> Vec<(String, RuntimeOptions)> {
    let mut out = Vec::new();
    for scheduler in SchedulerKind::ALL {
        for gather_fusion in [false, true] {
            for plan_cache in [false, true] {
                out.push((
                    format!("{scheduler:?}/gf={gather_fusion}/pc={plan_cache}"),
                    RuntimeOptions {
                        scheduler,
                        gather_fusion,
                        checked: true,
                        plan_cache,
                        ..RuntimeOptions::default()
                    },
                ));
            }
        }
    }
    out
}

/// Runs one random DAG workload directly through
/// [`acrobat_runtime::ExecutionContext::add_unit`]:
/// one kernel, two shared-operand signatures (two resident weights),
/// random dependences between nodes (depth = max dependency depth + 1),
/// returning every node's output tensor in creation order.
///
/// All nodes build first and flush together — except under
/// `options.eager`, which flushes after every node, mirroring the VM
/// driver's eager mode.
///
/// # Errors
///
/// Propagates device and kernel errors.
pub fn dag_outputs(seed: u64, options: &RuntimeOptions) -> Result<Vec<Tensor>, TensorError> {
    const SRC: &str = "def @main($w: Tensor[(3, 3)], %x: Tensor[(1, 3)]) -> Tensor[(1, 3)] {
        relu(matmul(%x, $w))
    }";
    let m = typeck::check_module(parse_module(SRC).expect("dag src parses"))
        .expect("dag src typechecks");
    let a = std::sync::Arc::new(analyze(m, AnalysisOptions::default()).expect("dag src analyzes"));
    let lib = KernelLibrary::build(&a);
    let engine = std::sync::Arc::new(Engine::new(a.clone(), lib, DeviceModel::default(), *options));
    let mut rt = engine.new_context();
    let group = a.blocks.blocks[0].groups[0].id;
    let kernel = rt.library().kernel_for_group(group).clone();

    let mut r = Rng::new(seed);
    let weights: Vec<ValueId> = (0..2)
        .map(|w| {
            let t = Tensor::from_fn(&[3, 3], |i| ((i * 7 + w * 3 + 1) % 13) as f32 / 12.0 - 0.5);
            let dev = rt.mem_mut().upload(&t).expect("weight upload");
            rt.ready_value(dev)
        })
        .collect();

    let n = 4 + r.below(8);
    let mut nodes: Vec<(ValueId, u64)> = Vec::with_capacity(n);
    for i in 0..n {
        let (input, depth) = if nodes.is_empty() || r.below(3) == 0 {
            let x = Tensor::from_fn(&[1, 3], |_| r.unit());
            (rt.upload_inputs(&[&x])?, 0)
        } else {
            let j = r.below(nodes.len());
            (nodes[j].0, nodes[j].1 + 1)
        };
        let shared = weights[r.below(2)];
        let args: Vec<ValueId> = kernel
            .inputs
            .iter()
            .map(|inp| match inp.class {
                ArgClass::Batched => input,
                ArgClass::Shared => shared,
            })
            .collect();
        let out = rt.add_unit(group, i, depth, 0, args, true)[0];
        nodes.push((out, depth));
        if options.eager {
            rt.flush()?;
        }
    }
    rt.flush()?;
    nodes.iter().map(|(v, _)| rt.download(*v)).collect()
}
